"""Self-tests of the benchmark: its gates must catch what they claim to.

  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH, ROOT, SRC, load_refs

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from kzsolve import ansatz, exactalg, frobenius, numverify, s4explicit  # noqa: E402
from kzsolve.exactalg import GaussianRational, Vector  # noqa: E402

from clicold import CliCold  # noqa: E402
from inproc import SeriesItem, SeriesSpectrum, ShapeItem, SolveShapes, VerifySweep  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from worker import run_ops  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return load_refs()


def _shape_item(wl, n, rho, kind, si=0):
    entry, system = wl.pool[(n, rho, kind)][0]
    return ShapeItem(entry, system, si)


def test_reference_outputs_pass(refs):
    wl = SolveShapes(refs)
    lat, _, failures, _ = run_ops(wl, [_shape_item(wl, 4, -1, "int", si) for si in range(3)])
    assert len(lat) == 3 and failures == []


def test_changed_exact_output_is_a_failed_op(refs, monkeypatch):
    """A still-valid but different basis (one element doubled) must fail the digest gate."""
    real = ansatz.solve_ansatz

    def doubled_first(system, pole_order=1, poly_degree=1):
        basis = real(system, pole_order, poly_degree)
        return [basis[0].scale(2), *basis[1:]]

    monkeypatch.setattr(ansatz, "solve_ansatz", doubled_first)
    wl = SolveShapes(refs)
    lat, _, failures, _ = run_ops(wl, [_shape_item(wl, 4, -1, "int")])
    assert len(lat) == 1 and len(failures) == 1
    assert "differs from the reference" in failures[0]


def test_changed_cli_report_is_a_failed_op(refs):
    wl = CliCold(refs)
    item = wl.make_item("eigen", None)
    report = {"overall": "pass", "spectrum": {"7": 1, "6": 6, "-1": 1}, "extra": 1}
    proc = subprocess.CompletedProcess(item.argv, 0, stdout=json.dumps(report), stderr="")
    problems = wl.check(item, proc)
    assert len(problems) == 1 and "differs from the reference" in problems[0]


def test_accepted_corrupted_candidate_is_a_failed_op(refs, monkeypatch):
    """If the verifier accepted everything, the negative control must fail the op."""

    def accept_all(system, fn):
        zero = Vector.zero(system.n)
        return ansatz.ConditionReport((zero,) * system.s, (zero,) * system.s, zero)

    monkeypatch.setattr(ansatz, "check_conditions", accept_all)
    monkeypatch.setattr(ansatz, "residual", lambda system, fn, z: Vector.zero(system.n))
    wl = VerifySweep(refs)
    lat, _, failures, _ = run_ops(wl, wl.items[:1])
    assert len(lat) == 1 and len(failures) == 1
    assert "corrupted candidate accepted" in failures[0]


class _Hanging:
    timeout = 0.2

    def run(self, item):
        while item == "hang":
            pass
        return item

    def check(self, item, result):
        return []


def test_timeout_is_a_failed_op_and_the_run_goes_on():
    lat, _, failures, _ = run_ops(_Hanging(), ["hang", "ok"])
    assert len(lat) == 2
    assert len(failures) == 1 and failures[0].startswith("OpTimeout")


def test_tracer_wraps_every_binding_and_restores():
    originals = (exactalg.nullspace, ansatz.solve_ansatz, GaussianRational.__dict__["__radd__"])
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (exactalg, ansatz, frobenius):
            assert mod.nullspace.__wrapped__ is originals[0]
        assert numverify.solve_ansatz is ansatz.solve_ansatz
        assert ansatz.solve_ansatz.__wrapped__ is originals[1]
        assert GaussianRational.__dict__["__radd__"] is not originals[2]
        assert s4explicit.y1.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert exactalg.nullspace is frobenius.nullspace is originals[0]
    assert ansatz.solve_ansatz is numverify.solve_ansatz is originals[1]
    assert GaussianRational.__dict__["__radd__"] is originals[2]


def _traced_counts(refs):
    verify, series = VerifySweep(refs), SeriesSpectrum(refs)
    entry, system = series.pool[(4, -1, "int")][0]
    tracer = Tracer()
    tracer.install()
    try:
        failures = run_ops(verify, verify.items[:2], tracer=tracer)[2]
        failures += run_ops(series, [SeriesItem(entry, system, 1, 4), SeriesItem(None, None, 0, 5)], tracer=tracer)[2]
    finally:
        tracer.uninstall()
    assert failures == []
    metrics = tracer.metrics(1.0, 0.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def test_traced_counters_repeat_exactly(refs):
    first, second = _traced_counts(refs), _traced_counts(refs)
    assert first == second
    for name in (
        "exactalg.scalar_mul.calls",
        "exactalg.scalar_add.calls",
        "exactalg.matvec.calls",
        "exactalg.determinant.calls",
        "exactalg.nullspace.calls",
        "exactalg.char_poly.calls",
        "ansatz.check_conditions.calls",
        "s4explicit.build.calls",
        "frobenius.frobenius_solve.calls",
        "symrep.t_spectrum.calls",
    ):
        assert first[name] > 0, name
    assert first["exactalg.errors"] == 0


def test_benchmark_json_lists_the_tracer_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(PER_LAYER)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
