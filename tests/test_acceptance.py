"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime against the stated budget. Exact checks tolerate nothing;
floating checks use the stated thresholds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import random
import time
from contextlib import contextmanager

from conftest import (
    float_residual_scan,
    generic_points,
    laurent_of_rational,
    random_points,
    recursion_defect,
)
from kzsolve.ansatz import (
    RationalVectorFunction,
    check_conditions,
    in_span,
    residual,
    solve_ansatz,
)
from kzsolve.cli import main as cli_main
from kzsolve.exactalg import GaussianRational, Vector
from kzsolve.frobenius import exponent_window
from kzsolve.kzcore import new_system
from kzsolve.numverify import monodromy
from kzsolve.s4explicit import independence_certificate, y1, y2, y3, y4
from kzsolve.symrep import t_spectrum

CANON = [0, 1, 2]


@contextmanager
def budget(name: str, seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {seconds}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget: {elapsed:.2f}s"


def _probe(pts):
    bound = max(int(GaussianRational.coerce(p).abs_bound()) for p in pts) + 3
    return GaussianRational(bound)


def test_criterion_1_exact_solution_verification():
    """100 random exact configurations: all four explicit solutions satisfy
    the three conditions and have exactly zero residual."""
    rng = random.Random(11)
    with budget("1 exact solution verification", 10.0):
        for _ in range(100):
            pts = random_points(rng)
            sys = new_system(4, -1, pts)
            probe = _probe(pts)
            for build in (y1, y2, y3, y4):
                fn = build(pts)
                assert check_conditions(sys, fn).passed
                assert residual(sys, fn, probe).is_zero()
                assert residual(sys, fn, probe + GaussianRational(1)).is_zero()


def test_criterion_2_spectrum():
    """Integer spectrum of the generator sum for n = 3..8."""
    with budget("2 spectrum", 1.0):
        for n in range(3, 9):
            spec = t_spectrum(n)
            for v in (n - 1, n - 2, -1):
                assert v in spec.eigenvalues
            assert spec.least == -1
            assert spec.greatest == n - 1
            assert sum(spec.eigenvalues.values()) == n


def test_criterion_3_difference_identities():
    """Cyclic pole-difference identities vanish exactly at 100 random
    configurations."""
    rng = random.Random(13)
    with budget("3 difference identities", 1.0):
        for _ in range(100):
            z1, z2, z3 = random_points(rng)
            b1, b2, b3 = z2 - z3, z3 - z1, z1 - z2
            assert ((b1 + b2) / (z1 - z2) + (b1 + b3) / (z1 - z3)).is_zero()
            assert ((b1 + b2) / (z2 - z1) + (b2 + b3) / (z2 - z3)).is_zero()


def test_criterion_4_local_series_consistency():
    """Laurent coefficients of every explicit solution satisfy the local
    recursion with exactly zero defect through order 4; the exponent
    window at every pole is (-1, 1)."""
    rng = random.Random(14)
    with budget("4 local series consistency", 5.0):
        for pts in [CANON, random_points(rng), random_points(rng), random_points(rng)]:
            sys = new_system(4, -1, pts)
            for k in (1, 2, 3):
                assert exponent_window(sys, k) == (-1, 1)
                for build in (y1, y2, y3, y4):
                    series = laurent_of_rational(build(pts), k, 4)
                    for t in range(series.start, 5):
                        assert recursion_defect(sys, series, t).is_zero()


def test_criterion_5_fundamentality():
    """Nonzero exact determinant at a probe point for 100 random generic
    configurations; the shape solver finds exactly four independent
    solutions whose span contains each explicit one.

    Genericity means staying off the locus 2*z2 = z1 + z3, where the
    third and fourth explicit columns are provably proportional and no
    probe can certify independence (the solution space itself remains
    four-dimensional there, which the solver run at the canonical
    degenerate configuration demonstrates).
    """
    rng = random.Random(15)
    with budget("5 fundamentality", 30.0):
        for _ in range(100):
            pts = generic_points(rng)
            cert = independence_certificate(pts)
            assert cert.ok
            assert not cert.det.is_zero()
        for _ in range(25):
            pts = generic_points(rng)
            sys = new_system(4, -1, pts)
            basis = solve_ansatz(sys)
            assert len(basis) == 4
            for build in (y1, y2, y3, y4):
                assert in_span(basis, build(pts))
        degenerate = new_system(4, -1, CANON)
        assert len(solve_ansatz(degenerate)) == 4


def test_criterion_6_monodromy():
    """Numerical loop transport of a fundamental matrix around each pole
    deviates from the identity by < 1e-8 at integrator tolerance 1e-12."""
    sys = new_system(4, -1, CANON)
    with budget("6 monodromy", 10.0):
        for k in (1, 2, 3):
            res = monodromy(sys, k, 0.4, 1e-12)
            assert res.deviation < 1e-8, f"pole {k}: deviation {res.deviation}"


def test_criterion_7_negative_controls(tmp_path, capsys):
    """Every single-entry residue corruption trips the exact conditions,
    raises the floating scan above 0.1, and flips the CLI exit code to 1."""
    sys = new_system(4, -1, CANON)
    fn = y2(CANON)
    with budget("7 negative controls", 5.0):
        for k in range(3):
            for i in range(4):
                res = list(fn.residues)
                res[k] = res[k] + Vector.unit(4, i)
                bad = RationalVectorFunction.simple(sys.points, res)
                assert not check_conditions(sys, bad).passed
                assert float_residual_scan(sys, bad, 32) > 0.1
        # CLI path: corrupt one entry of a serialized solution
        code = cli_main(["nullspace", "--n", "4", "--rho", "-1", "--points", "0,1,2"])
        out = capsys.readouterr().out
        assert code == 0
        sol = json.loads(out)["basis"][0]
        sol["pole_coefficients"][1][0][2] = "9/7"
        bad_file = tmp_path / "corrupted.json"
        bad_file.write_text(json.dumps(sol))
        code = cli_main(
            ["verify", "--n", "4", "--rho", "-1", "--points", "0,1,2",
             "--solution", f"file:{bad_file}"]
        )
        capsys.readouterr()
        assert code == 1


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    """Solver basis survives the file round-trip through verify, and
    exact-mode reports are byte-identical across runs."""
    args = ["--n", "4", "--rho", "-1", "--points", "0,1,2"]
    with budget("8 cli round trip", 5.0):
        code = cli_main(["nullspace", *args])
        out1 = capsys.readouterr().out
        assert code == 0
        basis = json.loads(out1)["basis"]
        assert len(basis) == 4
        for i, sol in enumerate(basis):
            f = tmp_path / f"rt_{i}.json"
            f.write_text(json.dumps(sol))
            code = cli_main(["verify", *args, "--solution", f"file:{f}"])
            capsys.readouterr()
            assert code == 0, f"round-trip verify failed for basis[{i}]"
        code = cli_main(["nullspace", *args])
        out2 = capsys.readouterr().out
        assert out1 == out2
        cli_main(["verify", *args, "--solution", "all"])
        v1 = capsys.readouterr().out
        cli_main(["verify", *args, "--solution", "all"])
        v2 = capsys.readouterr().out
        assert v1 == v2
