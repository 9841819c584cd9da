import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import reference_solve_affine, zero_function
from kzsolve import ansatz, frobenius, numverify, symrep
from kzsolve.cli import (
    ANSATZ_MAX_UNKNOWNS,
    EIGEN_MAX_N,
    MONODROMY_MAX_N,
    SERIES_MAX_N,
    SERIES_MAX_ORDER,
    VERIFY_MAX_N,
    _solution_json,
    main,
)
from kzsolve.exactalg import Matrix, Vector, parse_scalar
from kzsolve.kzcore import new_system

SYS_ARGS = ["--n", "4", "--rho", "-1", "--points", "0,1,2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_all_solutions_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", *SYS_ARGS, "--solution", "all"])
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "pass"
        assert report["timing_ms"] is None
        names = [c["name"] for c in report["checks"]]
        assert any(n.startswith("y4: residue-symmetry") for n in names)

    def test_single_named_solution(self, capsys):
        code, out, _ = run(capsys, ["verify", *SYS_ARGS, "--solution", "y2"])
        assert code == 0
        assert json.loads(out)["overall"] == "pass"

    def test_rho_mismatch_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            ["verify", "--n", "4", "--rho", "1", "--points", "0,1,2", "--solution", "y1"],
        )
        assert code == 2
        assert "rho" in err

    def test_unknown_selector_exits_2(self, capsys):
        code, _, err = run(capsys, ["verify", *SYS_ARGS, "--solution", "y9"])
        assert code == 2

    def test_named_solution_needs_n4(self, capsys):
        code, _, err = run(
            capsys,
            ["verify", "--n", "5", "--rho", "-1", "--points", "0,1,2,3",
             "--solution", "y1"],
        )
        assert code == 2
        assert "n = 4" in err

    def test_bad_points_exit_2(self, capsys):
        code, _, _ = run(capsys, ["verify", "--n", "4", "--rho", "-1",
                                  "--points", "0,1,1", "--solution", "y1"])
        assert code == 2

    def test_corrupted_file_fails_and_names_condition(self, capsys, tmp_path):
        # take a serialized basis function and corrupt one residue entry
        code, out, _ = run(capsys, ["nullspace", *SYS_ARGS])
        assert code == 0
        basis = json.loads(out)["basis"]
        sol = basis[0]
        sol["pole_coefficients"][0][0][0] = "355/113"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(sol))
        code, out, _ = run(
            capsys, ["verify", *SYS_ARGS, "--solution", f"file:{bad}"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["overall"] == "fail"
        failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
        assert any("residue-symmetry" in n or "pole-balance" in n for n in failed)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pole_coefficients", [[["1", "0", "0"]]] * 3),
            ("pole_coefficients", [[["1", "0", "0", "0"]]]),
            ("pole_coefficients", [[[1, 0, 0, 0]]] * 3),
            ("points", [0, 1, 2]),
            ("n", "x4"),
            (None, None),
            ("n", 4.7),
            ("n", math.inf),
            ("points", "012"),
            ("pole_coefficients", [["1111"]] * 3),
            ("poly_coefficients", ""),
            ("n", "4"),
            ("rho", True),
        ],
        ids=["short-vector", "one-pole-group", "numeric-entries", "numeric-points", "bad-n",
             "not-utf8", "fractional-n", "overflowing-n", "string-points", "string-vector",
             "string-poly", "string-n", "boolean-rho"],
    )
    def test_malformed_file_exits_2(self, capsys, tmp_path, field, value):
        w = {
            "n": 4, "rho": -1, "points": ["0", "1", "2"],
            "pole_coefficients": [[["1", "0", "0", "0"]]] * 3,
            "poly_coefficients": [],
        }
        if field is not None:
            w[field] = value
        # JSON has no infinity literal; 1e400 overflows to it
        text = json.dumps(w).replace("Infinity", "1e400").encode()
        path = tmp_path / "w.json"
        path.write_bytes(text if field is not None else b"\xff\xfe" + text)
        # ask for the coupling int() reads from the file: true would pass as 1
        args = ["--n", "4", "--rho", str(int(w["rho"])), "--points", "0,1,2"]
        code, out, err = run(capsys, ["verify", *args, "--solution", f"file:{path}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "points",
        ["0,,1,2", ",0,1,2", "0,1,2,", "0, ,1,2",
         "", "1,", ",1", "(1,2", "1)(", "((1,2))", "1,,2", "(1,2,3)"],
        ids=["doubled", "leading", "trailing", "blank",
             "empty", "one-trailing", "one-leading", "unclosed", "reversed", "nested",
             "one-doubled", "three-parts"],
    )
    def test_empty_point_item_exits_2(self, capsys, points):
        for command in (["verify", "--solution", "y2"], ["nullspace"]):
            code, out, err = run(capsys, [*command, "--n", "4", "--rho", "-1", "--points", points])
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            # refused as a list, not for its length once parsed leniently
            assert repr(points) in err

    def test_complex_points_parse(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--n", "4", "--rho", "-1",
             "--points", "(0,1),1,2", "--solution", "y1"],
        )
        assert code == 0

    def test_scaling_to_n12(self, capsys, tmp_path):
        start = time.perf_counter()
        for n in range(3, 13):
            fn = ansatz.solve_ansatz(new_system(n, -1, list(range(n - 1))))[0]
            path = tmp_path / f"w{n}.json"
            path.write_text(json.dumps({
                "n": n, "rho": -1, "points": [str(p) for p in fn.points],
                "pole_coefficients": [[[str(c) for c in v] for v in group] for group in fn.pole_coeffs],
                "poly_coefficients": [[str(c) for c in v] for v in fn.poly_coeffs],
            }))
            code, out, _ = run(capsys, ["verify", *system_args(n), "--solution", f"file:{path}"])
            assert code == 0, n
            assert json.loads(out)["overall"] == "pass"
        assert time.perf_counter() - start < 10.0


class TestNullspace:
    def test_dimension_four(self, capsys):
        code, out, _ = run(capsys, ["nullspace", *SYS_ARGS])
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 4
        assert len(report["basis"]) == 4

    def test_round_trip_through_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["nullspace", *SYS_ARGS])
        basis = json.loads(out)["basis"]
        for i, sol in enumerate(basis):
            f = tmp_path / f"basis_{i}.json"
            f.write_text(json.dumps(sol))
            code, out, _ = run(
                capsys, ["verify", *SYS_ARGS, "--solution", f"file:{f}"]
            )
            assert code == 0, f"basis function {i} failed round-trip"

    def test_s3_nonempty(self, capsys):
        code, out, _ = run(
            capsys, ["nullspace", "--n", "3", "--rho", "-1", "--points", "0,1"]
        )
        assert code == 0
        assert json.loads(out)["dimension"] >= 1

    def test_general_coupling_reports_dimension(self, capsys):
        code, out, _ = run(
            capsys,
            ["nullspace", "--n", "4", "--rho", "-5", "--points", "0,1,2"],
        )
        assert code == 0
        assert json.loads(out)["dimension"] == 0

    # eleven Gaussian poles with denominators up to 4
    GAUSSIAN_12 = "(1/3,-3/2),-1,(2,-1/2),(1/4,-2/3),2/3,(0,1),(-3/2,2/3),(3,1/4),1/2,(-1,-2),(5/3,-1)"

    def test_scaling_to_n12(self, capsys, tmp_path):
        start = time.perf_counter()
        for n in range(3, 13):
            code, out, _ = run(capsys, ["nullspace", *system_args(n)])
            assert code == 0, n
            assert json.loads(out)["dimension"] == n
        # Gaussian poles at n = 12, shape (1, 1): the widest gluing the unknown cap admits
        gaussian = ["--n", "12", "--rho", "-1", "--points", self.GAUSSIAN_12]
        code, out, _ = run(capsys, ["nullspace", *gaussian])
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 12
        path = tmp_path / "gaussian12.json"
        path.write_text(json.dumps(report["basis"][0]))
        code, out, _ = run(capsys, ["verify", *gaussian, "--solution", f"file:{path}"])
        assert code == 0
        assert json.loads(out)["overall"] == "pass"
        assert time.perf_counter() - start < 10.0

    # (n, pole order, degree) at the unknown cap's corners, with the solution-space
    # dimension at rho = -1; nothing above ANSATZ_MAX_UNKNOWNS is run
    CORNERS = [(3, 25, 0, 2), (3, 1, 49, 3), (4, 12, 0, 3), (4, 1, 35, 4), (6, 1, 16, 6)]
    GAUSSIAN_POINTS = ["(1/41,2/7)", "(-3/5,1)", "(2/3,-1/11)", "(5,1/2)", "(-7/3,-4/9)"]

    def test_scaling_to_shape_corners(self, capsys):
        start = time.perf_counter()
        for n, p, d, dim in self.CORNERS:
            assert n * ((n - 1) * p + d + 1) <= ANSATZ_MAX_UNKNOWNS
            shape = ["--pole-order", str(p), "--poly-degree", str(d)]
            gaussian = ["--n", str(n), "--rho", "-1", "--points", ",".join(self.GAUSSIAN_POINTS[:n - 1])]
            for argv in (["nullspace", *system_args(n), *shape], ["nullspace", *gaussian, *shape]):
                code, out, _ = run(capsys, argv)
                assert code == 0, argv
                assert json.loads(out)["dimension"] == dim, argv
        assert time.perf_counter() - start < 10.0

    def test_solution_json_prints_the_block_views(self, monkeypatch):
        # each block prints from the stored vector's entry strings, cut into runs
        # of n, with no block vector cut: as the block views print
        gaussian = new_system(5, -2, [parse_scalar(z) for z in ("(-3/4,-1)", "3", "(1,1/2)", "(1/3,4/3)")])
        const = ansatz.RationalVectorFunction.from_blocks(
            4, new_system(4, -1, [0, 1, 2]).points, ((), (), ()), (Vector([parse_scalar(e) for e in ("1", "1/2", "(0,-2/3)", "0")]),)
        )
        functions = [*ansatz.solve_ansatz(gaussian, 2, 1), const, zero_function(gaussian.points, 5)]
        cut, cuts = Vector.segment, []
        monkeypatch.setattr(Vector, "segment", lambda *args: cuts.append(args) or cut(*args))
        printed = [_solution_json(fn, fn.dim, -2) for fn in functions]
        assert cuts == []
        monkeypatch.undo()
        for fn, got in zip(functions, printed):
            assert got["pole_coefficients"] == [[v.entry_strings() for v in g] for g in fn.pole_coeffs]
            assert got["poly_coefficients"] == [v.entry_strings() for v in fn.poly_coeffs]
            assert got["points"] == [str(z) for z in fn.points]

    def test_failed_residual_exits_1(self, capsys, monkeypatch):
        basis = ansatz.solve_ansatz(new_system(4, -1, [0, 1, 2]))
        monkeypatch.setattr(ansatz, "solve_ansatz", lambda sys_, **shape: basis)
        monkeypatch.setattr(ansatz, "residual", lambda sys_, fn, z: Vector([1, 0, 0, 0]))
        code, out, _ = run(capsys, ["nullspace", *SYS_ARGS])
        assert code == 1
        assert json.loads(out)["overall"] == "fail"


def system_args(n: int, rho: int = -1) -> list[str]:
    return ["--n", str(n), "--rho", str(rho), "--points", ",".join(str(i) for i in range(n - 1))]


def n_cap_argv(n: int, solution_file: str = "unused.json") -> dict[str, list[str]]:
    """One command line per n-capped command, on a KZ system of dimension n."""
    return {
        "nullspace": ["nullspace", *system_args(n)],
        "series": ["series", *system_args(n), "--pole", "1", "--order", "3"],
        "monodromy": ["monodromy", *system_args(n), "--pole", "1", "--radius", "0.4"],
        "verify": ["verify", *system_args(n, rho=1), "--solution", f"file:{solution_file}"],
    }


# nullspace solves the shape (1, 1), n(n + 1) unknowns
ANSATZ_MAX_N = max(n for n in range(3, 64) if n * (n + 1) <= ANSATZ_MAX_UNKNOWNS)

N_CAPS = {
    "nullspace": ANSATZ_MAX_N,
    "series": SERIES_MAX_N,
    "monodromy": MONODROMY_MAX_N,
    "verify": VERIFY_MAX_N,
}


class TestCaps:
    """Over-cap shapes are refused with exit 2 before the solver runs."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def solvers_fail(self, monkeypatch):
        def reached(*args, **kwargs):
            raise TestCaps.Reached

        monkeypatch.setattr(ansatz, "solve_ansatz", reached)
        monkeypatch.setattr(frobenius, "frobenius_solve", reached)
        monkeypatch.setattr(numverify, "monodromy", reached)
        monkeypatch.setattr(ansatz, "residual", reached)

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", *SYS_ARGS, "--pole", "1", "--order", str(SERIES_MAX_ORDER + 1)],
            # order + |rho| = 80: every order from -40 to 40 runs
            ["series", *system_args(4, rho=-40), "--pole", "1", "--order", "40"],
            ["nullspace", *system_args(12), "--pole-order", "4"],
            ["nullspace", *system_args(8), "--poly-degree", "16"],
            # u = 159, one past the corners n = 3 at (25, 0) and (1, 49)
            ["nullspace", *system_args(3), "--pole-order", "26", "--poly-degree", "0"],
            ["nullspace", *system_args(3), "--poly-degree", "50"],
        ],
        ids=["order", "order-rho", "n12-pole-order-4", "n8-poly-degree-16", "n3-pole-order-26", "n3-poly-degree-50"],
    )
    def test_over_cap_refused(self, capsys, solvers_fail, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["nullspace", *SYS_ARGS, "--pole-order", "4", "--poly-degree", "16"],
            ["series", *SYS_ARGS, "--pole", "1", "--order", str(SERIES_MAX_ORDER)],
            ["series", *system_args(4, rho=-32), "--pole", "1", "--order", "33"],
            ["nullspace", *system_args(6), "--pole-order", "4"],
            ["nullspace", *system_args(6), "--poly-degree", "16"],
            # u = 68 and 84: only the unknown count bounds the shape
            ["nullspace", *SYS_ARGS, "--pole-order", "5"],
            ["nullspace", *SYS_ARGS, "--poly-degree", "17"],
        ],
        ids=["nullspace", "series", "series-rho", "n6-pole-order-4", "n6-poly-degree-16",
             "pole-order", "poly-degree"],
    )
    def test_at_cap_reaches_the_solver(self, solvers_fail, argv):
        with pytest.raises(TestCaps.Reached):
            main(argv)

    @pytest.mark.parametrize("command", sorted(N_CAPS))
    def test_over_n_cap_refused(self, capsys, solvers_fail, command):
        # never run: the solvers raise if the refusal comes too late
        n = N_CAPS[command] + 1
        code, out, err = run(capsys, n_cap_argv(n)[command])
        assert code == 2
        assert out == ""
        if command == "nullspace":
            assert f"--n {n} at shape (1, 1): unknown count {n * (n + 1)} exceeds the cap" in err
        else:
            assert f"--n {n} exceeds the cap {N_CAPS[command]}" in err

    @pytest.mark.parametrize("command", sorted(N_CAPS))
    def test_at_n_cap_runs(self, capsys, monkeypatch, tmp_path, command):
        # the solvers return at once, so the command completes its report
        n = N_CAPS[command]
        zero = Vector.zero(n)
        monkeypatch.setattr(ansatz, "solve_ansatz", lambda *a, **k: [])
        monkeypatch.setattr(frobenius, "frobenius_solve", lambda *a, **k: [])
        monkeypatch.setattr(ansatz, "residual", lambda *a, **k: zero)
        transport = SimpleNamespace(transport=[[1 + 0j]], deviation=0.0, steps=0)
        monkeypatch.setattr(numverify, "monodromy", lambda *a, **k: transport)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "n": n, "rho": 1, "points": [str(i) for i in range(n - 1)],
            "pole_coefficients": [[["0"] * n] for _ in range(n - 1)],
            "poly_coefficients": [],
        }))
        code, out, err = run(capsys, n_cap_argv(n, str(path))[command])
        assert (code, err) == (0, "")
        assert json.loads(out)["overall"] == "pass"


# a simple-pole, affine solution at the --n cap: s(p + 1) + d = 2 (VERIFY_MAX_N - 1) + 1
VERIFY_MAX_SAMPLES = 2 * (VERIFY_MAX_N - 1) + 1


def shaped_file(path: Path, pole_order: int, degree: int) -> Path:
    """A solution file for SYS_ARGS: e_1 at every pole order at pole 1, and e_1 z^degree."""
    e1 = ["1", "0", "0", "0"]
    path.write_text(json.dumps({
        "n": 4, "rho": -1, "points": ["0", "1", "2"],
        "pole_coefficients": [[e1] * pole_order, [], []],
        "poly_coefficients": [["0"] * 4] * degree + [e1],
    }))
    return path


class TestVerifyFileShape:
    """A solution file whose shape needs more residual samples than the cap is refused."""

    @pytest.mark.parametrize(
        "pole_order, degree", [(0, 125), (41, 2), (0, 1600)], ids=["degree", "pole-order", "d1600"]
    )
    def test_over_bound_refused_before_any_residual(
        self, capsys, monkeypatch, tmp_path, pole_order, degree
    ):
        def reached(*args, **kwargs):
            raise AssertionError("residual reached")

        monkeypatch.setattr(ansatz, "residual", reached)
        path = shaped_file(tmp_path / "w.json", pole_order, degree)
        code, out, err = run(capsys, ["verify", *SYS_ARGS, "--solution", f"file:{path}"])
        assert (code, out) == (2, "")
        count = 3 * (pole_order + 1) + degree
        assert f"sample count {count} exceeds the cap {VERIFY_MAX_SAMPLES}" in err

    def test_long_pole_group_refused_before_padding(self, capsys, monkeypatch, tmp_path):
        # one pole group of 42 blocks: the count is read off the parsed group
        # lengths, before from_blocks would pad the other two groups to 42
        def reached(*args, **kwargs):
            raise AssertionError("from_blocks reached")

        monkeypatch.setattr(ansatz.RationalVectorFunction, "from_blocks", reached)
        path = shaped_file(tmp_path / "w.json", 42, 0)
        code, out, err = run(capsys, ["verify", *SYS_ARGS, "--solution", f"file:{path}"])
        assert (code, out) == (2, "")
        assert f"sample count {3 * 43} exceeds the cap {VERIFY_MAX_SAMPLES}" in err

    @pytest.mark.parametrize("pole_order, degree", [(0, 124), (41, 1)], ids=["degree", "pole-order"])
    def test_at_bound_runs(self, capsys, tmp_path, pole_order, degree):
        path = shaped_file(tmp_path / "w.json", pole_order, degree)
        code, out, err = run(capsys, ["verify", *SYS_ARGS, "--solution", f"file:{path}"])
        # e_1 z^d is no solution: the report is complete and fails
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert len(checks) == VERIFY_MAX_SAMPLES
        assert all("residual" in c["name"] for c in checks)


GAUSS_ARGS = ["--n", "4", "--rho", "-2", "--points", "(0,1),1,(2,-1)"]

# Not a solution: Gaussian entries, an empty pole group, a pole of order 2 and a
# quadratic part, so every residual of its report is nonzero.
GAUSS_FILE = {
    "n": 4, "rho": -2, "points": ["(0,1)", "1", "(2,-1)"],
    "pole_coefficients": [
        [["1", "(0,1)", "-1/2", "0"], ["0", "2", "0", "1/3"]],
        [["(3,-1)", "0", "0", "1"]],
        [],
    ],
    "poly_coefficients": [["0", "1", "0", "0"], ["1/5", "0", "0", "(1,1)"], ["0", "0", "-1", "0"]],
}

# SHA-256 of stdout and the exit code of each exact README command, plus three
# other couplings and two failing verify reports. Exact reports must stay
# byte-identical through refactors, so any changed byte fails here; change a
# digest only for an intended new output.
GOLDEN = [
    (["verify", *SYS_ARGS, "--solution", "all"], 0,
     "0c021cf63e5ca164298d42887608dd3e9d3ebb9ce27e47bab3ee8b24bc723a94"),
    (["verify", *SYS_ARGS, "--solution", "file:w.json"], 0,
     "c688cbd0b649f8b33e6d7ddb120f724788334a0ae93e0d33ec35ac0063892777"),
    (["nullspace", *SYS_ARGS], 0,
     "e3732e5cd47f73424bd7558762577a3e53141bf48fab3ab3848743a5117a93bf"),
    (["series", *SYS_ARGS, "--pole", "1", "--order", "3"], 0,
     "dc179abd880aad715710682d4fa0505af596f2b3ec300726665f625d025d977c"),
    (["eigen", "--n", "4"], 0,
     "754d10d59bc7bf58e950051eac65a17debf3e17c9cdae44167f0f61b71722318"),
    (["nullspace", "--n", "4", "--rho", "1", "--points", "0,1,2", "--pole-order", "2"], 0,
     "427dbae21488f6a1be6e693244190dc69de9f4e93261916ef7f760ce8414261a"),
    (["nullspace", "--n", "4", "--rho", "-2", "--points", "(0,1),1,(2,-1)",
      "--pole-order", "2", "--poly-degree", "2"], 0,
     "1fd685e5497d4491ba683a4a52753d024db9a5fc95b74392f869a1658d13230f"),
    (["series", "--n", "4", "--rho", "2", "--points", "0,1,2", "--pole", "1", "--order", "3"], 0,
     "85030637a32d5804ed91969e5b1d1beca24c34929b838071b20630eddb244c11"),
    (["verify", *SYS_ARGS, "--solution", "file:bumped.json"], 1,
     "5a36552b1cd19acdb21848d328e89fa9f323c87e18e060c0a7fd86afe3e2f502"),
    (["verify", *GAUSS_ARGS, "--solution", "file:gauss.json"], 1,
     "e2f7c0f708b8ef5b2f83c5f49180580e3f9cfbfd225bbc601203427e6498a99d"),
    # the closed-form columns on Gaussian poles with denominators
    (["verify", "--n", "4", "--rho", "-1", "--points=1/2,(0,1),(-3/2,2/3)", "--solution", "all"], 0,
     "d83ca202827f830b49804c94a1fe60d9ed03f7cacdab6557bf642cbb1dbb422a"),
    # rho = 0, a double resonance at t = 0, and a series on Gaussian poles with
    # denominators, both recorded before the resonant orders took their closed form
    (["series", "--n", "4", "--rho", "0", "--points=0,1,2", "--pole", "1", "--order", "3"], 0,
     "0f98c72d2a470a4b9fc906704f5fd742bc3a94bafbe613ed481a34cb84b838fc"),
    (["series", "--n", "5", "--rho", "-2", "--points=1/2,(0,1),(-3/2,2/3),(2,-1/3)",
      "--pole", "2", "--order", "4"], 0,
     "59e636d4b8cd8184eaf60b2fa603884ab317ed5ba5ebdbd27fcb924fb5d9486e"),
    # a deep principal part carried from t = -2 at rho = -2 (dimension 4) and at
    # rho = 2 with p > rho on Gaussian poles (dimension 1), both recorded while the
    # solver still eliminated the deep pole rows
    (["nullspace", "--n", "5", "--rho", "-2", "--points=(-3/4,-1),3,(1,1/2),(1/3,4/3)",
      "--pole-order", "2", "--poly-degree", "1"], 0,
     "6327f2cab5ed34c3f4f6a896d2e47dc51020d1932ab8de6b2229d1820ebe881d"),
    (["nullspace", "--n", "4", "--rho", "2", "--points=(1/2,1),(-2,1/3),3/4",
      "--pole-order", "3", "--poly-degree", "1"], 0,
     "5d1ed4317757ac762fc8499cab16339f818c75647e76d23b38e0025ff8b01c86"),
    # resonances at infinity below the top degree, at c = rho(n - 2) and
    # c = rho(n - 1): n = 4, shape (1, 3) (dimension 4) and n = 3, shape (1, 2)
    # (dimension 3), both recorded while the solver still eliminated the growth rows
    (["nullspace", "--n", "4", "--rho", "1", "--points=(1/2,1),(-2,1/3),3/4",
      "--pole-order", "1", "--poly-degree", "3"], 0,
     "58c007f144ac016c7f4676d9ac8aec80d703482a4d01702efeee7ab7718c395b"),
    (["nullspace", "--n", "3", "--rho", "1", "--points=(1/2,1),(-2,1/3)",
      "--pole-order", "1", "--poly-degree", "2"], 0,
     "f6fcdc34a2b4ec9a85542b6226c1b25bdf70a303b5eb0e9394dca39ef53beb77"),
    # integer poles, whose right-hand sides take the real branch, and five
    # parameters carried from t = -2 and pruned at t = 2, recorded before the
    # right-hand sides were fused into one int loop
    (["series", "--n", "6", "--rho", "-2", "--points=0,1,2,3,4", "--pole", "3", "--order", "4"], 0,
     "1b300a0f627a7393bae8d5203351802fe681b8192721a8029f66a2448814d773"),
    # Gaussian poles whose gluing kernel carries entries of up to 47 bits
    # (dimension 6), recorded while such a kernel drew two 62-bit primes
    (["nullspace", "--n", "6", "--rho", "-1", "--points=(1/3,-3/2),-1,(2,-1/2),(1/4,-2/3),2/3"], 0,
     "2b0712975970d59a3c385b88024f4d1dc20a53f1a7b2d4b3a35e4e8eb8bb1db8"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_report(capsys, monkeypatch, tmp_path, argv, code, digest):
    # w.json, the README's solution file, is the first basis function of the README
    # system; bumped.json adds 1 to its first residue entry
    monkeypatch.chdir(tmp_path)
    main(["nullspace", *SYS_ARGS])
    w = json.loads(capsys.readouterr().out)["basis"][0]
    (tmp_path / "w.json").write_text(json.dumps(w))
    w["pole_coefficients"][0][0][0] = str(parse_scalar(w["pole_coefficients"][0][0][0]) + 1)
    (tmp_path / "bumped.json").write_text(json.dumps(w))
    (tmp_path / "gauss.json").write_text(json.dumps(GAUSS_FILE))
    got_code, out, _ = run(capsys, argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


class TestDeterminism:
    def test_verify_reports_byte_identical(self, capsys):
        _, out1, _ = run(capsys, ["verify", *SYS_ARGS, "--solution", "all"])
        _, out2, _ = run(capsys, ["verify", *SYS_ARGS, "--solution", "all"])
        assert out1 == out2

    def test_nullspace_reports_byte_identical(self, capsys):
        _, out1, _ = run(capsys, ["nullspace", *SYS_ARGS])
        _, out2, _ = run(capsys, ["nullspace", *SYS_ARGS])
        assert out1 == out2


class TestSeries:
    def test_contains_prescribed_leading_coefficient(self, capsys):
        code, out, _ = run(
            capsys, ["series", *SYS_ARGS, "--pole", "1", "--order", "3"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["window"] == {"least": -1, "greatest": 1}
        fam = next(f for f in report["families"] if f["start"] == -1)
        cols = [
            Vector([parse_scalar(e) for e in member["-1"]])
            for member in fam["basis_series"]
        ]
        target = Vector([parse_scalar(t) for t in ("1", "1", "-1", "-1")])
        consistent, params, _ = reference_solve_affine(list(zip(*cols)), target)
        assert consistent
        assert Matrix.from_columns(cols) * params == target

    def test_zero_leading_coefficient_exits_1(self, capsys, monkeypatch):
        zero = Vector.zero(4)
        fam = frobenius.SeriesFamily(
            pole_index=1, start=-1, order=3, basis={q: [zero] for q in range(-1, 4)}
        )
        monkeypatch.setattr(frobenius, "frobenius_solve", lambda sys_, k, order: [fam])
        code, out, _ = run(capsys, ["series", *SYS_ARGS, "--pole", "1", "--order", "3"])
        assert code == 1
        assert json.loads(out)["overall"] == "fail"

    def test_bad_pole_index_exits_2(self, capsys):
        code, _, _ = run(capsys, ["series", *SYS_ARGS, "--pole", "7", "--order", "3"])
        assert code == 2

    def test_scaling_to_cap(self, capsys):
        start = time.perf_counter()
        for n in range(3, SERIES_MAX_N + 1):
            code, out, _ = run(capsys, ["series", *system_args(n), "--pole", "1", "--order", "3"])
            assert code == 0, n
            families = json.loads(out)["families"]
            assert [(f["start"], f["dimension"]) for f in families] == [(-1, n), (1, 1)], n
        assert time.perf_counter() - start < 10.0


class TestMonodromy:
    def test_small_deviation(self, capsys):
        code, out, _ = run(
            capsys,
            ["monodromy", *SYS_ARGS, "--pole", "2", "--radius", "0.4",
             "--tol", "1e-12"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "float"
        assert report["deviation"] < 1e-8
        assert report["timing_ms"] is not None

    def test_n8_start_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, ["monodromy", *system_args(8), "--pole", "2", "--radius", "0.4"]
        )
        assert code == 0
        assert json.loads(out)["deviation"] < 1e-8

    def test_loose_tolerance_fails(self, capsys):
        # deviation about 1.6e-3: the verdict is judged, not hard-coded
        code, out, _ = run(
            capsys, ["monodromy", *SYS_ARGS, "--pole", "2", "--radius", "0.4", "--tol", "1e-3"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["overall"] == "fail"
        assert not report["deviation"] < 1e-8
        assert report["checks"][0]["name"] == "monodromy pole=2: deviation below 1e-08"

    @pytest.mark.parametrize("rho", [1, -2, 2])
    def test_coupling_without_simple_basis(self, capsys, rho):
        # the (1, 1) ansatz has no full rational basis here; the loop needs none
        code, out, _ = run(
            capsys,
            ["monodromy", *system_args(4, rho), "--pole", "2", "--radius", "0.4"],
        )
        assert code == 0
        assert json.loads(out)["deviation"] < 1e-8

    @pytest.mark.parametrize("rho", [10, -10, 1000])
    def test_unresolvable_coupling_refused(self, capsys, monkeypatch, rho):
        # tol * radius^(-2|rho|) is 9.1e-5 at |rho| = 10: refused before any transport
        def reached(*args, **kwargs):
            raise AssertionError("transport reached")

        monkeypatch.setattr(numverify, "monodromy", reached)
        code, out, err = run(
            capsys, ["monodromy", *system_args(4, rho), "--pole", "2", "--radius", "0.4"]
        )
        assert (code, out) == (2, "")
        assert "deviation bound 1e-08" in err

    @pytest.mark.parametrize("rho", [-5, 5])
    def test_largest_resolvable_coupling_runs(self, capsys, rho):
        # tol * radius^(-2|rho|) is 9.5e-9, just below the bound
        code, out, _ = run(
            capsys, ["monodromy", *system_args(4, rho), "--pole", "2", "--radius", "0.4"]
        )
        assert code == 0
        assert json.loads(out)["deviation"] < 1e-8

    @pytest.mark.parametrize(
        "rho, radius", [(3, 0.9), (-3, 0.9), (4, 0.9), (-5, 0.9), (2, 0.95), (3, 0.95)]
    )
    def test_floor_near_a_neighbouring_pole_refused(self, capsys, monkeypatch, rho, radius):
        # the loop about z = 1 passes 1 - radius from the poles 0 and 2, so the floor is
        # tol * (1 - radius)^(-2|rho|); transported, these cases deviated 2e-8 to 1.5e5
        # from the identity, which is their monodromy
        def reached(*args, **kwargs):
            raise AssertionError("transport reached")

        monkeypatch.setattr(numverify, "monodromy", reached)
        code, out, err = run(
            capsys, ["monodromy", *system_args(4, rho), "--pole", "2", "--radius", str(radius)]
        )
        assert (code, out) == (2, "")
        assert err.count("error:") == 1 and "deviation bound 1e-08" in err

    @pytest.mark.parametrize("radius", [0.9, 0.95])
    def test_unit_coupling_near_a_neighbouring_pole_runs(self, capsys, radius):
        # the floor is 1e-10 at radius 0.9 and 4e-10 at 0.95
        code, out, _ = run(
            capsys, ["monodromy", *system_args(4, 1), "--pole", "2", "--radius", str(radius)]
        )
        assert code == 0
        assert json.loads(out)["deviation"] < 1e-8

    def test_scaling_to_cap(self, capsys):
        start = time.perf_counter()
        for n in range(3, MONODROMY_MAX_N + 1):
            code, out, _ = run(
                capsys, ["monodromy", *system_args(n), "--pole", "2", "--radius", "0.4"]
            )
            assert code == 0, n
            assert json.loads(out)["deviation"] < 1e-8
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"], ["--radius", "nan"]],
        ids=["tol-0", "tol-nan", "tol-inf", "radius-nan"],
    )
    def test_unusable_tolerance_or_radius_exits_2(self, capsys, monkeypatch, flags):
        # never run: the solvers raise if the refusal comes too late
        def reached(*args, **kwargs):
            raise AssertionError("solver reached")

        monkeypatch.setattr(numverify, "solve_ansatz", reached)
        monkeypatch.setattr(numverify, "_transport", reached)
        argv = ["monodromy", *SYS_ARGS, "--pole", "2", "--radius", "0.4", *flags]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "must be" in err

    def test_radius_too_large_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            ["monodromy", *SYS_ARGS, "--pole", "2", "--radius", "3.0"],
        )
        assert code == 2


class TestEigen:
    def test_n4_spectrum(self, capsys):
        code, out, _ = run(capsys, ["eigen", "--n", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["spectrum"] == {"-1": 1, "2": 2, "3": 1}
        assert report["least"] == -1
        assert report["greatest"] == 3

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["eigen", "--n", "5", "--format", "text"])
        assert code == 0
        assert "overall: pass" in out

    def test_missing_multiplicity_fails_the_report(self, capsys, monkeypatch):
        # the checks, not t_spectrum, judge the multiplicities: n - 2 = 2 loses one
        # of the repeats char_poly factors out of T's diagonal
        real = symrep.char_poly

        def short(head, diagonal, border):
            coeffs, repeated = real(head, diagonal, border)
            return coeffs, {d: m - 1 for d, m in repeated.items()}

        monkeypatch.setattr(symrep, "char_poly", short)
        code, out, _ = run(capsys, ["eigen", "--n", "4"])
        assert code == 1
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
        assert failed == ["multiplicities sum to n"]
        assert report["spectrum"] == {"-1": 1, "2": 1, "3": 1}

    def test_over_cap_refused_before_any_work(self, capsys, monkeypatch):
        def never(n):
            raise AssertionError("t_spectrum called on an over-cap n")

        monkeypatch.setattr(symrep, "t_spectrum", never)
        assert EIGEN_MAX_N == 256
        code, out, err = run(capsys, ["eigen", "--n", "257"])
        assert code == 2
        assert out == ""
        assert "256" in err

    def test_scaling_to_cap(self, capsys):
        start = time.perf_counter()
        for n in [*range(3, 17), 32, 64, 128, EIGEN_MAX_N]:
            code, out, _ = run(capsys, ["eigen", "--n", str(n)])
            assert code == 0, n
            spectrum = {str(n - 1): 1, str(n - 2): n - 2, "-1": 1}
            assert json.loads(out)["spectrum"] == spectrum, n
        assert time.perf_counter() - start < 10.0

    def test_n12_finishes(self):
        """`kz eigen` finishes at n = 12: T's repeats are factored out and the rest is a quadratic."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "kzsolve.cli", "eigen", "--n", "12"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["spectrum"] == {"11": 1, "10": 10, "-1": 1}


def test_cli_import_leaves_scipy_unloaded():
    """Exact commands never integrate, so importing the CLI must not pay for scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, kzsolve.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# One command line per subcommand; only monodromy integrates in floating point.
SUBCOMMANDS = {
    "verify": ["verify", *SYS_ARGS, "--solution", "all"],
    "nullspace": ["nullspace", *SYS_ARGS],
    "series": ["series", *SYS_ARGS, "--pole", "1", "--order", "3"],
    "eigen": ["eigen", "--n", "8"],
    "monodromy": ["monodromy", *SYS_ARGS, "--pole", "2", "--radius", "0.4"],
}


def _run_isolated(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout; it prints one JSON line."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unneeded_modules() -> str:
    # numpy, scipy, dataclasses and inspect (which pulls in ast, dis and tokenize):
    # no exact command needs any of them
    return "sorted({m.split('.')[0] for m in sys.modules} & {'dataclasses', 'inspect', 'numpy', 'scipy'})"


def test_package_import_leaves_unneeded_modules_unloaded():
    code = (
        "import json, sys\n"
        "import kzsolve\n"
        f"after_package = {_unneeded_modules()}\n"
        "import kzsolve.cli\n"
        f"print(json.dumps([after_package, {_unneeded_modules()}]))\n"
    )
    assert _run_isolated(code) == [[], []]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_what_it_runs(command):
    """Exact commands load none of numpy, scipy, dataclasses and inspect.

    monodromy loads numpy, which itself imports inspect.
    """
    code = (
        "import contextlib, io, json, sys\n"
        "from kzsolve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({SUBCOMMANDS[command]!r})\n"
        f"print(json.dumps([status, {_unneeded_modules()}]))\n"
    )
    want = ["inspect", "numpy"] if command == "monodromy" else []
    assert _run_isolated(code) == [0, want]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_runs_without_scipy(command):
    # a None entry makes every import of scipy raise ImportError
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from kzsolve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({SUBCOMMANDS[command]!r})\n"
        "print(json.dumps(status))\n"
    )
    assert _run_isolated(code) == 0
