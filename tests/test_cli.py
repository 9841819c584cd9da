import json
import os
import subprocess
import sys
from pathlib import Path

from kzsolve.cli import main
from kzsolve.exactalg import Matrix, Vector, parse_scalar, solve_affine

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

    def test_complex_points_parse(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--n", "4", "--rho", "-1",
             "--points", "(0,1),1,2", "--solution", "y1"],
        )
        assert code == 0


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
        sol = solve_affine(Matrix.from_columns(cols), target)
        assert sol.consistent

    def test_bad_pole_index_exits_2(self, capsys):
        code, _, _ = run(capsys, ["series", *SYS_ARGS, "--pole", "7", "--order", "3"])
        assert code == 2


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
