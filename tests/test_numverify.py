import math

import numpy as np
import pytest

from kzsolve import numverify
from kzsolve.ansatz import RationalVectorFunction
from kzsolve.exactalg import Vector
from kzsolve.kzcore import new_system
from kzsolve.numverify import (
    Path,
    default_clearance,
    integrate,
    monodromy,
    residual_scan,
)
from kzsolve.s4explicit import fundamental_matrix, y1, y2, y3

CANON = [0, 1, 2]


def canon_sys():
    return new_system(4, -1, CANON)


def as_complex(vec):
    return np.array([c.to_complex() for c in vec])


class TestPaths:
    def test_zero_length_path_is_identity(self):
        sys = canon_sys()
        W0 = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.array_equal(integrate(sys, Path(()), W0, 1e-10), W0)
        out = integrate(sys, Path.line(4 + 0j, 4 + 0j), W0, 1e-10)
        assert np.array_equal(out, W0)

    def test_clearance_violation(self):
        sys = canon_sys()
        W0 = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            integrate(sys, Path.line(-1 + 0j, 3 + 0j), W0, 1e-10)

    def test_distance_computations(self):
        path = Path.polyline([0 + 0j, 2 + 0j])
        assert path.min_distance_to(1 + 1j) == pytest.approx(1.0)
        assert path.min_distance_to(3 + 0j) == pytest.approx(1.0)
        loop = Path.circle(0 + 0j, 1.0)
        assert loop.min_distance_to(0 + 0j) == pytest.approx(1.0)
        assert loop.min_distance_to(3 + 0j) == pytest.approx(2.0)

    def test_default_clearance(self):
        assert default_clearance(canon_sys()) == pytest.approx(0.1)


class TestIntegrate:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_tolerance_refused(self, monkeypatch, tol):
        # never run: the integrator does not finish at these tolerances
        def reached(*args, **kwargs):
            raise AssertionError("integrator reached")

        monkeypatch.setattr(numverify, "_transport", reached)
        with pytest.raises(ValueError, match="tolerance"):
            integrate(canon_sys(), Path.line(3 + 0j, 4 + 0j), np.ones(4, dtype=complex), tol)

    def test_transport_matches_exact_evaluation(self):
        sys = canon_sys()
        fn = y1(CANON)
        W0 = as_complex(fn.eval(3))
        tol = 1e-10
        W1 = integrate(sys, Path.line(3 + 0j, 4 + 0j), W0, tol)
        exact = as_complex(fn.eval(4))
        assert np.linalg.norm(W1 - exact) < 10 * tol

    def test_linearity(self):
        sys = canon_sys()
        fn = y3(CANON)
        W0 = as_complex(fn.eval(4))
        path = Path.line(4 + 0j, 5 + 1j)
        a = integrate(sys, path, 3.5 * W0, 1e-11)
        b = 3.5 * integrate(sys, path, W0, 1e-11)
        assert np.linalg.norm(a - b) < 1e-9

    def test_halving_tolerance_never_hurts(self):
        sys = canon_sys()
        fn = y1(CANON)
        W0 = as_complex(fn.eval(3))
        exact = as_complex(fn.eval(4))
        path = Path.line(3 + 0j, 4 + 0j)
        errs = []
        for k in range(5):
            W1 = integrate(sys, path, W0, 1e-5 / 2 ** k)
            errs.append(np.linalg.norm(W1 - exact))
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))

    def test_homotopy_invariance(self):
        # same endpoints, same (zero) winding around every pole
        sys = canon_sys()
        fn = y1(CANON)
        W0 = as_complex(fn.eval(3))
        above = Path.polyline([3 + 0j, 3 + 2j, -1 + 2j, -1 + 0.5j])
        below = Path.polyline([3 + 0j, 3 - 2j, -1 - 2j, -1 + 0.5j])
        tol = 1e-11
        a = integrate(sys, above, W0, tol)
        b = integrate(sys, below, W0, tol)
        assert np.linalg.norm(a - b) < 100 * tol


class TestMonodromy:
    def test_trivial_around_each_pole(self):
        sys = canon_sys()
        for k in (1, 2, 3):
            res = monodromy(sys, k, 0.4, 1e-12)
            assert res.deviation < 1e-8
            assert res.steps > 0

    def test_deviation_recomputable_from_transport(self):
        sys = canon_sys()
        res = monodromy(sys, 2, 0.4, 1e-12)
        again = np.linalg.norm(res.transport - np.eye(4), ord="fro")
        assert again == pytest.approx(res.deviation, rel=1e-12)

    def test_loop_around_regular_point(self):
        # no pole inside: transport of anything returns itself
        sys = canon_sys()
        W0 = np.array([[1, 2], [0, 1], [3, 0], [1, 1]], dtype=complex)
        out = integrate(sys, Path.circle(0.5 + 0j, 0.2), W0, 1e-12)
        assert np.linalg.norm(out - W0) < 1e-9

    def test_double_loop_is_square(self):
        sys = canon_sys()
        one = monodromy(sys, 2, 0.4, 1e-12, turns=1)
        two = monodromy(sys, 2, 0.4, 1e-12, turns=2)
        assert np.linalg.norm(two.transport - one.transport @ one.transport) < 1e-8

    def test_radius_enclosing_other_pole(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            monodromy(sys, 2, 1.5, 1e-10)

    def test_singular_start_rejected(self):
        sys = canon_sys()
        cols = [y3(CANON)] * 4
        with pytest.raises(ValueError):
            monodromy(sys, 2, 0.4, 1e-10, fundamental=cols)

    def test_midpoint_locus_start_rejected(self):
        # the explicit n = 4 columns are dependent when z2 is the midpoint of z1 and z3
        sys = canon_sys()
        with pytest.raises(ValueError, match="numerically singular"):
            monodromy(sys, 2, 0.4, 1e-10, fundamental=fundamental_matrix(CANON))

    def test_bad_pole_index(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            monodromy(sys, 5, 0.2, 1e-10)

    def test_plus_one_coupling_basis_is_single_valued(self):
        # the general-coupling solver basis (deeper shape) must also have
        # trivial loops: rational functions are single-valued
        from kzsolve.ansatz import solve_ansatz

        sys = new_system(4, 1, CANON)
        basis = solve_ansatz(sys, pole_order=2, poly_degree=3)
        assert len(basis) == 4
        res = monodromy(sys, 2, 0.4, 1e-12, fundamental=basis)
        assert res.deviation < 1e-8


class TestResidualScan:
    def test_exact_solution_scans_tiny(self):
        sys = canon_sys()
        assert residual_scan(sys, y2(CANON), 64) < 1e-12

    def test_corruption_is_loud(self):
        sys = canon_sys()
        fn = y2(CANON)
        res = list(fn.residues)
        res[0] = res[0] + Vector([1, 0, 0, 0])
        bad = RationalVectorFunction.simple(sys.points, res)
        assert residual_scan(sys, bad, 64) > 0.1

    def test_zero_function_is_exactly_zero(self):
        sys = canon_sys()
        fn = RationalVectorFunction.zero(sys.points, 4)
        assert residual_scan(sys, fn, 32) == 0.0
