import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import star_generators
from kzsolve import numverify
from kzsolve.ansatz import RationalVectorFunction
from kzsolve.exactalg import GaussianRational, Vector
from kzsolve.kzcore import new_system
from kzsolve.numverify import (
    Path,
    default_clearance,
    integrate,
    monodromy,
    residual_scan,
)
from kzsolve.s4explicit import y1, y2, y3
from kzsolve.symrep import star_act_array

CANON = [0, 1, 2]


def canon_sys():
    return new_system(4, -1, CANON)


def as_complex(vec):
    return np.array([c.to_complex() for c in vec])


class TestStarActArray:
    def test_matches_dense_generator_sum(self):
        # oracle: sum_k P_k / (z - z_k) built from the dense reference generators
        rng = np.random.default_rng(13)
        for n in range(2, 10):
            gens = [
                np.array([[e.to_complex() for e in row] for row in P.data])
                for P in star_generators(n)
            ]
            for _ in range(4):
                poles = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
                z = complex(rng.normal(), rng.normal())
                w = 1 / (z - poles)
                A = sum(wk * Pk for wk, Pk in zip(w, gens))
                vec = rng.normal(size=n) + 1j * rng.normal(size=n)
                mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                for W in (vec, mat):
                    before = W.copy()
                    got = star_act_array(w, W)
                    want = A @ W
                    assert got.shape == want.shape
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), n
                    assert np.array_equal(W, before)

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            star_act_array(np.ones(3, dtype=complex), np.ones(3, dtype=complex))


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_derivative_at_start_fails(self):
        # W0 is finite, but A(z) W0 overflows to inf - inf: the first step is NaN
        W0 = np.array([1e308, -1e308, 1e308, -1e308], dtype=complex)
        with pytest.raises(RuntimeError, match="integrator failed"):
            integrate(canon_sys(), Path.line(3 + 0j, 4 + 0j), W0, 1e-10)

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
        one = monodromy(sys, 2, 0.4, 1e-12).transport
        z2 = sys.points[1].to_complex()
        two = integrate(sys, Path.circle(z2, 0.4, turns=2), np.eye(4, dtype=complex), 1e-12)
        assert np.linalg.norm(two - one @ one) < 1e-8

    def test_radius_enclosing_other_pole(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            monodromy(sys, 2, 1.5, 1e-10)

    def test_bad_pole_index(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            monodromy(sys, 5, 0.2, 1e-10)

    def test_plus_one_coupling_basis_is_single_valued(self):
        # the general-coupling solver finds a full rational basis (deeper
        # shape), so the loops must be trivial: rational functions are single-valued
        from kzsolve.ansatz import solve_ansatz

        sys = new_system(4, 1, CANON)
        assert len(solve_ansatz(sys, pole_order=2, poly_degree=3)) == 4
        res = monodromy(sys, 2, 0.4, 1e-12)
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


TOLS = (1e-6, 1e-9, 1e-12, 1e-15)  # 1e-15 is below the rtol floor of 100 eps
RHOS = (-2, -1, 1, 3)


def _oracle_dop853(fun, y, tol):
    """scipy's DOP853 over t in [0, 1]: (y(1), accepted steps), or its failure message."""
    integrate_module = pytest.importorskip("scipy.integrate")
    sol = integrate_module.solve_ivp(fun, (0.0, 1.0), y, method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        assert sol.status == -1
        return None, sol.message
    return sol.y[:, -1], sol.t.size - 1


def _oracle_transport(sys, path, W0, tol):
    """numverify._transport as it stood on scipy's solve_ivp: the reference."""
    poles = np.array([p.to_complex() for p in sys.points])
    rho = float(sys.rho)
    shape = W0.shape
    y = np.asarray(W0, dtype=complex).ravel()
    steps = 0
    for seg in path.segments:
        if seg.length == 0:
            continue
        def fun(t, yy):
            w = seg.velocity(t) * rho / (seg.point(t) - poles)
            return star_act_array(w, yy.reshape(shape)).ravel()
        y, seg_steps = _oracle_dop853(fun, y, tol)
        assert y is not None, seg_steps
        steps += seg_steps
    return y.reshape(shape), steps


def _points(n, gaussian):
    # integer poles 0..n-2, or the same shifted by i/2 at every odd one
    return [
        GaussianRational(k, Fraction(k % 2, 2) if gaussian else 0) for k in range(n - 1)
    ]


def _loop_cases():
    """(n, rho, gaussian, pole, tol): every pole of every listed system at n <= 6,
    the tolerance rotating with the pole; at n = 12 rho, pole kind and tolerance
    rotate with the pole, so that the sweep stays a few seconds."""
    for n in (3, 4, 5, 6):
        for rho in RHOS:
            for gaussian in (False, True):
                for k in range(1, n):
                    yield n, rho, gaussian, k, TOLS[(k + rho + gaussian) % 4]
    for k in range(1, 12):
        yield 12, RHOS[k % 4], bool(k % 2), k, TOLS[(k + k // 4) % 4]


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
class TestDop853MatchesScipy:
    """The in-house DOP853 takes scipy's steps double for double."""

    def test_tableau_is_scipys(self):
        DOP853 = pytest.importorskip("scipy.integrate").DOP853
        s = DOP853.n_stages
        A = np.zeros((s, s))
        for row, coeffs in enumerate(numverify._DOP853_A):
            A[row, :row] = coeffs
        assert np.array_equal(A, DOP853.A)
        assert np.array_equal(numverify._DOP853_C, DOP853.C)
        assert np.array_equal(numverify._DOP853_B, DOP853.B)
        assert np.array_equal(numverify._DOP853_E3, DOP853.E3)
        assert np.array_equal(numverify._DOP853_E5, DOP853.E5)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 12])
    def test_monodromy_loops(self, n):
        for case_n, rho, gaussian, k, tol in _loop_cases():
            if case_n != n:
                continue
            sys = new_system(n, rho, _points(n, gaussian))
            path = Path.circle(sys.points[k - 1].to_complex(), 0.4)
            identity = np.eye(n, dtype=complex)
            want, want_steps = _oracle_transport(sys, path, identity, tol)
            got, got_steps = numverify._transport(sys, path, identity, tol)
            case = (n, rho, gaussian, k, tol)
            assert np.array_equal(got, want), case
            assert got_steps == want_steps, case

    @pytest.mark.parametrize("tol", TOLS)
    def test_lines_and_polylines(self, tol):
        four = canon_sys()
        six = new_system(6, 3, _points(6, True))
        vector = as_complex(y1(CANON).eval(3))
        matrix = np.array([[1, 2j], [0, 1], [3, 0], [1, -1j]], dtype=complex)
        cases = [
            (four, Path.line(3 + 0j, 4 + 1j), vector),
            (four, Path.polyline([3 + 0j, 3 + 2j, -1 + 2j, -1 + 0.5j]), vector),
            (four, Path.polyline([4 + 0j, 4 - 1j, 0.5 - 1j, 0.5 + 0j]), matrix),
            (six, Path.line(-1 + 0j, 2 + 2j), np.eye(6, dtype=complex)[:, :3]),
            (six, Path.polyline([-1 + 1j, 5 + 1j, 5 - 1j]), np.arange(6, dtype=complex)),
        ]
        for sys, path, W0 in cases:
            want, want_steps = _oracle_transport(sys, path, W0, tol)
            got, got_steps = numverify._transport(sys, path, W0, tol)
            assert got.shape == W0.shape
            assert np.array_equal(got, want), (sys.n, path, tol)
            assert got_steps == want_steps, (sys.n, path, tol)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("tol", TOLS)
    def test_failure_where_scipy_fails(self, tol):
        # a RHS that turns NaN part-way, and a solution that blows up at t = 1/2
        y0 = np.array([2.0 + 0j, 1j])

        def turns_nan(t, y):
            return y * (math.nan if t > 0.4 else 1j)

        def blows_up(t, y):
            return y * y

        for fun in (turns_nan, blows_up):
            y, message = _oracle_dop853(fun, y0, tol)
            assert y is None, fun.__name__
            with pytest.raises(RuntimeError) as info:
                numverify._dop853(fun, y0, tol, tol)
            assert str(info.value) == f"integrator failed along segment: {message}"
