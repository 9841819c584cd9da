import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import float_residual_scan, star_generators, zero_function
from kzsolve import numverify
from kzsolve.ansatz import RationalVectorFunction
from kzsolve.exactalg import GaussianRational, Vector
from kzsolve.kzcore import new_system
from kzsolve.numverify import Circle, loop_margin, monodromy
from kzsolve.s4explicit import y1, y2, y3, y4
from kzsolve.symrep import star_act_array

CANON = [0, 1, 2]


def canon_sys():
    return new_system(4, -1, CANON)


def as_complex(vec):
    return np.array([c.to_complex() for c in vec])


def _in_house_dop853(fun, y, tol):
    return numverify._dop853(fun, y, tol, tol)


def _line(a, b):
    """(point, velocity) of the segment from a to b over t in [0, 1]."""
    return (lambda t: a + t * (b - a)), (lambda t: b - a)


def _circle(center, radius):
    """(point, velocity) of ``numverify.Circle(center, radius)``, written out."""
    def point(t):
        return center + radius * cmath.exp(1j * (t * (2 * math.pi)))

    def velocity(t):
        return 1j * (2 * math.pi) * radius * cmath.exp(1j * (t * (2 * math.pi)))

    return point, velocity


def _transport_along(sys, pieces, W0, tol, dop853):
    """W0 transported along each (point, velocity) piece in turn, one ``dop853``
    call per piece on dz/dt * rho * A(z) as star weights: (W(end), accepted steps)."""
    poles = np.array([p.to_complex() for p in sys.points])
    rho = float(sys.rho)
    shape = W0.shape
    y = np.asarray(W0, dtype=complex).ravel()
    steps = 0
    for point, velocity in pieces:
        def fun(t, yy, point=point, velocity=velocity):
            w = velocity(t) * rho / (point(t) - poles)
            return star_act_array(w, yy.reshape(shape)).ravel()
        y, piece_steps = dop853(fun, y, tol)
        assert y is not None, piece_steps
        steps += piece_steps
    return y.reshape(shape), steps


def polyline_transport(sys, pts, W0, tol):
    """W0 transported by the in-house DOP853 along the polyline through ``pts``."""
    segments = [_line(a, b) for a, b in zip(pts, pts[1:])]
    return _transport_along(sys, segments, W0, tol, _in_house_dop853)[0]


class TestStarActArray:
    def test_matches_dense_generator_sum(self):
        # oracle: sum_k P_k / (z - z_k) built from the dense reference generators
        rng = np.random.default_rng(13)
        for n in range(2, 10):
            gens = [
                np.array([[e.to_complex() for e in row] for row in P])
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


class TestIntegrate:
    """The in-house DOP853 along line segments, one ``numverify._dop853`` call per segment."""

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_tolerance_refused(self, monkeypatch, tol):
        # never run: the integrator does not finish at these tolerances
        def reached(*args, **kwargs):
            raise AssertionError("integrator reached")

        monkeypatch.setattr(numverify, "_transport", reached)
        with pytest.raises(ValueError, match="tolerance"):
            monodromy(canon_sys(), 2, 0.4, tol)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_derivative_at_start_fails(self):
        # W0 is finite, but A(z) W0 overflows to inf - inf: the first step is NaN
        W0 = np.array([1e308, -1e308, 1e308, -1e308], dtype=complex)
        with pytest.raises(RuntimeError, match="integrator failed"):
            polyline_transport(canon_sys(), [3 + 0j, 4 + 0j], W0, 1e-10)

    def test_transport_matches_exact_evaluation(self):
        sys = canon_sys()
        fn = y1(CANON)
        W0 = as_complex(fn.eval(3))
        tol = 1e-10
        W1 = polyline_transport(sys, [3 + 0j, 4 + 0j], W0, tol)
        exact = as_complex(fn.eval(4))
        assert np.linalg.norm(W1 - exact) < 10 * tol

    def test_linearity(self):
        sys = canon_sys()
        fn = y3(CANON)
        W0 = as_complex(fn.eval(4))
        line = [4 + 0j, 5 + 1j]
        a = polyline_transport(sys, line, 3.5 * W0, 1e-11)
        b = 3.5 * polyline_transport(sys, line, W0, 1e-11)
        assert np.linalg.norm(a - b) < 1e-9

    def test_halving_tolerance_never_hurts(self):
        sys = canon_sys()
        fn = y1(CANON)
        W0 = as_complex(fn.eval(3))
        exact = as_complex(fn.eval(4))
        errs = []
        for k in range(5):
            W1 = polyline_transport(sys, [3 + 0j, 4 + 0j], W0, 1e-5 / 2 ** k)
            errs.append(np.linalg.norm(W1 - exact))
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))

    def test_homotopy_invariance(self):
        # same endpoints, same (zero) winding around every pole
        sys = canon_sys()
        fn = y1(CANON)
        W0 = as_complex(fn.eval(3))
        above = [3 + 0j, 3 + 2j, -1 + 2j, -1 + 0.5j]
        below = [3 + 0j, 3 - 2j, -1 - 2j, -1 + 0.5j]
        tol = 1e-11
        a = polyline_transport(sys, above, W0, tol)
        b = polyline_transport(sys, below, W0, tol)
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
        out, steps = numverify._transport(sys, Circle(0.5 + 0j, 0.2), W0, 1e-12)
        assert out.shape == W0.shape and steps > 0
        assert np.linalg.norm(out - W0) < 1e-9

    def test_double_loop_is_square(self):
        sys = canon_sys()
        one = monodromy(sys, 2, 0.4, 1e-12).transport
        loop = Circle(sys.points[1].to_complex(), 0.4)
        once, _ = numverify._transport(sys, loop, np.eye(4, dtype=complex), 1e-12)
        two, _ = numverify._transport(sys, loop, once, 1e-12)
        assert np.array_equal(once, one)
        assert np.linalg.norm(two - one @ one) < 1e-8

    def test_radius_enclosing_other_pole(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            monodromy(sys, 2, 1.5, 1e-10)

    def test_bad_pole_index(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            monodromy(sys, 5, 0.2, 1e-10)

    def test_loop_margin(self):
        # the poles 0, 1 and 2 are 1 apart: each loop keeps 1 - radius from its nearest neighbour
        sys = canon_sys()
        for k in (1, 2, 3):
            assert loop_margin(sys, k, 0.4) == pytest.approx(0.6)
        assert loop_margin(sys, 2, 0.95) == pytest.approx(0.05)
        assert loop_margin(sys, 2, 1.0) == 0.0 and loop_margin(sys, 1, 1.5) < 0
        with pytest.raises(ValueError):
            loop_margin(sys, 4, 0.4)

    def test_plus_one_coupling_basis_is_single_valued(self):
        # the general-coupling solver finds a full rational basis (deeper
        # shape), so the loops must be trivial: rational functions are single-valued
        from kzsolve.ansatz import solve_ansatz

        sys = new_system(4, 1, CANON)
        assert len(solve_ansatz(sys, pole_order=2, poly_degree=3)) == 4
        res = monodromy(sys, 2, 0.4, 1e-12)
        assert res.deviation < 1e-8


class TestResidualScan:
    """The floating negative control of the acceptance suite, ``conftest.float_residual_scan``."""

    def test_exact_solution_scans_tiny(self):
        sys = canon_sys()
        for build in (y1, y2, y3, y4):
            assert float_residual_scan(sys, build(CANON), 64) < 1e-12

    def test_corruption_is_loud(self):
        sys = canon_sys()
        fn = y2(CANON)
        res = list(fn.residues)
        res[0] = res[0] + Vector([1, 0, 0, 0])
        bad = RationalVectorFunction.simple(sys.points, res)
        assert float_residual_scan(sys, bad, 64) > 0.1

    def test_zero_function_is_exactly_zero(self):
        sys = canon_sys()
        fn = zero_function(sys.points, 4)
        assert float_residual_scan(sys, fn, 32) == 0.0


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


def _oracle_transport(sys, pieces, W0, tol):
    """The transport along ``pieces`` on scipy's solve_ivp: the reference."""
    return _transport_along(sys, pieces, W0, tol, _oracle_dop853)


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
            center = sys.points[k - 1].to_complex()
            identity = np.eye(n, dtype=complex)
            want, want_steps = _oracle_transport(sys, [_circle(center, 0.4)], identity, tol)
            got, got_steps = numverify._transport(sys, Circle(center, 0.4), identity, tol)
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
            (four, [3 + 0j, 4 + 1j], vector),
            (four, [3 + 0j, 3 + 2j, -1 + 2j, -1 + 0.5j], vector),
            (four, [4 + 0j, 4 - 1j, 0.5 - 1j, 0.5 + 0j], matrix),
            (six, [-1 + 0j, 2 + 2j], np.eye(6, dtype=complex)[:, :3]),
            (six, [-1 + 1j, 5 + 1j, 5 - 1j], np.arange(6, dtype=complex)),
        ]
        for sys, pts, W0 in cases:
            segments = [_line(a, b) for a, b in zip(pts, pts[1:])]
            want, want_steps = _oracle_transport(sys, segments, W0, tol)
            got, got_steps = _transport_along(sys, segments, W0, tol, _in_house_dop853)
            assert got.shape == W0.shape
            assert np.array_equal(got, want), (sys.n, pts, tol)
            assert got_steps == want_steps, (sys.n, pts, tol)

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
