import random
import time
from fractions import Fraction

import pytest

from conftest import (
    entries_str,
    random_points,
    random_scalar,
    reference_add,
    reference_matvec,
    reference_scale,
    reference_sub,
    star_generators,
)
from kzsolve.ansatz import (
    RationalVectorFunction,
    check_conditions,
    in_span,
    residual,
    sample_points,
    solve_ansatz,
)
from kzsolve.exactalg import ONE, ZERO, GaussianRational, Vector, parse_scalar
from kzsolve.kzcore import eval_A, new_system
from kzsolve.symrep import star_act
from kzsolve.s4explicit import y1, y2, y3, y4

CANON = [0, 1, 2]


def canon_sys(rho=-1):
    return new_system(4, rho, CANON)


class TestEvalAndDerivative:
    def test_y2_at_three(self):
        val = y2(CANON).eval(3)
        assert val == Vector([1, 1, 1, 1]).scale(GaussianRational(Fraction(-1, 3)))

    def test_eval_at_pole_raises(self):
        with pytest.raises(ValueError):
            y2(CANON).eval(0)

    def test_eval_at_pole_without_terms_there(self):
        # an empty or all-zero group at z_1 contributes nothing at z = z_1,
        # and any nonzero coefficient there, at any order, raises
        points = tuple(parse_scalar(p) for p in ("(1/2,1)", "1", "-3/2"))
        z = points[0]
        L, Q = Vector([1, 2, 3, 4]), Vector([0, 1, 0, -1])
        M = Vector([parse_scalar(e) for e in ("(0,1)", "0", "1/3", "-1")])
        want = [ZERO] * 4
        for zk, group in zip(points[1:], ((L,), (M, L))):
            for r, vec in enumerate(group, start=1):
                want = reference_add(want, reference_scale(ONE / (z - zk) ** r, vec.data))
        want = reference_add(want, reference_add(Q.data, reference_scale(z * z, M.data)))
        for here in ((), (Vector.zero(4),), (Vector.zero(4), Vector.zero(4))):
            fn = RationalVectorFunction(
                dim=4, points=points, pole_coeffs=(here, (L,), (M, L)), poly_coeffs=(Q, Vector.zero(4), M)
            )
            assert str(fn.eval(z)) == entries_str(want)
        for here in ((M,), (Vector.zero(4), L)):
            fn = RationalVectorFunction(dim=4, points=points, pole_coeffs=(here, (L,), ()), poly_coeffs=())
            with pytest.raises(ValueError):
                fn.eval(z)

    def test_derivative_of_constant(self):
        fn = RationalVectorFunction(
            dim=4,
            points=tuple(GaussianRational.coerce(p) for p in CANON),
            pole_coeffs=((), (), ()),
            poly_coeffs=(Vector([1, 2, 3, 4]),),
        )
        d = fn.derivative()
        assert d.eval(5).is_zero()

    def test_derivative_of_linear(self):
        q1 = Vector([1, -1, 0, 2])
        fn = RationalVectorFunction(
            dim=4,
            points=tuple(GaussianRational.coerce(p) for p in CANON),
            pole_coeffs=((), (), ()),
            poly_coeffs=(Vector.zero(4), q1),
        )
        d = fn.derivative()
        assert d.eval(5) == q1
        assert d.eval(17) == q1

    def test_derivative_deepens_poles(self):
        fn = y2(CANON)
        d = fn.derivative()
        assert d.pole_order == 2
        # residue of the derivative at each pole order 2 is -L_k
        for k in range(3):
            assert d.pole_coeffs[k][1] == fn.pole_coeffs[k][0].scale(-1)


class TestCheckConditions:
    def test_y1_passes(self):
        rep = check_conditions(canon_sys(), y1(CANON))
        assert rep.passed
        assert rep.failures() == []

    def test_zero_function_passes(self):
        sys = canon_sys()
        rep = check_conditions(sys, RationalVectorFunction.zero(sys.points, 4))
        assert rep.passed

    def test_single_entry_residue_fails(self):
        sys = canon_sys()
        fn = RationalVectorFunction.simple(
            sys.points,
            (Vector([1, 0, 0, 0]), Vector.zero(4), Vector.zero(4)),
        )
        rep = check_conditions(sys, fn)
        assert not rep.passed
        assert rep.residue_symmetry[0] == Vector([1, -1, 0, 0])
        assert "residue-symmetry k=1" in rep.failures()

    def test_rho_mismatch_raises(self):
        sys = canon_sys(rho=1)
        with pytest.raises(ValueError):
            check_conditions(sys, y1(CANON))

    def test_wrong_shape_raises(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            check_conditions(sys, y2(CANON).derivative())


class TestResidual:
    def test_y2_is_solution(self):
        sys = canon_sys()
        assert residual(sys, y2(CANON), 3).is_zero()

    def test_constant_is_not_solution(self):
        sys = canon_sys()
        fn = RationalVectorFunction(
            dim=4,
            points=sys.points,
            pole_coeffs=((), (), ()),
            poly_coeffs=(Vector([1, 0, 0, 0]),),
        )
        assert not residual(sys, fn, 5).is_zero()

    def test_at_pole_raises(self):
        sys = canon_sys()
        for fn in (y2(CANON), RationalVectorFunction.zero(sys.points, 4)):
            for zk in sys.points:
                with pytest.raises(ValueError):
                    residual(sys, fn, zk)

    def test_matches_entrywise_evaluation(self):
        # W(z) and W'(z) from one inverse per pole against the term-by-term
        # sum of L (z - z_k)^-r and Q z^d, and the residual against the
        # closed-form derivative function
        rng = random.Random(401)
        for trial in range(40):
            n = rng.randint(3, 6)
            sys = new_system(n, rng.randint(-2, 2), random_points(rng, n - 1))
            def vec():
                return Vector([random_scalar(rng) if rng.random() < 0.7 else 0 for _ in range(n)])
            fn = RationalVectorFunction(
                dim=n,
                points=sys.points,
                pole_coeffs=tuple(tuple(vec() for _ in range(rng.randint(0, 3))) for _ in range(n - 1)),
                poly_coeffs=tuple(vec() for _ in range(rng.randint(0, 3))),
            )
            z = sample_points(sys.points, 1)[0] + random_scalar(rng, span=3)
            if any((z - p).is_zero() for p in sys.points):
                continue
            want = [ZERO] * n
            for zk, group in zip(sys.points, fn.pole_coeffs):
                for r, L in enumerate(group, start=1):
                    want = reference_add(want, reference_scale(ONE / (z - zk) ** r, L.data))
            for d, Q in enumerate(fn.poly_coeffs):
                want = reference_add(want, reference_scale(z ** d, Q.data))
            assert str(fn.eval(z)) == entries_str(want)
            rhs = star_act(eval_A(sys, z), fn.eval(z)).scale(sys.rho)
            assert residual(sys, fn, z) == fn.derivative().eval(z) - rhs
            # W' - rho A(z) W with no code of the fast path: W' term by term,
            # A(z) W through the dense star generators
            slope = [ZERO] * n
            for zk, group in zip(sys.points, fn.pole_coeffs):
                for r, L in enumerate(group, start=1):
                    slope = reference_add(slope, reference_scale(-r * ONE / (z - zk) ** (r + 1), L.data))
            for d, Q in enumerate(fn.poly_coeffs):
                if d:
                    slope = reference_add(slope, reference_scale(d * z ** (d - 1), Q.data))
            a_w = [ZERO] * n
            for zk, P in zip(sys.points, star_generators(n)):
                a_w = reference_add(a_w, reference_scale(ONE / (z - zk), reference_matvec(P.data, want)))
            want_residual = reference_sub(slope, reference_scale(GaussianRational(sys.rho), a_w))
            assert str(residual(sys, fn, z)) == entries_str(want_residual)

    def test_y1_vanishes_at_random_points(self):
        rng = random.Random(400)
        sys = canon_sys()
        fn = y1(CANON)
        count = 0
        while count < 10:
            z = random_scalar(rng, span=9)
            if any((z - p).is_zero() for p in sys.points):
                continue
            assert residual(sys, fn, z).is_zero()
            count += 1


class TestSolveAnsatz:
    def test_dimension_four_canonical(self):
        basis = solve_ansatz(canon_sys())
        assert len(basis) == 4

    def test_named_solutions_in_span(self):
        sys = canon_sys()
        basis = solve_ansatz(sys)
        for build in (y1, y2, y3, y4):
            assert in_span(basis, build(CANON))

    def test_dimension_four_random_configs(self):
        rng = random.Random(401)
        for _ in range(3):
            pts = random_points(rng)
            sys = new_system(4, -1, pts)
            basis = solve_ansatz(sys)
            assert len(basis) == 4
            for build in (y1, y2, y3, y4):
                assert in_span(basis, build(pts))

    def test_s3_nonempty(self):
        sys = new_system(3, -1, [0, 1])
        basis = solve_ansatz(sys)
        assert len(basis) >= 1
        for fn in basis:
            assert check_conditions(sys, fn).passed

    def test_richer_shapes_add_nothing_at_minus_one(self):
        # deeper poles and higher degrees are forced to zero at this coupling
        sys = canon_sys()
        assert len(solve_ansatz(sys, pole_order=2, poly_degree=2)) == 4

    def test_no_polynomial_part_loses_one_solution(self):
        sys = canon_sys()
        assert len(solve_ansatz(sys, poly_degree=0)) == 3

    def test_experimental_general_coupling(self):
        # rho = +1: the simple shape carries a single rational solution and
        # richer shapes recover a full fundamental set
        sys = new_system(4, 1, CANON)
        assert len(solve_ansatz(sys)) == 1
        assert len(solve_ansatz(sys, pole_order=2, poly_degree=3)) == 4

    def test_no_solutions_shape_for_large_coupling(self):
        sys = new_system(4, -5, CANON)
        assert solve_ansatz(sys) == []

    def test_bad_shape_arguments(self):
        sys = canon_sys()
        with pytest.raises(ValueError):
            solve_ansatz(sys, pole_order=0)
        with pytest.raises(ValueError):
            solve_ansatz(sys, poly_degree=-1)

    def test_n5_full_dimension(self):
        # the simple shape already carries a fundamental set for n = 5
        sys = new_system(5, -1, [0, 1, 2, 3])
        basis = solve_ansatz(sys)
        assert len(basis) == 5
        for fn in basis:
            assert check_conditions(sys, fn).passed

    def test_gaussian_pivots_stay_bounded(self):
        # complex pivots leave Gaussian prime factors that no integer gcd
        # removes, so only exact division by the previous pivot keeps the
        # elimination's entries small on these poles
        points = [parse_scalar(z) for z in ("-3/2", "(0,1/3)", "1/2")]
        t0 = time.perf_counter()
        basis = solve_ansatz(new_system(4, -2, points), pole_order=2, poly_degree=1)
        assert time.perf_counter() - t0 < 5.0
        assert len(basis) == 3

    def test_n8_within_budget(self):
        sys = new_system(8, -1, list(range(7)))
        t0 = time.perf_counter()
        basis = solve_ansatz(sys)
        assert time.perf_counter() - t0 < 4.0
        assert len(basis) == 8
        for fn in basis:
            assert check_conditions(sys, fn).passed


class TestEquivalenceProperties:
    def test_solutions_pass_both_routes(self):
        rng = random.Random(402)
        pts = random_points(rng)
        sys = new_system(4, -1, pts)
        checks = sample_points(sys.points, sys.s + 3)
        for fn in solve_ansatz(sys):
            assert check_conditions(sys, fn).passed
            assert all(residual(sys, fn, z).is_zero() for z in checks)

    def test_perturbed_solutions_fail_both_routes(self):
        rng = random.Random(403)
        sys = canon_sys()
        checks = sample_points(sys.points, sys.s + 3)
        basis = solve_ansatz(sys)
        for trial in range(6):
            fn = basis[trial % 4]
            bump = Vector.unit(4, trial % 4)
            res = list(fn.residues)
            res[trial % 3] = res[trial % 3] + bump
            bad = RationalVectorFunction.simple(sys.points, res, fn.q_const, fn.q_linear)
            assert not check_conditions(sys, bad).passed
            assert any(not residual(sys, bad, z).is_zero() for z in checks)

    def test_random_vectors_agree_on_both_routes(self):
        # a random shape either passes both routes or fails both
        rng = random.Random(405)
        sys = canon_sys()
        checks = sample_points(sys.points, sys.s + 3)
        for _ in range(8):
            fn = RationalVectorFunction.simple(
                sys.points,
                tuple(
                    Vector([random_scalar(rng, span=3) for _ in range(4)])
                    for _ in range(3)
                ),
                Vector([random_scalar(rng, span=3) for _ in range(4)]),
                Vector([random_scalar(rng, span=3) for _ in range(4)]),
            )
            passes = check_conditions(sys, fn).passed
            samples_zero = all(residual(sys, fn, z).is_zero() for z in checks)
            assert passes == samples_zero

    def test_scaling_preserves_pass(self):
        rng = random.Random(404)
        sys = canon_sys()
        fn = y3(CANON)
        for _ in range(5):
            c = random_scalar(rng)
            rep = check_conditions(sys, fn.scale(c))
            assert rep.passed

    def test_sum_of_passing_passes(self):
        sys = canon_sys()
        combo = y1(CANON) + y4(CANON)
        assert check_conditions(sys, combo).passed
        assert residual(sys, combo, 9).is_zero()
