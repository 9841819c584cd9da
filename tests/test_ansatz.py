import random
import time
from fractions import Fraction

import pytest

from conftest import (
    MEMOS,
    combine_functions,
    counted_images,
    derivative,
    entries_str,
    generic_points,
    leibniz_det,
    power,
    random_points,
    random_scalar,
    reference_add,
    reference_conditions,
    reference_dot,
    reference_eval,
    reference_in_span,
    reference_matvec,
    reference_nullspace,
    reference_residual,
    reference_scale,
    reference_solve_ansatz,
    reference_star_act,
    zero_function,
)
from kzsolve import ansatz
from kzsolve.ansatz import (
    RationalVectorFunction,
    _sample_record,
    check_conditions,
    coefficient_vector,
    in_span,
    residual,
    sample_count,
    sample_points,
    solve_ansatz,
)
from kzsolve.cli import ANSATZ_MAX_UNKNOWNS
from kzsolve.exactalg import (
    ONE,
    ZERO,
    GaussianRational,
    Matrix,
    Vector,
    linear_combination,
    nullspace,
    parse_scalar,
)
from kzsolve.kzcore import _inverses, _powers, new_system
from kzsolve.s4explicit import y1, y2, y3, y4

CANON = [0, 1, 2]


def canon_sys(rho=-1):
    return new_system(4, rho, CANON)


class TestStorage:
    """A function is its flat coefficient vector; the block tuples are views of it."""

    def test_from_blocks_pads_ragged_groups(self):
        rng = random.Random(3301)
        for _ in range(30):
            n = rng.randint(2, 5)
            points = tuple(random_points(rng, n - 1))

            def vec():
                return Vector([random_scalar(rng) if rng.random() < 0.7 else 0 for _ in range(n)])

            groups = [tuple(vec() for _ in range(rng.randint(0, 3))) for _ in points]
            poly = tuple(vec() for _ in range(rng.randint(0, 3)))
            fn = RationalVectorFunction.from_blocks(n, points, groups, poly)
            p = max(map(len, groups))
            padded = tuple(g + (Vector.zero(n),) * (p - len(g)) for g in groups)
            assert (fn.pole_order, fn.poly_degree) == (p, len(poly) - 1)
            assert fn.pole_coeffs == padded and fn.poly_coeffs == poly
            assert fn.coeffs == Vector.concat([*(v for g in padded for v in g), *poly])
            twin = RationalVectorFunction.from_blocks(n, points, padded, poly)
            assert fn == twin and hash(fn) == hash(twin)

    def test_shape_must_fit_coefficients(self):
        points = tuple(GaussianRational.coerce(p) for p in CANON)
        # shape (1, 1) on three poles is five blocks of four entries
        assert RationalVectorFunction(4, points, 1, 1, Vector.zero(20)).pole_coeffs[2] == (Vector.zero(4),)
        for size in (0, 16, 19, 21, 24):
            with pytest.raises(ValueError):
                RationalVectorFunction(4, points, 1, 1, Vector.zero(size))
        # n(s*p + d + 1) = 0 fits no negative pole order
        with pytest.raises(ValueError):
            RationalVectorFunction(4, points, -1, 2, Vector.zero(0))
        with pytest.raises(ValueError):
            RationalVectorFunction.from_blocks(4, points, ((), ()), ())
        with pytest.raises(ValueError):
            RationalVectorFunction.from_blocks(4, points, ((), (Vector.zero(3),), ()), ())

    def test_fields_are_immutable_and_compared_within_the_class(self):
        fn = y1(CANON)
        fields = (fn.dim, fn.points, fn.pole_order, fn.poly_degree, fn.coeffs)
        for name, value in (("coeffs", fn.coeffs.scale(2)), ("dim", 5), ("pole_coeffs", ())):
            with pytest.raises(AttributeError):
                setattr(fn, name, value)
        with pytest.raises(AttributeError):
            del fn.points
        assert (fn.dim, fn.points, fn.pole_order, fn.poly_degree, fn.coeffs) == fields
        assert fn != fields and fields != fn
        twin = RationalVectorFunction(*fields)
        assert fn == twin and hash(fn) == hash(twin) and fn is not twin
        assert len({fn, twin, fn.scale(2)}) == 2

    def test_scale_keeps_shape_and_points(self):
        gaussian = new_system(5, -2, [parse_scalar(z) for z in ("(-3/4,-1)", "3", "(1,1/2)", "(1/3,4/3)")])
        for fn in (y1(CANON), *solve_ansatz(gaussian, 2, 1)):
            for s in (0, 3, GaussianRational(Fraction(1, 2), -1)):
                scaled = fn.scale(s)
                assert type(scaled) is RationalVectorFunction
                assert (scaled.dim, scaled.points, scaled.pole_order, scaled.poly_degree) == (
                    fn.dim, fn.points, fn.pole_order, fn.poly_degree
                )
                assert scaled.points is fn.points and scaled.coeffs == fn.coeffs.scale(s)

    def test_solve_ansatz_cuts_no_segment(self, monkeypatch):
        # each basis function is its kernel vector; the block views are cut
        # only when read
        cut, cuts = Vector.segment, []
        monkeypatch.setattr(Vector, "segment", lambda *args: cuts.append(args) or cut(*args))
        gaussian = new_system(5, -2, [parse_scalar(z) for z in ("(-3/4,-1)", "3", "(1,1/2)", "(1/3,4/3)")])
        basis = [*solve_ansatz(canon_sys()), *solve_ansatz(canon_sys(1), 2, 1)]
        basis += solve_ansatz(gaussian, 2, 1)
        assert len(basis) == 9 and cuts == []
        assert basis[0].pole_coeffs and len(cuts) == 5


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
                want = reference_add(want, reference_scale(ONE / power(z - zk, r), vec.data))
        want = reference_add(want, reference_add(Q.data, reference_scale(z * z, M.data)))
        for here in ((), (Vector.zero(4),), (Vector.zero(4), Vector.zero(4))):
            fn = RationalVectorFunction.from_blocks(
                dim=4, points=points, pole_coeffs=(here, (L,), (M, L)), poly_coeffs=(Q, Vector.zero(4), M)
            )
            assert str(fn.eval(z)) == entries_str(want)
        for here in ((M,), (Vector.zero(4), L)):
            fn = RationalVectorFunction.from_blocks(4, points, (here, (L,), ()), ())
            with pytest.raises(ValueError):
                fn.eval(z)

    def test_derivative_of_constant(self):
        fn = RationalVectorFunction.from_blocks(
            dim=4,
            points=tuple(GaussianRational.coerce(p) for p in CANON),
            pole_coeffs=((), (), ()),
            poly_coeffs=(Vector([1, 2, 3, 4]),),
        )
        d = derivative(fn)
        assert d.eval(5).is_zero()

    def test_derivative_of_linear(self):
        q1 = Vector([1, -1, 0, 2])
        fn = RationalVectorFunction.from_blocks(
            dim=4,
            points=tuple(GaussianRational.coerce(p) for p in CANON),
            pole_coeffs=((), (), ()),
            poly_coeffs=(Vector.zero(4), q1),
        )
        d = derivative(fn)
        assert d.eval(5) == q1
        assert d.eval(17) == q1

    def test_derivative_deepens_poles(self):
        fn = y2(CANON)
        d = derivative(fn)
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
        rep = check_conditions(sys, zero_function(sys.points, 4))
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
            check_conditions(sys, derivative(y2(CANON)))

    @staticmethod
    def corrupted(rng, points, n):
        """A simple-pole, affine function with random Gaussian coefficients."""
        def vec():
            return Vector([random_scalar(rng) for _ in range(n)])
        return RationalVectorFunction.simple(points, tuple(vec() for _ in points), vec(), vec())

    def test_matches_dense_oracle(self):
        rng = random.Random(2610)
        cases = []
        for _ in range(4):
            pts = generic_points(rng)
            cases += [(4, pts, build(pts), True) for build in (y1, y2, y3, y4)]
        for n in (3, 4, 5, 6) * 2:
            pts = random_points(rng, n - 1)
            cases.append((n, pts, self.corrupted(rng, pts, n), False))
        for n, pts, fn, solves in cases:
            sys = new_system(n, -1, pts)
            rep = check_conditions(sys, fn)
            sym, balance, growth = reference_conditions(sys, fn)
            assert [list(v) for v in rep.residue_symmetry] == sym
            assert [list(v) for v in rep.pole_balance] == balance
            assert list(rep.growth) == growth
            families = (rep.residue_symmetry, rep.pole_balance, (rep.growth,))
            if solves:
                assert rep.passed
            else:
                # every family is nonzero, so the comparison above read real values
                assert all(any(not v.is_zero() for v in fam) for fam in families)


class TestResidual:
    def test_y2_is_solution(self):
        sys = canon_sys()
        assert residual(sys, y2(CANON), 3).is_zero()

    def test_constant_is_not_solution(self):
        sys = canon_sys()
        fn = RationalVectorFunction.from_blocks(
            dim=4,
            points=sys.points,
            pole_coeffs=((), (), ()),
            poly_coeffs=(Vector([1, 0, 0, 0]),),
        )
        assert not residual(sys, fn, 5).is_zero()

    def test_at_pole_raises(self):
        sys = canon_sys()
        for fn in (y2(CANON), zero_function(sys.points, 4)):
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
            fn = RationalVectorFunction.from_blocks(
                dim=n,
                points=sys.points,
                pole_coeffs=tuple(tuple(vec() for _ in range(rng.randint(0, 3))) for _ in range(n - 1)),
                poly_coeffs=tuple(vec() for _ in range(rng.randint(0, 3))),
            )
            z = sample_points(sys.points, 1)[0] + random_scalar(rng, span=3)
            if any((z - p).is_zero() for p in sys.points):
                continue
            want, _ = reference_eval(fn, z)
            assert str(fn.eval(z)) == entries_str(want)
            weights = [ONE / (z - zk) for zk in sys.points]
            rhs = Vector(reference_star_act(weights, fn.eval(z).data)).scale(sys.rho)
            assert residual(sys, fn, z) == derivative(fn).eval(z) - rhs
            # W' - rho A(z) W with no code of the fast path
            assert str(residual(sys, fn, z)) == entries_str(reference_residual(sys, fn, z))

    def test_function_flattened_once(self, monkeypatch):
        # residual reads the stored coefficient vector, its nonzero entries
        # found once per function and no block view cut; the cache is no
        # field, so equal functions stay equal and hash alike
        find, calls = ansatz._nonzero_entries, []
        monkeypatch.setattr(ansatz, "_nonzero_entries", lambda *args: calls.append(args) or find(*args))
        cut, cuts = Vector.segment, []
        monkeypatch.setattr(Vector, "segment", lambda *args: cuts.append(args) or cut(*args))
        sys = canon_sys()
        fn, twin = y1(CANON), y1(CANON)
        for z in sample_points(sys.points, 7):
            assert residual(sys, fn, z).is_zero()
        assert len(calls) == 1 and cuts == []
        assert fn == twin and hash(fn) == hash(twin)
        bumped = RationalVectorFunction.simple(
            sys.points, (fn.residues[0] + Vector.unit(4, 0), *fn.residues[1:]), fn.q_const, fn.q_linear
        )
        assert bumped != fn and not residual(sys, bumped, 5).is_zero()

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


class TestVerifyOracle:
    """check_conditions and residual, the checks of ``kz verify``, against the
    dense references on random functions of every shape the conditions take."""

    SHAPES = [(1, 1), (1, 0), (1, -1), (0, 1), (0, 0), (0, -1)]

    @staticmethod
    def random_function(rng, points, n, p, d):
        # some entries, vectors and pole groups zero, so the int loops meet
        # zero blocks and zero conditions
        def vec():
            if rng.random() < 0.2:
                return Vector.zero(n)
            return Vector([random_scalar(rng) if rng.random() < 0.7 else 0 for _ in range(n)])

        return RationalVectorFunction.from_blocks(
            dim=n,
            points=tuple(points),
            pole_coeffs=tuple(tuple(vec() for _ in range(p)) if rng.random() < 0.8 else () for _ in points),
            poly_coeffs=tuple(vec() for _ in range(d + 1)),
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_dense_references(self, n):
        rng = random.Random(3100 + n)
        for kind in ("int", "gaussian"):
            pts = rng.sample(range(-6, 7), n - 1) if kind == "int" else random_points(rng, n - 1)
            sys = new_system(n, -1, pts)
            fns = [self.random_function(rng, sys.points, n, p, d) for p, d in self.SHAPES for _ in range(2)]
            basis = solve_ansatz(sys, 1, 1)
            fns += basis + [combine_functions((random_scalar(rng), fn) for fn in basis)]
            zs = sample_points(sys.points, 2) + [sys.points[0] + random_scalar(rng, span=2)]
            for fn in fns:
                rep = check_conditions(sys, fn)
                sym, balance, growth = reference_conditions(sys, fn)
                assert rep.residue_symmetry == tuple(map(Vector, sym)), (kind, fn)
                assert rep.pole_balance == tuple(map(Vector, balance)), (kind, fn)
                assert rep.growth == Vector(growth), (kind, fn)
                for z in zs:
                    if z not in sys.points:
                        assert residual(sys, fn, z) == Vector(reference_residual(sys, fn, z)), (kind, fn, z)
                for zk in sys.points:
                    with pytest.raises(ValueError, match="pole"):
                        residual(sys, fn, zk)
            for fn in basis:
                assert check_conditions(sys, fn).passed
                assert all(residual(sys, fn, z).is_zero() for z in zs if z not in sys.points)

    def test_dimension_mismatch_raises(self):
        sys = canon_sys()
        fn = zero_function(sys.points, 5)
        for check in (lambda: check_conditions(sys, fn), lambda: residual(sys, fn, 7)):
            with pytest.raises(ValueError, match="dimension"):
                check()


class TestSamplePoints:
    def test_consecutive_integers_past_every_pole(self):
        rng = random.Random(214)
        configs = [random_points(rng, rng.randint(2, 8), span=9) for _ in range(30)]
        # real integer poles at the edge: the largest one, b, sits just below the first sample b + 2
        configs += [[b, b - 1, -b] for b in range(1, 6)] + [[0, -1]]
        configs.append([3, GaussianRational(3, 3), GaussianRational(-2, 1)])
        for pts in configs:
            pts = [GaussianRational.coerce(p) for p in pts]
            bound = 1 + max(int(max(abs(p.re), abs(p.im))) for p in pts)
            for count in (1, 4, 11):
                samples = sample_points(pts, count)
                assert samples == [GaussianRational(c) for c in range(bound + 1, bound + 1 + count)]
                assert all(z != p for z in samples for p in pts)

    def test_sample_count(self):
        # s(p + 1) + max(d, 0): a shape with no polynomial part (d = -1) adds none
        shapes = [(1, 1), (0, 0), (2, -1), (0, 35)]
        assert [sample_count(3, p, d) for p, d in shapes] == [7, 3, 9, 38]


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


class TestGluedSolve:
    """solve_ansatz, which solves each pole's deep rows by its own recursion and
    eliminates only the gluing rows, returns the full system's RREF kernel."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_full_system(self, n):
        # every rho in -3..3 on integer and on Gaussian poles with denominators;
        # the pole orders 1, |rho| and |rho| + 1 each meet one degree in 0..2
        rng = random.Random(2700 + n)
        for rho in range(-3, 4):
            integer, gaussian = rng.sample(range(-6, 7), n - 1), random_points(rng, n - 1)
            for kind, pts in (("int", integer), ("gaussian", gaussian)):
                sys = new_system(n, rho, pts)
                shift = rng.randrange(3)
                for i, p in enumerate(sorted({1, abs(rho), abs(rho) + 1} - {0})):
                    d = (i + shift) % 3
                    assert n * ((n - 1) * p + d + 1) <= ANSATZ_MAX_UNKNOWNS
                    got = [coefficient_vector(fn, p, d) for fn in solve_ansatz(sys, p, d)]
                    assert got == reference_solve_ansatz(sys, p, d), (kind, pts, rho, p, d)

    # (n, rho, p, d, dimension, shape of the one elimination): top-degree
    # resonances at infinity, c = rho(n - 2) for rho = 1 and c = |rho| for
    # rho < 0; middle-degree ones, c = rho(n - 2) below c = rho(n - 1);
    # rho = 0 and a shape with no parameter, which run no elimination
    RESONANT = [
        (4, 1, 1, 2, 3, (8, 5)),
        (4, -1, 1, 1, 4, (8, 10)),
        (4, -2, 1, 2, 0, (8, 1)),
        (4, -2, 2, 2, 4, (8, 10)),
        (4, 1, 1, 3, 4, (8, 6)),
        (3, 1, 1, 2, 3, (3, 4)),
        (4, 0, 1, 2, 4, None),
        (4, 0, 2, 1, 4, None),
        (4, -2, 1, 1, 0, None),
    ]

    @pytest.mark.parametrize("n, rho, p, d, dim, shape", RESONANT)
    def test_resonances_at_infinity(self, monkeypatch, n, rho, p, d, dim, shape):
        # s*n gluing rows less block 1's n on the pole and resonant
        # parameters: no growth row, no condition row and no Q_0 column
        real, shapes = ansatz.nullspace, []

        def counted(M):
            shapes.append((M.rows, M.cols))
            return real(M)

        rng = random.Random(2800 + 10 * n + rho)
        for pts in (rng.sample(range(-6, 7), n - 1), random_points(rng, n - 1)):
            sys = new_system(n, rho, pts)
            assert n * ((n - 1) * p + d + 1) <= ANSATZ_MAX_UNKNOWNS
            shapes.clear()
            monkeypatch.setattr(ansatz, "nullspace", counted)
            got = [coefficient_vector(fn, p, d) for fn in solve_ansatz(sys, p, d)]
            monkeypatch.setattr(ansatz, "nullspace", real)
            assert shapes == ([shape] if shape else []), pts
            assert len(got) == dim, pts
            assert got == reference_solve_ansatz(sys, p, d), pts

    def test_top_resonance_is_the_product_solution(self):
        # for rho > 0 the parameter fresh at c = rho(n - 1) is 1 there, and the
        # downward recursion continues it by the coefficients of the exact
        # solution prod_k (z - z_k)^rho 1, through the resonance at c = rho(n - 2):
        # that is why the resonance there needs no condition on it
        rng = random.Random(2814)
        for n, rho in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (3, 3)):
            pts = [GaussianRational.coerce(z) for z in random_points(rng, n - 1)]
            top = rho * (n - 1)
            coeffs = [ONE]
            for zk in pts:
                for _ in range(rho):
                    coeffs = [a - zk * b for a, b in zip([ZERO, *coeffs], [*coeffs, ZERO])]
            ones = ansatz._polynomial_part(n, rho, top, _powers(Vector(pts), top))[0]
            assert ones == [Vector([a] * n) for a in coeffs[1:]], (n, rho)

    def test_rref_kernel_form_of_any_basis(self):
        # any basis of a kernel, here random combinations of the RREF kernel,
        # is brought back to exactly the RREF kernel
        rng = random.Random(2711)
        for rows, cols in ((3, 7), (2, 6), (4, 9)):
            M = Matrix([[random_scalar(rng, 3) if rng.random() < 0.7 else 0 for _ in range(cols)]
                        for _ in range(rows)])
            kernel = nullspace(M)
            while True:
                mix = [[random_scalar(rng, 3) for _ in kernel] for _ in kernel]
                if not leibniz_det(mix).is_zero():
                    break
            basis = [linear_combination(zip(row, kernel), cols) for row in mix]
            assert ansatz._rref_kernel_form(basis) == kernel

    def test_one_elimination_on_the_glued_columns(self, monkeypatch):
        # n = 5 at rho = -2, shape (2, 1): 4 poles of 4 parameters, no resonant
        # degree and Q_0 read back from block 1, so blocks 2..4 less block 1
        # by 16 columns, where the full system is 65 x 50
        points = [parse_scalar(z) for z in ("(-3/4,-1)", "3", "(1,1/2)", "(1/3,4/3)")]
        sys = new_system(5, -2, points)
        real, shapes = ansatz.nullspace, []

        def counted(M):
            shapes.append((M.rows, M.cols))
            return real(M)

        monkeypatch.setattr(ansatz, "nullspace", counted)
        assert len(solve_ansatz(sys, 2, 1)) == 4
        assert shapes == [(3 * 5, 4 * 4)]

    @pytest.mark.parametrize(
        "n, rho, points, p, d, dim",
        [
            (5, -2, ["(-3/4,-1)", "3", "(1,1/2)", "(1/3,4/3)"], 2, 1, 4),
            (6, -1, ["(1/3,-3/2)", "-1", "(2,-1/2)", "(1/4,-2/3)", "2/3"], 1, 1, 6),
        ],
        ids=["n5-rho-2", "n6-rho-1"],
    )
    def test_gluing_kernel_lifts_from_one_prime(self, monkeypatch, n, rho, points, p, d, dim):
        # Gaussian poles whose gluing kernels carry entries of up to 48 bits:
        # one modular image, no CRT step and no second prime
        sys = new_system(n, rho, [parse_scalar(z) for z in points])
        primes = counted_images(monkeypatch)
        assert len(solve_ansatz(sys, p, d)) == dim
        assert len(primes) == 1


class TestCertificate:
    """solve_ansatz raises rather than return a kernel vector that is not a solution."""

    CASES = [
        (4, -1, ["0", "1", "2"], 1, 1),
        (4, -2, ["(0,1)", "1", "(2,-1)"], 2, 2),
        (5, 1, ["0", "1", "2", "3"], 2, 1),
        (5, -1, ["0", "1", "2", "3"], 2, 1),
    ]
    IDS = ["int-1-1", "gaussian-2-2", "n5-2-1", "n5-rho-1-2-1"]
    # at shape (2, 1) the n = 5 bases use simple poles only, and Q_1 only at
    # rho = -1: 4*2 + 0 and 4*2 + 1 points, not 4*3 + 1
    USED_POINTS = {(5, 1, 2, 1): 8, (5, -1, 2, 1): 9}

    @pytest.mark.parametrize("n, rho, points, p, d", CASES, ids=IDS)
    @pytest.mark.parametrize("entry", ["first", "last"])
    def test_corrupted_kernel_raises(self, monkeypatch, n, rho, points, p, d, entry):
        sys = new_system(n, rho, [parse_scalar(z) for z in points])
        assert solve_ansatz(sys, p, d)
        real = ansatz.nullspace

        def corrupted(M):
            # adds den, that is 1, to one entry of the last kernel vector
            kernel = real(M)
            v = kernel[-1]
            i = 0 if entry == "first" else v.dim - 1
            re = list(v.re)
            re[i] += v.den
            return [*kernel[:-1], Vector.from_parts(re, v.im, v.den)]

        monkeypatch.setattr(ansatz, "nullspace", corrupted)
        with pytest.raises(ArithmeticError):
            solve_ansatz(sys, p, d)

    # the most sample points at which a combination of the unknowns of shape
    # (p_u, d_u) that is no solution can vanish: each point takes n unknowns
    # beyond the solutions, so this is below the certificate's s(p_u + 1) + d_u
    # (7, 11, 8 and 9), which a degree bound proves; no corruption of that
    # shape survives one point more
    DEEPEST = {(4, -1, 1, 1): 3, (4, -2, 2, 2): 7, (5, 1, 2, 1): 4, (5, -1, 2, 1): 4}

    @pytest.mark.parametrize("n, rho, points, p, d", CASES, ids=IDS)
    def test_deepest_corruption_raises(self, monkeypatch, n, rho, points, p, d):
        sys = new_system(n, rho, [parse_scalar(z) for z in points])
        s, size = sys.s, n * (sys.s * p + d + 1)
        flat = [coefficient_vector(fn, p, d) for fn in solve_ansatz(sys, p, d)]
        # the highest pole order and degree at which some basis vector is nonzero
        used = {at // n for v in flat for at, (x, y) in enumerate(zip(v.re, v.im)) if x or y}
        p_u = max(u % p + 1 for u in used if u < s * p)
        d_u = max((u - s * p for u in used if u >= s * p), default=0)
        zs = sample_points(sys.points, s * (p_u + 1) + d_u)
        # the unknowns of shape (p_u, d_u) as flat columns, and each one's defect
        # at every sample point from the dense reference
        cols = [(k * p + r - 1) * n + i for k in range(s) for r in range(1, p_u + 1) for i in range(n)]
        cols += [(s * p + e) * n + i for e in range(d_u + 1) for i in range(n)]
        units = [RationalVectorFunction(n, sys.points, p, d, Vector.unit(size, c)) for c in cols]
        m = self.DEEPEST[n, rho, p, d]
        assert m < len(zs)
        defects = [[reference_residual(sys, fn, z) for fn in units] for z in zs[:m + 1]]

        def rows(count):
            return [[col[i] for col in point] for point in defects[:count] for i in range(n)]

        assert len(reference_nullspace(rows(m + 1))) == len(flat)
        # a combination with zero defect at the first m points and not at point m + 1
        delta = next(
            v for v in reference_nullspace(rows(m)) if any(not x.is_zero() for x in reference_matvec(rows(m + 1), v))
        )
        entries = [ZERO] * size
        for c, x in zip(cols, delta):
            entries[c] = x
        real = ansatz._glued_kernel
        monkeypatch.setattr(
            ansatz, "_glued_kernel", lambda *args: [*real(*args)[:-1], real(*args)[-1] + Vector(entries)]
        )
        with pytest.raises(ArithmeticError):
            solve_ansatz(sys, p, d)

    @pytest.mark.parametrize("n, rho, points, p, d", CASES, ids=IDS)
    def test_one_weight_table_per_sample_point(self, monkeypatch, n, rho, points, p, d):
        sys = new_system(n, rho, [parse_scalar(z) for z in points])
        seen = []
        real = ansatz._sample_record

        def counted(points_, z, p_, d_):
            assert (points_, p_, d_) == (sys.points, p, d)
            seen.append(z)
            return real(points_, z, p_, d_)

        monkeypatch.setattr(ansatz, "_sample_record", counted)
        basis = solve_ansatz(sys, p, d)
        assert basis
        # the highest pole order and degree at which some basis function is nonzero
        pole_orders = [r for fn in basis for g in fn.pole_coeffs for r, v in enumerate(g, 1) if not v.is_zero()]
        degrees = [e for fn in basis for e, v in enumerate(fn.poly_coeffs) if not v.is_zero()]
        p_used, d_used = max(pole_orders, default=0), max(degrees, default=0)
        assert seen == sample_points(sys.points, sys.s * (p_used + 1) + d_used)
        if (n, rho, p, d) in self.USED_POINTS:
            assert len(seen) == self.USED_POINTS[n, rho, p, d]


class TestInSpan:
    def test_non_member_runs_no_elimination(self, monkeypatch):
        sys = canon_sys()
        basis = solve_ansatz(sys)
        real, calls = ansatz.nullspace, []

        def counted(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(ansatz, "nullspace", counted)
        constant = RationalVectorFunction.from_blocks(
            dim=4, points=sys.points, pole_coeffs=((), (), ()), poly_coeffs=(Vector([1, 0, 0, 0]),)
        )
        assert not in_span(basis, constant)
        assert calls == []

    def test_verdicts(self):
        sys = canon_sys()
        basis = solve_ansatz(sys)
        zero = zero_function(sys.points, 4)
        assert in_span(basis, zero)
        assert in_span(basis, combine_functions([(3, y1(CANON)), (-1, y2(CANON))]))
        assert not in_span(basis[:3], basis[3])
        assert not in_span([], y1(CANON))
        bumped = RationalVectorFunction.simple(
            sys.points, (Vector([1, 0, 0, 0]), Vector.zero(4), Vector.zero(4))
        )
        assert not in_span(basis, combine_functions([(1, y1(CANON)), (1, bumped)]))
        # a shape larger than the basis': the deeper blocks are zero columns
        assert in_span(basis, y4(CANON), pole_order=2, poly_degree=3)

    def test_empty_basis_spans_only_zero(self):
        sys = canon_sys()
        assert in_span([], zero_function(sys.points, 4))
        assert in_span([], zero_function(sys.points, 4), pole_order=2, poly_degree=3)
        assert in_span([], y1(CANON).scale(0))
        assert not in_span([], y1(CANON))
        constant = RationalVectorFunction.from_blocks(
            dim=4, points=sys.points, pole_coeffs=((), (), ()), poly_coeffs=(Vector([0, 0, 0, 1]),)
        )
        assert not in_span([], constant)

    def test_own_shape_flattened_once(self):
        # coefficient_vector in a function's own shape is its stored vector,
        # equal to the concatenation of its block views
        sys = canon_sys()
        for fn in [*solve_ansatz(sys, 2, 1), *solve_ansatz(sys), y1(CANON)]:
            p, d = fn.pole_order, fn.poly_degree
            flat = coefficient_vector(fn, p, d)
            assert flat is fn.coeffs
            assert flat == Vector.concat([*(v for g in fn.pole_coeffs for v in g), *fn.poly_coeffs])
            copy = RationalVectorFunction(fn.dim, fn.points, p, d, fn.coeffs)
            assert coefficient_vector(copy, p, d) == flat
            # a larger shape pads each pole's blocks and the polynomial ones with zeros
            zero = Vector.zero(fn.dim)
            wider = Vector.concat([*(v for g in fn.pole_coeffs for v in (*g, zero)), *fn.poly_coeffs, zero])
            assert coefficient_vector(fn, p + 1, d + 1) == wider
            assert coefficient_vector(fn, p + 1, d) is not flat

    def test_matches_bordered_nullspace(self):
        # random coefficient vectors, not solutions: bases with dependent
        # vectors and the empty basis, against members, the zero function and
        # vectors that leave the span
        rng = random.Random(2812)
        sys = canon_sys()
        for p, d in ((1, 1), (2, 1), (1, 2)):
            size = 4 * (3 * p + d + 1)

            def sparse():
                return Vector([random_scalar(rng, 3) if rng.random() < 0.3 else 0 for _ in range(size)])

            for _ in range(12):
                vecs = [sparse() for _ in range(rng.randrange(4))]
                if vecs and rng.random() < 0.5:
                    # a dependent vector, a combination of the others
                    vecs.insert(rng.randrange(len(vecs) + 1),
                                linear_combination([(random_scalar(rng, 3), v) for v in vecs], size))
                basis = [RationalVectorFunction(4, sys.points, p, d, v) for v in vecs]
                member = linear_combination([(random_scalar(rng, 3), v) for v in vecs], size)
                for target in (member, Vector.zero(size), sparse(), member + sparse()):
                    fn = RationalVectorFunction(4, sys.points, p, d, target)
                    assert in_span(basis, fn, p, d) == reference_in_span(basis, fn, p, d), (vecs, target)
                assert in_span(basis, RationalVectorFunction(4, sys.points, p, d, member), p, d)

    def test_functions_on_other_poles_or_dimensions_refused(self):
        # the same coefficients on poles 0,1,3 are no solution there, so the
        # coefficient read alone must not call them a member
        sys = canon_sys()
        basis = solve_ansatz(sys)
        other = new_system(4, -1, [0, 1, 3])
        first = basis[0]
        moved = RationalVectorFunction(first.dim, other.points, first.pole_order, first.poly_degree, first.coeffs)
        assert any(not residual(other, moved, z).is_zero() for z in sample_points(other.points, 7))
        for members, fn in (
            (basis, moved),
            ([moved, *basis[1:]], basis[0]),
            (basis, zero_function(sys.points, 5)),
        ):
            with pytest.raises(ValueError):
                in_span(members, fn)


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
        combo = combine_functions([(1, y1(CANON)), (1, y4(CANON))])
        assert check_conditions(sys, combo).passed
        assert residual(sys, combo, 9).is_zero()


class TestWeightMemo:
    """One sample record per point and shape, keyed on everything it depends on."""

    @staticmethod
    def verify(sys, fns, zs):
        """The ``kz verify`` recipe: conditions, then residuals at every sample point."""
        return [(check_conditions(sys, fn).named(), [residual(sys, fn, z) for z in zs]) for fn in fns]

    def test_one_table_per_point_and_shape_in_a_verify(self):
        sys = new_system(4, -1, [0, GaussianRational(1, -2), Fraction(5, 3)])
        zs = sample_points(sys.points, 7)
        fns = [build(sys.points) for build in (y1, y2, y3, y4)]
        for _, res in self.verify(sys, fns, zs):
            assert all(r.is_zero() for r in res)
        # y1 is of shape (1, 1), y2..y4 of shape (1, -1); inverses at 3 poles and 7 points
        assert _sample_record.cache_info().misses == 14
        assert _inverses.cache_info().misses == 10

    def test_same_poles_other_rho_get_other_weights(self):
        z = GaussianRational(9)
        minus_one, two = canon_sys(-1), canon_sys(2)
        # the record does not depend on rho: both residuals read one record
        assert residual(minus_one, y1(CANON), z).is_zero()
        assert not residual(two, y1(CANON), z).is_zero()
        assert _sample_record.cache_info().misses == 1
        assert _sample_record.cache_info().hits == 1
        inverses, _, _ = _sample_record(minus_one.points, z, 1, 1)
        assert ansatz._rho_weights(inverses, -1, z) != ansatz._rho_weights(inverses, 2, z)

    def test_other_poles_get_other_tables(self):
        z = GaussianRational(9)
        other = [0, 1, 3]
        for p, d in ((1, 1), (1, -1), (2, 0)):
            a = _sample_record(canon_sys().points, z, p, d)
            b = _sample_record(new_system(4, -1, other).points, z, p, d)
            assert a[0] != b[0] and a[1] != b[1]
        # warm records for CANON do not leak into the other configuration
        assert residual(canon_sys(), y1(CANON), z).is_zero()
        assert residual(new_system(4, -1, other), y1(other), z).is_zero()

    def test_cached_values_are_immutable(self):
        sys = canon_sys()
        inverses, table, den = _sample_record(sys.points, GaussianRational(5), 2, 1)
        assert isinstance(inverses, Vector) and inverses is _inverses(sys.points, GaussianRational(5))
        assert isinstance(table, tuple) and isinstance(den, int)
        assert all(isinstance(row, tuple) and all(type(x) is int for x in row) for row in table)

    def test_residual_at_a_pole_raises_on_a_cold_and_a_warm_record(self):
        # eval of a function with no term at a pole caches the record there,
        # so residual must refuse the pole on reading the record, not on building it
        sys = canon_sys()
        # a term at z_1 and a constant, none at z_2 or z_3
        fn = RationalVectorFunction.from_blocks(
            4, sys.points, ((Vector([1, 2, 3, 4]),), (), ()), (Vector([0, 1, 0, -1]),)
        )
        cold, warm = sys.points[1], sys.points[2]
        with pytest.raises(ValueError) as info:
            residual(sys, fn, cold)
        assert str(info.value) == f"A(z) evaluated at the pole z = {cold}"
        assert _sample_record.cache_info().hits == 0
        fn.eval(warm)
        with pytest.raises(ValueError) as info:
            residual(sys, fn, warm)
        assert str(info.value) == f"A(z) evaluated at the pole z = {warm}"
        assert _sample_record.cache_info().hits == 1

    def test_eval_then_residual_is_one_record(self):
        sys, z = canon_sys(), GaussianRational(9)
        fn = y1(CANON)
        fn.eval(z)
        assert residual(sys, fn, z).is_zero()
        assert _sample_record.cache_info().misses == 1
        assert _sample_record.cache_info().hits == 1

    def test_cold_and_warm_runs_agree(self):
        rng = random.Random(2611)
        configs = [new_system(4, -1, generic_points(rng)) for _ in range(3)]
        runs = []
        for sys in configs:
            zs = sample_points(sys.points, 7)
            fns = [build(sys.points) for build in (y1, y2, y3, y4)]
            bad = RationalVectorFunction.simple(
                sys.points, (fns[0].residues[0] + Vector.unit(4, 1), *fns[0].residues[1:]),
                fns[0].q_const, fns[0].q_linear,
            )
            runs.append((sys, [*fns, bad], zs))
        for memo in MEMOS:
            memo.cache_clear()
        cold = [self.verify(*run) for run in runs]
        warm = [self.verify(*run) for run in reversed(runs)][::-1]
        assert warm == cold
        # a warm residual reads its record and builds no inverses or table
        assert _sample_record.cache_info().hits > 0
        # the corrupted candidate's residuals, so the comparison reads nonzero values
        assert not all(r.is_zero() for r in cold[0][4][1])


class TestDuality:
    """A(z) is symmetric, so for U' = -rho A U and W' = rho A W the pairing
    U^T W is constant: the bases at rho and -rho pair to one matrix at every
    point, and it is nonsingular as both are fundamental. Only ``eval`` is
    shared with the solver."""

    AT = [
        GaussianRational(Fraction(17, 11)),
        GaussianRational(Fraction(-29, 13), Fraction(5, 7)),
        GaussianRational(Fraction(3, 19), Fraction(-31, 17)),
    ]

    @staticmethod
    def bound_basis(n, rho, points):
        # the exponent bound shape: pole order |rho|, degree max(rho(n - 1), -rho)
        return solve_ansatz(new_system(n, rho, points), abs(rho), max(rho * (n - 1), -rho))

    @pytest.mark.parametrize("kind", ["int", "gaussian"])
    @pytest.mark.parametrize("n, rho", [(4, 1), (4, 2), (5, 1), (6, 2), (7, 1)])
    def test_pairing_is_constant_and_nonsingular(self, n, rho, kind):
        rng = random.Random(3600 + 10 * n + rho)
        points = list(range(n - 1)) if kind == "int" else random_points(rng, n - 1)
        W, U = self.bound_basis(n, rho, points), self.bound_basis(n, -rho, points)
        assert len(W) == len(U) == n
        pairings = []
        for z in self.AT:
            assert all(not (z - GaussianRational.coerce(p)).is_zero() for p in points)
            ws, us = [list(w.eval(z)) for w in W], [list(u.eval(z)) for u in U]
            pairings.append([[reference_dot(u, w) for w in ws] for u in us])
        assert pairings[1] == pairings[0] and pairings[2] == pairings[0]
        assert not leibniz_det(pairings[0]).is_zero()
