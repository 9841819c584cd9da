import random
from fractions import Fraction

import pytest

import conftest
from conftest import (
    brute_rank,
    dense_combination,
    dense_integer_eigenvalues,
    derivative,
    identity,
    instantiate,
    laurent_of_rational,
    random_points,
    random_scalar,
    recursion_defect,
    reference_frobenius_solve,
    reference_matvec,
    reference_solve_affine,
    star_sum,
)
from kzsolve import frobenius
from kzsolve.ansatz import RationalVectorFunction
from kzsolve.exactalg import GaussianRational, Matrix, Vector, nullspace
from kzsolve.frobenius import exponent_window, frobenius_solve
from kzsolve.kzcore import LocalCoefficients, local_coefficients, new_system
from kzsolve.s4explicit import y1, y2, y3, y4

CANON = [0, 1, 2]


def printed(fams):
    return [
        (f.start, {q: [str(col) for col in cols] for q, cols in f.basis.items()})
        for f in fams
    ]


def canon_sys(rho=-1):
    return new_system(4, rho, CANON)


class TestExponentWindow:
    def test_rho_minus_one(self):
        sys = canon_sys(-1)
        for k in (1, 2, 3):
            assert exponent_window(sys, k) == (-1, 1)

    def test_rho_plus_one(self):
        sys = canon_sys(1)
        for k in (1, 2, 3):
            assert exponent_window(sys, k) == (-1, 1)

    def test_rho_two_scales_window(self):
        sys = canon_sys(2)
        assert exponent_window(sys, 1) == (-2, 2)

    @staticmethod
    def residue(sys, k):
        return star_sum(local_coefficients(sys, k, -1).minus_one)

    def test_closed_form_matches_integer_spectrum(self):
        for n in range(3, 8):
            for rho in range(-3, 4):
                sys = new_system(n, rho, list(range(n - 1)))
                for k in (1, n - 1):
                    eig = dense_integer_eigenvalues(self.residue(sys, k))
                    assert sum(eig.values()) == n
                    assert exponent_window(sys, k) == (min(eig), max(eig))

    def test_closed_form_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(3, 8):
            for rho in range(-3, 4):
                sys = new_system(n, rho, list(range(n - 1)))
                for k in range(1, n):
                    dense = self.residue(sys, k)
                    M = sympy.Matrix(n, n, lambda i, j: int(dense[i][j].re))
                    eig = M.eigenvals()
                    assert exponent_window(sys, k) == (min(eig), max(eig))

    def test_pole_index_out_of_range(self):
        for n in (3, 5):
            sys = new_system(n, -1, list(range(n - 1)))
            for k in (0, n):
                with pytest.raises(ValueError):
                    exponent_window(sys, k)


class TestFrobeniusSolve:
    def test_seed_space_dimension(self):
        # the seed equation at the lowest order is (-I - a(-1)) b = 0,
        # i.e. the +1 eigenspace of the transposition: dimension 3
        sys = canon_sys(-1)
        a = star_sum(local_coefficients(sys, 1, -1).minus_one)
        seed = nullspace(Matrix(dense_combination([(-1, identity(4)), (-1, a)])))
        assert len(seed) == 3

    def test_family_structure(self):
        sys = canon_sys(-1)
        fams = frobenius_solve(sys, 1, 4)
        starts = sorted(f.start for f in fams)
        assert starts == [-1, 1]
        by_start = {f.start: f for f in fams}
        assert by_start[-1].dimension == 4
        assert by_start[1].dimension == 1
        # attainable leading coefficients at the pole span the seed space only
        assert brute_rank(list(zip(*by_start[-1].basis[-1]))) == 3

    def test_member_with_prescribed_residue(self):
        sys = canon_sys(-1)
        fams = frobenius_solve(sys, 1, 4)
        fam = next(f for f in fams if f.start == -1)
        target = Vector([1, 1, -1, -1])
        consistent, params, _ = reference_solve_affine(list(zip(*fam.basis[-1])), target)
        assert consistent
        series = instantiate(fam, params)
        assert series.coeff(-1) == target
        for t in range(-1, 5):
            assert recursion_defect(sys, series, t).is_zero()

    def test_pole_free_branch_exists_at_every_pole(self):
        # solutions that vanish at the pole: the regular branch starts at +1
        # (0 is not an eigenvalue of the folded residue, so no constant branch)
        sys = canon_sys(-1)
        for k in (1, 2, 3):
            fams = frobenius_solve(sys, k, 3)
            regular = [f for f in fams if f.start >= 0]
            assert len(regular) == 1
            assert regular[0].start == 1
            assert regular[0].dimension == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_families_match_reference(self, n):
        # Gaussian-rational poles with denominators
        fractional = random_points(random.Random(310 + n), n - 1, 4)
        if n <= 6:
            integer = list(range(n - 1))
            gaussian = [GaussianRational(j, (-1) ** j) for j in range(n - 1)]
            cases = [(rho, pts) for rho in range(-3, 4) for pts in (integer, gaussian, fractional)]
        else:
            cases = [(rho, fractional) for rho in (-2, 2)]
        for rho, points in cases:
            sys = new_system(n, rho, points)
            for k in range(1, n):
                # past |rho| nothing is pruned, so the families at |rho| + 6
                # hold those at every lower truncation order
                for order in (abs(rho), abs(rho) + 6):
                    got = frobenius_solve(sys, k, order)
                    assert printed(got) == printed(reference_frobenius_solve(sys, k, order))

    def test_instantiated_members_satisfy_recursion(self):
        rng = random.Random(300)
        sys = new_system(4, -1, random_points(rng))
        for k in (1, 2, 3):
            for fam in frobenius_solve(sys, k, 3):
                for i in range(fam.dimension):
                    params = [1 if j == i else 0 for j in range(fam.dimension)]
                    series = instantiate(fam, params)
                    for t in range(series.start, 4):
                        assert recursion_defect(sys, series, t).is_zero()

    def test_starts_are_integer_eigenvalues(self):
        for rho in (-1, 1, 2):
            sys = canon_sys(rho)
            eigs = set(
                dense_integer_eigenvalues(star_sum(local_coefficients(sys, 2, -1).minus_one))
            )
            starts = {fam.start for fam in frobenius_solve(sys, 2, max(2, rho))}
            assert starts == eigs
            if rho == -1:
                assert min(starts) >= -1

    def test_truncation_order_too_small(self):
        sys = canon_sys(-1)
        with pytest.raises(ValueError):
            frobenius_solve(sys, 1, 0)


class TestResonancePruning:
    """Resonances at which carried parameter combinations die.

    n = 3 with star-weight fakes a(-1) = rho*P_1, a(0) = P_2 and a(j >= 1) = 0.
    For rho = -1 the seeds at order -1 are the +1 eigenvectors (a, a, c) of
    P_1; at order 1 the right-hand side is (2 3) applied to the seed, which
    I + P_1 reaches only when a = c, so two carried parameters become one
    and order 1 adds the -1 eigenvector of P_1 as a fresh parameter. For
    rho = 1 the order -1 seed (1, -1, 0) dies at order 1 altogether.
    Each fake has a nonzero condition matrix at its second resonance, and
    the families must also match the bordered-nullspace reference run on
    the same fake.
    """

    @staticmethod
    def fake(monkeypatch, head, regular):
        def fake_local(sys, k, order):
            zero = Vector([0] * len(head))
            return LocalCoefficients(
                k, Vector(head), tuple(regular[j] if j < len(regular) else zero for j in range(order + 1))
            )

        monkeypatch.setattr(frobenius, "local_coefficients", fake_local)
        monkeypatch.setattr(conftest, "local_coefficients", fake_local)

    @staticmethod
    def check_members(sys, fams, order):
        for fam in fams:
            for i in range(fam.dimension):
                params = [1 if j == i else 0 for j in range(fam.dimension)]
                series = instantiate(fam, params)
                for t in range(series.start, order + 1):
                    assert recursion_defect(sys, series, t).is_zero()

    @pytest.mark.parametrize(
        "rho, expected",
        [
            (-1, [
                (-1, {-1: [[1, 1, 1], [0, 0, 0]], 0: [[1, 1, 1], [0, 0, 0]],
                      1: [[1, 0, Fraction(1, 2)], [-1, 1, 0]]}),
                (1, {1: [[-1, 1, 0]]}),
            ]),
            (1, [(1, {1: [[1, 1, 0], [0, 0, 1]]})]),
        ],
        ids=["rho-1", "rho+1"],
    )
    def test_pruned_families(self, monkeypatch, rho, expected):
        self.fake(monkeypatch, [rho, 0], [Vector([0, 1])])
        sys = new_system(3, rho, [0, 1])
        fams = frobenius_solve(sys, 1, 1)
        assert [(f.start, f.basis) for f in fams] == [
            (start, {q: [Vector(c) for c in cols] for q, cols in basis.items()})
            for start, basis in expected
        ]
        assert printed(fams) == printed(reference_frobenius_solve(sys, 1, 1))
        self.check_members(sys, fams, 1)

    @pytest.mark.parametrize(
        "rho, dimensions",
        # rho = -1: one condition row, and one of the four carried combinations
        # dies; rho = 1: three condition rows, and the seed dies altogether
        [(-1, [(-1, 3), (1, 1)]), (1, [(1, 3)])],
        ids=["rho-1", "rho+1"],
    )
    def test_gaussian_weights_match_reference(self, monkeypatch, rho, dimensions):
        self.fake(monkeypatch, [0, rho, 0], [
            Vector([GaussianRational(1, 1), 0, GaussianRational(2, -1)]),
            Vector([GaussianRational(0, 1), GaussianRational(-1, 2), 3]),
        ])
        sys = new_system(4, rho, [0, 1, 2])
        for order in (1, 4):
            fams = frobenius_solve(sys, 2, order)
            assert [(f.start, f.dimension) for f in fams] == dimensions
            assert printed(fams) == printed(reference_frobenius_solve(sys, 2, order))
            self.check_members(sys, fams, order)

    def test_certificate_catches_a_residue_off_the_coupling(self, monkeypatch):
        # a(-1) = (rho + 1) P_k while the closed form is written for rho*P_k
        real = frobenius.local_coefficients

        def off_by_one(sys, k, order):
            loc = real(sys, k, order)
            head = [0] * sys.s
            head[k - 1] = sys.rho + 1
            return LocalCoefficients(k, Vector(head), loc.regular)

        monkeypatch.setattr(frobenius, "local_coefficients", off_by_one)
        for rho in (-2, -1, 0, 1, 2):
            sys = new_system(4, rho, [0, 1, 2])
            with pytest.raises(ArithmeticError):
                frobenius_solve(sys, 2, abs(rho) + 1)


def random_weights(rng, size, real):
    """Star weights with unequal denominators and some zero entries."""
    return Vector(0 if rng.random() < 0.2 else random_scalar(rng, 7, real_only=real) for _ in range(size))


def dense_star(weights, v):
    """(sum_k w_k P_k) v through the dense star sum."""
    return reference_matvec(star_sum(weights), list(v))


def dense_convolution(coeffs, terms, n) -> Vector:
    """sum_j a(j) b_j through the dense star sums."""
    total = [GaussianRational(0)] * n
    for a, b in zip(coeffs, terms):
        total = [u + w for u, w in zip(total, dense_star(a, b))]
    return Vector(total)


class TestInnerLoops:
    """The recursion's int loops against dense products of the star sums."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_convolution_matches_dense_products(self, n):
        rng = random.Random(2900 + n)
        for _ in range(12):
            coeffs, terms = [], []
            for _ in range(rng.randint(1, 5)):
                kind = rng.choice(["real", "gaussian", "real weights", "real vector", "zero"])
                coeffs.append(random_weights(rng, n - 1, kind in ("real", "real weights")))
                terms.append(
                    Vector.zero(n) if kind == "zero"
                    else random_weights(rng, n, kind in ("real", "real vector"))
                )
            got = frobenius._convolution(tuple(coeffs), terms, n)
            assert got == dense_convolution(coeffs, terms, n)

    def test_convolution_all_real(self):
        # integer-pole data: every a(j) and b_j real, over unequal denominators
        rng = random.Random(2908)
        n = 5
        coeffs = tuple(random_weights(rng, n - 1, True) for _ in range(4))
        terms = [random_weights(rng, n, True) for _ in range(4)]
        assert not any(any(v.im) for v in (*coeffs, *terms))
        assert len({a.den * b.den for a, b in zip(coeffs, terms)}) > 1
        assert frobenius._convolution(coeffs, terms, n) == dense_convolution(coeffs, terms, n)

    def test_convolution_of_zero_terms_is_zero(self):
        coeffs = (Vector([1, 2]), Vector([GaussianRational(0, 1), 3]))
        assert frobenius._convolution(coeffs, [Vector.zero(3)] * 2, 3) == Vector.zero(3)

    def test_resubstitute_checks_every_part(self):
        rng = random.Random(2909)
        n, t = 5, 3
        a = random_weights(rng, n - 1, False)
        x = Vector(random_scalar(rng, 7) + GaussianRational(0, 1) for _ in range(n))
        r = Vector(t * xi - si for xi, si in zip(x, dense_star(a, x)))
        frobenius._resubstitute(t, a, x, r)

        def bumped(v, part, i):
            re, im = list(v.re), list(v.im)
            (re if part == "re" else im)[i] += v.den
            return Vector.from_parts(re, im, v.den)

        for part in ("re", "im"):
            for i in (0, n - 1):
                with pytest.raises(ArithmeticError):
                    frobenius._resubstitute(t, a, bumped(x, part, i), r)
        for part in ("re", "im"):
            for i in (0, 2):
                with pytest.raises(ArithmeticError):
                    frobenius._resubstitute(t, a, x, bumped(r, part, i))


class TestLaurentOfRational:
    def test_y2_leading(self):
        # beta_1 = z2 - z3 = -1 at the canonical points
        series = laurent_of_rational(y2(CANON), 1, 4)
        assert series.start == -1
        assert series.coeff(-1) == Vector([-1, -1, -1, -1])

    def test_y1_leading(self):
        series = laurent_of_rational(y1(CANON), 1, 4)
        assert series.coeff(-1) == Vector([1, 1, -1, -1])

    def test_constant_function(self):
        const = Vector([2, 0, 1, 5])
        fn = RationalVectorFunction.from_blocks(
            dim=4,
            points=tuple(y1(CANON).points),
            pole_coeffs=((), (), ()),
            poly_coeffs=(const,),
        )
        series = laurent_of_rational(fn, 1, 3)
        assert series.start == 0
        assert series.coeff(0) == const
        for q in range(1, 4):
            assert series.coeff(q).is_zero()

    def test_rejects_higher_order_pole(self):
        fn = derivative(y2(CANON))  # double poles
        with pytest.raises(ValueError):
            laurent_of_rational(fn, 1, 3)

    def test_oracle_agreement_all_solutions(self):
        """Expansion coefficients of every explicit solution satisfy the
        recursion exactly, at every pole, through order 4."""
        rng = random.Random(301)
        for pts in [CANON, random_points(rng)]:
            sys = new_system(4, -1, pts)
            for build in (y1, y2, y3, y4):
                fn = build(pts)
                for k in (1, 2, 3):
                    series = laurent_of_rational(fn, k, 4)
                    for t in range(series.start, 5):
                        assert recursion_defect(sys, series, t).is_zero()

    def test_window_consistent_with_simple_poles(self):
        # every produced start is >= -1 at rho = -1
        rng = random.Random(302)
        pts = random_points(rng)
        for build in (y1, y2, y3, y4):
            for k in (1, 2, 3):
                series = laurent_of_rational(build(pts), k, 2)
                assert series.start >= -1
