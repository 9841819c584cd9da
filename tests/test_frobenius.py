import random
from fractions import Fraction

import pytest

from conftest import (
    brute_rank,
    dense_integer_eigenvalues,
    random_points,
    reference_frobenius_solve,
    reference_solve_affine,
    star_sum,
)
from kzsolve import frobenius
from kzsolve.ansatz import RationalVectorFunction
from kzsolve.exactalg import GaussianRational, Matrix, Vector, nullspace
from kzsolve.frobenius import (
    exponent_window,
    frobenius_solve,
    laurent_of_rational,
    recursion_defect,
)
from kzsolve.kzcore import LocalCoefficients, local_coefficients, new_system
from kzsolve.s4explicit import y1, y2, y3, y4

CANON = [0, 1, 2]


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
                    M = sympy.Matrix(n, n, lambda i, j: int(dense[i, j].re))
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
        seed = nullspace(Matrix.identity(4).scale(-1) - a)
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
        lead = Matrix.from_columns(by_start[-1].basis[-1])
        assert brute_rank(lead) == 3

    def test_member_with_prescribed_residue(self):
        sys = canon_sys(-1)
        fams = frobenius_solve(sys, 1, 4)
        fam = next(f for f in fams if f.start == -1)
        target = Vector([1, 1, -1, -1])
        consistent, params, _ = reference_solve_affine(Matrix.from_columns(fam.basis[-1]), target)
        assert consistent
        series = fam.instantiate(params)
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

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_families_match_reference(self, n):
        def printed(fams):
            return [
                (f.start, {q: [str(col) for col in cols] for q, cols in f.basis.items()})
                for f in fams
            ]

        integer = list(range(n - 1))
        gaussian = [GaussianRational(j, (-1) ** j) for j in range(n - 1)]
        # Gaussian-rational poles with denominators
        fractional = random_points(random.Random(310 + n), n - 1, 4)
        for rho in range(-3, 4):
            for points in (integer, gaussian, fractional):
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
                    series = fam.instantiate(params)
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
    """

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
        def fake_local(sys, k, order):
            regular = tuple(Vector([0, 1] if j == 0 else [0, 0]) for j in range(order + 1))
            return LocalCoefficients(k, Vector([rho, 0]), regular)

        monkeypatch.setattr(frobenius, "local_coefficients", fake_local)
        sys = new_system(3, rho, [0, 1])
        fams = frobenius_solve(sys, 1, 1)
        assert [(f.start, f.basis) for f in fams] == [
            (start, {q: [Vector(c) for c in cols] for q, cols in basis.items()})
            for start, basis in expected
        ]
        for fam in fams:
            for i in range(fam.dimension):
                params = [1 if j == i else 0 for j in range(fam.dimension)]
                series = fam.instantiate(params)
                for t in range(series.start, 2):
                    assert recursion_defect(sys, series, t).is_zero()


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
        fn = RationalVectorFunction(
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
        fn = y2(CANON).derivative()  # double poles
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
