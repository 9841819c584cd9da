import random
from fractions import Fraction

import pytest

from conftest import (
    dense_combination,
    identity,
    matmul,
    random_points,
    reference_local_coefficients,
    star_generators,
    star_sum,
    t_matrix,
)
from kzsolve.exactalg import GaussianRational, Vector
from kzsolve.kzcore import eval_A, local_coefficients, new_system


class TestNewSystem:
    def test_valid(self):
        sys = new_system(4, -1, [0, 1, 2])
        assert sys.s == 3

    def test_duplicate_points(self):
        with pytest.raises(ValueError):
            new_system(4, -1, [0, 1, 1])

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            new_system(4, -1, [0, 1])

    def test_too_small(self):
        with pytest.raises(ValueError):
            new_system(2, -1, [0])

    def test_non_integer_rho(self):
        with pytest.raises(ValueError):
            new_system(4, 0.5, [0, 1, 2])


class TestEvalA:
    def test_direct_substitution(self):
        sys = new_system(4, -1, [0, 1, 2])
        P1, P2, P3 = star_generators(4)
        expected = dense_combination([(Fraction(1, 3), P1), (Fraction(1, 2), P2), (Fraction(1, 1), P3)])
        assert star_sum(eval_A(sys, 3)) == expected

    def test_pole_error(self):
        sys = new_system(4, -1, [0, 1, 2])
        with pytest.raises(ValueError):
            eval_A(sys, 0)

    def test_large_z_approaches_generator_sum(self):
        # z*A(z) - T = sum_k P_k z_k/(z - z_k): entries vanish like 1/z
        sys = new_system(4, -1, [0, 1, 2])
        z = GaussianRational(10 ** 6)
        diff = dense_combination([(z, star_sum(eval_A(sys, z))), (-1, t_matrix(4))])
        for row in diff:
            for a in row:
                assert a.abs_bound() < Fraction(1, 100000)


class TestLocalCoefficients:
    def test_residue_term(self):
        sys = new_system(4, -1, [0, 1, 2])
        loc = local_coefficients(sys, 1, 0)
        assert star_sum(loc.minus_one) == dense_combination([(-1, star_generators(4)[0])])

    def test_order_zero_frozen(self):
        # independent geometric expansion: a0 = -sum_{l != 1} P_l/(z1 - z_l)
        sys = new_system(4, -1, [0, 1, 2])
        loc = local_coefficients(sys, 1, 0)
        P2, P3 = star_generators(4)[1:]
        expected = dense_combination([(1, P2), (Fraction(1, 2), P3)])
        assert star_sum(loc.regular[0]) == expected

    def test_residue_squares_to_identity(self):
        for rho in (-1, 1):
            sys = new_system(4, rho, [0, 1, 2])
            for k in (1, 2, 3):
                a = star_sum(local_coefficients(sys, k, -1).minus_one)
                assert matmul(a, a) == identity(4)

    def test_matches_reference(self):
        """Entry by entry equal to rho (-1)^j / (z_k - z_l)^(j+1), each weight computed alone."""
        rng = random.Random(202)
        for count in (2, 3, 4, 5):
            pts = random_points(rng, count, span=7)
            for rho in range(-3, 4):
                sys = new_system(count + 1, rho, pts)
                for k in range(1, count + 1):
                    for order in range(-1, 9):
                        loc = local_coefficients(sys, k, order)
                        minus_one, regular = reference_local_coefficients(sys, k, order)
                        assert isinstance(loc.minus_one, Vector)
                        assert list(loc.minus_one) == minus_one
                        assert len(loc.regular) == len(regular) == order + 1
                        for got, want in zip(loc.regular, regular):
                            assert isinstance(got, Vector)
                            assert list(got) == want

    def test_index_out_of_range(self):
        sys = new_system(4, -1, [0, 1, 2])
        with pytest.raises(ValueError):
            local_coefficients(sys, 4, 2)

    def test_residue_sum_property(self):
        rng = random.Random(200)
        for rho in (-1, 1, 2):
            pts = random_points(rng)
            sys = new_system(4, rho, pts)
            residues = [star_sum(local_coefficients(sys, k, -1).minus_one) for k in (1, 2, 3)]
            total = dense_combination((1, a) for a in residues)
            assert total == dense_combination([(rho, t_matrix(4))])

    def test_truncation_consistency_with_tail_bound(self):
        """Partial sums reproduce rho*A near the pole within the geometric tail."""
        rng = random.Random(201)
        N = 8
        for trial in range(6):
            pts = random_points(rng, span=4)
            sys = new_system(4, -1, pts)
            for k in (1, 2, 3):
                zk = sys.points[k - 1]
                floors = [
                    (zk - zl).abs_floor()
                    for i, zl in enumerate(sys.points)
                    if i != k - 1
                ]
                dmin = min(floors)
                u = GaussianRational(dmin / 4)  # |u| well under half the gap
                loc = local_coefficients(sys, k, N)
                terms = [(GaussianRational(1) / u, star_sum(loc.minus_one))]
                terms += [(u ** j, star_sum(loc.regular[j])) for j in range(N + 1)]
                target = star_sum(eval_A(sys, zk + u))
                diff = dense_combination([(sys.rho, target), *((-s, M) for s, M in terms)])
                # tail bound: sum_{j>N} |u|^j * sum_l 1/|d_l|^{j+1}
                ub = u.abs_bound()
                tail = Fraction(0)
                for fl in floors:
                    r = ub / fl
                    assert r < 1
                    tail += (r ** (N + 1)) / (fl * (1 - r))
                for row in diff:
                    for a in row:
                        assert a.abs_bound() <= tail
