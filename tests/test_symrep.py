import random

import pytest

from conftest import brute_rank, random_scalar
from kzsolve.exactalg import GaussianRational, Matrix, Vector
from kzsolve.symrep import (
    plus_minus_matrices,
    s_matrix,
    star_apply,
    star_generators,
    star_sum,
    t_matrix,
    t_spectrum,
    transposition_matrix,
)


def rows_of(M):
    return [list(r) for r in M.data]


class TestTranspositionMatrix:
    def test_swap_1_2_on_4(self):
        P = transposition_matrix(4, 1, 2)
        e = Matrix.identity(4)
        expected = Matrix([e.row(1), e.row(0), e.row(2), e.row(3)])
        assert P == expected

    def test_exchange_2(self):
        assert transposition_matrix(2, 1, 2) == Matrix([[0, 1], [1, 0]])

    def test_involution(self):
        for (n, i, j) in [(4, 1, 2), (4, 2, 4), (5, 3, 5), (3, 1, 3)]:
            P = transposition_matrix(n, i, j)
            assert P * P == Matrix.identity(n)

    def test_errors(self):
        with pytest.raises(ValueError):
            transposition_matrix(4, 2, 2)
        with pytest.raises(ValueError):
            transposition_matrix(4, 0, 2)
        with pytest.raises(ValueError):
            transposition_matrix(4, 1, 5)


class TestStarGenerators:
    def test_n2(self):
        gens = star_generators(2)
        assert len(gens) == 1
        assert gens[0] == Matrix([[0, 1], [1, 0]])

    def test_n4(self):
        gens = star_generators(4)
        assert gens == [
            transposition_matrix(4, 1, 2),
            transposition_matrix(4, 1, 3),
            transposition_matrix(4, 1, 4),
        ]

    def test_fix_all_ones(self):
        ones = Vector([1] * 4)
        for P in star_generators(4):
            assert P * ones == ones

    def test_squares_to_identity(self):
        for n in range(2, 7):
            for P in star_generators(n):
                assert P * P == Matrix.identity(n)

    def test_too_small(self):
        with pytest.raises(ValueError):
            star_generators(1)


class TestStarAction:
    def test_agrees_with_dense_generators(self):
        rng = random.Random(300)
        for n in range(2, 8):
            gens = star_generators(n)
            v = Vector([random_scalar(rng) for _ in range(n)])
            w = [random_scalar(rng) for _ in range(n - 1)]
            for k in range(1, n):
                assert star_apply(k, v) == gens[k - 1] * v
            total = Matrix.zero(n, n)
            for wk, P in zip(w, gens):
                total = total + P.scale(wk)
            assert star_sum(w) == total

    def test_errors(self):
        v = Vector([1, 2, 3])
        for k in (0, 3):
            with pytest.raises(ValueError):
                star_apply(k, v)
        with pytest.raises(ValueError):
            star_sum([])


class TestPlusMinus:
    def test_degenerate_identity(self):
        lo, hi = plus_minus_matrices(Matrix.identity(3))
        assert lo == Matrix.identity(3).scale(2)
        assert hi == Matrix.zero(3, 3)

    def test_transposition_ranks(self):
        P = transposition_matrix(4, 1, 2)
        lo, hi = plus_minus_matrices(P)
        assert brute_rank(lo) == 3
        assert brute_rank(hi) == 1

    def test_complementary_and_annihilating(self):
        for P in star_generators(5):
            lo, hi = plus_minus_matrices(P)
            assert lo + hi == Matrix.identity(5).scale(2)
            assert (lo * hi).is_zero()

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            plus_minus_matrices(Matrix([[1, 1], [0, 1]]))


class TestSTMatrices:
    def test_s_matrix_4(self):
        assert rows_of(s_matrix(4)) == [
            [GaussianRational(-2), GaussianRational(1), GaussianRational(1), GaussianRational(1)],
            [GaussianRational(1), GaussianRational(0), GaussianRational(0), GaussianRational(0)],
            [GaussianRational(1), GaussianRational(0), GaussianRational(0), GaussianRational(0)],
            [GaussianRational(1), GaussianRational(0), GaussianRational(0), GaussianRational(0)],
        ]

    def test_t_matrix_4(self):
        # frozen from the sum of the three star generators
        assert t_matrix(4) == Matrix(
            [[0, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]]
        )

    def test_t_equals_generator_sum(self):
        for n in range(2, 13):
            total = Matrix.zero(n, n)
            for P in star_generators(n):
                total = total + P
            assert t_matrix(n) == total
            assert t_matrix(n) == Matrix.identity(n).scale(n - 2) + s_matrix(n)

    def test_row_sums(self):
        for n in (3, 4, 6):
            ones = Vector([1] * n)
            assert t_matrix(n) * ones == ones.scale(n - 1)


class TestTSpectrum:
    def test_n4(self):
        spec = t_spectrum(4)
        assert spec.eigenvalues == {3: 1, 2: 2, -1: 1}
        assert spec.least == -1
        assert spec.greatest == 3

    def test_n3(self):
        assert t_spectrum(3).eigenvalues == {2: 1, 1: 1, -1: 1}

    def test_n5_contains(self):
        eig = t_spectrum(5).eigenvalues
        for v in (4, 3, -1):
            assert v in eig

    def test_range_3_to_8(self):
        for n in range(3, 9):
            spec = t_spectrum(n)
            for v in (n - 1, n - 2, -1):
                assert v in spec.eigenvalues
            assert sum(spec.eigenvalues.values()) == n
            assert spec.least == -1
            assert spec.greatest == n - 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            t_spectrum(2)
