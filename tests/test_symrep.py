import random
import time

import pytest

from conftest import (
    entries_str,
    matmul,
    random_scalar,
    reference_star_act,
    star_generators,
    t_matrix,
    transposition_matrix,
)
from kzsolve.exactalg import Matrix, Vector
from kzsolve.symrep import star_act, star_apply, star_sum, t_spectrum


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
            assert matmul(P, P) == Matrix.identity(n)

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
                assert matmul(P, P) == Matrix.identity(n)

    def test_too_small(self):
        with pytest.raises(ValueError):
            star_generators(1)


class TestStarAction:
    def test_agrees_with_dense_generators(self):
        rng = random.Random(300)
        for n in range(2, 10):
            gens = star_generators(n)
            v = Vector([random_scalar(rng) for _ in range(n)])
            w = [random_scalar(rng) for _ in range(n - 1)]
            for k in range(1, n):
                assert star_apply(k, v) == gens[k - 1] * v
            total = Matrix.zero(n, n)
            for wk, P in zip(w, gens):
                total = total + P.scale(wk)
            assert star_sum(w) == total
            sparse = [wk if rng.random() < 0.5 else 0 for wk in w]
            for weights in (w, sparse, [0] * (n - 1)):
                expected = Vector.zero(n)
                for wk, P in zip(weights, gens):
                    expected = expected + (P * v).scale(wk)
                assert star_act(weights, v) == expected
                assert str(star_act(weights, v)) == entries_str(reference_star_act(weights, v.data))

    def test_errors(self):
        v = Vector([1, 2, 3])
        for k in (0, 3):
            with pytest.raises(ValueError):
                star_apply(k, v)
        with pytest.raises(ValueError):
            star_sum([])
        for weights in ([], [1], [1, 2, 3]):
            with pytest.raises(ValueError):
                star_act(weights, v)


class TestSTMatrices:
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

    def test_large_n_within_budget(self):
        # the root search is capped by the row-sum norm of T, so its cost
        # does not follow the characteristic polynomial's n^n coefficients
        t0 = time.perf_counter()
        for n in (10, 12, 16, 64):
            assert t_spectrum(n).eigenvalues == {n - 1: 1, n - 2: n - 2, -1: 1}
        assert time.perf_counter() - t0 < 8.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            t_spectrum(2)
