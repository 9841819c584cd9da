import random
import time
from fractions import Fraction

import pytest

from conftest import (
    dense_combination,
    entries_str,
    identity,
    matmul,
    random_scalar,
    reference_add,
    reference_dot,
    reference_matvec,
    reference_scale,
    reference_star_act,
    star_act,
    star_generators,
    star_rows,
    star_sum,
    t_matrix,
    transposition_matrix,
)
from kzsolve.exactalg import ONE, ZERO, GaussianRational, Vector
from kzsolve.symrep import _quadratic_integer_roots, _t_kernel, _t_solve, t_spectrum, transpose


class TestTranspositionMatrix:
    def test_swap_1_2_on_4(self):
        P = transposition_matrix(4, 1, 2)
        assert P == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_exchange_2(self):
        assert transposition_matrix(2, 1, 2) == [[0, 1], [1, 0]]

    def test_involution(self):
        for (n, i, j) in [(4, 1, 2), (4, 2, 4), (5, 3, 5), (3, 1, 3)]:
            P = transposition_matrix(n, i, j)
            assert matmul(P, P) == identity(n)

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
        assert gens[0] == [[0, 1], [1, 0]]

    def test_n4(self):
        gens = star_generators(4)
        assert gens == [
            transposition_matrix(4, 1, 2),
            transposition_matrix(4, 1, 3),
            transposition_matrix(4, 1, 4),
        ]

    def test_fix_all_ones(self):
        ones = [ONE] * 4
        for P in star_generators(4):
            assert reference_matvec(P, ones) == ones

    def test_squares_to_identity(self):
        for n in range(2, 7):
            for P in star_generators(n):
                assert matmul(P, P) == identity(n)

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
                # a unit weight at k is P_k alone, and transpose applies P_k alone
                P_v = reference_matvec(gens[k - 1], v)
                assert list(star_act(Vector.unit(n - 1, k - 1), v)) == P_v
                assert transpose(v, k) == Vector(P_v) and transpose(transpose(v, k), k) == v
            sparse = [wk if rng.random() < 0.5 else 0 for wk in w]
            for weights in (w, sparse, [0] * (n - 1)):
                expected = [ZERO] * n
                for wk, P in zip(weights, gens):
                    expected = reference_add(expected, reference_scale(wk, reference_matvec(P, v)))
                assert list(star_act(weights, v)) == expected
                assert str(star_act(weights, v)) == entries_str(reference_star_act(weights, v.data))

    def test_errors(self):
        v = Vector([1, 2, 3])
        for weights in ([], [1], [1, 2, 3]):
            with pytest.raises(ValueError):
                star_act(weights, v)


def dense_rows(terms, n, width):
    """The rows star_rows writes, from dense shift*I + star_sum(w) blocks placed at their offsets."""
    rows = [[ZERO] * width for _ in range(n)]
    for offset, shift, w in terms:
        block = dense_combination([(shift, identity(n)), (1, star_sum(w))])
        for i in range(n):
            for j in range(n):
                rows[i][offset + j] = rows[i][offset + j] + block[i][j]
    return [Vector(row) for row in rows]


class TestStarRows:
    """``star_rows``, the reference solver's row assembly, against dense blocks."""

    def test_matches_dense_reference(self):
        rng = random.Random(310)
        for n in range(2, 10):
            for shift in (0, rng.randint(1, 9), -rng.randint(1, 9)):
                w = Vector([random_scalar(rng) for _ in range(n - 1)])
                u = Vector([random_scalar(rng) for _ in range(n - 1)])
                cases = [
                    ([(0, shift, w)], n),
                    ([(n, shift, w)], 3 * n),
                    ([(2 * n, -shift, u)], 3 * n),
                    # two terms on one block add up, beside a term on another block
                    ([(n, shift, w), (0, -shift, u), (n, 1, u)], 2 * n + 1),
                ]
                for terms, width in cases:
                    assert star_rows(terms, n, width) == dense_rows(terms, n, width), (n, shift)

    def test_single_operator_is_symmetric(self):
        # shift*I + sum_k w_k P_k is symmetric, as every P_k is
        rng = random.Random(311)
        for n in range(3, 9):
            for shift in (0, rng.randint(1, 9), -rng.randint(1, 9)):
                for w in (
                    Vector([rng.randint(-9, 9) for _ in range(n - 1)]),
                    Vector([random_scalar(rng) for _ in range(n - 1)]),
                ):
                    entries = [list(row) for row in star_rows([(0, shift, w)], n, n)]
                    assert entries == [list(col) for col in zip(*entries)], (n, shift, w)

    def test_weight_count_must_be_n_minus_1(self):
        for weights in ([], [1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError):
                star_rows([(0, 1, Vector(weights))], 4, 8)


class TestSTMatrices:
    def test_t_matrix_4(self):
        # frozen from the sum of the three star generators
        assert t_matrix(4) == [[0, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]]

    def test_t_equals_generator_sum(self):
        for n in range(2, 13):
            total = [[ZERO] * n for _ in range(n)]
            for P in star_generators(n):
                total = [reference_add(a, b) for a, b in zip(total, P)]
            assert t_matrix(n) == total

    def test_row_sums(self):
        for n in (3, 4, 6):
            assert reference_matvec(t_matrix(n), [ONE] * n) == [n - 1] * n


class TestTSolve:
    """(cI - rho T)^-1 from T's three spectral projectors, against the dense T."""

    def test_kernel_at_each_resonance(self):
        for n in range(3, 9):
            T = t_matrix(n)
            for rho in (-2, -1, 1, 3):
                for c in range(1, 3 * (n - 1) + 1):
                    M = dense_combination([(c, identity(n)), (-rho, T)])
                    kernel = _t_kernel(c, rho, n)
                    mult = {rho * (n - 1): 1, -rho: 1, rho * (n - 2): n - 2}.get(c, 0)
                    assert len(kernel) == mult, (n, rho, c)
                    for v in kernel:
                        assert all(e.is_zero() for e in reference_matvec(M, list(v))), (n, rho, c)

    def test_inverts_off_resonance_and_on_the_range_at_resonance(self):
        rng = random.Random(2813)
        for n in range(3, 8):
            T = t_matrix(n)
            for rho in (-3, -1, 1, 2):
                for c in range(1, 2 * n + 2):
                    M = dense_combination([(c, identity(n)), (-rho, T)])
                    y = [random_scalar(rng) for _ in range(n)]
                    r = Vector(reference_matvec(M, y))
                    x = _t_solve(c, rho, r)
                    assert reference_matvec(M, list(x)) == list(r), (n, rho, c)
                    kernel = _t_kernel(c, rho, n)
                    if not kernel:
                        assert list(x) == y, (n, rho, c)
                    # the kernel component is left out: x is orthogonal to the kernel
                    for v in kernel:
                        assert reference_dot(list(x), list(v)).is_zero(), (n, rho, c)


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

    def test_multiplicities_match_the_kernel_dimensions(self):
        # the spectrum read off char_poly against the eigenvectors the ansatz reads
        for n in range(3, 17):
            for lam, mult in t_spectrum(n).eigenvalues.items():
                for rho in (1, -2):
                    assert len(_t_kernel(rho * lam, rho, n)) == mult, (n, lam, rho)

    def test_large_n_within_budget(self):
        # the repeated diagonal is factored out and the rest is a quadratic, so the
        # cost does not follow the characteristic polynomial's n^n coefficients
        t0 = time.perf_counter()
        for n in (10, 12, 16, 64):
            assert t_spectrum(n).eigenvalues == {n - 1: 1, n - 2: n - 2, -1: 1}
        assert time.perf_counter() - t0 < 8.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            t_spectrum(2)


class TestQuadraticIntegerRoots:
    @pytest.mark.parametrize(
        "b, c, roots",
        [
            (-2, 1, {1: 2}),  # (x - 1)^2
            (Fraction(-3, 2), Fraction(1, 2), {1: 1}),  # (x - 1)(x - 1/2)
            (0, Fraction(-1, 4), {}),  # roots +-1/2
            (0, 1, {}),  # D = -4
            (0, -2, {}),  # D = 8 is not a square
            (0, Fraction(-1, 8), {}),  # D = 1/2: the numerator is a square, the denominator not
        ],
    )
    def test_roots(self, b, c, roots):
        assert _quadratic_integer_roots([ONE, GaussianRational(b), GaussianRational(c)]) == roots

    @pytest.mark.parametrize(
        "reduced",
        [
            [ONE, -ONE],
            [ONE, ZERO, -ONE, ZERO],
            [ONE, GaussianRational(0, 1), ONE],
            [ONE, ZERO, GaussianRational(1, -1)],
            [GaussianRational(2), ZERO, GaussianRational(-2)],
        ],
        ids=["linear", "cubic", "imaginary-b", "imaginary-c", "not-monic"],
    )
    def test_not_a_monic_real_quadratic_raises(self, reduced):
        with pytest.raises(ArithmeticError):
            _quadratic_integer_roots(reduced)
