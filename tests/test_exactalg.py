import random
from fractions import Fraction

import pytest

from conftest import brute_rank, leibniz_det, random_matrix, random_scalar
from kzsolve import exactalg
from kzsolve.exactalg import (
    GaussianRational,
    Matrix,
    Vector,
    char_poly,
    determinant,
    integer_eigenvalues,
    nullspace,
    parse_scalar,
    rank,
    solve_affine,
)
from kzsolve.symrep import t_matrix, transposition_matrix


class TestParsing:
    def test_integer_embedding(self):
        x = parse_scalar("3")
        assert x.re == Fraction(3) and x.im == 0

    def test_gcd_normalization(self):
        x = parse_scalar("-3/6")
        assert x.re == Fraction(-1, 2) and x.im == 0

    def test_complex_literal(self):
        x = parse_scalar("(0,1/2)")
        assert x.re == 0 and x.im == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["3", "-3/6", "(0,1/2)", "(-7/3,2)", "0"])
    def test_round_trip(self, text):
        x = parse_scalar(text)
        assert parse_scalar(str(x)) == x

    @pytest.mark.parametrize("text", ["", "3/", "/4", "1/0", "(1,2,3)", "(1", "a"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)


class TestScalarArithmetic:
    def test_field_axioms_random(self):
        rng = random.Random(100)
        for _ in range(60):
            a = random_scalar(rng)
            b = random_scalar(rng)
            c = random_scalar(rng)
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            if not b.is_zero():
                assert (a / b) * b == a

    def test_inverse_and_conjugate(self):
        x = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
        inv = GaussianRational(1) / x
        assert x * inv == GaussianRational(1)
        assert x.conjugate().im == Fraction(2, 5)
        assert x.norm() == Fraction(9, 16) + Fraction(4, 25)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_integer_power(self):
        x = GaussianRational(0, 1)
        assert x ** 2 == GaussianRational(-1)
        assert x ** (-1) == GaussianRational(0, -1)


class TestNullspace:
    def test_identity_full_rank(self):
        assert nullspace(Matrix.identity(2)) == []

    def test_zero_matrix(self):
        basis = nullspace(Matrix.zero(2, 2))
        assert len(basis) == 2

    def test_transposition_fixed_space(self):
        # I - P(1,2) on 4 points kills the swap; brute-force rank confirms 1
        M = Matrix.identity(4) - transposition_matrix(4, 1, 2)
        assert brute_rank(M) == 1
        basis = nullspace(M)
        assert len(basis) == 3

    def test_rank_nullity_random(self):
        rng = random.Random(101)
        for _ in range(20):
            M = random_matrix(rng, 4)
            assert rank(M) + len(nullspace(M)) == M.cols
            assert rank(M) == brute_rank(M)

    def test_rank_nullity_rectangular(self):
        rng = random.Random(107)
        for rows, cols in [(2, 5), (5, 2), (3, 4), (4, 3)]:
            M = Matrix(
                [[random_scalar(rng, span=3) for _ in range(cols)] for _ in range(rows)]
            )
            assert rank(M) + len(nullspace(M)) == cols
            assert rank(M) == brute_rank(M)

    def test_resubstitution_random(self):
        rng = random.Random(102)
        for _ in range(10):
            rows = [[random_scalar(rng) for _ in range(5)] for _ in range(3)]
            M = Matrix(rows)
            for v in nullspace(M):
                assert (M * v).is_zero()


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert determinant(Matrix.identity(n)) == GaussianRational(1)

    def test_generator_sum_4(self):
        # frozen from the Leibniz-expansion oracle
        T = t_matrix(4)
        assert leibniz_det(T) == GaussianRational(-12)
        assert determinant(T) == GaussianRational(-12)

    def test_agrees_with_leibniz_random(self):
        rng = random.Random(103)
        for _ in range(15):
            M = random_matrix(rng, 4)
            assert determinant(M) == leibniz_det(M)

    def test_multiplicative_random(self):
        rng = random.Random(104)
        for _ in range(10):
            A = random_matrix(rng, 4)
            B = random_matrix(rng, 4)
            assert determinant(A * B) == determinant(A) * determinant(B)

    def test_non_square(self):
        with pytest.raises(ValueError):
            determinant(Matrix.zero(2, 3))


class TestCharPoly:
    def test_transposition_2(self):
        coeffs = char_poly(transposition_matrix(2, 1, 2))
        assert coeffs == [GaussianRational(1), GaussianRational(0), GaussianRational(-1)]

    def test_integer_roots_are_exact_roots(self):
        rng = random.Random(105)
        for _ in range(8):
            M = random_matrix(rng, 3)
            coeffs = char_poly(M)
            for eig in integer_eigenvalues(M):
                acc = coeffs[0]
                for c in coeffs[1:]:
                    acc = acc * GaussianRational(eig) + c
                assert acc.is_zero()


class TestIntegerEigenvalues:
    def test_identity(self):
        for n in (2, 4):
            assert integer_eigenvalues(Matrix.identity(n)) == {1: n}

    def test_generator_sum_4(self):
        assert integer_eigenvalues(t_matrix(4)) == {3: 1, 2: 2, -1: 1}

    def test_negated_transposition(self):
        M = transposition_matrix(4, 1, 2).scale(-1)
        assert integer_eigenvalues(M) == {-1: 3, 1: 1}

    def test_nilpotent(self):
        M = Matrix([[0, 1], [0, 0]])
        assert integer_eigenvalues(M) == {0: 2}


class TestSolveAffine:
    def test_identity_solve(self):
        sol = solve_affine(Matrix.identity(3), Vector.unit(3, 0))
        assert sol.consistent
        assert sol.particular == Vector.unit(3, 0)
        assert sol.kernel == []

    def test_zero_zero(self):
        sol = solve_affine(Matrix.zero(2, 2), Vector.zero(2))
        assert sol.consistent
        assert sol.particular == Vector.zero(2)
        assert len(sol.kernel) == 2

    def test_inconsistent_with_certificate(self):
        A = Matrix.zero(2, 2)
        b = Vector.unit(2, 0)
        sol = solve_affine(A, b)
        assert not sol.consistent
        y = sol.certificate
        assert y is not None
        # y certifies: y*A = 0 while y*b != 0
        assert all((Vector([A[i, j] for i in range(2)]).dot(y)).is_zero() for j in range(2))
        assert not y.dot(b).is_zero()

    def test_random_consistent_systems(self):
        rng = random.Random(106)
        for _ in range(10):
            A = random_matrix(rng, 4)
            x = Vector([random_scalar(rng) for _ in range(4)])
            b = A * x
            sol = solve_affine(A, b)
            assert sol.consistent
            assert (A * sol.particular - b).is_zero()
            for v in sol.kernel:
                assert (A * v).is_zero()

    def test_corrupted_kernel_raises(self, monkeypatch):
        # a consistent rank-deficient system whose particular solution is
        # untouched by the corruption: only the kernel check can catch it
        real = exactalg._rref

        def corrupt_free_column(rows, pivot_width=None):
            pivots = real(rows, pivot_width)
            free = next(c for c in range(pivot_width) if c not in pivots)
            rows[0][free] = rows[0][free] + 1
            return pivots

        monkeypatch.setattr(exactalg, "_rref", corrupt_free_column)
        with pytest.raises(ArithmeticError):
            solve_affine(Matrix([[1, 1], [1, 1]]), Vector([2, 2]))
