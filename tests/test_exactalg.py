import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest

from conftest import (
    brute_rank,
    counted_images,
    dense_combination,
    dense_integer_eigenvalues,
    entries_str,
    expand_factored,
    expanded_char_poly,
    identity,
    integer_roots,
    leibniz_det,
    matmul,
    random_matrix,
    random_scalar,
    reference_add,
    reference_char_poly,
    reference_dot,
    reference_matvec,
    reference_nullspace,
    reference_scale,
    reference_solve_affine,
    reference_sub,
    row_sum_bound,
    star_sum,
    t_matrix,
    to_sympy,
    transposition_matrix,
)
from kzsolve import exactalg
from kzsolve.exactalg import (
    ONE,
    ZERO,
    GaussianRational,
    Matrix,
    Vector,
    char_poly,
    determinant,
    nullspace,
    parse_scalar,
    parse_scalars,
)


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

    @pytest.mark.parametrize("text", ["1/0", "-3/00", "(1/0,2)", "( 1 , -3/0 )"])
    def test_zero_denominator_is_named(self, text):
        with pytest.raises(ValueError, match="zero denominator in literal"):
            parse_scalar(text)
        with pytest.raises(ValueError, match="zero denominator in literal"):
            parse_scalars(f"1,{text},(2,3)")


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
        assert x.norm() == Fraction(9, 16) + Fraction(4, 25)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)


def exact_rows(rows):
    return [[GaussianRational.coerce(a) for a in row] for row in rows]


def sparse_rows(rng, nrows, ncols, zero_density, span=5):
    return [
        [ZERO if rng.random() < zero_density else random_scalar(rng, span) for _ in range(ncols)]
        for _ in range(nrows)
    ]


class TestMatrixVector:
    def test_zero_rows_and_entries(self):
        rng = random.Random(110)
        rows = sparse_rows(rng, 5, 6, 0.7)
        rows[2] = [ZERO] * 6
        M = Matrix(rows)
        for density in (0, 0.5):
            v = Vector(sparse_rows(rng, 1, 6, density)[0])
            assert M * v == Vector(reference_dot(row, v) for row in rows)


def canonical(v: Vector) -> bool:
    """Int parts over a positive denominator in lowest terms, one pair per entry."""
    parts = (*v.re, *v.im, v.den)
    return (
        all(type(x) is int for x in parts)
        and len(v.re) == len(v.im) == v.dim
        and v.den > 0
        and gcd(*parts) == 1
    )


def random_entries(rng, dim, trial):
    """Zero density 0, 0.5 or 0.9 and denominators up to 6, 10^6 or 10^18, by trial."""
    density = (0, 0.5, 0.9)[trial % 3]
    span = (6, 10**6, 10**18)[trial // 3 % 3]
    return [ZERO if rng.random() < density else random_scalar(rng, span) for _ in range(dim)]


class TestSharedDenominator:
    """Vector arithmetic on int parts prints what entry-wise scalar arithmetic prints."""

    TRIALS = 360

    def cases(self, seed):
        rng = random.Random(seed)
        for trial in range(self.TRIALS):
            # every dimension 0..9 with every density and span
            dim = trial % 10
            yield rng, random_entries(rng, dim, trial), random_entries(rng, dim, trial)

    def test_construction_and_reading(self):
        for _, a, _ in self.cases(120):
            v = Vector(a)
            assert canonical(v)
            assert str(v) == entries_str(a)
            assert v.entry_strings() == [str(x) for x in a]
            assert list(v) == a and list(v.data) == a
            assert [v[i] for i in range(v.dim)] == a and v[1:3] == tuple(a[1:3])
            assert Vector(v.data) == v

    def test_entry_strings_of_zero_negative_integer_and_imaginary_entries(self):
        a = [
            ZERO,
            GaussianRational(-3),
            GaussianRational(Fraction(-5, 6)),
            GaussianRational(0, -2),
            GaussianRational(Fraction(-1, 3), 4),
            GaussianRational(7, Fraction(-2, 9)),
        ]
        assert Vector(a).entry_strings() == ["0", "-3", "-5/6", "(0,-2)", "(-1/3,4)", "(7,-2/9)"]
        assert Vector.zero(3).entry_strings() == ["0"] * 3
        assert Vector([4, -8]).entry_strings() == ["4", "-8"]

    def test_ops_match_entrywise_reference(self):
        for rng, a, b in self.cases(121):
            u, v = Vector(a), Vector(b)
            s = random_scalar(rng, (6, 10**9)[rng.random() < 0.5])
            for got, want in (
                (u + v, reference_add(a, b)),
                (u - v, reference_sub(a, b)),
                (-u, reference_scale(GaussianRational(-1), a)),
                (u.scale(s), reference_scale(s, a)),
                (u.scale(0), reference_scale(ZERO, a)),
                (u.scale(Fraction(1, 3)), reference_scale(GaussianRational(Fraction(1, 3)), a)),
            ):
                assert canonical(got)
                assert str(got) == entries_str(want)
                # +, - and scale run _combine: the parts must be the oracle's
                # entries over their lcm denominator, so == and hash compare tuples
                den = lcm(1, *(x.denominator for e in want for x in (e.re, e.im)))
                assert got.den == den
                assert got.re == tuple(int(e.re * den) for e in want)
                assert got.im == tuple(int(e.im * den) for e in want)
            assert u.is_zero() == all(x.is_zero() for x in a)
            with pytest.raises(ValueError):
                u + Vector(b + [ONE])

    def test_matvec_matches_entrywise_reference(self):
        rng = random.Random(122)
        for trial in range(self.TRIALS):
            cols = trial % 10 + 1
            rows = [random_entries(rng, cols, trial) for _ in range(rng.randint(1, 6))]
            x = random_entries(rng, cols, trial)
            got = Matrix(rows) * Vector(x)
            assert canonical(got)
            assert str(got) == entries_str(reference_matvec(rows, x))

    def test_linear_combination_and_columns(self):
        for rng, a, b in self.cases(123):
            u, v = Vector(a), Vector(b)
            s, t = random_scalar(rng), random_scalar(rng, 10**9)
            got = exactalg.linear_combination([(s, u), (t, v), (0, u)], len(a))
            assert canonical(got)
            assert str(got) == entries_str(reference_add(reference_scale(s, a), reference_scale(t, b)))
            if a:
                # a matrix built from columns is read through its one product
                cols = [u, v, -u]
                M = Matrix.from_columns(cols)
                assert all(M * Vector.unit(3, j) == col for j, col in enumerate(cols))
                x = random_entries(rng, 3, 0)
                rows = list(zip(a, b, reference_scale(GaussianRational(-1), a)))
                assert str(M * Vector(x)) == entries_str(reference_matvec(rows, x))
                k = rng.randint(0, len(a))
                assert Vector.concat([u.segment(0, k), u.segment(k, len(a))]) == u
                joined = Vector.concat([u, v])
                assert canonical(joined) and joined.data == tuple(a + b)

    def test_lifted_blocks_at_offsets_match_the_oracle(self):
        # every block sums its terms at their offsets over one shared, unreduced
        # denominator; zero scalars add nothing to it, zero vectors and entries
        # add no products
        rng = random.Random(125)
        for trial in range(self.TRIALS):
            size = trial % 9 + 1
            blocks, want = [], []
            for _ in range(rng.randint(1, 4)):
                terms, padded = [], []
                for _ in range(rng.randint(0, 5)):
                    dim = rng.randint(0, size)
                    at = rng.randint(0, size - dim)
                    a = [ZERO] * dim if rng.random() < 0.2 else random_entries(rng, dim, trial)
                    s = ZERO if rng.random() < 0.2 else random_scalar(rng, (6, 10**9)[trial % 2])
                    # the scalar's parts need not be in lowest terms
                    x, y, d = exactalg._parts(s)
                    k = rng.randint(1, 4)
                    terms.append((k * x, k * y, k * d, Vector(a), at))
                    padded.append((s, [[ZERO] * at + a + [ZERO] * (size - at - dim)]))
                blocks.append(terms)
                want.append(dense_combination([(ZERO, [[ZERO] * size]), *padded])[0])
            den, parts = exactalg._lifted(blocks, size)
            assert den == lcm(*(d * v.den for terms in blocks for x, y, d, v, _ in terms if x or y))
            for (re, im), total in zip(parts, want, strict=True):
                assert [GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)] == total
                got = Vector.from_parts(re, im, den)
                assert canonical(got) and got == Vector(total)

    def test_zero_parts_are_the_zero_vector(self):
        for n in range(5):
            for den in (1, 2, 12, 10**30 + 7):
                v = Vector.from_parts([0] * n, [0] * n, den)
                assert v == Vector.zero(n) and hash(v) == hash(Vector.zero(n)) and v.den == 1

    def test_equal_vectors_hash_equal(self):
        for rng, a, b in self.cases(124):
            v = Vector(a)
            w = Vector(b)
            routes = [
                v.scale(2).scale(Fraction(1, 2)),
                v.scale(GaussianRational(0, 1)).scale(GaussianRational(0, -1)),
                (v - w) + w,
                v + Vector.zero(len(a)),
                -(-v),
                Vector(v.data),
                Vector([parse_scalar(str(x)) for x in a]),
                exactalg.linear_combination([(ONE, v)], len(a)),
            ]
            if a:
                routes.append(Matrix(identity(len(a))) * v)
                routes.append(Vector.concat([v.segment(0, 1), v.segment(1, len(a))]))
            for r in routes:
                assert r == v and hash(r) == hash(v) and canonical(r)

    def test_malformed_parts_rejected(self):
        with pytest.raises(ValueError):
            Vector.from_parts([1], [0], 0)
        with pytest.raises(ValueError):
            Vector.from_parts([1], [0], -2)
        assert Vector.from_parts([2, 4], [0, -6], 4) == Vector([Fraction(1, 2), GaussianRational(1, Fraction(-3, 2))])
        with pytest.raises(ValueError):
            Vector([1, 2]) + Vector([1])


def division_reference_cases():
    """Seeded matrices, some with a duplicated row, half with a right-hand side b."""
    rng = random.Random(108)
    for trial in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        rows = sparse_rows(rng, nrows, ncols, rng.choice((0, 0.3, 0.7)))
        if nrows > 1 and rng.random() < 0.4:
            src, dst = rng.sample(range(nrows), 2)
            c = random_scalar(rng, span=4)
            rows[dst] = [c * a for a in rows[src]]
        b = Vector([random_scalar(rng) for _ in range(nrows)]) if trial % 2 else None
        yield rows, b


def strs(vectors):
    return [[str(a) for a in v] for v in vectors]


class TestNullspace:
    def test_matches_division_reference(self):
        # the vectors lifted from the modular images equal those read off
        # the division-based RREF, entry for entry and in the same order
        for rows, _ in division_reference_cases():
            assert strs(nullspace(Matrix(rows))) == strs(reference_nullspace(rows))

    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(109)
        deficient = 0
        for trial in range(20):
            rows, cols = rng.randint(2, 6), rng.randint(2, 6)
            if trial % 2:
                # a product through k < min(rows, cols) has rank at most k
                k = rng.randint(1, min(rows, cols) - 1)
                M = matmul(sparse_rows(rng, rows, k, 0.3), sparse_rows(rng, k, cols, 0.3))
            else:
                M = sparse_rows(rng, rows, cols, 0.3)
            expected = DomainMatrix.from_Matrix(
                sympy.Matrix([[to_sympy(a) for a in row] for row in M])
            ).rank()
            assert cols - len(nullspace(Matrix(M))) == expected
            deficient += expected < min(rows, cols)
        assert deficient >= 10

    def test_identity_full_rank(self):
        assert nullspace(Matrix(identity(2))) == []

    def test_zero_matrix(self):
        basis = nullspace(Matrix([[0, 0], [0, 0]]))
        assert len(basis) == 2

    def test_transposition_fixed_space(self):
        # I - P(1,2) on 4 points kills the swap; brute-force rank confirms 1
        M = dense_combination([(1, identity(4)), (-1, transposition_matrix(4, 1, 2))])
        assert brute_rank(M) == 1
        basis = nullspace(Matrix(M))
        assert len(basis) == 3

    def test_rank_nullity_random(self):
        rng = random.Random(101)
        for _ in range(20):
            M = random_matrix(rng, 4)
            assert 4 - len(nullspace(Matrix(M))) == brute_rank(M)

    def test_rank_nullity_rectangular(self):
        rng = random.Random(107)
        for rows, cols in [(2, 5), (5, 2), (3, 4), (4, 3)]:
            M = [[random_scalar(rng, span=3) for _ in range(cols)] for _ in range(rows)]
            assert cols - len(nullspace(Matrix(M))) == brute_rank(M)

    def test_resubstitution_random(self):
        rng = random.Random(102)
        for _ in range(10):
            rows = [[random_scalar(rng) for _ in range(5)] for _ in range(3)]
            M = Matrix(rows)
            for v in nullspace(M):
                assert (M * v).is_zero()


class TestModularNullspace:
    def test_prime_table(self):
        sympy = pytest.importorskip("sympy")
        primes = [exactalg._prime(k) for k in range(6)]
        # the written-out table, then the search resumed past it, is the search from the start
        assert primes == list(islice(exactalg._modular_primes(), 6))
        assert exactalg._PRIMES[:4] == primes[:4]
        assert [p for p, _ in primes] == sorted({p for p, _ in primes})
        for p, iota in primes:
            assert sympy.isprime(p)
            assert 2**125 < p < 2**126 and p % 4 == 1
            assert iota * iota % p == p - 1

    def test_primality_test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(3000):
            assert exactalg._is_prime(n) == sympy.isprime(n), n
        # strong pseudoprimes to every prime base up to 7, and up to 23
        for n in (3215031751, 3825123056546413051):
            assert not exactalg._is_prime(n)
        rng = random.Random(116)
        for _ in range(200):
            n = rng.randrange(2**61, 2**62) | 1
            assert exactalg._is_prime(n) == sympy.isprime(n)
        # the range the moduli of nullspace are drawn from
        for _ in range(200):
            n = rng.randrange(2**125, 2**126) | 1
            assert exactalg._is_prime(n) == sympy.isprime(n)

    def test_entry_equal_to_first_prime(self, monkeypatch):
        # modulo the first prime [[p, 1]] pivots on column 1, not 0: that
        # image is dropped, and -1/p needs three more primes to lift
        p, _ = exactalg._prime(0)
        primes = counted_images(monkeypatch)
        rows = [[p, 1]]
        assert nullspace(Matrix(rows)) == reference_nullspace(rows) == [Vector([Fraction(-1, p), 1])]
        assert primes[0] == p and len(primes) >= 4

    def test_gaussian_entry_vanishing_under_one_image(self, monkeypatch):
        # a + i with a + iota = 0 (mod p): zero under i -> iota, not under
        # i -> -iota, so the two images disagree on the pivots and the
        # first prime is dropped
        p, iota = exactalg._prime(0)
        counted_images(monkeypatch)
        for rows in (
            [[GaussianRational(p - iota, 1), 1, 3]],
            [[GaussianRational(p - iota, 1), 1, 3], [0, GaussianRational(0, 2), 1]],
        ):
            assert exactalg._image(Matrix(rows), p, iota, True) is None
            assert strs(nullspace(Matrix(rows))) == strs(reference_nullspace(rows))

    def test_lower_rank_image_sharing_a_pivot_prefix(self, monkeypatch):
        # modulo p the rank drops to 1 with pivots (0,), a prefix of the
        # true (0, 1): the larger rank wins, not the smaller pivot tuple
        p, _ = exactalg._prime(0)
        rows = [[1, 1, 1], [1, 1 + p, 1]]
        counted_images(monkeypatch)
        assert nullspace(Matrix(rows)) == reference_nullspace(rows) == [Vector([-1, 0, 1])]

    def test_large_entries_need_several_primes(self, monkeypatch):
        rng = random.Random(117)
        for gaussian in (False, True):
            rows = [
                [
                    GaussianRational(rng.randrange(-(2**100), 2**100), rng.randrange(2**100) if gaussian else 0)
                    for _ in range(4)
                ]
                for _ in range(2)
            ]
            primes = counted_images(monkeypatch)
            assert strs(nullspace(Matrix(rows))) == strs(reference_nullspace(rows))
            assert len(set(primes)) >= 3
            monkeypatch.undo()


    @pytest.mark.parametrize("gaussian", [False, True])
    def test_certified_vectors_are_lifted_once(self, gaussian, monkeypatch):
        # the kernel of [1, 2, b] is (-2, 1, 0), which lifts from the first
        # prime, and (-b, 0, 1), which needs several: the first is kept, not
        # lifted and certified again at every prime
        b = GaussianRational(Fraction(3**200, 7**100), Fraction(5**90, 11) if gaussian else 0)
        primes = counted_images(monkeypatch)
        lifts, certified = [], []
        lift, mul = exactalg._lift, Matrix.__mul__

        def counted_lift(residues, m):
            lifts.append(m)
            return lift(residues, m)

        def counted_mul(M, v):
            out = mul(M, v)
            if out.is_zero():
                certified.append(v)
            return out

        monkeypatch.setattr(exactalg, "_lift", counted_lift)
        monkeypatch.setattr(Matrix, "__mul__", counted_mul)
        assert nullspace(Matrix([[1, 2, b]])) == [Vector([-2, 1, 0]), Vector([-b, 0, 1])]
        assert len(primes) >= 3
        # each kernel vector is certified once, and each prime lifts at most
        # one vector that is not kept
        assert certified == [Vector([-2, 1, 0]), Vector([-b, 0, 1])]
        assert len(lifts) <= 2 + len(primes)

class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert determinant(Matrix(identity(n))) == GaussianRational(1)

    def test_generator_sum_4(self):
        # frozen from the Leibniz-expansion oracle
        T = t_matrix(4)
        assert leibniz_det(T) == GaussianRational(-12)
        assert determinant(Matrix(T)) == GaussianRational(-12)

    def test_agrees_with_leibniz_random(self):
        rng = random.Random(103)
        for _ in range(15):
            M = random_matrix(rng, 4)
            assert determinant(Matrix(M)) == leibniz_det(M)
        for trial in range(60):
            n = 1 + trial % 5
            rows = sparse_rows(rng, n, n, (0, 0.5, 0.8)[trial % 3], span=4)
            if n > 1 and trial % 4 == 0:
                src, dst = rng.sample(range(n), 2)
                rows[dst] = list(rows[src])
            assert determinant(Matrix(rows)) == leibniz_det(rows)

    def test_swap_with_complex_pivot(self):
        i = GaussianRational(0, 1)
        assert determinant(Matrix([[0, i], [i, 0]])) == GaussianRational(1)

    def test_multiplicative_random(self):
        rng = random.Random(104)
        for _ in range(10):
            A = random_matrix(rng, 4)
            B = random_matrix(rng, 4)
            det_a, det_b = determinant(Matrix(A)), determinant(Matrix(B))
            assert determinant(Matrix(matmul(A, B))) == det_a * det_b

    def test_non_square(self):
        with pytest.raises(ValueError):
            determinant(Matrix([[0, 0, 0], [0, 0, 0]]))

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(113)
        singular = 0
        for trial in range(30):
            n = 1 + trial % 6
            rows = sparse_rows(rng, n, n, (0, 0.4)[trial % 2], span=4)
            if n > 1 and trial % 3 == 0:
                src, dst = rng.sample(range(n), 2)
                c = random_scalar(rng, span=3)
                rows[dst] = [c * a for a in rows[src]]
            dm = DomainMatrix.from_Matrix(
                sympy.Matrix([[to_sympy(a) for a in row] for row in rows])
            )
            expected = dm.domain.to_sympy(dm.det())
            assert to_sympy(determinant(Matrix(rows))) == expected
            singular += expected == 0
        assert singular >= 5


def arrowhead_parts(M):
    """Head, diagonal and border of a symmetric arrowhead, read off the dense rows."""
    n = len(M)
    for i in range(n):
        for j in range(n):
            if i and j and i != j:
                assert M[i][j].is_zero()
    assert all(M[0][k] == M[k][0] for k in range(1, n))
    return M[0][0], [M[k][k] for k in range(1, n)], [M[0][k] for k in range(1, n)]


def arrowhead(head, diagonal, border):
    """The dense arrowhead with ``head`` at (1, 1), ``diagonal`` below it and ``border`` around."""
    n = len(diagonal) + 1
    rows = [[ZERO] * n for _ in range(n)]
    rows[0][0] = GaussianRational.coerce(head)
    for k, (d, b) in enumerate(zip(diagonal, border), start=1):
        rows[k][k] = GaussianRational.coerce(d)
        rows[0][k] = rows[k][0] = GaussianRational.coerce(b)
    return rows


def star_sums(seed: int):
    """Seeded Gaussian-rational star sums for n = 2..8, some weights zero."""
    rng = random.Random(seed)
    for n in range(2, 9):
        for _ in range(3):
            yield star_sum(
                [ZERO if rng.random() < 0.25 else random_scalar(rng, span=4) for _ in range(n - 1)]
            )


class TestCharPoly:
    def test_transposition_2(self):
        coeffs = char_poly(*arrowhead_parts(transposition_matrix(2, 1, 2)))
        assert coeffs == ([GaussianRational(1), GaussianRational(0), GaussianRational(-1)], {})

    def test_general_head(self):
        # nonzero head and repeated diagonal entries, against the dense recursion
        i = GaussianRational(0, 1)
        M = exact_rows([[i, 2, -1, 3], [2, 5, 0, 0], [-1, 0, 5, 0], [3, 0, 0, 0]])
        coeffs, repeated = char_poly(*arrowhead_parts(M))
        assert len(coeffs) == 4
        assert repeated == {5: 1}
        assert expand_factored((coeffs, repeated)) == reference_char_poly(M)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            char_poly(0, [1, 2], [1])

    def test_generator_sum_matches_reference(self):
        for n in range(2, 13):
            T = t_matrix(n)
            assert expand_factored(char_poly(*arrowhead_parts(T))) == reference_char_poly(T)

    def test_generator_sum_reduces_to_degree_two(self):
        # T: head 0, n - 1 diagonal entries n - 2, border 1; the dense recursion
        # is too slow past n = 16, so the expanded arrowhead product stands in
        for n in range(3, 65):
            parts = (ZERO, [GaussianRational(n - 2)] * (n - 1), [ONE] * (n - 1))
            coeffs, repeated = char_poly(*parts)
            # x^2 - (n - 2)x - (n - 1) = (x - (n - 1))(x + 1)
            assert coeffs == [ONE, GaussianRational(2 - n), GaussianRational(1 - n)]
            assert repeated == {n - 2: n - 2}
            assert expand_factored((coeffs, repeated)) == expanded_char_poly(*parts)

    def test_star_sums_match_reference(self):
        for M in star_sums(111):
            assert expand_factored(char_poly(*arrowhead_parts(M))) == reference_char_poly(M)

    def test_repeated_gaussian_diagonals_match_reference(self):
        # diagonal values drawn from a pool of three, so most arrowheads have groups
        rng = random.Random(113)
        for n in range(2, 9):
            for _ in range(4):
                pool = [random_scalar(rng, span=3) for _ in range(3)]
                diagonal = [rng.choice(pool) for _ in range(n - 1)]
                border = [ZERO if rng.random() < 0.2 else random_scalar(rng, span=3) for _ in range(n - 1)]
                head = random_scalar(rng, span=3)
                coeffs, repeated = char_poly(head, diagonal, border)
                sizes = {d: diagonal.count(d) for d in diagonal}
                assert repeated == {d: m - 1 for d, m in sizes.items() if m > 1}
                assert len(coeffs) == len(sizes) + 2
                M = arrowhead(head, diagonal, border)
                assert expand_factored((coeffs, repeated)) == reference_char_poly(M)
                assert expanded_char_poly(head, diagonal, border) == reference_char_poly(M)

    def test_zero_group_weight_is_a_root_of_the_reduced_polynomial(self):
        # beta_G = 0 from zero borders and from 1^2 + i^2: d_G is then also a root of
        # the reduced polynomial, and its multiplicity is |G| - 1 plus that root's
        i = GaussianRational(0, 1)
        cases = [
            (1, [2, 2, 2, 3], [0, 0, 0, 1], 2, 3),
            (0, [2, 2, 5], [ONE, i, 1], 2, 2),
            (4, [-1, -1, -1, -1, 2], [ONE, i, ONE, i, 1], -1, 4),
        ]
        for head, diagonal, border, d, mult in cases:
            coeffs, repeated = char_poly(head, diagonal, border)
            M = arrowhead(head, diagonal, border)
            bound = row_sum_bound(M)
            assert integer_roots(coeffs, bound)[d] == 1
            assert repeated[GaussianRational(d)] + 1 == mult
            assert dense_integer_eigenvalues(M)[d] == mult
            assert expand_factored((coeffs, repeated)) == reference_char_poly(M)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        def sympy_charpoly(M):
            dm = DomainMatrix.from_Matrix(
                sympy.Matrix([[to_sympy(a) for a in row] for row in M])
            )
            return [dm.domain.to_sympy(c) for c in dm.charpoly()]

        for M in [t_matrix(n) for n in range(2, 13)] + list(star_sums(112)):
            ours = expand_factored(char_poly(*arrowhead_parts(M)))
            assert [to_sympy(c) for c in ours] == sympy_charpoly(M)

    def test_integer_roots_are_exact_roots(self):
        rng = random.Random(105)
        for _ in range(8):
            M = random_matrix(rng, 3)
            coeffs = reference_char_poly(M)
            for eig in integer_roots(coeffs, row_sum_bound(M)):
                acc = coeffs[0]
                for c in coeffs[1:]:
                    acc = acc * GaussianRational(eig) + c
                assert acc.is_zero()


class TestIntegerEigenvalues:
    def test_identity(self):
        for n in (2, 4):
            assert dense_integer_eigenvalues(identity(n)) == {1: n}

    def test_generator_sum_4(self):
        assert dense_integer_eigenvalues(t_matrix(4)) == {3: 1, 2: 2, -1: 1}

    def test_negated_transposition(self):
        M = dense_combination([(-1, transposition_matrix(4, 1, 2))])
        assert dense_integer_eigenvalues(M) == {-1: 3, 1: 1}

    def test_nilpotent(self):
        M = exact_rows([[0, 1], [0, 0]])
        assert dense_integer_eigenvalues(M) == {0: 2}

    def test_root_bound_is_attained(self):
        # every row has modulus sum 1 = |eigenvalue|: the search cap is tight
        i = GaussianRational(0, 1)
        M = exact_rows([[0, i], [-i, 0]])
        assert row_sum_bound(M) == 1
        assert dense_integer_eigenvalues(M) == {1: 1, -1: 1}

    def test_roots_beyond_the_bound_are_not_searched(self):
        # x^2 - 1: the cap 0 leaves both roots out
        assert integer_roots([ONE, ZERO, -ONE], 0) == {}
        assert integer_roots([ONE, ZERO, -ONE], 1) == {1: 1, -1: 1}


def bordered_read(A, b: Vector):
    """``(consistent, particular, kernel)`` of Ax = b for the rows A, read as ``reference_in_span`` reads it.

    Ax = b is consistent iff -b's column of [A | -b] is free; then the RREF
    kernel's last vector is (x, 1), and the others, cut to A's columns, are
    A's kernel. Otherwise every kernel vector ends in 0.
    """
    kernel = nullspace(Matrix([*row, -bi] for row, bi in zip(A, b)))
    if kernel and not kernel[-1][-1].is_zero():
        assert kernel[-1][-1] == ONE
        cut = [v.segment(0, len(A[0])) for v in kernel]
        return True, cut[-1], cut[:-1]
    assert all(v[-1].is_zero() for v in kernel)
    return False, None, []


class TestSolveAffine:
    """Ax = b off the bordered kernel of [A | -b], the read of ``reference_in_span``."""

    def test_identity_solve(self):
        consistent, particular, kernel = bordered_read(identity(3), Vector.unit(3, 0))
        assert consistent
        assert particular == Vector.unit(3, 0)
        assert kernel == []

    def test_zero_zero(self):
        consistent, particular, kernel = bordered_read([[0, 0], [0, 0]], Vector.zero(2))
        assert consistent
        assert particular == Vector.zero(2)
        assert len(kernel) == 2

    def test_random_consistent_systems(self):
        rng = random.Random(106)
        for _ in range(10):
            A = random_matrix(rng, 4)
            x = [random_scalar(rng) for _ in range(4)]
            b = Vector(reference_matvec(A, x))
            consistent, particular, kernel = bordered_read(A, b)
            assert consistent
            assert reference_matvec(A, particular) == list(b)
            for v in kernel:
                assert all(e.is_zero() for e in reference_matvec(A, v))

    def test_matches_division_reference(self):
        for A, b in division_reference_cases():
            if b is None:
                continue
            read = bordered_read(A, b)
            consistent, particular, kernel = reference_solve_affine(A, b)
            assert read[0] == consistent
            assert str(read[1]) == str(particular)
            assert strs(read[2]) == strs(kernel)

    def test_consistency_matches_sympy(self):
        # consistent iff rank A == rank [A | b]
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        def sympy_rank(rows):
            return DomainMatrix.from_Matrix(
                sympy.Matrix([[to_sympy(a) for a in row] for row in rows])
            ).rank()

        rng = random.Random(115)
        seen = set()
        for trial in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            A = sparse_rows(rng, rows, cols, (0, 0.5, 0.8)[trial % 3], span=4)
            if trial % 2:
                b = Vector(reference_matvec(A, [random_scalar(rng, span=3) for _ in range(cols)]))
            else:
                b = Vector([random_scalar(rng, span=3) for _ in range(rows)])
            augmented = [row + [bi] for row, bi in zip(A, b)]
            expected = sympy_rank(A) == sympy_rank(augmented)
            assert bordered_read(A, b)[0] == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_corrupted_kernel_raises(self, monkeypatch):
        # perturb one free-column entry of the first pivot row of every
        # modular RREF: for the bordered [A | -b] the particular solution's
        # column is untouched, so only the re-substitution of a kernel
        # vector modulo p can catch it
        real = exactalg._rref_mod

        def corrupt_free_column(rows, p):
            pivots = real(rows, p)
            free = next(c for c in range(len(rows[0])) if c not in pivots)
            rows[0][free] = (rows[0][free] + 1) % p
            return pivots

        monkeypatch.setattr(exactalg, "_rref_mod", corrupt_free_column)
        counted_images(monkeypatch)
        with pytest.raises(ArithmeticError):
            bordered_read([[1, 1], [1, 1]], Vector([2, 2]))
        with pytest.raises(ArithmeticError):
            nullspace(Matrix([[1, 1], [1, 1]]))
