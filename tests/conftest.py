"""Shared independent oracles and random-input helpers for the test suite.

Dense matrices here are lists of ``GaussianRational`` rows, combined by
``dense_combination``, ``matmul`` and the ``reference_*`` list operations,
so no dense oracle shares an int-part loop with the library; a
``Matrix`` is built only to hand input to ``nullspace`` or
``determinant``. The determinant and rank oracles deliberately avoid the
library's elimination code: determinants come from the Leibniz
permutation expansion and ranks from exhaustive minor search, so they can
vouch for the fast implementations. ``reference_rref`` is plain
division-based Gauss-Jordan elimination on ``GaussianRational`` rows;
``reference_nullspace`` reads its answer off it, and the library's
multimodular ``nullspace`` must return exactly the same vectors.
``reference_solve_affine`` reads Ax = b off the RREF of [A | b]: it
vouches for the bordered kernel of [A | -b], the read of
``reference_in_span``, and supplies the parameters of series members
with a prescribed leading coefficient. ``reference_in_span`` decides
membership in a span by that bordered ``nullspace``, where the library's
``in_span`` reads the span's RREF kernel without eliminating.
``reference_char_poly`` is the dense Faddeev-LeVerrier trace recursion,
built on ``matmul``, a dense product the library does not have; it
vouches for the arrowhead ``char_poly`` and feeds ``integer_roots``, a
brute-force search that divides out each integer up to a cap, on
matrices that are not arrowheads, where the library reads T's two
reduced roots off the quadratic formula. Past n = 16
it is too slow (19 s at n = 32), so ``expanded_char_poly``, the arrowhead
identity expanded to all n + 1 coefficients as the library did before it
factored out the repeated diagonal values, stands in for it there.
``expand_factored`` multiplies ``char_poly``'s powers back into its
reduced polynomial, the form both references compare against.
The ``reference_*`` vector operations (scale, add, sub, dot, matrix times
vector, star action) work entry by entry on ``GaussianRational`` lists,
as the library did before a ``Vector`` became int parts over one shared
denominator; the int loops must print exactly what they print.
``reference_local_coefficients`` is the geometric expansion of rho*A about a
pole, each weight computed alone as rho (-1)^j / (z_k - z_l)^(j+1) in
``GaussianRational`` arithmetic, where the library raises one int-part
vector of inverses to successive powers.
``reference_frobenius_solve`` finds each series family as the nullspace
of the stacked lower-order coefficients, where the library reads the
families off the recursion's parameter bookkeeping.
``LocalSeries`` is one concrete truncated series: ``instantiate`` picks a
family's member, ``laurent_of_rational`` expands a partial-fraction
function about a pole geometrically in ``GaussianRational`` arithmetic,
and ``recursion_defect`` substitutes a series into the order-t recursion
term by term. No ``kz`` command needs them, so they live here as oracles
that share no code with the recursion the library runs.
``reference_solve_ansatz`` assembles every pole-matching and growth
condition of a shape into one system with ``star_rows`` and returns its
``nullspace``, where the library solves each pole's deep rows by the local
recursion and the growth rows by the recursion at infinity, and
eliminates only the rows that glue the poles together: the library's
basis must be exactly these vectors. ``star_rows`` writes a residue
operator sum into the rows of a linear system; the library has no such
assembly, so the reference shares none with it.
``S4Coefficients`` and ``reference_s4_columns`` build the four closed-form
n = 4 columns from ``GaussianRational`` quotients of the pole differences,
as the library did before each column computed its own coefficients from
the int parts of those differences.
``reference_eval``, ``reference_residual`` and ``reference_conditions``
are the ``kz verify`` checks term by term in ``GaussianRational``
arithmetic: W and W' from each coefficient's own power of (z - z_k) or z,
A(z) W and the three rho = -1 conditions through the dense star
generators, where the library runs int loops over a function's flat
coefficient vector.
``power`` raises a scalar to an int power by repeated products, since
``GaussianRational`` has no ``**``, and ``derivative`` writes W' of a
function in closed form, one pole order deeper; no ``kz`` command needs
either. ``float_residual_scan`` is the floating negative control: the
largest |W' - rho A W| at ring points about the poles, summed term by
term in complex arithmetic from ``fn.coeffs`` with A(z) W a product with
the dense ``star_generators``, so it shares no code with the library.
``zero_function`` and ``combine_functions`` build the zero function and
linear combinations of ``RationalVectorFunction``s coefficient by
coefficient, for tests that need sums the library never forms.
``transposition_matrix``, ``star_generators``, ``star_sum`` and
``t_matrix`` are the dense permutation matrices the library never builds:
it carries every residue sum as star weights. ``star_sum`` adds up
scaled generator matrices entry by entry, so it shares no code with
``star_act`` or ``star_rows``.
``star_act`` applies a weighted star sum to a ``Vector`` through the
library's int loop ``symrep._star_parts``, for the oracles above and for
the tests of that loop; no ``kz`` command needs it, and
``reference_star_act`` checks it entry by entry.
``counted_images`` records the prime of every modular image ``nullspace``
eliminates, for tests that count the primes an elimination draws.
The autouse fixture ``cold_memos`` empties the library's process-wide
memos (``MEMOS``) before every test, so a test that counts the work behind
them reads its own misses, not hits left by an earlier test.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm

import pytest

from kzsolve import exactalg
from kzsolve.ansatz import (
    RationalVectorFunction,
    _sample_record,
    coefficient_vector,
)
from kzsolve.exactalg import (
    ONE,
    ZERO,
    GaussianRational,
    Matrix,
    Vector,
    linear_combination,
    nullspace,
)
from kzsolve.frobenius import SeriesFamily, exponent_window
from kzsolve.kzcore import _inverses, _powers, local_coefficients
from kzsolve.symrep import _star_parts

def counted_images(monkeypatch, limit=40):
    """Record the prime of every modular image; fail instead of looping past ``limit``."""
    primes = []
    real = exactalg._image

    def image(M, p, iota, gaussian):
        primes.append(p)
        assert len(primes) <= limit, "nullspace kept drawing primes"
        return real(M, p, iota, gaussian)

    monkeypatch.setattr(exactalg, "_image", image)
    return primes


# the library's memos on input data (exactalg's table of primes, the same for every input, is none)
MEMOS = (_inverses, _sample_record)


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def leibniz_det(M) -> GaussianRational:
    """Determinant by direct permutation expansion (independent oracle)."""
    n = len(M)
    assert all(len(row) == n for row in M)
    total = GaussianRational(0)
    for p in permutations(range(n)):
        term = GaussianRational(perm_sign(p))
        for i in range(n):
            term = term * M[i][p[i]]
        total = total + term
    return total


def brute_rank(M) -> int:
    """Rank as the largest size of a nonzero minor (independent oracle)."""
    n, m = len(M), len(M[0])
    for size in range(min(n, m), 0, -1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(m), size):
                if not leibniz_det([[M[i][j] for j in cols] for i in rows]).is_zero():
                    return size
    return 0


def identity(n: int) -> list[list[GaussianRational]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dense_combination(terms) -> list[list[GaussianRational]]:
    """sum_j s_j M_j over (s_j, M_j) in ``terms``, row lists of one shape."""
    total = None
    for s, M in terms:
        scaled = [reference_scale(GaussianRational.coerce(s), row) for row in M]
        total = scaled if total is None else [reference_add(a, b) for a, b in zip(total, scaled)]
    return total


def matmul(A, B) -> list[list[GaussianRational]]:
    """Dense exact product A B."""
    if len(A[0]) != len(B):
        raise ValueError("matrix shape mismatch")
    cols = list(zip(*B))
    return [[reference_dot(row, col) for col in cols] for row in A]


def trace(M) -> GaussianRational:
    return sum((M[i][i] for i in range(len(M))), ZERO)


def reference_char_poly(M) -> list[GaussianRational]:
    """Monic characteristic polynomial of M, coefficients of det(xI - M).

    Returned in descending powers: [1, c1, ..., cn]. Computed by the
    Faddeev-LeVerrier trace recursion, exact over the rationals.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("char_poly needs a square matrix")
    ident = identity(n)
    coeffs = [ONE]
    N = M
    c = -trace(N)
    coeffs.append(c)
    for k in range(2, n + 1):
        N = matmul(M, dense_combination([(ONE, N), (c, ident)]))
        c = -(trace(N) / k)
        coeffs.append(c)
    return coeffs


def _times_linear(coeffs, x):
    """A polynomial in descending powers times (t - x)."""
    return [c - x * p for c, p in zip(coeffs + [ZERO], [ZERO] + coeffs)]


def expanded_char_poly(head, diagonal, border) -> list[GaussianRational]:
    """det(xI - M) for an arrowhead M, all n + 1 coefficients in descending powers.

    With Q = prod_k (x - d_k) it is (x - a) Q - sum_k b_k^2 Q / (x - d_k), each
    quotient a synthetic division of the expanded Q.
    """
    a = GaussianRational.coerce(head)
    d = [GaussianRational.coerce(x) for x in diagonal]
    b = [GaussianRational.coerce(x) for x in border]
    Q = [ONE]
    for dk in d:
        Q = _times_linear(Q, dk)
    out = _times_linear(Q, a)
    quotients = {}
    for dk, bk in zip(d, b):
        if dk not in quotients:
            quotient = [Q[0]]
            for c in Q[1:-1]:
                quotient.append(c + dk * quotient[-1])
            quotients[dk] = quotient
        # Q / (x - d_k) has degree n - 2: it lands on the last n - 1 coefficients
        weight = bk * bk
        for i, c in enumerate(quotients[dk], start=2):
            out[i] = out[i] - weight * c
    return out


def expand_factored(factored) -> list[GaussianRational]:
    """The reduced polynomial of ``char_poly`` times (x - d)^m for each repeated d."""
    coeffs, repeated = factored
    for d, m in repeated.items():
        for _ in range(m):
            coeffs = _times_linear(coeffs, d)
    return coeffs


def row_sum_bound(M) -> int:
    """max_i sum_j |m_ij|, each modulus over-estimated: caps every eigenvalue."""
    return int(max(sum(a.abs_bound() for a in row) for row in M))


def integer_roots(coeffs, bound: int) -> dict[int, int]:
    """Integer roots of magnitude at most ``bound`` of a monic polynomial, with multiplicities.

    Each integer in [-bound, bound] is divided out by synthetic division
    while the remainder is zero; the number of divisions is its multiplicity.
    """
    out = {}
    for x in range(-bound, bound + 1):
        rest = list(coeffs)
        while len(rest) > 1:
            quotient = [rest[0]]
            for c in rest[1:]:
                quotient.append(c + x * quotient[-1])
            if not quotient.pop().is_zero():
                break
            rest = quotient
            out[x] = out.get(x, 0) + 1
    return out


def dense_integer_eigenvalues(M) -> dict[int, int]:
    """Integer eigenvalues of any square M, from its reference polynomial."""
    return integer_roots(reference_char_poly(M), row_sum_bound(M))


def to_sympy(a: GaussianRational):
    import sympy

    return sympy.Rational(a.re.numerator, a.re.denominator) + sympy.I * sympy.Rational(
        a.im.numerator, a.im.denominator
    )


def reference_rref(rows, pivot_width=None):
    """In-place reduced row echelon form; returns pivot column indices.

    Division-based Gauss-Jordan: each pivot row is normalized immediately
    and eliminated above and below. With canonical-form rational entries
    this keeps coefficients small on dense systems, where cross-multiplying
    variants double entry sizes per step. Pivot search is restricted to the
    first ``pivot_width`` columns; trailing columns (augmentations) are
    transformed but never chosen as pivots.
    """
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    width = ncols if pivot_width is None else pivot_width
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        if pv != ONE:
            rows[r] = [a / pv for a in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_kernel(rows, pivots, ncols):
    """One kernel vector per free column among the first ``ncols`` of an RREF."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        basis.append(Vector(v))
    return basis


def reference_nullspace(M) -> list[Vector]:
    """Kernel basis of M read off its division-based RREF."""
    rows = [[GaussianRational.coerce(a) for a in r] for r in M]
    return _rref_kernel(rows, reference_rref(rows), len(rows[0]))


def reference_solve_affine(A, b):
    """``(consistent, particular, kernel)`` of Ax = b from the RREF of [A | b].

    Pivots are restricted to A's columns, so b's column is transformed
    but never a pivot: the system is consistent iff it ends at zero in
    every row below the rank.
    """
    cols = len(A[0])
    rows = [list(r) + [bi] for r, bi in zip(A, b)]
    pivots = reference_rref(rows, cols)
    if any(not row[cols].is_zero() for row in rows[len(pivots):]):
        return False, None, []
    x = [ZERO] * cols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][cols]
    return True, Vector(x), _rref_kernel(rows, pivots, cols)


def reference_local_coefficients(sys, k: int, order: int):
    """(a(-1), [a(0), ..., a(order)]) of rho*A about pole k as lists of scalars."""
    ki = k - 1
    rho = GaussianRational(sys.rho)
    zk = sys.points[ki]
    minus_one = [rho if li == ki else ZERO for li in range(sys.s)]
    regular = []
    for j in range(order + 1):
        sign = rho if j % 2 == 0 else -rho
        regular.append([
            ZERO if li == ki else sign / power(zk - zl, j + 1)
            for li, zl in enumerate(sys.points)
        ])
    return minus_one, regular


def reference_frobenius_solve(sys, k: int, order: int) -> list[SeriesFamily]:
    """``frobenius_solve``, with each later family found as the parameter
    combinations in the nullspace of the stacked coefficients below its start."""
    m_min, m_max = exponent_window(sys, k)
    if order < m_max:
        raise ValueError(f"truncation order must reach the window end {m_max}")
    n = sys.n
    loc = local_coefficients(sys, k, max(order - 1 - m_min, -1))
    negated = dense_combination([(-1, star_sum(loc.minus_one))])

    basis: dict[int, list[Vector]] = {}
    starts = []
    nparams = 0
    for t in range(m_min, order + 1):
        rhs = []
        for p in range(nparams):
            src = [(loc.regular[j], basis[t - 1 - j][p]) for j in range(t - m_min)]
            rhs.append(linear_combination(((1, star_act(a, b)) for a, b in src if not b.is_zero()), n))
        # tI - a(-1): t added on the diagonal of -a(-1)
        L = [[a + t if i == j else a for j, a in enumerate(row)] for i, row in enumerate(negated)]
        bordered = [row + [-col[i] for col in rhs] for i, row in enumerate(L)]
        carried, fresh = [], []
        for v in nullspace(Matrix(bordered)):
            (fresh if v.segment(n, v.dim).is_zero() else carried).append(v)
        kept = carried + fresh
        pruned = len(carried) < nparams
        for q in basis:
            older = basis[q]
            if pruned:
                older = [linear_combination(zip(v[n:], older), n) for v in carried]
            basis[q] = older + [Vector.zero(n)] * len(fresh)
        basis[t] = [v.segment(0, n) for v in kept]
        nparams = len(kept)
        if fresh:
            starts.append(t)

    families = []
    for start in starts:
        if start == m_min:
            fam = {q: list(basis[q]) for q in range(start, order + 1)}
        else:
            stacked = [row for q in range(m_min, start) for row in zip(*basis[q])]
            K = nullspace(Matrix(stacked))
            if not K:
                continue
            fam = {
                q: [linear_combination(zip(kv, basis[q]), n) for kv in K]
                for q in range(start, order + 1)
            }
        if all(col.is_zero() for col in fam[start]):
            continue
        families.append(SeriesFamily(pole_index=k, start=start, order=order, basis=fam))
    return families


@dataclass(frozen=True)
class LocalSeries:
    """Concrete truncated Laurent expansion of one solution at one pole."""

    pole_index: int
    start: int
    coeffs: tuple[Vector, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")
        if self.coeffs[0].is_zero():
            raise ValueError("leading series coefficient must be nonzero")

    @property
    def order(self) -> int:
        return self.start + len(self.coeffs) - 1

    def coeff(self, q: int) -> Vector:
        """Coefficient of (z - z_k)^q; zero below the leading order."""
        if q < self.start:
            return Vector.zero(self.coeffs[0].dim)
        if q > self.order:
            raise ValueError(f"coefficient {q} beyond truncation order {self.order}")
        return self.coeffs[q - self.start]


def trimmed_series(pole_index: int, start: int, coeffs: list[Vector]) -> LocalSeries:
    while coeffs and coeffs[0].is_zero():
        coeffs = coeffs[1:]
        start += 1
    if not coeffs:
        raise ValueError("series is identically zero through the truncation order")
    return LocalSeries(pole_index=pole_index, start=start, coeffs=tuple(coeffs))


def instantiate(family: SeriesFamily, params) -> LocalSeries:
    """The member of a series family with b_q = sum_i params[i] * basis[q][i]."""
    params = list(params)
    if len(params) != family.dimension:
        raise ValueError(f"expected {family.dimension} parameters")
    n = family.basis[family.start][0].dim
    coeffs = [
        linear_combination(zip(params, family.basis[q]), n)
        for q in range(family.start, family.order + 1)
    ]
    return trimmed_series(family.pole_index, family.start, coeffs)


def recursion_defect(sys, series: LocalSeries, t: int) -> Vector:
    """Exact defect of the order-t recursion relation for a concrete series.

    Zero for every t up to the truncation order iff the series satisfies
    the local equation term by term.
    """
    k = series.pole_index
    loc = local_coefficients(sys, k, max(t - 1 - series.start, -1))
    n = sys.n
    b = series.coeff(t)
    lhs = b.scale(t) - star_act(loc.minus_one, b)
    rhs = Vector.zero(n)
    for j in range(t - series.start):
        rhs = rhs + star_act(loc.regular[j], series.coeff(t - 1 - j))
    return lhs - rhs


def laurent_of_rational(fn: RationalVectorFunction, k: int, order: int) -> LocalSeries:
    """Exact Laurent expansion of a partial-fraction function about pole k.

    The function may have at most a simple pole at z_k itself; foreign
    poles of any order and the polynomial part are expanded geometrically.
    """
    if not (1 <= k <= len(fn.points)):
        raise ValueError(f"pole index {k} out of range")
    ki = k - 1
    own = fn.pole_coeffs[ki]
    if any(not c.is_zero() for c in own[1:]):
        raise ValueError("function has a pole of order > 1 at the expansion point")
    n = fn.dim
    zk = fn.points[ki]
    coeffs = [own[0] if own else Vector.zero(n)]
    for j in range(order + 1):
        acc = Vector.zero(n)
        for li, zl in enumerate(fn.points):
            if li == ki:
                continue
            d = zk - zl
            for r, vec in enumerate(fn.pole_coeffs[li], start=1):
                if vec.is_zero():
                    continue
                w = GaussianRational((-1) ** j * comb(r + j - 1, j)) / power(d, r + j)
                acc = acc + vec.scale(w)
        for deg, qvec in enumerate(fn.poly_coeffs):
            if deg >= j and not qvec.is_zero():
                acc = acc + qvec.scale(GaussianRational(comb(deg, j)) * power(zk, deg - j))
        coeffs.append(acc)
    return trimmed_series(k, -1, coeffs)


def star_rows(terms, n: int, width: int) -> list[Vector]:
    """The n rows of sum (shift*I + sum_k w_k P_k) over the (offset, shift, w) in ``terms``.

    Each operator acts on columns offset..offset+n-1 of a system ``width``
    columns wide: row 1 gets shift at ``offset`` and w_k at ``offset + k``,
    row k+1 gets w_k at ``offset`` and shift + sum(w) - w_k at ``offset + k``,
    and operators on the same columns add up. The weights' int parts are
    lifted to one denominator, so the rows are an int loop with one lcm and
    a gcd per row.
    """
    for _, _, w in terms:
        if w.dim != n - 1:
            raise ValueError(f"{w.dim} star weights do not act on dimension {n}")
    den = lcm(*(w.den for _, _, w in terms))
    re = [[0] * width for _ in range(n)]
    im = [[0] * width for _ in range(n)]
    for offset, shift, w in terms:
        f = den // w.den
        # row k+1's diagonal is this, shift + sum(w), less w_k
        dr, di = shift * den + sum(w.re) * f, sum(w.im) * f
        re[0][offset] += shift * den
        for k, (a, b) in enumerate(zip(w.re, w.im), start=1):
            a, b = a * f, b * f
            re[0][offset + k] += a
            im[0][offset + k] += b
            re[k][offset] += a
            im[k][offset] += b
            re[k][offset + k] += dr - a
            im[k][offset + k] += di - b
    return [Vector.from_parts(x, y, den) for x, y in zip(re, im)]


def reference_in_span(basis, fn, pole_order: int = 1, poly_degree: int = 1) -> bool:
    """``in_span`` as a bordered nullspace, where the library reads the RREF kernel.

    fn is a member iff the column -target is free in [cols | -target]; then
    the RREF kernel's last vector is (x, 1), and else every kernel vector
    ends in 0. The empty basis spans the zero function alone.
    """
    target = coefficient_vector(fn, pole_order, poly_degree)
    if not basis:
        return target.is_zero()
    cols = [coefficient_vector(b, pole_order, poly_degree) for b in basis]
    kernel = nullspace(Matrix.from_columns([*cols, -target]))
    return bool(kernel) and not kernel[-1][-1].is_zero()


def reference_solve_ansatz(sys, pole_order: int, poly_degree: int) -> list[Vector]:
    """``solve_ansatz``'s kernel, flattened, from the full system of its shape.

    Assembles every pole-matching condition (orders -(pole_order+1) through
    -1 at every pole) and the growth conditions at infinity into one system
    over all coefficient vectors and returns its ``nullspace``, where the
    library solves each pole's deep rows by the local recursion and
    eliminates only the gluing rows.
    """
    n, s, p, deg = sys.n, sys.s, pole_order, poly_degree
    rho = sys.rho
    width = n * (s * p + deg + 1)

    def pole_block(k: int, r: int) -> int:
        return k * p + r - 1

    def poly_block(d: int) -> int:
        return s * p + d

    locals_ = [local_coefficients(sys, k + 1, p - 1) for k in range(s)]

    # each equation is n rows: the sum of (shift*I + sum_j w_j P_j) times the
    # unknown block u over its terms (u, shift, w)
    rows: list[Vector] = []

    def add_equation(terms):
        rows.extend(star_rows([(u * n, shift, w) for u, shift, w in terms], n, width))

    def weighted_P(k: int, x: int, y: int, d: int) -> Vector:
        """The weights of (x + y*i) / d * P_(k+1)."""
        re, im = [0] * s, [0] * s
        re[k], im[k] = x, y
        return Vector.from_parts(re, im, d)

    # z_k^t for t = 0..deg as int parts over the points' shared denominator to the t
    zpow = [([1] * s, [0] * s, 1), *_powers(Vector(sys.points), deg)]

    for k in range(s):
        loc = locals_[k]
        # deep pole orders -(r'+1), r' = pole_order..1: (r'I + a(-1)) on block r'
        # plus a(r - r' - 1) on each deeper block r
        for rp in range(p, 0, -1):
            terms = [(pole_block(k, rp), rp, loc.minus_one)]
            terms += [(pole_block(k, r), 0, loc.regular[r - rp - 1]) for r in range(rp + 1, p + 1)]
            add_equation(terms)
        # surviving simple pole at z_k; the weight rho / (z_k - z_j)^r of the
        # pole term (j, r) is entry j of a(r - 1) times (-1)^(r-1)
        terms = [(pole_block(k, r), 0, loc.regular[r - 1]) for r in range(1, p + 1)]
        signed = [(r, 1 if r % 2 else -1, w) for r, w in enumerate(loc.regular, start=1)]
        terms += [
            (pole_block(j, r), 0, weighted_P(k, c * w.re[j], c * w.im[j], w.den))
            for j in range(s) if j != k
            for r, c, w in signed
        ]
        terms += [
            (poly_block(dd), 0, weighted_P(k, rho * re[k], rho * im[k], d))
            for dd, (re, im, d) in enumerate(zpow)
        ]
        add_equation(terms)
    # growth matching at infinity; G[t] = sum_k z_k^t P_k drives the
    # large-z expansion rho*A(z) = sum_t rho*G[t] z^(-t-1)
    minus_rho_G = [
        Vector.from_parts([-rho * x for x in re], [-rho * y for y in im], d)
        for re, im, d in zpow[:deg]
    ]
    for e in range(deg):
        terms = [(poly_block(e + 1), e + 1, minus_rho_G[0])]
        terms += [(poly_block(d), 0, minus_rho_G[d - e - 1]) for d in range(e + 2, deg + 1)]
        add_equation(terms)
    return nullspace(Matrix(rows))


@dataclass(frozen=True)
class S4Coefficients:
    """All scalar coefficients entering the four explicit n = 4 solutions.

    The reference for :mod:`kzsolve.s4explicit`, in ``GaussianRational``
    arithmetic straight from the pole differences; the library computes each
    column's own coefficients from the int parts of b1, b2 and b3 instead.
    The third and fourth columns each use a private (a, b, c) family from
    different formulas, stored separately here.
    """

    alpha: GaussianRational
    beta: GaussianRational
    betas: tuple[GaussianRational, GaussianRational, GaussianRational]
    alphas: tuple[GaussianRational, GaussianRational, GaussianRational]
    y3_abc: tuple[GaussianRational, GaussianRational, GaussianRational]
    y4_abcde: tuple[GaussianRational, ...]

    @classmethod
    def from_points(cls, points) -> "S4Coefficients":
        z1, z2, z3 = (GaussianRational.coerce(p) for p in points)
        if z1 == z2 or z2 == z3 or z1 == z3:
            raise ValueError("pole locations must be distinct")
        alpha = -(z3 - z2) / (z3 - z1)
        beta = (z3 - z2) / (z2 - z1)
        b1, b2, b3 = z2 - z3, z3 - z1, z1 - z2
        y3 = (-b1 / b3, -b3 / b2, b1 * b1 / (b2 * b3))
        a1 = ONE / (z3 - z2)
        a2 = ONE / (z1 - z3)
        a3 = ONE / (z2 - z1)
        d = -(a1 * a1 / (a2 * power(a3, 3))) * (a1 * a2 + a3 * a3)
        y4 = (-a1 / a3, -(a3 / a2) * d, a1 * a1 / (a2 * a3), d, ONE + a1 / a2)
        return cls(
            alpha=alpha, beta=beta, betas=(b1, b2, b3), alphas=(a1, a2, a3), y3_abc=y3, y4_abcde=y4
        )


def reference_s4_columns(points) -> tuple[RationalVectorFunction, ...]:
    """y1, y2, y3 and y4 built from :class:`S4Coefficients` by scaling
    ``Vector``s with ``GaussianRational`` coefficients."""
    co = S4Coefficients.from_points(points)
    z1, z2, z3 = pts = tuple(GaussianRational.coerce(p) for p in points)
    b1, b2, b3 = co.betas
    a1, a2, a3 = co.alphas
    denom = (z2 - z1) * (z3 - z1)
    combo = (
        Vector([1, 1, -1, -1]).scale(z1)
        + Vector([1, -1, 1, -1]).scale(z2)
        + Vector([1, -1, -1, 1]).scale(z3)
    )
    col1 = RationalVectorFunction.simple(
        pts,
        (
            Vector([1, 1, -1, -1]),
            Vector([1, -1, 1, -1]).scale(co.alpha),
            Vector([1, -1, -1, 1]).scale(co.beta),
        ),
        combo.scale(ONE / denom),
        Vector([3, -1, -1, -1]).scale(-ONE / denom),
    )
    col2 = RationalVectorFunction.simple(pts, tuple(Vector([1, 1, 1, 1]).scale(b) for b in co.betas))
    a, b, c = co.y3_abc
    col3 = RationalVectorFunction.simple(
        pts,
        (Vector([0, 0, 1, a]).scale(b1), Vector([0, b, 0, c]).scale(b2), Vector([0, 1, a, 0]).scale(b3)),
    )
    a, b, c, d, e = co.y4_abcde
    col4 = RationalVectorFunction.simple(
        pts,
        (Vector([0, 0, 1, a]).scale(a1), Vector([0, b, 0, c]).scale(a2), Vector([0, d, e, 0]).scale(a3)),
    )
    return col1, col2, col3, col4


def zero_function(points, n: int) -> RationalVectorFunction:
    """The zero function of dimension n on the poles ``points``: no coefficients at all."""
    pts = tuple(GaussianRational.coerce(p) for p in points)
    return RationalVectorFunction.from_blocks(n, pts, ((),) * len(pts), ())


def combine_functions(terms) -> RationalVectorFunction:
    """sum_j s_j f_j over (s_j, f_j) in ``terms``, all on the same poles and dimension.

    Each coefficient of the result is one ``linear_combination`` of the
    matching coefficients, in the widest shape any term has: a term
    without a given coefficient contributes zero to it.
    """
    terms = list(terms)
    first = terms[0][1]
    if any(fn.points != first.points or fn.dim != first.dim for _, fn in terms):
        raise ValueError("functions live on different pole sets")
    n = first.dim

    def combined(groups):
        depth = max(len(g) for g in groups)
        return tuple(
            linear_combination(((s, g[r]) for (s, _), g in zip(terms, groups) if r < len(g)), n)
            for r in range(depth)
        )

    return RationalVectorFunction.from_blocks(
        n,
        first.points,
        [combined([fn.pole_coeffs[k] for _, fn in terms]) for k in range(len(first.points))],
        combined([fn.poly_coeffs for _, fn in terms]),
    )


def transposition_matrix(n: int, i: int, j: int) -> list[list[GaussianRational]]:
    """Permutation matrix of the transposition (i j) on n points, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices out of range: ({i},{j}) for n={n}")
    if i == j:
        raise ValueError("a transposition needs two distinct points")
    rows = identity(n)
    a, b = i - 1, j - 1
    rows[a], rows[b] = rows[b], rows[a]
    return rows


def star_generators(n: int) -> list[list[list[GaussianRational]]]:
    """The n-1 star transposition matrices (1 2), (1 3), ..., (1 n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [transposition_matrix(n, 1, k + 1) for k in range(1, n)]


def star_sum(weights) -> list[list[GaussianRational]]:
    """Dense sum_k w_k P_k over the star generators on len(weights) + 1 points."""
    weights = list(weights)
    return dense_combination(zip(weights, star_generators(len(weights) + 1)))


def t_matrix(n: int) -> list[list[GaussianRational]]:
    """Sum T of the star generators as a dense matrix."""
    if n < 2:
        raise ValueError("need n >= 2")
    return star_sum([ONE] * (n - 1))


def reference_scale(s, v):
    return [s * a for a in v]


def reference_add(u, v):
    return [a + b for a, b in zip(u, v)]


def reference_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def reference_dot(u, v) -> GaussianRational:
    acc = ZERO
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def reference_matvec(rows, v):
    support = [(j, b) for j, b in enumerate(v) if not b.is_zero()]
    return [sum((row[j] * b for j, b in support if not row[j].is_zero()), ZERO) for row in rows]


def star_act(weights, v: Vector) -> Vector:
    """(sum_k w_k P_k) v through the library's int loop ``symrep._star_parts``.

    Entry 1 is sum_k w_k v_(k+1); entry k+1 is w_k v_1 + (sum(w) - w_k) v_(k+1).
    The weights are lifted to int parts over one denominator (a ``Vector``
    is used as is), so the product is one int loop with one gcd.
    """
    w = weights if isinstance(weights, Vector) else Vector(weights)
    if w.dim != v.dim - 1:
        raise ValueError(f"{w.dim} star weights do not act on dimension {v.dim}")
    return Vector.from_parts(*_star_parts(w.re, w.im, v.re, v.im), w.den * v.den)


def reference_star_act(weights, v):
    """(sum_k w_k P_k) v: entry 1 is sum_k w_k v_(k+1), entry k+1 w_k v_1 + (sum(w) - w_k) v_(k+1)."""
    w = [GaussianRational.coerce(x) for x in weights]
    head, tail = v[0], list(v[1:])
    total = sum(w, ZERO)
    out = [sum((wk * vk for wk, vk in zip(w, tail)), ZERO)]
    out += [wk * head + (total - wk) * vk for wk, vk in zip(w, tail)]
    return out


def power(x, k: int):
    """x^k for an int k >= 0, by k products: ``GaussianRational`` has no ``**``."""
    if k < 0:
        raise ValueError("power takes a nonnegative exponent")
    out = ONE
    for _ in range(k):
        out = out * x
    return out


def derivative(fn) -> RationalVectorFunction:
    """W' in closed form, one pole order deeper: L at (z - z_k)^-r becomes -r L
    at (z - z_k)^-(r+1), and Q_d at z^d becomes d Q_d at z^(d-1)."""
    zero = Vector.zero(fn.dim)
    poles = [(zero, *(v.scale(-r) for r, v in enumerate(g, 1))) if g else () for g in fn.pole_coeffs]
    poly = [v.scale(d) for d, v in enumerate(fn.poly_coeffs) if d]
    return RationalVectorFunction.from_blocks(fn.dim, fn.points, poles, poly)


def reference_eval(fn, z):
    """W(z) and W'(z) term by term, each coefficient times its own power of
    (z - z_k) or z, in ``GaussianRational`` arithmetic."""
    z = GaussianRational.coerce(z)
    value, slope = [ZERO] * fn.dim, [ZERO] * fn.dim
    for zk, group in zip(fn.points, fn.pole_coeffs):
        for r, L in enumerate(group, start=1):
            value = reference_add(value, reference_scale(ONE / power(z - zk, r), L.data))
            slope = reference_add(slope, reference_scale(-r * ONE / power(z - zk, r + 1), L.data))
    for d, Q in enumerate(fn.poly_coeffs):
        value = reference_add(value, reference_scale(power(z, d), Q.data))
        if d:
            slope = reference_add(slope, reference_scale(d * power(z, d - 1), Q.data))
    return value, slope


def reference_residual(sys, fn, z):
    """W'(z) - rho A(z) W(z) from :func:`reference_eval`, A(z) W through the
    dense star generators; z must avoid the poles."""
    z = GaussianRational.coerce(z)
    value, slope = reference_eval(fn, z)
    a_w = [ZERO] * fn.dim
    for zk, P in zip(sys.points, star_generators(sys.n)):
        a_w = reference_add(a_w, reference_scale(ONE / (z - zk), reference_matvec(P, value)))
    return reference_sub(slope, reference_scale(GaussianRational(sys.rho), a_w))


def reference_conditions(sys, fn):
    """The three rho = -1 conditions of a simple-pole, affine fn from dense P_k
    matrices: (I - P_k) L_k per pole, the balance per pole, (I + T) Q_1."""
    s = sys.s
    P = [transposition_matrix(sys.n, 1, k + 1) for k in range(1, s + 1)]
    res = [list(L) for L in fn.residues]
    qc, ql = list(fn.q_const), list(fn.q_linear)
    sym = [reference_sub(L, reference_matvec(Pk, L)) for Pk, L in zip(P, res)]
    balance = []
    for k, zk in enumerate(sys.points):
        # sum_{j != k} (P_k L_j + P_j L_k) / (z_k - z_j) + P_k (z_k q_linear + q_const)
        acc = reference_matvec(P[k], reference_add(reference_scale(zk, ql), qc))
        for j, zj in enumerate(sys.points):
            if j != k:
                pair = reference_add(reference_matvec(P[k], res[j]), reference_matvec(P[j], res[k]))
                acc = reference_add(acc, reference_scale(ONE / (zk - zj), pair))
        balance.append(acc)
    growth = reference_add(ql, reference_matvec(star_sum([ONE] * s), ql))
    return sym, balance, growth


def float_residual_scan(sys, fn, samples: int = 64) -> float:
    """Max floating defect |W' - rho A W| over a deterministic sample set.

    The floating negative control: W and W' are summed term by term in
    complex arithmetic from ``fn.coeffs``, and A(z) W is a product with the
    dense ``star_generators``. Samples lie on concentric rings about the
    pole centroid; a ring point closer to a pole than a tenth of the least
    pole distance is skipped and made up for on a larger ring.
    """
    import numpy as np

    n, p = fn.dim, fn.pole_order
    poles = [z.to_complex() for z in sys.points]
    s = len(poles)
    # block k*p + r - 1 multiplies (z - z_k)^-r, block s*p + d multiplies z^d
    blocks = np.array([c.to_complex() for c in fn.coeffs.data], dtype=complex).reshape(-1, n)
    gens = [np.array([[e.to_complex() for e in row] for row in P]) for P in star_generators(n)]
    clearance = 0.1 * min(abs(a - b) for i, a in enumerate(poles) for b in poles[i + 1:])
    centroid = sum(poles) / s
    dmax = max(abs(z - centroid) for z in poles)
    pts = []
    ring = 1
    per_ring = max(8, samples // 4)
    while len(pts) < samples and ring <= 64:
        R = ring * (dmax + 1.0)
        for j in range(per_ring):
            z = centroid + R * cmath.exp(2j * math.pi * (j + 0.5) / per_ring)
            if all(abs(z - zk) >= clearance for zk in poles):
                pts.append(z)
            if len(pts) == samples:
                break
        ring += 1
    worst = 0.0
    for z in pts:
        value, slope = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        for k, zk in enumerate(poles):
            for r in range(1, p + 1):
                L = blocks[k * p + r - 1]
                value += L / (z - zk) ** r
                slope -= r * L / (z - zk) ** (r + 1)
        for d, Q in enumerate(blocks[s * p:]):
            value += Q * z ** d
            if d:
                slope += d * Q * z ** (d - 1)
        a_w = sum(P @ value / (z - zk) for P, zk in zip(gens, poles))
        worst = max(worst, float(np.linalg.norm(slope - sys.rho * a_w)))
    return worst


def entries_str(entries) -> str:
    """A list of scalars printed the way ``str(Vector)`` prints its entries."""
    return "[" + ", ".join(str(a) for a in entries) + "]"


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_scalar(rng: random.Random, span: int = 6, real_only=False) -> GaussianRational:
    re = random_rational(rng, span)
    if real_only or rng.random() < 0.5:
        return GaussianRational(re)
    return GaussianRational(re, random_rational(rng, span))


def random_points(rng: random.Random, count: int = 3, span: int = 6):
    """Distinct Gaussian-rational pole locations."""
    while True:
        pts = [random_scalar(rng, span) for _ in range(count)]
        ok = all(
            not (pts[a] - pts[b]).is_zero()
            for a in range(count)
            for b in range(a + 1, count)
        )
        if ok:
            return pts


def generic_points(rng: random.Random, span: int = 6):
    """Distinct triple avoiding the degenerate locus 2*z2 = z1 + z3.

    On that locus the four explicit columns are linearly dependent (the
    fourth is a multiple of the third), so tests of generic independence
    must sample away from it.
    """
    while True:
        z1, z2, z3 = random_points(rng, 3, span)
        if not (z2 + z2 - z1 - z3).is_zero():
            return [z1, z2, z3]


def random_matrix(rng: random.Random, n: int, span: int = 4) -> list[list[GaussianRational]]:
    return [[random_scalar(rng, span) for _ in range(n)] for _ in range(n)]
