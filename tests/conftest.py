"""Shared independent oracles and random-input helpers for the test suite.

The determinant and rank oracles deliberately avoid the library's
elimination code: determinants come from the Leibniz permutation
expansion and ranks from exhaustive minor search, so they can vouch for
the fast implementations. ``reference_rref`` is plain division-based
Gauss-Jordan elimination on ``GaussianRational`` rows;
``reference_nullspace`` reads its answer off it, and the library's
multimodular ``nullspace`` must return exactly the same vectors.
``reference_solve_affine`` reads Ax = b off the RREF of [A | b]: it
vouches for the bordered kernel of [A | -b], the library's one affine
read (``ansatz.in_span``), and supplies the parameters of series members
with a prescribed leading coefficient.
``reference_char_poly`` is the dense Faddeev-LeVerrier trace recursion,
built on ``matmul``, the dense product the library itself no longer
has; it vouches for the arrowhead ``char_poly`` and feeds
``integer_eigenvalues`` on matrices that are not arrowheads.
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
``S4Coefficients`` and ``reference_s4_columns`` build the four closed-form
n = 4 columns from ``GaussianRational`` quotients of the pole differences,
as the library did before each column computed its own coefficients from
the int parts of those differences.
``transposition_matrix``, ``star_generators``, ``star_sum`` and
``t_matrix`` are the dense permutation matrices the library never builds:
it carries every residue sum as star weights. ``star_sum`` adds up
scaled generator matrices, so it shares no code with ``star_act`` or
``star_rows``.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from kzsolve.ansatz import RationalVectorFunction
from kzsolve.exactalg import (
    ONE,
    ZERO,
    GaussianRational,
    Matrix,
    Vector,
    integer_eigenvalues,
    linear_combination,
    nullspace,
)
from kzsolve.frobenius import SeriesFamily, exponent_window
from kzsolve.kzcore import local_coefficients
from kzsolve.symrep import star_act


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def leibniz_det(M: Matrix) -> GaussianRational:
    """Determinant by direct permutation expansion (independent oracle)."""
    assert M.rows == M.cols
    n = M.rows
    total = GaussianRational(0)
    for p in permutations(range(n)):
        term = GaussianRational(perm_sign(p))
        for i in range(n):
            term = term * M[i, p[i]]
        total = total + term
    return total


def brute_rank(M: Matrix) -> int:
    """Rank as the largest size of a nonzero minor (independent oracle)."""
    n, m = M.rows, M.cols
    for size in range(min(n, m), 0, -1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(m), size):
                sub = Matrix([[M[i, j] for j in cols] for i in rows])
                if not leibniz_det(sub).is_zero():
                    return size
    return 0


def matmul(A: Matrix, B: Matrix) -> Matrix:
    """Dense exact product A B."""
    if A.cols != B.rows:
        raise ValueError("matrix shape mismatch")
    cols = list(zip(*B.data))
    return Matrix(
        [[sum((a * b for a, b in zip(row, col)), ZERO) for col in cols] for row in A.data]
    )


def trace(M: Matrix) -> GaussianRational:
    return sum((M[i, i] for i in range(M.rows)), ZERO)


def reference_char_poly(M: Matrix) -> list[GaussianRational]:
    """Monic characteristic polynomial of M, coefficients of det(xI - M).

    Returned in descending powers: [1, c1, ..., cn]. Computed by the
    Faddeev-LeVerrier trace recursion, exact over the rationals.
    """
    if M.rows != M.cols:
        raise ValueError("char_poly needs a square matrix")
    n = M.rows
    ident = Matrix.identity(n)
    coeffs = [ONE]
    N = M
    c = -trace(N)
    coeffs.append(c)
    for k in range(2, n + 1):
        N = matmul(M, N + ident.scale(c))
        c = -(trace(N) / k)
        coeffs.append(c)
    return coeffs


def row_sum_bound(M: Matrix) -> int:
    """max_i sum_j |m_ij|, each modulus over-estimated: caps every eigenvalue."""
    return int(max(sum(a.abs_bound() for a in row) for row in M.data))


def dense_integer_eigenvalues(M: Matrix) -> dict[int, int]:
    """Integer eigenvalues of any square M, from its reference polynomial."""
    return integer_eigenvalues(reference_char_poly(M), row_sum_bound(M))


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


def reference_nullspace(M: Matrix) -> list[Vector]:
    """Kernel basis of M read off its division-based RREF."""
    rows = [list(r) for r in M.data]
    return _rref_kernel(rows, reference_rref(rows), M.cols)


def reference_solve_affine(A: Matrix, b):
    """``(consistent, particular, kernel)`` of Ax = b from the RREF of [A | b].

    Pivots are restricted to A's columns, so b's column is transformed
    but never a pivot: the system is consistent iff it ends at zero in
    every row below the rank.
    """
    rows = [list(r) + [bi] for r, bi in zip(A.data, b)]
    pivots = reference_rref(rows, A.cols)
    if any(not rows[i][A.cols].is_zero() for i in range(len(pivots), A.rows)):
        return False, None, []
    x = [ZERO] * A.cols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][A.cols]
    return True, Vector(x), _rref_kernel(rows, pivots, A.cols)


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
            ZERO if li == ki else sign / (zk - zl) ** (j + 1)
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
    ident = Matrix.identity(n)
    residue = star_sum(loc.minus_one)

    basis: dict[int, list[Vector]] = {}
    starts = []
    nparams = 0
    for t in range(m_min, order + 1):
        rhs = []
        for p in range(nparams):
            src = [(loc.regular[j], basis[t - 1 - j][p]) for j in range(t - m_min)]
            rhs.append(linear_combination(((1, star_act(a, b)) for a, b in src if not b.is_zero()), n))
        L = ident.scale(t) - residue
        bordered = L.hstack(Matrix.from_columns([-col for col in rhs])) if rhs else L
        carried, fresh = [], []
        for v in nullspace(bordered):
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
            stacked = []
            for q in range(m_min, start):
                columns = Matrix.from_columns(basis[q])
                stacked += [columns.row(i) for i in range(n)]
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
        d = -(a1 * a1 / (a2 * a3 ** 3)) * (a1 * a2 + a3 * a3)
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


def transposition_matrix(n: int, i: int, j: int) -> Matrix:
    """Permutation matrix of the transposition (i j) on n points, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices out of range: ({i},{j}) for n={n}")
    if i == j:
        raise ValueError("a transposition needs two distinct points")
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = ONE
    a, b = i - 1, j - 1
    rows[a][a] = ZERO
    rows[b][b] = ZERO
    rows[a][b] = ONE
    rows[b][a] = ONE
    return Matrix(rows)


def star_generators(n: int) -> list[Matrix]:
    """The n-1 star transposition matrices (1 2), (1 3), ..., (1 n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [transposition_matrix(n, 1, k + 1) for k in range(1, n)]


def star_sum(weights) -> Matrix:
    """Dense sum_k w_k P_k over the star generators on len(weights) + 1 points."""
    weights = list(weights)
    gens = star_generators(len(weights) + 1)
    total = Matrix.zero(len(weights) + 1, len(weights) + 1)
    for w, P in zip(weights, gens):
        total = total + P.scale(w)
    return total


def t_matrix(n: int) -> Matrix:
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


def reference_star_act(weights, v):
    """(sum_k w_k P_k) v: entry 1 is sum_k w_k v_(k+1), entry k+1 w_k v_1 + (sum(w) - w_k) v_(k+1)."""
    w = [GaussianRational.coerce(x) for x in weights]
    head, tail = v[0], list(v[1:])
    total = sum(w, ZERO)
    out = [sum((wk * vk for wk, vk in zip(w, tail)), ZERO)]
    out += [wk * head + (total - wk) * vk for wk, vk in zip(w, tail)]
    return out


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


def random_matrix(rng: random.Random, n: int, span: int = 4) -> Matrix:
    return Matrix(
        [[random_scalar(rng, span) for _ in range(n)] for _ in range(n)]
    )
