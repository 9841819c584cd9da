"""Local Laurent-series analysis of the KZ system at its poles.

A solution that is meromorphic at a pole z_k has an expansion
W = sum_{q >= m} b_q (z - z_k)^q with b_m != 0, and substituting it into
W' = rho*A*W yields the order-by-order recursion

    [tI - a(-1)] b_t = sum_{j >= 0} a(j) b_{t-1-j}

with the rho-folded local coefficients a(j) of :mod:`kzsolve.kzcore`, star
weight ``Vector``s. Each parameter's right-hand side is one int loop
(:func:`_convolution`): every term a(j) b_{t-1-j} adds its star action
straight into running int parts over one denominator, with a branch for
real terms, and one gcd at the end.
The lowest order m must be an eigenvalue of a(-1) = rho*P_k, so rho or
-rho. The recursion is run with the free parameters carried symbolically,
with R the matrix whose column p is the right-hand side of parameter p.
Since P_k^2 = I, tI - a(-1) is invertible off the resonances t = +-rho,
with inverse (tI + a(-1)) / (t^2 - rho^2): there every parameter carries on
and x = (t r + rho P_k r) / (t^2 - rho^2) for its right-hand side r, written
on r's int parts: P_k r is r with entries 1 and k+1 exchanged. At
t = eps*rho the operator is rho(eps*I - P_k), whose kernel and image are
the fixed and the anti-fixed vectors of the transposition (Coddington &
Levinson, Theory of Ordinary Differential Equations, ch. 4). So every
(x, c) with [tI - a(-1)] x = R c is written in closed form: the c that
continue are the nullspace of at most n - 1 condition rows of R, the only
elimination of a solve, and the others die at the resonance; the vectors
with c = 0 are fresh kernel freedoms, where new families start. Each
resonant vector is certified by exact re-substitution, an int equality
on a(-1) as given (:func:`_resubstitute`). The module returns
the full solution families, and to :mod:`kzsolve.ansatz` the principal
parts a pole admits (:func:`_principal_part`): the same recursion from
t = -|rho| up to t = -1, re-substituted at every order.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm
from typing import NamedTuple

from .exactalg import Matrix, Vector, _combine
from .exactalg import nullspace
from .kzcore import KZSystem, LocalCoefficients, local_coefficients
from .symrep import _star_parts


class SeriesFamily(NamedTuple):
    """Linear family of local series sharing one starting order.

    ``basis[q]`` holds one column per free parameter; a member of the
    family has b_q = sum_i t_i * basis[q][i]. Families whose leading
    coefficient vanishes identically are never emitted.
    """

    pole_index: int
    start: int
    order: int
    basis: dict[int, list[Vector]]

    @property
    def dimension(self) -> int:
        return len(self.basis[self.start])


def exponent_window(sys: KZSystem, k: int) -> tuple[int, int]:
    """Least and greatest eigenvalue of the folded residue rho*P_k.

    A transposition has eigenvalues 1 (n-1 times) and -1 (once), so rho*P_k
    has rho and -rho and the window is (-|rho|, |rho|).
    """
    if not (1 <= k <= sys.s):
        raise ValueError(f"pole index {k} out of range 1..{sys.s}")
    return -abs(sys.rho), abs(sys.rho)


def frobenius_solve(sys: KZSystem, k: int, order: int) -> list[SeriesFamily]:
    """All truncated series solution families at pole k, through ``order``.

    Runs the recursion upward from the least admissible exponent with the
    free parameters carried symbolically. Every order is in closed form.
    Off resonance each parameter carries on through the inverse of
    tI - a(-1). At t = +-rho, :func:`_resonant_order` writes the RREF kernel
    of [tI - a(-1) | -R] (see the module docstring): its vectors with
    c != 0 recombine the carried parameters, dropping combinations that
    cannot continue, and those with c = 0 add fresh parameters. For
    rho != 0 the one elimination is the nullspace of the condition rows at
    t = |rho|, the resonance that parameters reach. The orders that add fresh
    parameters are the admissible starting exponents; one family is
    returned per start whose leading coefficient is not identically zero.
    """
    m_min, m_max = exponent_window(sys, k)
    if order < m_max:
        raise ValueError(f"truncation order must reach the window end {m_max}")
    n = sys.n
    rho = sys.rho
    loc = local_coefficients(sys, k, max(order - 1 - m_min, -1))

    basis: dict[int, list[Vector]] = {}
    starts = []  # (t, number of parameters carried into t) for each t that adds fresh ones
    nparams = 0
    for t in range(m_min, order + 1):
        rhs = [
            _convolution(loc.regular, [basis[t - 1 - j][p] for j in range(t - m_min)], n)
            for p in range(nparams)
        ]
        if t * t != rho * rho:
            # each parameter carries on and none is fresh
            basis[t] = [_off_resonance(t, rho, k, r) for r in rhs]
            continue
        combos, carried, fresh = _resonant_order(t, rho, k, loc.minus_one, rhs)
        kept = carried + fresh
        # unless a parameter combination died, the combinations are the unit vectors in order
        pruned = len(carried) < nparams
        for q in basis:
            older = [_recombine(c, basis[q]) for c in combos] if pruned else basis[q]
            basis[q] = older + [Vector.zero(n)] * len(fresh)
        basis[t] = kept
        nparams = len(kept)
        starts.append((t, len(carried)))

    # The family starting at t is spanned by the parameter combinations whose
    # coefficients vanish below t. Only t = -rho and t = rho add or prune parameters
    # (one order when rho = 0), and the family at m_min takes them all. At m_max the
    # fresh vectors have c = 0, and the carried ones recombine m_min's parameters by
    # the c of a nullspace basis, which are independent. m_min's columns there are a
    # kernel basis of tI - a(-1), so below m_max the carried columns are independent
    # and the fresh ones zero: the family at m_max is the fresh parameters, last in
    # the list.
    families = []
    for start, first in starts:
        fam = {q: basis[q][first:] for q in range(start, order + 1)}
        if all(col.is_zero() for col in fam[start]):
            continue
        families.append(
            SeriesFamily(pole_index=k, start=start, order=order, basis=fam)
        )
    return families


def _convolution(coeffs: tuple[Vector, ...], terms: list[Vector], n: int) -> Vector:
    """sum_j a(j) b_j for the star weights a(j) = ``coeffs[j]`` and b_j = ``terms[j]``.

    One int loop over the numerators, summed over the lcm of the products
    a(j).den * b_j.den and reduced by one gcd. With w = a(j), v = b_j and
    d_i = v_1 - v_(i+1), (sum_i w_i P_i) v = sum(w) v + sum_i w_i d_i (e_(i+1) - e_1),
    so each term adds f sum(w) v_(i+1) + f w_i d_i into entry i + 1 and the
    matching sum into entry 1 of the running parts, where f lifts it to the
    common denominator. A term whose weights and vector are both real, as
    on integer poles, takes a branch without imaginary products.
    """
    pairs = [(a, b) for a, b in zip(coeffs, terms) if any(b.re) or any(b.im)]
    den = lcm(*(a.den * b.den for a, b in pairs))
    re, im = [0] * n, [0] * n
    for a, b in pairs:
        f = den // (a.den * b.den)
        wr, wi, vr, vi = a.re, a.im, b.re, b.im
        hr, hi = vr[0], vi[0]
        if any(wi) or any(vi):
            tr, ti = f * sum(wr), f * sum(wi)
            sr = si = 0
            for i in range(1, n):
                x, y = vr[i], vi[i]
                dr, di = hr - x, hi - y
                ar, ai = f * wr[i - 1], f * wi[i - 1]
                er, ei = ar * dr - ai * di, ar * di + ai * dr
                sr += er
                si += ei
                re[i] += tr * x - ti * y + er
                im[i] += tr * y + ti * x + ei
            re[0] += tr * hr - ti * hi - sr
            im[0] += tr * hi + ti * hr - si
        else:
            tr = f * sum(wr)
            sr = 0
            for i in range(1, n):
                x = vr[i]
                e = f * wr[i - 1] * (hr - x)
                sr += e
                re[i] += tr * x + e
            re[0] += tr * hr - sr
    return Vector.from_parts(re, im, den)


def _off_resonance(t: int, rho: int, k: int, r: Vector) -> Vector:
    """The x with [tI - a(-1)] x = r at pole k, for t^2 != rho^2.

    P_k^2 = I, so (tI - rho*P_k)^-1 = (tI + rho*P_k) / (t^2 - rho^2); P_k r
    is r with entries 1 and k+1 exchanged, so x is (t + rho) r off them.
    """
    re, im = [(t + rho) * x for x in r.re], [(t + rho) * y for y in r.im]
    re[0], re[k] = t * r.re[0] + rho * r.re[k], t * r.re[k] + rho * r.re[0]
    im[0], im[k] = t * r.im[0] + rho * r.im[k], t * r.im[k] + rho * r.im[0]
    return _over(re, im, r.den, t * t - rho * rho)


def _over(re: list[int], im: list[int], den: int, q: int) -> Vector:
    """The vector (re + im*i) / (den*q) for a nonzero int q."""
    if q < 0:
        re, im, q = [-x for x in re], [-y for y in im], -q
    return Vector.from_parts(re, im, den * q)


def _resonant_order(
    t: int, rho: int, k: int, minus_one: Vector, rhs: list[Vector]
) -> tuple[list[Vector], list[Vector], list[Vector]]:
    """The RREF kernel of [tI - a(-1) | -R] at t = eps*rho, written in closed form.

    Returns the combinations c that carry on, their solutions x of
    [tI - a(-1)] x = R c, and the fresh kernel vectors (c = 0), each list in
    the kernel's RREF order. tI - rho*P_k = rho(eps*I - P_k): for eps = 1 its
    kernel is Fix(P_k) and its image Anti(P_k), for eps = -1 the other way
    round, so R c is reached iff (I + eps*P_k) R c = 0. The c are the
    nullspace of those condition rows, R_1 + eps*R_(k+1) and, for eps = 1,
    R_i for i not in {1, k+1}. Each x is 0 on the free columns of
    tI - a(-1) (2..n for eps = 1, k+1 for eps = -1). rho = 0 is a double
    resonance at t = 0 with a(-1) = 0: every unit vector is fresh, and as
    t = 0 is then the first order no parameter is carried. Every vector is
    re-substituted into a(-1) as given, or ArithmeticError is raised.
    """
    n = minus_one.dim + 1
    if rho == 0:
        fresh = [Vector.unit(n, i) for i in range(n)]
        conditions = rhs
    elif t == rho:
        fresh = [Vector.unit(n, f) for f in range(1, n)]
        ends = [0] * n
        ends[0] = ends[k] = 1
        fresh[k - 1] = Vector.from_parts(ends, [0] * n, 1)
        conditions = []
        for r in rhs:
            re, im = list(r.re), list(r.im)
            re[0] += re.pop(k)
            im[0] += im.pop(k)
            conditions.append(Vector.from_parts(re, im, r.den))
    else:
        ends = [0] * n
        ends[0], ends[k] = -1, 1
        fresh = [Vector.from_parts(ends, [0] * n, 1)]
        conditions = [Vector.from_parts([r.re[0] - r.re[k]], [r.im[0] - r.im[k]], r.den) for r in rhs]
    combos = nullspace(Matrix.from_columns(conditions)) if rhs else []
    # a zero condition matrix has the unit vectors for its RREF kernel
    targets = rhs if len(combos) == len(rhs) else [_recombine(c, rhs) for c in combos]
    carried = []
    for r in targets:
        if t == rho:
            # rho(x_1 - x_(k+1)) (e_1 - e_(k+1)) = r with x = x_1 e_1
            carried.append(_over([r.re[0]] + [0] * (n - 1), [r.im[0]] + [0] * (n - 1), r.den, rho))
        else:
            # -rho(I + P_k) x = r with x_(k+1) = 0: x_1 = -r_1/rho, x_i = -r_i/(2 rho)
            re, im = list(r.re), list(r.im)
            re[0], im[0], re[k], im[k] = 2 * re[0], 2 * im[0], 0, 0
            carried.append(_over(re, im, r.den, -2 * rho))
    zero = Vector.zero(n)
    for x, r in zip(carried + fresh, targets + [zero] * len(fresh)):
        _resubstitute(t, minus_one, x, r)
    return combos, carried, fresh


def _recombine(c: Vector, columns: list[Vector]) -> Vector:
    """sum_p c_p columns[p], with c's int parts as the scalars."""
    return _combine(zip(c.re, c.im, repeat(c.den), columns), columns[0].dim)


def _resubstitute(t: int, minus_one: Vector, x: Vector, r: Vector) -> None:
    """Raise ArithmeticError unless [tI - a(-1)] x = r exactly.

    a = a(-1) is read as given: :func:`kzsolve.symrep._star_parts` gives the
    numerators of a x over a.den * x.den, so [tI - a(-1)] x has the
    numerators t a.den x - a x over that product. Each is compared with r's
    numerator over r.den by cross-multiplying, an int equality.
    """
    a = minus_one
    sr, si = _star_parts(a.re, a.im, x.re, x.im)
    q, lhs_den, rhs_den = t * a.den, x.den * a.den, r.den
    if any((q * u - s) * rhs_den != w * lhs_den for u, s, w in zip(x.re, sr, r.re)) or any(
        (q * u - s) * rhs_den != w * lhs_den for u, s, w in zip(x.im, si, r.im)
    ):
        raise ArithmeticError(f"order {t} failed exact re-substitution")


def _principal_part(
    k: int, rho: int, loc: LocalCoefficients
) -> tuple[list[list[Vector]], list[Vector]]:
    """The principal parts at pole k that the recursion admits with nothing below -|rho|.

    For 0 < |rho|, the orders t = -|rho|..-1 with b_t = 0 below -|rho|: at
    t = -|rho| the fresh vectors of :func:`_resonant_order` (n - 1 for
    rho < 0, one for rho > 0), each carried to t = -1 by the off-resonance
    closed form, as :func:`frobenius_solve` carries its parameters, and
    re-substituted. Returns one column per fresh vector, its b_-1, ..., b_-|rho|
    in that order, and the column's right-hand side at t = 0,
    sum_j a(j) b_(-1-j). ``loc`` must reach the regular order |rho| - 1.
    """
    m, n = abs(rho), loc.minus_one.dim + 1
    _, _, fresh = _resonant_order(-m, rho, k, loc.minus_one, [])
    cols = [[v] for v in fresh]  # b_-|rho| first, reversed on return
    for t in range(1 - m, 1):
        rhs = [_convolution(loc.regular, col[::-1], n) for col in cols]
        if t == 0:
            return [col[::-1] for col in cols], rhs
        for col, r in zip(cols, rhs):
            x = _off_resonance(t, rho, k, r)
            _resubstitute(t, loc.minus_one, x, r)
            col.append(x)
