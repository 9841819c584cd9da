"""Local Laurent-series analysis of the KZ system at its poles.

A solution that is meromorphic at a pole z_k has an expansion
W = sum_{q >= m} b_q (z - z_k)^q with b_m != 0, and substituting it into
W' = rho*A*W yields the order-by-order recursion

    [tI - a(-1)] b_t = sum_{j >= 0} a(j) b_{t-1-j}

with the rho-folded local coefficients a(j) of :mod:`kzsolve.kzcore`, star
weight ``Vector``s that act on vectors through :func:`kzsolve.symrep.star_act`.
The lowest order m must be an eigenvalue of a(-1) = rho*P_k, so rho or
-rho. The recursion is run with the free parameters carried symbolically,
with R the matrix whose column p is the right-hand side of parameter p.
Since P_k^2 = I, tI - a(-1) is invertible off the resonances t = +-rho,
with inverse (tI + a(-1)) / (t^2 - rho^2): there every parameter carries on
and x = R's column times that inverse, with no elimination. At t = +-rho,
one certified nullspace of the bordered matrix [tI - a(-1) | -R], whose
rows :func:`kzsolve.symrep.star_rows` writes from a(-1)'s weights, gives
every (x, c) with [tI - a(-1)] x = R c.
Vectors with c != 0 are the parameter combinations that continue (the
others die at the resonance); vectors with c = 0 are fresh kernel
freedoms, where new families start. The module returns the full solution
families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ansatz import RationalVectorFunction
from .exactalg import GaussianRational, Matrix, Vector, _combine, linear_combination
from .exactalg import nullspace
from .kzcore import KZSystem, local_coefficients
from .symrep import star_act, star_rows


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


def _trimmed_series(pole_index: int, start: int, coeffs: list[Vector]) -> LocalSeries:
    while coeffs and coeffs[0].is_zero():
        coeffs = coeffs[1:]
        start += 1
    if not coeffs:
        raise ValueError("series is identically zero through the truncation order")
    return LocalSeries(pole_index=pole_index, start=start, coeffs=tuple(coeffs))


@dataclass(frozen=True)
class SeriesFamily:
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

    def instantiate(self, params) -> LocalSeries:
        params = list(params)
        if len(params) != self.dimension:
            raise ValueError(f"expected {self.dimension} parameters")
        n = self.basis[self.start][0].dim
        coeffs = [
            linear_combination(zip(params, self.basis[q]), n)
            for q in range(self.start, self.order + 1)
        ]
        return _trimmed_series(self.pole_index, self.start, coeffs)


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
    free parameters carried symbolically. Off resonance an order is the
    closed form; at t = +-rho it solves one bordered system
    [tI - a(-1) | -R] (see the module docstring): its kernel vectors
    with c != 0 recombine the carried parameters, dropping combinations
    that cannot continue, and those with c = 0 add fresh parameters. The
    orders that add fresh parameters are the admissible starting exponents;
    one family is returned per start whose leading coefficient is not
    identically zero.
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
        rhs = []
        for p in range(nparams):
            src = [(loc.regular[j], basis[t - 1 - j][p]) for j in range(t - m_min)]
            rhs.append(_combine([(1, 0, 1, star_act(a, b)) for a, b in src if not b.is_zero()], n))
        if t * t != rho * rho:
            # P_k^2 = I, so (tI - rho*P_k)^-1 = (tI + rho*P_k) / (t^2 - rho^2): each
            # parameter carries on, x = that times its right-hand side, and none is fresh;
            # _combine takes positive denominators, so the sign of t^2 - rho^2 goes on top
            d = t * t - rho * rho
            sign, d = (1, d) if d > 0 else (-1, -d)
            basis[t] = [
                _combine([(sign * t, 0, d, r), (sign, 0, d, star_act(loc.minus_one, r))], n)
                for r in rhs
            ]
            continue
        L = Matrix(star_rows([(0, t, -loc.minus_one)], n, n))
        bordered = L.hstack(Matrix.from_columns([-col for col in rhs])) if rhs else L
        carried, fresh = [], []
        for v in nullspace(bordered):
            (fresh if v.segment(n, v.dim).is_zero() else carried).append(v)
        kept = carried + fresh
        # unless a parameter combination died, the c are the unit vectors in order
        pruned = len(carried) < nparams
        for q in basis:
            older = [linear_combination(zip(v[n:], basis[q]), n) for v in carried] if pruned else basis[q]
            basis[q] = older + [Vector.zero(n)] * len(fresh)
        basis[t] = [v.segment(0, n) for v in kept]
        nparams = len(kept)
        if fresh:
            starts.append((t, len(carried)))

    # The family starting at t is spanned by the parameter combinations whose
    # coefficients vanish below t. L is singular only at t = -rho and t = rho, the only
    # orders that add or prune parameters; the family at m_min takes them all. At m_max,
    # fresh kernel vectors come from free x-columns of the RREF, so c = 0, and carried
    # ones from free c-columns, so their c parts are independent. They recombine the
    # parameters of m_min, whose columns there are a kernel basis of L, so below m_max
    # the carried columns are independent and the fresh ones zero: the family at m_max
    # is the fresh parameters, last in the list.
    families = []
    for start, first in starts:
        fam = {q: basis[q][first:] for q in range(start, order + 1)}
        if all(col.is_zero() for col in fam[start]):
            continue
        families.append(
            SeriesFamily(pole_index=k, start=start, order=order, basis=fam)
        )
    return families


def recursion_defect(sys: KZSystem, series: LocalSeries, t: int) -> Vector:
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
        rhs = rhs + star_act(loc.coeff(j), series.coeff(t - 1 - j))
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
                w = GaussianRational((-1) ** j * comb(r + j - 1, j)) / d ** (r + j)
                acc = acc + vec.scale(w)
        for deg, qvec in enumerate(fn.poly_coeffs):
            if deg >= j and not qvec.is_zero():
                acc = acc + qvec.scale(GaussianRational(comb(deg, j)) * zk ** (deg - j))
        coeffs.append(acc)
    return _trimmed_series(k, -1, coeffs)
