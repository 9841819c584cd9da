"""Assembly of the KZ linear system W' = rho * A(z) * W and local expansions.

A(z) is a sum of first-order poles whose residues are the star transposition
matrices of S_n, one pole per generator, so s = n - 1. Every operator built
here is a weighted sum of those residues and is returned as its weights
(w_1, ..., w_s), meaning sum_k w_k P_k; :mod:`kzsolve.symrep` applies or
densifies it. A(z)'s weights come as a ``Vector`` of int parts over one
shared denominator, the local coefficients as tuples of scalars. The
local expansion of rho*A about a pole feeds the series recursion in
:mod:`kzsolve.frobenius`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exactalg import GaussianRational, ScalarLike, Vector, ZERO, _parts

Weights = tuple[GaussianRational, ...]


@dataclass(frozen=True)
class KZSystem:
    """Validated KZ system: dimension, integer coupling, poles (residue k is P_k)."""

    n: int
    rho: int
    points: tuple[GaussianRational, ...]

    @property
    def s(self) -> int:
        return len(self.points)


def new_system(n: int, rho: int, points: list[ScalarLike]) -> KZSystem:
    """Build and validate a KZ system with s = n - 1 distinct poles."""
    if n < 3:
        raise ValueError("need n >= 3 so that there are at least two poles")
    if not isinstance(rho, int):
        raise ValueError("coupling parameter rho must be an integer")
    pts = tuple(GaussianRational.coerce(p) for p in points)
    if len(pts) != n - 1:
        raise ValueError(f"expected {n - 1} pole locations, got {len(pts)}")
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if pts[a] == pts[b]:
                raise ValueError(f"pole locations must be distinct: z{a+1} == z{b+1}")
    return KZSystem(n=n, rho=rho, points=pts)


def eval_A(sys: KZSystem, z: ScalarLike) -> Vector:
    """Star weights (1/(z - z_k))_k of A(z) = sum_k P_k / (z - z_k).

    Returned as a ``Vector``, int parts over one shared denominator, the
    form :func:`kzsolve.symrep.star_act` consumes; each weight is computed
    from the int parts of z and z_k, with no ``Fraction``. z must avoid the
    poles.
    """
    z = GaussianRational.coerce(z)
    zx, zy, zd = _parts(z)
    parts = []
    for zk in sys.points:
        kx, ky, kd = _parts(zk)
        # z - z_k = (a + b*i) / e, so 1/(z - z_k) = e (a - b*i) / (a^2 + b^2)
        a, b, e = zx * kd - kx * zd, zy * kd - ky * zd, zd * kd
        if not (a or b):
            raise ValueError(f"A(z) evaluated at the pole z = {z}")
        parts.append((e * a, -e * b, a * a + b * b))
    den = lcm(*(d for _, _, d in parts))
    return Vector.from_parts(
        [x * (den // d) for x, _, d in parts], [y * (den // d) for _, y, d in parts], den
    )


@dataclass(frozen=True)
class LocalCoefficients:
    """rho-folded Laurent coefficients of rho*A(z) about one pole.

    Every coefficient is a star weight tuple. ``minus_one`` is the residue
    rho*P_k; ``regular[j]`` multiplies (z - z_k)^j for j = 0..order.
    """

    pole_index: int
    minus_one: Weights
    regular: tuple[Weights, ...]

    def coeff(self, j: int) -> Weights:
        if j == -1:
            return self.minus_one
        return self.regular[j]


def local_coefficients(sys: KZSystem, k: int, order: int) -> LocalCoefficients:
    """Expand rho*A(z) about pole k (1-based) to the given regular order.

    Geometric expansion of each foreign pole term:
    1/(z - z_l) = sum_j (-1)^j (z - z_k)^j / (z_k - z_l)^(j+1).
    """
    if not (1 <= k <= sys.s):
        raise ValueError(f"pole index {k} out of range 1..{sys.s}")
    if order < -1:
        raise ValueError("expansion order must be at least -1")
    ki = k - 1
    rho = GaussianRational(sys.rho)
    zk = sys.points[ki]
    minus_one = tuple(rho if li == ki else ZERO for li in range(sys.s))
    regular = []
    for j in range(order + 1):
        sign = rho if j % 2 == 0 else -rho
        regular.append(tuple(
            ZERO if li == ki else sign / (zk - zl) ** (j + 1)
            for li, zl in enumerate(sys.points)
        ))
    return LocalCoefficients(pole_index=k, minus_one=minus_one, regular=tuple(regular))
