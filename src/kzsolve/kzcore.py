"""Assembly of the KZ linear system W' = rho * A(z) * W and local expansions.

A(z) is a sum of first-order poles whose residues are the star transposition
matrices of S_n, one pole per generator, so s = n - 1. Every operator built
here is a weighted sum of those residues and is returned as its weight
tuple (w_1, ..., w_s), meaning sum_k w_k P_k; :mod:`kzsolve.symrep` applies
or densifies it. The local expansion of rho*A about a pole feeds the series
recursion in :mod:`kzsolve.frobenius`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import GaussianRational, ONE, ScalarLike, ZERO

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


def eval_A(sys: KZSystem, z: ScalarLike) -> Weights:
    """Star weights (1/(z - z_k))_k of A(z) = sum_k P_k / (z - z_k).

    z must avoid the poles.
    """
    z = GaussianRational.coerce(z)
    if z in sys.points:
        raise ValueError(f"A(z) evaluated at the pole z = {z}")
    return tuple(ONE / (z - zk) for zk in sys.points)


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
