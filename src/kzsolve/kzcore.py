"""Assembly of the KZ linear system W' = rho * A(z) * W and local expansions.

A(z) is a sum of first-order poles whose residues are the star transposition
matrices of S_n, one pole per generator, so s = n - 1. Every operator built
here is a weighted sum of those residues and is returned as its weights
(w_1, ..., w_s), meaning sum_k w_k P_k, which :mod:`kzsolve.symrep`
applies. A(z)'s weights and every local coefficient come as a ``Vector``
of int parts over one shared denominator, built from the int parts of
the poles with no ``Fraction`` arithmetic. The local expansion
of rho*A about a pole feeds the series recursion in
:mod:`kzsolve.frobenius` and the pole matching in :mod:`kzsolve.ansatz`.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import NamedTuple, Sequence

from .exactalg import GaussianRational, ScalarLike, Vector, _parts


class KZSystem(NamedTuple):
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


@lru_cache(maxsize=32)
def _inverses(points: tuple[GaussianRational, ...], z: GaussianRational) -> Vector:
    """(1/(z - z_k))_k over one shared denominator from int parts, 0 where z_k = z.

    Memoised on (points, z), at most 32 entries: every function checked at a
    sample point, and every pole-balance condition at a pole, reads the same
    inverses, so ``kz verify --solution all`` at n = 4 builds 10 vectors (3
    poles, 7 sample points) for its 26 reads. The ``Vector`` is immutable,
    so callers share it.
    """
    zx, zy, zd = _parts(z)
    parts = []
    for zk in points:
        kx, ky, kd = _parts(zk)
        # z - z_k = (a + b*i) / e, so 1/(z - z_k) = e (a - b*i) / (a^2 + b^2)
        a, b, e = zx * kd - kx * zd, zy * kd - ky * zd, zd * kd
        parts.append((e * a, -e * b, a * a + b * b) if a or b else (0, 0, 1))
    den = lcm(*(d for _, _, d in parts))
    return Vector.from_parts(
        [x * (den // d) for x, _, d in parts], [y * (den // d) for _, y, d in parts], den
    )


class LocalCoefficients(NamedTuple):
    """rho-folded Laurent coefficients of rho*A(z) about one pole.

    Every coefficient is a star weight ``Vector``, whose int parts
    :func:`kzsolve.symrep._star_parts` and the Frobenius right-hand sides
    read as they are. ``minus_one`` is the residue rho*P_k, rho at entry
    k; ``regular[j]`` multiplies (z - z_k)^j for j = 0..order.
    """

    minus_one: Vector
    regular: tuple[Vector, ...]


def local_coefficients(sys: KZSystem, k: int, order: int) -> LocalCoefficients:
    """Expand rho*A(z) about pole k (1-based) to the given regular order.

    Geometric expansion of each foreign pole term:
    1/(z - z_l) = sum_j (-1)^j (z - z_k)^j / (z_k - z_l)^(j+1), so
    a(j) = rho (-1)^j u^(j+1) entrywise for u_l = 1/(z_k - z_l), u_k = 0.
    Each order multiplies the int parts of the previous power by u once
    and reduces by one gcd; no ``Fraction`` power or division is taken.
    """
    if not (1 <= k <= sys.s):
        raise ValueError(f"pole index {k} out of range 1..{sys.s}")
    if order < -1:
        raise ValueError("expansion order must be at least -1")
    s, rho = sys.s, sys.rho
    u = _inverses(sys.points, sys.points[k - 1])
    head = [0] * s
    head[k - 1] = rho
    minus_one = Vector.from_parts(head, [0] * s, 1)
    regular = []
    for j, (re, im, den) in enumerate(_powers(u, order + 1)):
        c = rho if j % 2 == 0 else -rho
        regular.append(Vector.from_parts([c * x for x in re], [c * y for y in im], den))
    return LocalCoefficients(minus_one=minus_one, regular=tuple(regular))


def _powers(w: Vector, count: int) -> list[tuple[Sequence[int], Sequence[int], int]]:
    """Entrywise w^1, ..., w^count as int parts (re, im, w.den^t), not reduced.

    One complex int multiplication per entry per power; the caller reduces.
    """
    out = []
    re, im, den = w.re, w.im, w.den
    for t in range(count):
        if t:
            re, im = (
                [x * a - y * b for x, y, a, b in zip(re, im, w.re, w.im)],
                [x * b + y * a for x, y, a, b in zip(re, im, w.re, w.im)],
            )
            den *= w.den
        out.append((re, im, den))
    return out
