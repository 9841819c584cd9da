"""Closed-form rational solutions of the n = 4 system at coupling -1.

Four explicit solutions are built from the pole configuration alone. Each
column computes only its own coefficients, from the int parts of the
cyclic pole differences b1 = z2 - z3, b2 = z3 - z1 and b3 = z1 - z2: over
the poles' shared denominator D each b_k is a Gaussian integer B_k / D,
every coefficient is a product or quotient of these, and each residue and
polynomial vector is one ``Vector.from_parts`` over one denominator, with
no ``Fraction`` arithmetic. The four columns span the full solution space
for generic pole configurations, but degenerate on the locus
2*z2 = z1 + z3 (there the fourth column is a multiple of the third), so
independence is certified per configuration by an exact determinant probe
instead of being assumed.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .ansatz import RationalVectorFunction
from .exactalg import GaussianRational, Matrix, Vector, _parts, determinant

# a Gaussian integer x + y*i as (x, y)
Gauss = tuple[int, int]

NIL: Gauss = (0, 0)


def _three_points(points) -> tuple[GaussianRational, ...]:
    pts = tuple(GaussianRational.coerce(p) for p in points)
    if len(pts) != 3:
        raise ValueError("expected exactly three pole locations")
    z1, z2, z3 = pts
    if z1 == z2 or z2 == z3 or z1 == z3:
        raise ValueError("pole locations must be distinct")
    return pts


def _differences(points):
    """(pts, D, (Z1, Z2, Z3), (B1, B2, B3)) with z_k = Z_k / D and b_k = B_k / D.

    D > 0 is the lcm of the poles' denominators. Every B_k is nonzero once
    :func:`_three_points` has rejected coincident poles.
    """
    pts = _three_points(points)
    parts = [_parts(p) for p in pts]
    den = lcm(*(e for _, _, e in parts))
    zs = [(x * (den // e), y * (den // e)) for x, y, e in parts]
    bs = [(zs[j][0] - zs[k][0], zs[j][1] - zs[k][1]) for j, k in ((1, 2), (2, 0), (0, 1))]
    return pts, den, zs, bs


def _mul(a: Gauss, b: Gauss) -> Gauss:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _times(c: int, a: Gauss) -> Gauss:
    return c * a[0], c * a[1]


def _column(entries: list[Gauss], q: Gauss = (1, 0), f: int = 1) -> Vector:
    """The vector of e / (f*q) over the Gaussian integers e in ``entries``, q != 0, f > 0."""
    qx, qy = q
    return Vector.from_parts(
        [x * qx + y * qy for x, y in entries],
        [y * qx - x * qy for x, y in entries],
        f * (qx * qx + qy * qy),
    )


SIGNS = ((1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def y1(points) -> RationalVectorFunction:
    """Solution with sign-pattern residues and an affine polynomial part.

    Residues s1, alpha s2 and beta s3 for the sign patterns s_k of
    ``SIGNS``, alpha = b1/b2 and beta = b1/b3; polynomial part
    (3, -1, -1, -1) z / (b2 b3) - (z1 s1 + z2 s2 + z3 s3) / (b2 b3).
    """
    pts, den, zs, (b1, b2, b3) = _differences(points)
    s1, s2, s3 = SIGNS
    res = (
        _column([(s, 0) for s in s1]),
        _column([_times(s, b1) for s in s2], b2),
        _column([_times(s, b1) for s in s3], b3),
    )
    q = _mul(b2, b3)
    q_linear = _column([(c * den * den, 0) for c in (3, -1, -1, -1)], q)
    # -D (Z1 s1 + Z2 s2 + Z3 s3), entry j from column j of SIGNS
    (x1, v1), (x2, v2), (x3, v3) = zs
    combo = [
        (-den * (a * x1 + b * x2 + c * x3), -den * (a * v1 + b * v2 + c * v3)) for a, b, c in zip(*SIGNS)
    ]
    q_const = _column(combo, q)
    return RationalVectorFunction.simple(pts, res, q_const, q_linear)


def y2(points) -> RationalVectorFunction:
    """All-ones residues weighted by the cyclic pole differences."""
    pts, den, _, bs = _differences(points)
    return RationalVectorFunction.simple(pts, tuple(_column([b] * 4, f=den) for b in bs))


def y3(points) -> RationalVectorFunction:
    """First of the two solutions supported away from coordinate one.

    Residues b1 (0, 0, 1, a), b2 (0, b, 0, c) and b3 (0, 1, a, 0) with
    a = -b1/b3, b = -b3/b2 and c = b1^2/(b2 b3).
    """
    pts, den, _, (b1, _, b3) = _differences(points)
    sq1 = _mul(b1, b1)
    # (0, 0, B1 B3, -B1^2) / (D B3), (0, -B3^2, 0, B1^2) / (D B3), (0, B3, -B1, 0) / D
    res = (
        _column([NIL, NIL, _mul(b1, b3), _times(-1, sq1)], b3, den),
        _column([NIL, _times(-1, _mul(b3, b3)), NIL, sq1], b3, den),
        _column([NIL, b3, _times(-1, b1), NIL], f=den),
    )
    return RationalVectorFunction.simple(pts, res)


def y4(points) -> RationalVectorFunction:
    """Second coordinate-one-free solution, built from reciprocal differences.

    Residues a1 (0, 0, 1, a), a2 (0, b, 0, c) and a3 (0, d, e, 0) with
    a_k = -1/b_k, a = -a1/a3, b = -(a3/a2) d, c = a1^2/(a2 a3),
    d = -a1^2 (a1 a2 + a3^2) / (a2 a3^3) and e = 1 + a1/a2.
    """
    pts, den, _, (b1, b2, b3) = _differences(points)
    # with W = B3^2 + B1 B2, d = -B3 W / B1^3 and e = -B3 / B1, so the
    # residues are D (0, 0, -B1, B3) / B1^2, D (0, -W, 0, -B1 B3) / B1^3
    # and D (0, W, B1^2, 0) / B1^3
    sq1 = _mul(b1, b1)
    cube1 = _mul(sq1, b1)
    w = tuple(den * (u + v) for u, v in zip(_mul(b3, b3), _mul(b1, b2)))  # D W
    res = (
        _column([NIL, NIL, _times(-den, b1), _times(den, b3)], sq1),
        _column([NIL, _times(-1, w), NIL, _times(-den, _mul(b1, b3))], cube1),
        _column([NIL, w, _times(den, sq1), NIL], cube1),
    )
    return RationalVectorFunction.simple(pts, res)


class IndependenceCertificate(NamedTuple):
    """Outcome of the exact determinant probe for column independence."""

    ok: bool
    probe: GaussianRational | None
    det: GaussianRational | None
    probes_tried: int


def independence_certificate(
    points, columns: tuple[RationalVectorFunction, ...] | None = None
) -> IndependenceCertificate:
    """Certify functional independence by the column determinant at one probe.

    The probe lies just beyond the largest pole magnitude. A nonzero exact
    determinant there proves the columns independent, whatever they are.
    For columns that solve the system one probe also decides: by
    Abel-Liouville n solutions have determinant
    c * prod_k (z - z_k)^(rho(n - 2)), as tr P_k = n - 2 (here
    c * prod_k (z - z_k)^-2), so it is zero at one non-pole point iff it is
    zero everywhere. A zero determinant is reported as a failure, never
    silently ignored: the explicit columns do degenerate on special
    configurations.
    """
    pts = _three_points(points)
    if columns is None:
        columns = (y1(pts), y2(pts), y3(pts), y4(pts))
    # the probe exceeds |Re p| + |Im p| >= |p| for each pole p, so it meets none
    probe = GaussianRational(2 + max(int(p.abs_bound()) for p in pts))
    # the columns' values as rows: the transpose has the same determinant
    det = determinant(Matrix([col.eval(probe) for col in columns]))
    return IndependenceCertificate(ok=not det.is_zero(), probe=probe, det=det, probes_tried=1)
