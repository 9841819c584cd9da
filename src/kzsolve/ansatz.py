"""Global rational solution candidates in partial-fraction form.

A candidate is W(z) = sum_k sum_r L[k][r] (z - z_k)^-r + sum_d Q_d z^d.
For coupling rho = -1 and the simple-pole, affine-polynomial shape the
equation W' = rho*A*W reduces to three families of exact conditions
(residue symmetry, per-pole balance, growth matching). For any integer
rho and any shape the complete space of solutions of that shape is glued
from local data: each pole's principal part comes from its own Frobenius
recursion (:mod:`kzsolve.frobenius`), the polynomial part from the
recursion at infinity through T's spectral projectors
(:mod:`kzsolve.symrep`), and one exact nullspace of the simple-pole rows
joins them; the rows, the constant term read back from one pole's block
and the glued coefficients are int passes, with no per-block vector. That
nullspace and the basis it gives are memoised per system on what the shape
changes in the rows, laid out in the key's own shape; every call pads that
basis to its shape with zero blocks and certifies it there.
Membership in a span is read off its RREF kernel, with no elimination.
A function is stored once, as its flat coefficient vector in its own
shape; each basis function is a kernel vector as it is, and the
per-block vectors are read-only views cut only when read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, cycle
from typing import NamedTuple

from .exactalg import (
    GaussianRational,
    Matrix,
    ScalarLike,
    Vector,
    _combine,
    _lifted,
    _make,
    _parts,
    nullspace,
)
from .frobenius import _convolution, _principal_part
from .kzcore import KZSystem, _inverses, _powers, local_coefficients
from .symrep import _star_parts, _t_kernel, _t_solve, transpose


class RationalVectorFunction:
    """Vector-valued rational function with prescribed poles, stored as one vector.

    ``coeffs`` holds the n-entry blocks L[1][1..p], ..., L[s][1..p],
    Q_0..Q_deg for p = ``pole_order`` and deg = ``poly_degree`` (-1 for no
    polynomial part): L[k][r] multiplies (z - z_k)^-r and Q_d multiplies
    z^d. The potential pole set is fixed by ``points``. ``pole_coeffs`` and
    ``poly_coeffs`` are read-only views of those blocks, cut on first use;
    :meth:`from_blocks` builds a function from ragged blocks padded with
    zeros, so a ragged and a padded input compare and hash equal.

    Immutable: the five fields are set once, assigning one raises
    AttributeError, and equality and hash compare them, for functions of
    the same class only.
    """

    dim: int
    points: tuple[GaussianRational, ...]
    pole_order: int
    poly_degree: int
    coeffs: Vector

    def __init__(self, dim, points, pole_order, poly_degree, coeffs):
        if pole_order < 0 or poly_degree < -1:
            raise ValueError("pole order must be at least 0 and degree at least -1")
        if coeffs.dim != dim * (len(points) * pole_order + poly_degree + 1):
            raise ValueError("coefficient vector length does not fit the shape")
        # __setattr__ refuses every assignment, so the fields go into __dict__
        # directly, as cached_property stores the views
        self.__dict__.update(
            dim=dim, points=points, pole_order=pole_order, poly_degree=poly_degree, coeffs=coeffs
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalVectorFunction is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RationalVectorFunction is immutable: cannot delete {name!r}")

    def _key(self):
        return self.dim, self.points, self.pole_order, self.poly_degree, self.coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"RationalVectorFunction(dim={self.dim!r}, points={self.points!r}, pole_order="
            f"{self.pole_order!r}, poly_degree={self.poly_degree!r}, coeffs={self.coeffs!r})"
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_blocks(cls, dim, points, pole_coeffs, poly_coeffs):
        """The function with ``pole_coeffs[k][r-1]`` at (z - z_k)^-r and ``poly_coeffs[d]`` at z^d.

        Pole groups may be ragged, even empty: each is padded with zero
        vectors to the longest.
        """
        points, groups, poly = tuple(points), [tuple(g) for g in pole_coeffs], tuple(poly_coeffs)
        if len(groups) != len(points):
            raise ValueError("one coefficient tuple needed per pole")
        if any(v.dim != dim for g in (*groups, poly) for v in g):
            raise ValueError("coefficient dimension mismatch")
        p = max(map(len, groups), default=0)
        pad = (Vector.zero(dim),) * p
        blocks = [v for g in groups for v in (g + pad)[:p]]
        return cls(dim, points, p, len(poly) - 1, Vector.concat([*blocks, *poly]))

    @classmethod
    def simple(cls, points, residues, q_const=None, q_linear=None):
        """Simple poles plus an affine polynomial part."""
        pts = tuple(GaussianRational.coerce(p) for p in points)
        res = tuple(residues)
        if len(res) != len(pts):
            raise ValueError("need one residue vector per pole")
        n = res[0].dim
        qc = q_const if q_const is not None else Vector.zero(n)
        ql = q_linear if q_linear is not None else Vector.zero(n)
        poly = () if ql.is_zero() and qc.is_zero() else (qc, ql)
        return cls.from_blocks(n, pts, [(v,) for v in res], poly)

    # -- block views ----------------------------------------------------------

    @cached_property
    def _blocks(self) -> tuple[Vector, ...]:
        n, c = self.dim, self.coeffs
        return tuple(c.segment(at, at + n) for at in range(0, c.dim, n))

    @cached_property
    def pole_coeffs(self) -> tuple[tuple[Vector, ...], ...]:
        p = self.pole_order
        return tuple(self._blocks[k * p:k * p + p] for k in range(len(self.points)))

    @cached_property
    def poly_coeffs(self) -> tuple[Vector, ...]:
        return self._blocks[len(self.points) * self.pole_order:]

    @property
    def residues(self) -> tuple[Vector, ...]:
        return tuple(
            g[0] if g else Vector.zero(self.dim) for g in self.pole_coeffs
        )

    @property
    def q_const(self) -> Vector:
        return self.poly_coeffs[0] if len(self.poly_coeffs) >= 1 else Vector.zero(self.dim)

    @property
    def q_linear(self) -> Vector:
        return self.poly_coeffs[1] if len(self.poly_coeffs) >= 2 else Vector.zero(self.dim)

    @cached_property
    def _own_entries(self):
        """:func:`_nonzero_entries` and denominator of ``coeffs``.

        Read by every :func:`residual`, :func:`check_conditions` and
        :meth:`eval` call, so cached; it is no field, so equality and hash
        compare ``coeffs`` alone.
        """
        # tuples, as every caller shares them
        return tuple(map(tuple, _nonzero_entries(self.coeffs, self.dim))), self.coeffs.den

    # -- algebra ------------------------------------------------------------

    def eval(self, z: ScalarLike) -> Vector:
        """W(z), from the sample record that :func:`residual` reads.

        z may be a pole at which W has no term: that pole's inverse is 0,
        so its weights are 0 and its (zero) coefficients drop out.
        """
        z = GaussianRational.coerce(z)
        p, s = self.pole_order, len(self.points)
        inverses, table, den = _sample_record(self.points, z, p, self.poly_degree)
        entries, fden = self._own_entries
        # pole block (k, r) is k*p + r - 1: the poles with a nonzero entry
        for k in {u // p for u in entries[0] if u < s * p}:
            if not (inverses.re[k] or inverses.im[k]):
                raise ValueError(f"evaluation at the pole z = {self.points[k]}")
        wr, wi, _, _ = _value_slope(table, entries, self.dim)
        return Vector.from_parts(wr, wi, den * fden)

    __call__ = eval

    def scale(self, s: ScalarLike) -> "RationalVectorFunction":
        return RationalVectorFunction(
            self.dim, self.points, self.pole_order, self.poly_degree, self.coeffs.scale(s)
        )


class ConditionReport(NamedTuple):
    """Exact residuals of the three solution conditions at rho = -1.

    residue_symmetry[k]: (I - P_k) L_k, forcing each residue into the
    fixed space of its own transposition. pole_balance[k]: the coefficient
    of the surviving simple pole at z_k. growth: (I + T) Q_linear, killing
    the unmatched constant at infinity.
    """

    residue_symmetry: tuple[Vector, ...]
    pole_balance: tuple[Vector, ...]
    growth: Vector

    def named(self) -> list[tuple[str, Vector]]:
        """(name, residual) of every condition, in report order."""
        sym = [(f"residue-symmetry k={k}", v) for k, v in enumerate(self.residue_symmetry, 1)]
        bal = [(f"pole-balance k={k}", v) for k, v in enumerate(self.pole_balance, 1)]
        return sym + bal + [("growth", self.growth)]

    @property
    def passed(self) -> bool:
        return all(v.is_zero() for _, v in self.named())

    def failures(self) -> list[str]:
        return [name for name, v in self.named() if not v.is_zero()]


def check_conditions(sys: KZSystem, fn: RationalVectorFunction) -> ConditionReport:
    """Exact check of the three conditions for the simple-pole shape.

    Only derived for rho = -1; other couplings must go through
    :func:`residual` or :func:`solve_ansatz`. The conditions are read off
    fn's stored coefficient vector and its cached nonzero entries, which
    :func:`residual` reads too: its residues L_k, Q_0 and Q_1 share one
    denominator F, and a shape with no pole or no polynomial block reads
    zeros there. Each pole balance is one int pass over the nonzero
    entries, and every condition is reduced by ``Vector.from_parts``.
    """
    if sys.rho != -1:
        raise ValueError("closed-form conditions apply to rho = -1 only")
    if fn.points != sys.points or fn.dim != sys.n:
        raise ValueError("function pole set or dimension differs from the system's")
    if fn.pole_order > 1 or fn.poly_degree > 1:
        raise ValueError("conditions expect simple poles and an affine polynomial")
    n, s, p = sys.n, sys.s, fn.pole_order
    fr, fi, den = fn.coeffs.re, fn.coeffs.im, fn.coeffs.den
    # block u of the flat vector is entries u*n..u*n+n-1: L_k is block k - 1 when
    # the shape has poles, Q_0 and Q_1 are the blocks after the s*p pole blocks
    blocks = [(fr[at:at + n], fi[at:at + n]) for at in range(0, len(fr), n)]
    zero = ((0,) * n, (0,) * n)
    res = blocks[:s] if p else [zero] * s
    sym = []
    for k, (lr, li) in enumerate(res, start=1):
        # (I - P_k) L is L_1 - L_(k+1) at entry 1, its negative at entry k+1, 0 elsewhere
        re, im = [0] * n, [0] * n
        re[0], im[0] = lr[0] - lr[k], li[0] - li[k]
        re[k], im[k] = -re[0], -im[0]
        sym.append(Vector.from_parts(re, im, den))
    # balance k is sum_{j != k} w_j (P_k L_j + P_j L_k) + P_k (z_k q_linear + q_const)
    # with w_j = 1/(z_k - z_j) = (wr_j + wi_j*i)/E and z_k = (zx + zy*i)/zd: P_k of
    # zd sum_j w_j L_j + E zd Q_0 + E z_k Q_1, one pass over fn's nonzero entries
    # with one scalar per block, plus zd times the star action of w on L_k, all
    # over E zd F
    entries, _ = fn._own_entries
    balance = []
    for k, (zk, (lr, li)) in enumerate(zip(sys.points, res), start=1):
        w = _inverses(sys.points, zk)
        e = w.den
        zx, zy, zd = _parts(zk)
        scalars = [(zd * a, zd * b) for a, b in zip(w.re, w.im)] if p else []
        scalars += [(e * zd, 0), (e * zx, e * zy)]
        xr, xi = [0] * n, [0] * n
        for u, j, x, y in zip(*entries):
            a, b = scalars[u]
            if y:
                xr[j] += a * x - b * y
                xi[j] += a * y + b * x
            else:
                xr[j] += a * x
                xi[j] += b * x
        xr[0], xr[k], xi[0], xi[k] = xr[k], xr[0], xi[k], xi[0]
        tr, ti = _star_parts(w.re, w.im, lr, li)
        re, im = [x + zd * t for x, t in zip(xr, tr)], [x + zd * t for x, t in zip(xi, ti)]
        balance.append(Vector.from_parts(re, im, e * zd * den))
    q = blocks[s * p + 1] if fn.poly_degree == 1 else zero
    # (I + T) q_linear is sum(q) at entry 1 and q_1 + s q_(k+1) at entry k+1
    qr, qi = q
    growth = Vector.from_parts(
        [sum(qr), *(qr[0] + s * x for x in qr[1:])], [sum(qi), *(qi[0] + s * y for y in qi[1:])], den
    )
    return ConditionReport(
        residue_symmetry=tuple(sym), pole_balance=tuple(balance), growth=growth
    )


def residual(sys: KZSystem, fn: RationalVectorFunction, z: ScalarLike) -> Vector:
    """Exact defect W'(z) - rho*A(z)*W(z); zero everywhere iff W solves.

    The evaluator that certifies :func:`solve_ansatz`'s kernel runs on
    fn's stored coefficient vector, its nonzero entries found once per
    function: one sample record at z (:func:`_sample_record`, which
    :meth:`RationalVectorFunction.eval` reads too), its inverses scaled by
    rho (:func:`_rho_weights`), one int loop over the nonzero coefficients,
    one star action and one reduction to a ``Vector``, with no gcd when
    the defect is zero. Every function of one shape checked at the same
    point, as ``kz verify`` checks several, shares the record, whatever
    rho is.
    """
    if fn.points != sys.points or fn.dim != sys.n:
        raise ValueError("function pole set or dimension differs from the system's")
    entries, den = fn._own_entries
    z = GaussianRational.coerce(z)
    inverses, table, d = _sample_record(sys.points, z, fn.pole_order, fn.poly_degree)
    ar, ai = _rho_weights(inverses, sys.rho, z)
    wr, wi, sr, si = _value_slope(table, entries, sys.n)
    tr, ti = _star_parts(ar, ai, wr, wi)
    if sr == tr and si == ti:
        return Vector.zero(sys.n)
    return Vector.from_parts(
        [a - b for a, b in zip(sr, tr)], [a - b for a, b in zip(si, ti)], d * inverses.den * den
    )


def _rho_weights(inverses: Vector, rho: int, z: GaussianRational) -> tuple[list[int], list[int]]:
    """rho/(z - z_k) = (ar[k] + ai[k]*i) / E from a record's inverses over E; a pole raises.

    The star action of (ar, ai) on W's numerators over D lands over D*E,
    as W' does. 1/(z - z_k) is never 0, so a zero inverse marks z as a pole.
    """
    if not all(x or y for x, y in zip(inverses.re, inverses.im)):
        raise ValueError(f"A(z) evaluated at the pole z = {z}")
    return [rho * x for x in inverses.re], [rho * y for y in inverses.im]


@lru_cache(maxsize=32)
def _sample_record(
    points: tuple[GaussianRational, ...], z: GaussianRational, pole_order: int, poly_degree: int
):
    """(inverses, table, D): what every reading of a function of one shape at z needs.

    Memoised on (points, z, shape), at most 32 entries: it depends on
    nothing else (rho enters only in :func:`_rho_weights`), and every
    function of one shape read at z, by :meth:`RationalVectorFunction.eval`,
    :func:`residual` or :func:`solve_ansatz`'s certificate (which reads it
    in the shape its basis uses), shares one record. z may be a pole; each
    reader decides what that means. The inverses are the shared ``Vector``
    of ``_inverses(points, z)`` and the table is a tuple of int tuples, so
    callers share them.

    ``inverses[k]`` is 1/(z - z_k) over E, 0 at a pole, which zeroes that
    pole's weights. Entry u of the table holds the int parts of block u's
    value weight over D and of its slope weight over D*E: for the pole
    block (k, r), (z - z_k)^-r and -r (z - z_k)^-(r+1); for the polynomial
    block d, z^d and d z^(d-1). D = E^p zd^deg for z's denominator zd, so
    each weight is an int product of the parts of z and of the inverses.
    """
    inverses = _inverses(points, z)
    e = inverses.den
    zx, zy, zd = _parts(z)
    p, deg = pole_order, poly_degree
    zpow = zd ** max(deg, 0)
    # (z - z_k)^-r = (x + y*i)^r / E^r, lifted by E^(p-r) zd^deg to D
    lift = [e ** (p - r) * zpow for r in range(1, p + 1)]
    table = []
    for x, y in zip(inverses.re, inverses.im):
        px, py = x, y
        for r, f in enumerate(lift, start=1):
            nx, ny = px * x - py * y, px * y + py * x
            table.append((px * f, py * f, -r * nx * f, -r * ny * f))
            px, py = nx, ny
    # z^d = (zx + zy*i)^d / zd^d, lifted by zd^(deg-d) E^p to D; the slope, one
    # power lower, is lifted by one zd more and by E to D*E
    ep = e ** p
    qx, qy, sx, sy = 1, 0, 0, 0
    for d in range(deg + 1):
        f = zd ** (deg - d) * ep
        g = f * zd * e
        table.append((qx * f, qy * f, sx * g, sy * g))
        sx, sy = (d + 1) * qx, (d + 1) * qy
        qx, qy = qx * zx - qy * zy, qx * zy + qy * zx
    return inverses, tuple(table), ep * zpow


def _nonzero_entries(flat: Vector, n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Block, coordinate, re and im of each nonzero entry of a flat vector, as four lists.

    Parallel lists rather than a tuple per entry: a dense vector would
    otherwise allocate one container per entry at every call, and the
    garbage collector would run in proportion.
    """
    re, im = flat.re, flat.im
    at = [i for i, (x, y) in enumerate(zip(re, im)) if x or y]
    return [i // n for i in at], [i % n for i in at], [re[i] for i in at], [im[i] for i in at]


def _value_slope(table, entries, n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Numerators (re, im) of W(z) over D and of W'(z) over D*E, in one int loop.

    ``table`` is a :func:`_sample_record` table and ``entries`` the
    :func:`_nonzero_entries` of a flat vector in its shape; both
    denominators also carry the vector's.
    """
    wr, wi, sr, si = [0] * n, [0] * n, [0] * n, [0] * n
    for u, j, x, y in zip(*entries):
        a, b, c, d = table[u]
        if y:
            wr[j] += a * x - b * y
            wi[j] += a * y + b * x
            sr[j] += c * x - d * y
            si[j] += c * y + d * x
        else:
            # a real entry, as every entry of a real solution is: half the products
            wr[j] += a * x
            wi[j] += b * x
            sr[j] += c * x
            si[j] += d * x
    return wr, wi, sr, si


def sample_points(points, count: int) -> list[GaussianRational]:
    """Deterministic exact sample points away from all poles: bound+1, ..., bound+count.

    bound exceeds max(|Re p|, |Im p|) for every pole p, so no real pole reaches
    a sample and no non-real pole equals one: no sample needs testing. It is
    read from the parts' int numerators and denominators, and the samples
    share one zero imaginary part, so no Fraction arithmetic runs.
    """
    bound = max(
        (
            abs(x.numerator) // x.denominator + 1
            for p in map(GaussianRational.coerce, points)
            for x in (p.re, p.im)
        ),
        default=0,
    )
    zero = Fraction(0)
    return [GaussianRational(Fraction(c), zero) for c in range(bound + 1, bound + 1 + count)]


def sample_count(s: int, pole_order: int, poly_degree: int) -> int:
    """s(p + 1) + max(d, 0): the residual samples that pin down a function of shape (p, d) on s poles."""
    return s * (pole_order + 1) + max(poly_degree, 0)


def solve_ansatz(
    sys: KZSystem, pole_order: int = 1, poly_degree: int = 1
) -> list[RationalVectorFunction]:
    """Complete basis of rational solutions of the prescribed shape.

    The pole-matching rows of orders -(p+1) through -2 at pole k are its
    own Frobenius recursion for t = -p..-1 with nothing below -p, so they
    are solved, not assembled: pole k's principal part is zero unless
    p >= |rho| > 0, and then a combination of the columns of
    :func:`kzsolve.frobenius._principal_part` (n - 1 of them for rho < 0,
    one for rho > 0). The growth rows at infinity are the recursion
    [cI - rho T] Q_c = rho sum_(t>=1) G[t] Q_(c+t) for c = d..1, solved
    downward from Q_d through T's spectral projectors
    (:func:`_polynomial_part`): Q_1..Q_d are a combination of the fresh
    eigenvectors at the at most two resonant degrees c = rho*lambda, whose
    solvability conditions hold identically. Block k of the s*n
    simple-pole rows (t = 0) is taken times P_k: P_k times the own-pole
    term (each column's right-hand side at t = 0), plus rho times W's
    regular part at z_k, in which Q_0 enters every block as rho Q_0. So
    for rho != 0 the one elimination is the nullspace of blocks 2..s less
    block 1, on the pole and resonant parameters alone, and Q_0 is read
    back from block 1; each block and each kernel vector's flat image is
    one int pass. No pole order past |rho| and no degree past the highest
    resonant one adds a parameter, so the basis is memoised per system on
    (|rho| <= p, highest resonant degree <= d), at most 32 entries
    (:func:`_parameter_kernel`), as the full system's RREF kernel
    (:func:`_rref_kernel_form`, which the kernel space alone determines)
    laid out at the key's own shape: shapes that share that key run one
    elimination, one layout and one RREF pass, and each call pads the
    memoised vectors with zero blocks to its own (p, d) (:func:`_padded`),
    which keeps the order of the nonzero coordinates and so the RREF form;
    the basis is the one the full system's nullspace returns. At rho = 0
    no pole or degree carries a parameter, every gluing row is zero and W
    is the free constant Q_0, whose unit vectors are that RREF kernel.

    Every kernel vector is certified before it becomes a function, on every
    call and on the (p, d) vectors it returns. Let p_u be the highest pole
    order and d_u the highest degree at which some kernel vector is nonzero
    (0 if none is). For W of that shape, W' - rho*A*W times
    prod_k (z - z_k)^(p_u+1) is a polynomial of degree below
    s(p_u + 1) + d_u (:func:`sample_count`), so it must vanish at that many
    sample points, the count ``kz verify`` takes per function. Each vector's
    nonzero entries are read in the (p, d) layout and their blocks moved to
    the (p_u, d_u) layout, pole block k*p + r - 1 to k*p_u + r - 1 and
    polynomial block s*p + e to s*p_u + e, so each point gets one sample
    record in the used shape (:func:`_sample_record`), shared by every
    shape of the system whose basis uses the same blocks, its inverses
    scaled by rho once, and each vector one int loop over its nonzero
    entries (:func:`_value_slope`) and one star action, the evaluator
    behind :func:`residual`; it reads none of the glued rows and is never
    memoised, so a warm call certifies as much as a cold one. A nonzero
    defect raises rather than returning a wrong basis; each certified
    vector is its function's stored coefficients.
    """
    if pole_order < 1:
        raise ValueError("pole_order must be at least 1")
    if poly_degree < 0:
        raise ValueError("poly_degree must be at least 0")
    n, s, p, deg = sys.n, sys.s, pole_order, poly_degree
    size = n * (s * p + deg + 1)
    if sys.rho == 0:
        # W' = 0: W is the constant Q_0, and the units are in RREF kernel form
        kernel = [Vector.unit(size, s * p * n + i) for i in range(n)]
    else:
        kernel = _glued_kernel(sys, p, deg)
    # the certificate reads none of the rows: W' - rho*A*W of every kernel
    # vector at every sample point, from one sample record per point
    vectors = [_nonzero_entries(vec, n) for vec in kernel]
    used = {u for blocks, *_ in vectors for u in blocks}
    # pole block (k, r) is k*p + r - 1, polynomial block d is s*p + d
    p_used = max((u % p + 1 for u in used if u < s * p), default=0)
    d_used = max((u - s * p for u in used if u >= s * p), default=0)
    # the same blocks in the used shape, whose sample records every shape shares
    moved = {u: u // p * p_used + u % p if u < s * p else u - s * (p - p_used) for u in used}
    vectors = [([moved[u] for u in blocks], *rest) for blocks, *rest in vectors]
    for z in sample_points(sys.points, sample_count(s, p_used, d_used)) if vectors else ():
        inverses, table, _ = _sample_record(sys.points, z, p_used, d_used)
        ar, ai = _rho_weights(inverses, sys.rho, z)
        for entries in vectors:
            wr, wi, sr, si = _value_slope(table, entries, n)
            if (sr, si) != _star_parts(ar, ai, wr, wi):
                raise ArithmeticError("assembled solution failed exact residual check")
    return [RationalVectorFunction(n, sys.points, p, deg, vec) for vec in kernel]


def _glued_kernel(sys: KZSystem, p: int, deg: int) -> list[Vector]:
    """The RREF kernel basis of the solutions of shape (p, deg) as flat vectors, for rho != 0.

    The basis comes from :func:`_parameter_kernel`, memoised on
    (sys, |rho| <= p, top) for the highest resonant degree top <= deg and
    laid out at the key's shape (|rho| or 0, top): shapes that share that
    key have the same solutions, and each vector is only padded with zero
    blocks to (p, deg) (:func:`_padded`), which maps the RREF kernel at the
    key's shape to the one at (p, deg). The caller certifies the result.
    """
    n, s, rho = sys.n, sys.s, sys.rho
    # the highest degree c = rho*lambda at which an eigenvalue lambda of T resonates
    top = next((c for c in range(deg, 0, -1) if _t_kernel(c, rho, n)), 0)
    poles = abs(rho) <= p
    own = (abs(rho) if poles else 0, top)
    return [_padded(v, n, s, own, (p, deg)) for v in _parameter_kernel(sys, poles, top)]


@lru_cache(maxsize=32)
def _parameter_kernel(sys: KZSystem, poles: bool, top: int) -> tuple[Vector, ...]:
    """The RREF kernel of the solutions of every shape with this key, at the key's own shape.

    The parameters are each pole's principal-part columns, present iff
    ``poles`` (|rho| <= p), and the polynomial parameters of the resonant
    degrees up to ``top``. Neither depends on p, and no degree above ``top``
    carries a parameter or a nonzero Q_c, so every shape with one key builds
    the same rows and has the same solutions: memoised on (sys, poles, top),
    at most 32 entries, its value a tuple of immutable ``Vector``s laid out
    at the key's shape K = (|rho| if ``poles`` else 0, top). The gluing
    blocks, and Q_0 read back from block 1, are int passes over their terms
    (:func:`kzsolve.exactalg._lifted`): the rows are strided slices of block
    k less block 1. Each parameter's images are its b_-1..b_-|rho| at pole j
    and its Q_0, or its Q_0..Q_top; each vector of ``nullspace``'s certified
    kernel of the rows places them at K in one more such pass, and the
    vectors are brought to the RREF kernel form (:func:`_rref_kernel_form`)
    once per key. Nothing here is certified as a solution:
    :func:`solve_ansatz` certifies each call's padded basis.
    """
    n, s, rho = sys.n, sys.s, sys.rho
    m = abs(rho)
    locals_ = [local_coefficients(sys, k + 1, m - 1) for k in range(s)] if poles else []
    # (columns, own-pole terms) per pole
    parts = [_principal_part(k + 1, rho, loc) for k, loc in enumerate(locals_)]
    # z_k^t for t = 1..top as int parts over the points' shared denominator to the t
    zpow = _powers(Vector(sys.points), top)
    poly = _polynomial_part(n, rho, top, zpow)
    # the entry offset of each pole's first column, and of the first polynomial one
    at = [n * i for i in accumulate((len(cols) for cols, _ in parts), initial=0)]
    size = at[-1] + n * len(poly)
    if not size:
        return ()

    # pole j's columns at each order b_-r, and the polynomial columns at each
    # degree 1..top, stacked one after the other
    stacked = [[Vector.concat([col[r] for col in cols]) for r in range(m)] for cols, _ in parts]
    qs = [Vector.concat([col[d] for col in poly]) for d in range(top)] if poly else []
    # block k of the simple-pole rows times P_k, less rho Q_0: P_k times the
    # own-pole term of pole k's columns, rho times the value at z_k of every
    # other pole's columns, and then rho z_k^d Q_d for d >= 1; the weight
    # rho / (z_k - z_j)^r is entry j of a(r - 1) times (-1)^(r-1)
    blocks = []
    for k in range(s):
        terms = [(rho * re[k], rho * im[k], d, q, at[-1]) for (re, im, d), q in zip(zpow, qs)]
        for j, (cols, own) in enumerate(parts):
            if j == k:
                terms += [(1, 0, 1, transpose(r, k + 1), at[j] + n * c) for c, r in enumerate(own)]
            else:
                weights = zip(cycle((1, -1)), locals_[k].regular, stacked[j])
                terms += [(c * a.re[j], c * a.im[j], a.den, b, at[j]) for c, a, b in weights]
        blocks.append(terms)
    den, ((r1, i1), *blocks) = _lifted(blocks, size)
    # block k less block 1 drops Q_0; entry i of every column sits n apart
    rows = []
    for re, im in blocks:
        re, im = [x - y for x, y in zip(re, r1)], [x - y for x, y in zip(im, i1)]
        rows += [Vector.from_parts(re[i::n], im[i::n], den) for i in range(n)]
    # rho Q_0 plus block 1 is 0, so Q_0 is block 1 times -1/rho
    r1, i1 = ([-x for x in r1], [-y for y in i1]) if rho > 0 else (r1, i1)
    q0s = (Vector.from_parts(r1[i:i + n], i1[i:i + n], m * den) for i in range(0, size, n))
    # each parameter's images as (vector, j): at pole j's first block, or at Q_0 for j = s
    images = []
    for j, (cols, _) in enumerate(parts):
        images += [((Vector.concat(col), j), (next(q0s), s)) for col in cols]
    images += [((Vector.concat([next(q0s), *col]), s),) for col in poly]
    # pole j's first block at K is block j*|rho|, or Q_0 is block 0 with no pole block
    pk = m if poles else 0
    terms = [
        [(x, y, v.den, b, n * j * pk) for x, y, pairs in zip(v.re, v.im, images) for b, j in pairs]
        for v in nullspace(Matrix(rows))
    ]
    den, flat = _lifted(terms, n * (s * pk + top + 1))
    return tuple(_rref_kernel_form([Vector.from_parts(re, im, den) for re, im in flat]))


def _polynomial_part(n: int, rho: int, deg: int, zpow) -> list[list[Vector]]:
    """Q_1..Q_deg of each resonant parameter.

    The growth rows are [cI - rho T] Q_c = rho sum_(t>=1) G[t] Q_(c+t) for
    c = deg..1, with G[t] = sum_k z_k^t P_k, so they are solved downward
    from Q_deg by :func:`kzsolve.symrep._t_solve`: Q_c follows from the
    parameters above it. At c = rho*lambda for an eigenvalue lambda of T
    each vector of the kernel (:func:`kzsolve.symrep._t_kernel`) becomes a
    fresh parameter with Q_c that vector and 0 above c. Such a degree
    needs no condition on the parameters above it: for rho < 0 the only
    resonance is c = |rho|, and for rho > 0 the only parameter above
    c = rho(n - 2) is the one from c = rho(n - 1), whose Q_c are the
    coefficients of the exact solution prod_k (z - z_k)^rho 1 (P_k 1 = 1),
    so its right-hand side has no component in the resonant eigenspace.
    """
    # rho G[t] for t = 1..deg-1, star weights rho z_k^t; zpow holds z_k^1..z_k^deg
    rho_g = [
        Vector.from_parts([rho * x for x in re], [rho * y for y in im], d) for re, im, d in zpow[: deg - 1]
    ]
    poly: list[list[Vector]] = []
    zero = Vector.zero(n)
    for c in range(deg, 0, -1):
        for col in poly:
            col[c - 1] = _t_solve(c, rho, _convolution(rho_g, col[c:], n))
        poly += [[zero] * (c - 1) + [v] + [zero] * (deg - c) for v in _t_kernel(c, rho, n)]
    return poly


def _rref_kernel_form(vectors: list[Vector]) -> list[Vector]:
    """The RREF kernel of any matrix whose kernel the ``vectors`` span.

    That kernel has one vector per free column f, 1 at f, 0 at the other
    free columns and at every column right of f; f is the last nonzero
    entry of some kernel vector. So each vector is cleared, from the last
    coordinate, at the free columns found so far until its last nonzero
    entry is a new one and scaled to 1 there; then each, in order of its
    free column, is cleared at the free columns left of it. A vector that
    clears to zero depends on the ones before it and is dropped. Vectors
    that already have that form come back as they are after one scan each.
    """
    found: dict[int, Vector] = {}
    for v in vectors:
        while (f := _last_nonzero(v)) in found:
            v = _combine([(1, 0, 1, v), (-v.re[f], -v.im[f], v.den, found[f])], v.dim)
        if f is None:
            continue
        x, y = v.re[f], v.im[f]
        if (x, y) != (v.den, 0):
            v = _combine([(v.den * x, -v.den * y, x * x + y * y, v)], v.dim)
        found[f] = v
    kernel: list[Vector] = []
    free = sorted(found)
    for f in free:
        v = found[f]
        terms = [(-v.re[g], -v.im[g], v.den, u) for g, u in zip(free, kernel) if v.re[g] or v.im[g]]
        kernel.append(_combine([(1, 0, 1, v), *terms], v.dim) if terms else v)
    return kernel


def _last_nonzero(v: Vector) -> int | None:
    re, im = v.re, v.im
    for i in range(v.dim - 1, -1, -1):
        if re[i] or im[i]:
            return i
    return None


def coefficient_vector(
    fn: RationalVectorFunction, pole_order: int, poly_degree: int
) -> Vector:
    """fn's coefficients in the unknown layout of a shape at least as large as its own.

    Its own shape is ``fn.coeffs``; a larger one is its re-layout
    (:func:`_padded`).
    """
    own = (fn.pole_order, fn.poly_degree)
    if own[0] > pole_order or own[1] > poly_degree:
        raise ValueError("function does not fit the requested shape")
    return _padded(fn.coeffs, fn.dim, len(fn.points), own, (pole_order, poly_degree))


def _padded(c: Vector, n: int, s: int, own: tuple[int, int], shape: tuple[int, int]) -> Vector:
    """c, a flat vector of shape ``own`` on s poles, in the layout of ``shape``, at least as large.

    One int re-layout of c's parts with zero blocks after each pole's and
    after the polynomial ones, over the same denominator, so canonical with
    no gcd; the nonzero coordinates keep their order. c itself if the
    shapes agree.
    """
    if own == shape:
        return c
    (p, deg), (pole_order, poly_degree) = own, shape
    # (start, stop, zeros after) of each pole's blocks and of the polynomial ones
    cuts = [(k * p * n, (k + 1) * p * n, (pole_order - p) * n) for k in range(s)]
    cuts.append((s * p * n, c.dim, (poly_degree - deg) * n))
    re, im = [], []
    for a, b, pad in cuts:
        re += c.re[a:b]
        re += [0] * pad
        im += c.im[a:b]
        im += [0] * pad
    return _make(tuple(re), tuple(im), c.den)


def in_span(
    basis: list[RationalVectorFunction],
    fn: RationalVectorFunction,
    pole_order: int = 1,
    poly_degree: int = 1,
) -> bool:
    """Exact membership of fn in the linear span of a solution basis.

    Coefficients compare only over the same poles and dimension, so a basis
    function whose ``points`` or ``dim`` differ from fn's raises, as
    :func:`residual` does. The basis's coefficient vectors are brought to
    RREF kernel form (:func:`_rref_kernel_form`, which drops dependent
    ones): each vector is 1 at its own free column and every other vector
    is 0 there, so fn is a member iff it equals the sum of those vectors,
    each weighted by fn's entry at its free column. The empty basis spans
    the zero function alone.
    """
    if any(b.points != fn.points or b.dim != fn.dim for b in basis):
        raise ValueError("basis function pole set or dimension differs from the function's")
    target = coefficient_vector(fn, pole_order, poly_degree)
    kernel = _rref_kernel_form([coefficient_vector(b, pole_order, poly_degree) for b in basis])
    # a kernel vector's free column is its last nonzero entry
    free = [_last_nonzero(v) for v in kernel]
    terms = [(target.re[f], target.im[f], target.den, v) for f, v in zip(free, kernel)]
    return _combine(terms, target.dim) == target
