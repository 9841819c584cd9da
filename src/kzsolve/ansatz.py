"""Global rational solution candidates in partial-fraction form.

A candidate is W(z) = sum_k sum_r L[k][r] (z - z_k)^-r + sum_d Q_d z^d.
For coupling rho = -1 and the simple-pole, affine-polynomial shape the
equation W' = rho*A*W reduces to three families of exact conditions
(residue symmetry, per-pole balance, growth matching). For any integer
rho and any shape the same matching logic is assembled into one exact
linear system whose nullspace is the complete space of solutions of that
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    GaussianRational,
    Matrix,
    ONE,
    ScalarLike,
    Vector,
    _combine,
    _parts,
    nullspace,
)
from .kzcore import KZSystem, _inverses, _powers, eval_A, local_coefficients
from .symrep import _star_parts, star_act, star_rows


@dataclass(frozen=True)
class RationalVectorFunction:
    """Vector-valued rational function with prescribed poles.

    ``pole_coeffs[k][r-1]`` multiplies (z - z_k)^-r and ``poly_coeffs[d]``
    multiplies z^d. Either family may be empty at any slot; the potential
    pole set is fixed by ``points``.
    """

    dim: int
    points: tuple[GaussianRational, ...]
    pole_coeffs: tuple[tuple[Vector, ...], ...]
    poly_coeffs: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.pole_coeffs) != len(self.points):
            raise ValueError("one coefficient tuple needed per pole")
        for group in self.pole_coeffs:
            for vec in group:
                if vec.dim != self.dim:
                    raise ValueError("pole coefficient dimension mismatch")
        for vec in self.poly_coeffs:
            if vec.dim != self.dim:
                raise ValueError("polynomial coefficient dimension mismatch")

    # -- constructors -----------------------------------------------------

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
        poly: tuple[Vector, ...] = (qc, ql)
        if ql.is_zero() and qc.is_zero():
            poly = ()
        return cls(
            dim=n,
            points=pts,
            pole_coeffs=tuple((v,) for v in res),
            poly_coeffs=poly,
        )

    @classmethod
    def zero(cls, points, n: int):
        pts = tuple(GaussianRational.coerce(p) for p in points)
        return cls(dim=n, points=pts, pole_coeffs=((),) * len(pts), poly_coeffs=())

    # -- shape accessors ----------------------------------------------------

    @property
    def pole_order(self) -> int:
        return max((len(g) for g in self.pole_coeffs), default=0)

    @property
    def poly_degree(self) -> int:
        return len(self.poly_coeffs) - 1

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

    # -- algebra ------------------------------------------------------------

    def eval(self, z: ScalarLike) -> Vector:
        z = GaussianRational.coerce(z)
        inverses = _inverses(self.points, z)
        for x, y, zk, group in zip(inverses.re, inverses.im, self.points, self.pole_coeffs):
            if not (x or y) and any(not v.is_zero() for v in group):
                raise ValueError(f"evaluation at the pole z = {zk}")
        return self._at(z, inverses)

    def _at(self, z: GaussianRational, inverses: Vector) -> Vector:
        """W(z) given ``inverses[k] = 1/(z - z_k)``, or 0 where W has no pole term at z.

        The value behind :meth:`eval`; :func:`residual` has its own evaluator,
        which builds W and W' together. Every (z - z_k)^-r and z^d is built by
        int multiplication from the int parts of the inverses and of z, so
        the sum is one int combination with no ``Fraction`` per term. A zero
        inverse zeroes its pole's terms, which the combination drops.
        """
        den = inverses.den
        terms = []
        for x, y, group in zip(inverses.re, inverses.im, self.pole_coeffs):
            # (z - z_k)^-r = (x + y*i)^r / den^r
            px, py, pd = x, y, den
            for vec in group:
                if not vec.is_zero():
                    terms.append((px, py, pd, vec))
                px, py, pd = px * x - py * y, px * y + py * x, pd * den
        zx, zy, zd = _parts(z)
        px, py, pd = 1, 0, 1
        for vec in self.poly_coeffs:
            if not vec.is_zero():
                terms.append((px, py, pd, vec))
            px, py, pd = px * zx - py * zy, px * zy + py * zx, pd * zd
        return _combine(terms, self.dim)

    __call__ = eval

    def derivative(self) -> "RationalVectorFunction":
        """Closed-form derivative; pole orders deepen by one."""
        new_poles = []
        for group in self.pole_coeffs:
            if not group:
                new_poles.append(())
                continue
            shifted = [Vector.zero(self.dim)]
            for r, vec in enumerate(group, start=1):
                shifted.append(vec.scale(GaussianRational(-r)))
            new_poles.append(tuple(shifted))
        new_poly = tuple(
            self.poly_coeffs[d].scale(GaussianRational(d))
            for d in range(1, len(self.poly_coeffs))
        )
        return RationalVectorFunction(
            dim=self.dim,
            points=self.points,
            pole_coeffs=tuple(new_poles),
            poly_coeffs=new_poly,
        )

    def scale(self, s: ScalarLike) -> "RationalVectorFunction":
        s = GaussianRational.coerce(s)
        return RationalVectorFunction(
            dim=self.dim,
            points=self.points,
            pole_coeffs=tuple(
                tuple(v.scale(s) for v in group) for group in self.pole_coeffs
            ),
            poly_coeffs=tuple(v.scale(s) for v in self.poly_coeffs),
        )

    def __rmul__(self, s):
        return self.scale(s)

    def __add__(self, other: "RationalVectorFunction") -> "RationalVectorFunction":
        if self.points != other.points or self.dim != other.dim:
            raise ValueError("functions live on different pole sets")
        new_poles = []
        for g1, g2 in zip(self.pole_coeffs, other.pole_coeffs):
            depth = max(len(g1), len(g2))
            merged = []
            for r in range(depth):
                a = g1[r] if r < len(g1) else Vector.zero(self.dim)
                b = g2[r] if r < len(g2) else Vector.zero(self.dim)
                merged.append(a + b)
            new_poles.append(tuple(merged))
        depth = max(len(self.poly_coeffs), len(other.poly_coeffs))
        poly = []
        for d in range(depth):
            a = self.poly_coeffs[d] if d < len(self.poly_coeffs) else Vector.zero(self.dim)
            b = other.poly_coeffs[d] if d < len(other.poly_coeffs) else Vector.zero(self.dim)
            poly.append(a + b)
        return RationalVectorFunction(
            dim=self.dim,
            points=self.points,
            pole_coeffs=tuple(new_poles),
            poly_coeffs=tuple(poly),
        )

    def __sub__(self, other):
        return self + other.scale(-1)


@dataclass(frozen=True)
class ConditionReport:
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
    :func:`residual` or :func:`solve_ansatz`.
    """
    if sys.rho != -1:
        raise ValueError("closed-form conditions apply to rho = -1 only")
    if fn.points != sys.points:
        raise ValueError("function pole set differs from the system's")
    if fn.pole_order > 1 or fn.poly_degree > 1:
        raise ValueError("conditions expect simple poles and an affine polynomial")
    res = fn.residues
    qc, ql = fn.q_const, fn.q_linear
    # P_k is the star action with a unit weight at k
    units = [Vector.unit(sys.s, k) for k in range(sys.s)]
    sym = tuple(L - star_act(u, L) for u, L in zip(units, res))
    # balance k is sum_{j != k} w_j (P_k L_j + P_j L_k) + P_k (z_k q_linear + q_const)
    # with w_j = 1/(z_k - z_j): P_k of one combination plus one star action on L_k
    balance = []
    for k, (zk, Lk) in enumerate(zip(sys.points, res), start=1):
        w = _inverses(sys.points, zk)
        terms = [(x, y, w.den, L) for x, y, L in zip(w.re, w.im, res)]
        inner = _combine([*terms, (*_parts(zk), ql), (1, 0, 1, qc)], sys.n)
        balance.append(star_act(units[k - 1], inner) + star_act(w, Lk))
    growth = ql + star_act([ONE] * sys.s, ql)
    return ConditionReport(
        residue_symmetry=sym, pole_balance=tuple(balance), growth=growth
    )


def residual(sys: KZSystem, fn: RationalVectorFunction, z: ScalarLike) -> Vector:
    """Exact defect W'(z) - rho*A(z)*W(z); zero everywhere iff W solves.

    The same evaluator that certifies :func:`solve_ansatz`'s kernel runs on
    fn's coefficient vector in its own shape: one weight table at z, one int
    loop over the nonzero coefficients and one reduction to a ``Vector``.
    """
    if fn.points != sys.points or fn.dim != sys.n:
        raise ValueError("function pole set or dimension differs from the system's")
    p, deg = fn.pole_order, fn.poly_degree
    flat = coefficient_vector(fn, p, deg)
    weights = _sample_weights(sys, GaussianRational.coerce(z), p, deg)
    sr, si, tr, ti = _sides(sys, weights, _nonzero_entries(flat, sys.n))
    return Vector.from_parts(
        [a - b for a, b in zip(sr, tr)], [a - b for a, b in zip(si, ti)], weights[3] * flat.den
    )


def _sample_weights(sys: KZSystem, z: GaussianRational, pole_order: int, poly_degree: int):
    """The weights at z of W, W' and rho*A for every unknown block of a shape.

    Returns (ar, ai, table, den). A(z)'s weights are rho/(z - z_k) =
    (ar[k] + ai[k]*i) / E. Entry u of ``table`` holds the int parts of block
    u's value weight over D and of its slope weight over D*E = den: for the
    pole block (k, r), (z - z_k)^-r and -r (z - z_k)^-(r+1); for the
    polynomial block d, z^d and d z^(d-1). Here E is the inverses' shared
    denominator, D = E^p zd^deg and zd is z's, so past ``eval_A`` each
    weight is an int product of the parts of z and of the inverses.
    """
    inverses = eval_A(sys, z)
    e, rho = inverses.den, sys.rho
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
    ar = [rho * x for x in inverses.re]
    ai = [rho * y for y in inverses.im]
    return ar, ai, table, ep * zpow * e


def _nonzero_entries(flat: Vector, n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Block, coordinate, re and im of each nonzero entry of a flat vector, as four lists.

    Parallel lists rather than a tuple per entry: a dense vector would
    otherwise allocate one container per entry at every call, and the
    garbage collector would run in proportion.
    """
    re, im = flat.re, flat.im
    at = [i for i, (x, y) in enumerate(zip(re, im)) if x or y]
    return [i // n for i in at], [i % n for i in at], [re[i] for i in at], [im[i] for i in at]


def _sides(sys: KZSystem, weights, entries) -> tuple[list[int], list[int], list[int], list[int]]:
    """Numerators (re, im) of W'(z) and then of rho*A(z)*W(z), both over one denominator.

    ``weights`` is a :func:`_sample_weights` table at z and ``entries`` are
    the :func:`_nonzero_entries` of a flat vector in the same shape; the
    denominator is the table's den times the vector's. One int loop sums
    the numerators of W over D and of W' over D*E, and the star action of
    A's numerators on W's lands over D*E too, so the sides compare as ints.
    """
    ar, ai, table, _ = weights
    n = sys.n
    wr, wi, sr, si = [0] * n, [0] * n, [0] * n, [0] * n
    for u, j, x, y in zip(*entries):
        a, b, c, d = table[u]
        wr[j] += a * x - b * y
        wi[j] += a * y + b * x
        sr[j] += c * x - d * y
        si[j] += c * y + d * x
    return (sr, si, *_star_parts(ar, ai, wr, wi))


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


def _unknown_layout(s: int, pole_order: int, poly_degree: int):
    blocks = s * pole_order + poly_degree + 1
    def pole_block(k: int, r: int) -> int:
        return k * pole_order + (r - 1)
    def poly_block(d: int) -> int:
        return s * pole_order + d
    return blocks, pole_block, poly_block


def solve_ansatz(
    sys: KZSystem, pole_order: int = 1, poly_degree: int = 1
) -> list[RationalVectorFunction]:
    """Complete basis of rational solutions of the prescribed shape.

    Assembles the exact pole-matching conditions (orders -(pole_order+1)
    through -1 at every pole) and the polynomial-growth conditions at
    infinity into one linear system over all coefficient vectors, then
    extracts its nullspace. Every kernel vector is certified before it
    becomes a function: W' - rho*A*W times prod_k (z - z_k)^(p+1) is a
    polynomial of degree below s(p + 1) + d, so it must vanish at that many
    sample points. Each point gets one weight table (:func:`_sample_weights`)
    and each vector one int loop over its nonzero entries (:func:`_sides`),
    the evaluator behind :func:`residual`; it reads none of the assembled
    rows. A nonzero defect raises rather than returning a wrong basis.
    """
    if pole_order < 1:
        raise ValueError("pole_order must be at least 1")
    if poly_degree < 0:
        raise ValueError("poly_degree must be at least 0")
    n, s, p, deg = sys.n, sys.s, pole_order, poly_degree
    rho = sys.rho
    blocks, pole_block, poly_block = _unknown_layout(s, p, deg)
    width = n * blocks
    locals_ = [local_coefficients(sys, k + 1, p - 1) for k in range(s)]

    # each equation is n rows: the sum of (shift*I + sum_j w_j P_j) times the
    # unknown block u over its terms (u, shift, w)
    rows: list[Vector] = []

    def add_equation(terms: list[tuple[int, int, Vector]]):
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
            terms += [(pole_block(k, r), 0, loc.coeff(r - rp - 1)) for r in range(rp + 1, p + 1)]
            add_equation(terms)
        # surviving simple pole at z_k; the weight rho / (z_k - z_j)^r of the
        # pole term (j, r) is entry j of a(r - 1) times (-1)^(r-1)
        terms = [(pole_block(k, r), 0, loc.coeff(r - 1)) for r in range(1, p + 1)]
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

    kernel = nullspace(Matrix(rows))
    # the certificate reads none of the rows: W' - rho*A*W of every kernel
    # vector at every sample point, from one weight table per point
    vectors = [_nonzero_entries(vec, n) for vec in kernel]
    for z in sample_points(sys.points, s * (p + 1) + deg) if vectors else ():
        weights = _sample_weights(sys, z, p, deg)
        for entries in vectors:
            sr, si, tr, ti = _sides(sys, weights, entries)
            if sr != tr or si != ti:
                raise ArithmeticError("assembled solution failed exact residual check")
    return [_function_from_flat(sys, vec, p, deg) for vec in kernel]


def _function_from_flat(
    sys: KZSystem, flat: Vector, pole_order: int, poly_degree: int
) -> RationalVectorFunction:
    n, s = sys.n, sys.s
    blocks, pole_block, poly_block = _unknown_layout(s, pole_order, poly_degree)
    def grab(u: int) -> Vector:
        return flat.segment(u * n, u * n + n)
    poles = tuple(
        tuple(grab(pole_block(k, r)) for r in range(1, pole_order + 1))
        for k in range(s)
    )
    poly = tuple(grab(poly_block(d)) for d in range(poly_degree + 1))
    return RationalVectorFunction(
        dim=n, points=sys.points, pole_coeffs=poles, poly_coeffs=poly
    )


def coefficient_vector(
    fn: RationalVectorFunction, pole_order: int, poly_degree: int
) -> Vector:
    """Flatten a function into the unknown layout of a given shape."""
    if fn.pole_order > pole_order or fn.poly_degree > poly_degree:
        raise ValueError("function does not fit the requested shape")
    n, s = fn.dim, len(fn.points)
    parts: list[Vector] = []
    for k in range(s):
        group = fn.pole_coeffs[k]
        for r in range(1, pole_order + 1):
            parts.append(group[r - 1] if r <= len(group) else Vector.zero(n))
    for d in range(poly_degree + 1):
        parts.append(fn.poly_coeffs[d] if d < len(fn.poly_coeffs) else Vector.zero(n))
    return Vector.concat(parts)


def in_span(
    basis: list[RationalVectorFunction],
    fn: RationalVectorFunction,
    pole_order: int = 1,
    poly_degree: int = 1,
) -> bool:
    """Exact membership of fn in the linear span of a solution basis."""
    if not basis:
        return False
    cols = [coefficient_vector(b, pole_order, poly_degree) for b in basis]
    target = coefficient_vector(fn, pole_order, poly_degree)
    # fn is a member iff the column -target is free in [cols | -target]; then the
    # RREF kernel's last vector is (x, 1), and else every kernel vector ends in 0
    kernel = nullspace(Matrix.from_columns([*cols, -target]))
    return bool(kernel) and not kernel[-1][-1].is_zero()
