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
from math import lcm

from .exactalg import (
    GaussianRational,
    Matrix,
    ONE,
    ScalarLike,
    Vector,
    ZERO,
    _combine,
    _parts,
    nullspace,
    solve_affine,
)
from .kzcore import KZSystem, _inverses, eval_A, local_coefficients
from .symrep import star_act, star_apply, star_sum


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
        inverses = []
        for zk, group in zip(self.points, self.pole_coeffs):
            d = z - zk
            if d.is_zero():
                if any(not v.is_zero() for v in group):
                    raise ValueError(f"evaluation at the pole z = {zk}")
                inverses.append(ZERO)
            else:
                inverses.append(ONE / d)
        return self._at(z, Vector(inverses))

    def _at(self, z: GaussianRational, inverses: Vector, derivative: bool = False) -> Vector:
        """W(z), or W'(z), given ``inverses[k] = 1/(z - z_k)``, or 0 where W has no pole term at z.

        Every (z - z_k)^-r and z^d, and each derivative factor, is built by
        int multiplication from the int parts of the inverses and of z, so
        the sum is one int combination with no ``Fraction`` per term. A zero
        inverse zeroes its pole's terms, which the combination drops.
        """
        den = inverses.den
        terms = []
        for x, y, group in zip(inverses.re, inverses.im, self.pole_coeffs):
            # (z - z_k)^-r = (x + y*i)^r / den^r, or d/dz of it, -r (z - z_k)^-(r+1)
            px, py, pd = (x * x - y * y, 2 * x * y, den * den) if derivative else (x, y, den)
            for r, vec in enumerate(group, start=1):
                if not vec.is_zero():
                    terms.append((-r * px, -r * py, pd, vec) if derivative else (px, py, pd, vec))
                if r < len(group):
                    px, py, pd = px * x - py * y, px * y + py * x, pd * den
        zx, zy, zd = _parts(z)
        px, py, pd = 1, 0, 1
        for deg in range(1 if derivative else 0, len(self.poly_coeffs)):
            vec = self.poly_coeffs[deg]
            if not vec.is_zero():
                terms.append((deg * px, deg * py, pd, vec) if derivative else (px, py, pd, vec))
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
    sym = tuple(L - star_apply(k, L) for k, L in enumerate(res, start=1))
    # balance k is sum_{j != k} w_j (P_k L_j + P_j L_k) + P_k (z_k q_linear + q_const)
    # with w_j = 1/(z_k - z_j): P_k of one combination plus one star action on L_k
    balance = []
    for k, (zk, Lk) in enumerate(zip(sys.points, res), start=1):
        w = _inverses(sys.points, zk)
        terms = [(x, y, w.den, L) for x, y, L in zip(w.re, w.im, res)]
        inner = _combine([*terms, (*_parts(zk), ql), (1, 0, 1, qc)], sys.n)
        balance.append(star_apply(k, inner) + star_act(w, Lk))
    growth = ql + star_act([ONE] * sys.s, ql)
    return ConditionReport(
        residue_symmetry=sym, pole_balance=tuple(balance), growth=growth
    )


def residual(sys: KZSystem, fn: RationalVectorFunction, z: ScalarLike) -> Vector:
    """Exact defect W'(z) - rho*A(z)*W(z); zero everywhere iff W solves."""
    if fn.points != sys.points:
        raise ValueError("function pole set differs from the system's")
    z = GaussianRational.coerce(z)
    # A(z)'s weights 1/(z - z_k) are the inverses W and W' are built from
    inverses = eval_A(sys, z)
    rhs = star_act(inverses, fn._at(z, inverses)).scale(sys.rho)
    return fn._at(z, inverses, derivative=True) - rhs


def sample_points(points, count: int) -> list[GaussianRational]:
    """Deterministic exact sample points away from all poles."""
    bound = 0
    for p in points:
        p = GaussianRational.coerce(p)
        b = p.abs_floor()
        bound = max(bound, int(b) + 1)
    out: list[GaussianRational] = []
    c = bound + 1
    while len(out) < count:
        cand = GaussianRational(c)
        if all(not (cand - GaussianRational.coerce(p)).is_zero() for p in points):
            out.append(cand)
        c += 1
    return out


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
    extracts its nullspace. Every basis element is independently verified
    by exact residual sampling at enough points to certify the identity;
    a verification failure raises rather than returning a wrong basis.
    """
    if pole_order < 1:
        raise ValueError("pole_order must be at least 1")
    if poly_degree < 0:
        raise ValueError("poly_degree must be at least 0")
    n, s, p, deg = sys.n, sys.s, pole_order, poly_degree
    rho = GaussianRational(sys.rho)
    blocks, pole_block, poly_block = _unknown_layout(s, p, deg)
    width = n * blocks
    locals_ = [local_coefficients(sys, k + 1, p - 1) for k in range(s)]
    ident = Matrix.identity(n)

    rows: list[Vector] = []

    def add_equation(terms: list[tuple[int, Matrix]]):
        """Append n rows: the sum of M times the block u over all (u, M)."""
        for i in range(n):
            pieces = [(u * n, M.row(i)) for u, M in terms]
            den = lcm(*(v.den for _, v in pieces))
            re, im = [0] * width, [0] * width
            for base, v in pieces:
                f = den // v.den
                for c, (x, y) in enumerate(zip(v.re, v.im), start=base):
                    if x or y:
                        re[c] += x * f
                        im[c] += y * f
            rows.append(Vector.from_parts(re, im, den))

    def rho_P(k: int, w: GaussianRational) -> Matrix:
        """w * rho * P_(k+1) as a dense matrix."""
        return star_sum([w * rho if j == k else ZERO for j in range(s)])

    for k in range(s):
        a = [star_sum(locals_[k].coeff(j)) for j in range(-1, p)]  # a[j + 1] is a(j)
        zk = sys.points[k]
        # deep pole orders -(r'+1), r' = pole_order..1
        for rp in range(p, 0, -1):
            terms = [(pole_block(k, rp), ident.scale(rp))]
            terms += [(pole_block(k, r), a[r - rp]) for r in range(rp, p + 1)]
            add_equation(terms)
        # surviving simple pole at z_k
        terms = [(pole_block(k, r), a[r]) for r in range(1, p + 1)]
        terms += [
            (pole_block(j, r), rho_P(k, ONE / (zk - zj) ** r))
            for j, zj in enumerate(sys.points) if j != k
            for r in range(1, p + 1)
        ]
        terms += [(poly_block(dd), rho_P(k, zk ** dd)) for dd in range(deg + 1)]
        add_equation(terms)
    # growth matching at infinity; G[t] = sum_k z_k^t P_k drives the
    # large-z expansion rho*A(z) = sum_t rho*G[t] z^(-t-1)
    minus_rho_G = [star_sum([-rho * zk ** t for zk in sys.points]) for t in range(deg)]
    for e in range(deg):
        terms = [(poly_block(e + 1), ident.scale(e + 1))]
        terms += [(poly_block(d), minus_rho_G[d - e - 1]) for d in range(e + 1, deg + 1)]
        add_equation(terms)

    kernel = nullspace(Matrix(rows))
    basis = [_function_from_flat(sys, vec, p, deg) for vec in kernel]
    checks = sample_points(sys.points, s * (p + 1) + deg)
    for fn in basis:
        for z in checks:
            if not residual(sys, fn, z).is_zero():
                raise ArithmeticError("assembled solution failed exact residual check")
    return basis


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
    sol = solve_affine(Matrix.from_columns(cols), target)
    return sol.consistent
