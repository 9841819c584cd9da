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

from .exactalg import (
    GaussianRational,
    Matrix,
    ONE,
    ScalarLike,
    Vector,
    ZERO,
    nullspace,
    solve_affine,
)
from .kzcore import KZSystem, eval_A, local_coefficients
from .symrep import star_apply, star_sum, t_matrix


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
        out = Vector.zero(self.dim)
        for zk, group in zip(self.points, self.pole_coeffs):
            d = z - zk
            if d.is_zero():
                if any(not v.is_zero() for v in group):
                    raise ValueError(f"evaluation at the pole z = {zk}")
                continue
            for r, vec in enumerate(group, start=1):
                if not vec.is_zero():
                    out = out + vec.scale(GaussianRational(1) / d ** r)
        for deg, vec in enumerate(self.poly_coeffs):
            if not vec.is_zero():
                out = out + vec.scale(z ** deg)
        return out

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

    @property
    def passed(self) -> bool:
        return (
            all(v.is_zero() for v in self.residue_symmetry)
            and all(v.is_zero() for v in self.pole_balance)
            and self.growth.is_zero()
        )

    def failures(self) -> list[str]:
        out = []
        for k, v in enumerate(self.residue_symmetry, start=1):
            if not v.is_zero():
                out.append(f"residue-symmetry k={k}")
        for k, v in enumerate(self.pole_balance, start=1):
            if not v.is_zero():
                out.append(f"pole-balance k={k}")
        if not self.growth.is_zero():
            out.append("growth")
        return out


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
    balance = []
    for k in range(1, sys.s + 1):
        acc = Vector.zero(sys.n)
        zk = sys.points[k - 1]
        for j in range(1, sys.s + 1):
            if j == k:
                continue
            w = ONE / (zk - sys.points[j - 1])
            acc = acc + (star_apply(k, res[j - 1]) + star_apply(j, res[k - 1])).scale(w)
        acc = acc + star_apply(k, ql.scale(zk) + qc)
        balance.append(acc)
    growth = ql + t_matrix(sys.n) * ql
    return ConditionReport(
        residue_symmetry=sym, pole_balance=tuple(balance), growth=growth
    )


def residual(sys: KZSystem, fn: RationalVectorFunction, z: ScalarLike) -> Vector:
    """Exact defect W'(z) - rho*A(z)*W(z); zero everywhere iff W solves."""
    if fn.points != sys.points:
        raise ValueError("function pole set differs from the system's")
    z = GaussianRational.coerce(z)
    lhs = fn.derivative().eval(z)
    rhs = (eval_A(sys, z) * fn.eval(z)).scale(GaussianRational(sys.rho))
    return lhs - rhs


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

    rows: list[list[GaussianRational]] = []

    def add_equation(terms: list[tuple[int, Matrix]]):
        """Append n rows: the sum of M times the block u over all (u, M)."""
        for i in range(n):
            row = [ZERO] * width
            for u, M in terms:
                base = u * n
                for c in range(n):
                    entry = M[i, c]
                    if not entry.is_zero():
                        row[base + c] = row[base + c] + entry
            rows.append(row)

    def rho_P(k: int, w: GaussianRational) -> Matrix:
        """w * rho * P_(k+1) as a dense matrix."""
        return star_sum([w * rho if j == k else ZERO for j in range(s)])

    for k in range(s):
        loc, zk = locals_[k], sys.points[k]
        # deep pole orders -(r'+1), r' = pole_order..1
        for rp in range(p, 0, -1):
            terms = [(pole_block(k, rp), ident.scale(rp))]
            terms += [(pole_block(k, r), loc.coeff(r - rp - 1)) for r in range(rp, p + 1)]
            add_equation(terms)
        # surviving simple pole at z_k
        terms = [(pole_block(k, r), loc.coeff(r - 1)) for r in range(1, p + 1)]
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
        return Vector(flat[u * n + i] for i in range(n))
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
    entries: list[GaussianRational] = []
    for k in range(s):
        group = fn.pole_coeffs[k]
        for r in range(1, pole_order + 1):
            vec = group[r - 1] if r <= len(group) else Vector.zero(n)
            entries.extend(vec)
    for d in range(poly_degree + 1):
        vec = fn.poly_coeffs[d] if d < len(fn.poly_coeffs) else Vector.zero(n)
        entries.extend(vec)
    return Vector(entries)


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
