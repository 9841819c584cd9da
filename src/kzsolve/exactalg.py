"""Exact scalar arithmetic and small dense exact linear algebra.

Scalars are Gaussian rationals (complex numbers with rational real and
imaginary parts), carried by ``fractions.Fraction``. Everything downstream
(matrix assembly, nullspaces, residue checks) relies on these operations
being exact, so no floats appear anywhere in this module.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence, Union

ScalarLike = Union["GaussianRational", Fraction, int]

_RAT_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """Immutable exact complex scalar with rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _try_coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return (GaussianRational(1) / self) ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def abs_bound(self) -> Fraction:
        """|re| + |im|, a cheap exact upper bound on the modulus."""
        return abs(self.re) + abs(self.im)

    def abs_floor(self) -> Fraction:
        """max(|re|, |im|), an exact lower bound on the modulus."""
        return max(abs(self.re), abs(self.im))

    # -- predicates and conversion ------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re},{self.im})"

    def __repr__(self):
        return f"GaussianRational({self})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_scalar(text: str) -> GaussianRational:
    """Parse ``p``, ``-p/q`` or ``(re,im)`` into an exact scalar.

    Each part is a rational literal with optional sign and positive
    denominator. Round-trips with ``str``: sign and gcd get normalized.
    """
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"malformed complex literal: {text!r}")
        body = text[1:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"complex literal needs two parts: {text!r}")
        return GaussianRational(_parse_rational(parts[0]), _parse_rational(parts[1]))
    return GaussianRational(_parse_rational(text))


class Vector:
    """Dense exact vector."""

    __slots__ = ("data",)

    def __init__(self, entries: Iterable[ScalarLike]):
        object.__setattr__(
            self, "data", tuple(GaussianRational.coerce(e) for e in entries)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @staticmethod
    def zero(n: int) -> "Vector":
        return Vector([ZERO] * n)

    @staticmethod
    def unit(n: int, i: int) -> "Vector":
        return Vector([ONE if j == i else ZERO for j in range(n)])

    @property
    def dim(self) -> int:
        return len(self.data)

    def __len__(self):
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __add__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise ValueError("vector dimension mismatch")
        return Vector(a + b for a, b in zip(self.data, other.data))

    def __sub__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise ValueError("vector dimension mismatch")
        return Vector(a - b for a, b in zip(self.data, other.data))

    def __neg__(self):
        return Vector(-a for a in self.data)

    def scale(self, s: ScalarLike) -> "Vector":
        s = GaussianRational.coerce(s)
        return Vector(s * a for a in self.data)

    def __rmul__(self, s):
        return self.scale(s)

    def dot(self, other: "Vector") -> GaussianRational:
        """Bilinear dot product (no conjugation)."""
        if len(self) != len(other):
            raise ValueError("vector dimension mismatch")
        acc = ZERO
        for a, b in zip(self.data, other.data):
            acc = acc + a * b
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.data)

    def __eq__(self, other):
        if isinstance(other, Vector):
            return self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash(self.data)

    def __str__(self):
        return "[" + ", ".join(str(a) for a in self.data) + "]"

    def __repr__(self):
        return f"Vector({self})"


class Matrix:
    """Dense exact matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Iterable[Iterable[ScalarLike]]):
        data = tuple(
            tuple(GaussianRational.coerce(e) for e in row) for row in rows
        )
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            raise ValueError("need at least one column")
        n = columns[0].dim
        return Matrix([[col[i] for col in columns] for i in range(n)])

    def row(self, i: int) -> Vector:
        return Vector(self.data[i])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        )

    def __neg__(self):
        return Matrix([-a for a in row] for row in self.data)

    def scale(self, s: ScalarLike) -> "Matrix":
        s = GaussianRational.coerce(s)
        return Matrix([s * a for a in row] for row in self.data)

    def __rmul__(self, s):
        return self.scale(s)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("matrix shape mismatch")
            ot = list(zip(*other.data))
            out = []
            for row in self.data:
                out.append(
                    [
                        sum((a * b for a, b in zip(row, col)), ZERO)
                        for col in ot
                    ]
                )
            return Matrix(out)
        if isinstance(other, Vector):
            if self.cols != other.dim:
                raise ValueError("matrix/vector shape mismatch")
            return Vector(
                sum((a * b for a, b in zip(row, other.data)), ZERO)
                for row in self.data
            )
        return self.scale(other)

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.data[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.data for a in row)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash(self.data)

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(a) for a in row) for row in self.data
        ) + "]"

    def __repr__(self):
        return f"Matrix({self})"


# -- elimination ------------------------------------------------------------


def _rref(rows: list[list[GaussianRational]], pivot_width: int | None = None):
    """In-place reduced row echelon form; returns pivot column indices.

    Division-based Gauss-Jordan: each pivot row is normalized immediately
    and eliminated above and below. With canonical-form rational entries
    this keeps coefficients small on dense systems, where cross-multiplying
    variants double entry sizes per step. Pivot search is restricted to the
    first ``pivot_width`` columns; trailing columns (augmentations) are
    transformed but never chosen as pivots.
    """
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    width = ncols if pivot_width is None else pivot_width
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        if pv != ONE:
            rows[r] = [a / pv for a in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(M: Matrix) -> int:
    rows = [list(r) for r in M.data]
    return len(_rref(rows))


def _kernel(M: Matrix, rows, pivots: list[int]) -> list[Vector]:
    """Kernel basis of M, one vector per free column of its (augmented) RREF.

    Every vector is re-substituted into M and must give an exact zero; a
    failure would indicate corrupted elimination and raises.
    """
    pivot_set = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * M.cols
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        vec = Vector(v)
        if not (M * vec).is_zero():
            raise ArithmeticError("kernel vector failed exact re-substitution")
        basis.append(vec)
    return basis


def nullspace(M: Matrix) -> list[Vector]:
    """Basis of the exact right nullspace {v : Mv = 0}, certified by re-substitution."""
    rows = [list(r) for r in M.data]
    pivots = _rref(rows, pivot_width=M.cols)
    return _kernel(M, rows, pivots)


def determinant(M: Matrix) -> GaussianRational:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    n = M.rows
    a = [list(row) for row in M.data]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = None
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    piv = i
                    break
            if piv is None:
                return ZERO
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pk * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = ZERO
        prev = pk
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def char_poly(M: Matrix) -> list[GaussianRational]:
    """Monic characteristic polynomial of M, coefficients of det(xI - M).

    Returned in descending powers: [1, c1, ..., cn]. Computed by the
    Faddeev-LeVerrier trace recursion, exact over the rationals.
    """
    if M.rows != M.cols:
        raise ValueError("char_poly needs a square matrix")
    n = M.rows
    ident = Matrix.identity(n)
    coeffs = [ONE]
    N = M
    c = -N.trace()
    coeffs.append(c)
    for k in range(2, n + 1):
        N = M * (N + ident.scale(c))
        c = -(N.trace() / k)
        coeffs.append(c)
    return coeffs


def _poly_eval(coeffs: Sequence[GaussianRational], x: GaussianRational):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs, x):
    """Divide a monic polynomial by (t - x); returns quotient or None."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + x * out[-1])
    if not out[-1].is_zero():
        return None
    return out[:-1]


def integer_eigenvalues(M: Matrix) -> dict[int, int]:
    """All integer eigenvalues of M with algebraic multiplicities.

    Candidates come from a rational-root search: after clearing
    denominators the constant coefficient is a Gaussian integer whose
    norm any integer root must divide in square. The magnitude is capped
    by the row-sum norm, |x| <= max_i sum_j |m_ij|, with each modulus
    over-estimated by ``abs_bound``; unlike a Cauchy bound on the
    coefficients, this stays small when the coefficients grow. Each
    candidate is confirmed by exact evaluation and its multiplicity by
    repeated deflation.
    """
    limit = int(max(sum(a.abs_bound() for a in row) for row in M.data))
    coeffs = char_poly(M)
    out: dict[int, int] = {}
    # strip zero roots
    zero_mult = 0
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
        zero_mult += 1
    if zero_mult:
        out[0] = zero_mult
    if len(coeffs) == 1:
        return out
    # clear denominators, norm of the constant coefficient
    lcm = 1
    for c in coeffs:
        for d in (c.re.denominator, c.im.denominator):
            lcm = lcm * d // gcd(lcm, d)
    const = coeffs[-1] * lcm
    norm_const = int(const.norm())
    for mag in range(1, min(limit, isqrt(norm_const) + 1) + 1):
        if norm_const % (mag * mag) != 0:
            continue
        for x in (mag, -mag):
            xg = GaussianRational(x)
            if not _poly_eval(coeffs, xg).is_zero():
                continue
            mult = 0
            rest = coeffs
            while True:
                q = _poly_deflate(rest, xg)
                if q is None:
                    break
                mult += 1
                rest = q
                if len(rest) == 1:
                    break
            out[x] = mult
    return out


@dataclass(frozen=True)
class AffineSolution:
    """Outcome of an exact affine solve Ax = b.

    When inconsistent, ``certificate`` holds a row functional y with
    yA = 0 but yb != 0, exposing the violated combination.
    """

    consistent: bool
    particular: Vector | None
    kernel: list[Vector]
    certificate: Vector | None


def solve_affine(A: Matrix, b: Vector) -> AffineSolution:
    """Solve Ax = b exactly; the particular solution and kernel are re-substituted."""
    if A.rows != b.dim:
        raise ValueError("right-hand side length must match row count")
    nrows, ncols = A.rows, A.cols
    # augment with b and an identity block that records row operations
    rows = []
    for i in range(nrows):
        rows.append(
            list(A.data[i])
            + [b[i]]
            + [ONE if j == i else ZERO for j in range(nrows)]
        )
    pivots = _rref(rows, pivot_width=ncols)
    nrank = len(pivots)
    for i in range(nrank, nrows):
        if not rows[i][ncols].is_zero():
            cert = Vector(rows[i][ncols + 1:])
            return AffineSolution(False, None, [], cert)
    x = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    particular = Vector(x)
    if not (A * particular - b).is_zero():
        raise ArithmeticError("affine solve failed exact re-substitution")
    return AffineSolution(True, particular, _kernel(A, rows, pivots), None)
