"""Exact scalar arithmetic and small dense exact linear algebra.

Scalars are Gaussian rationals (complex numbers with rational real and
imaginary parts), ``GaussianRational``, each part a ``fractions.Fraction``.
Everything downstream (matrix assembly, nullspaces, residue checks) relies
on these operations being exact, so no floats appear anywhere in this
module.

A ``Vector`` does not hold scalars: it stores the int real and imaginary
parts of its entries over one shared positive denominator, in lowest
terms, so vector arithmetic is int loops with one gcd per result and no
per-entry ``Fraction``. A ``Matrix`` is a tuple of row vectors. Both hand
out ``GaussianRational`` entries when read. :func:`linear_combination`
lifts its scalars to int parts for ``_combine``, the one combining loop;
callers that already hold int parts, such as the partial-fraction powers
of :mod:`kzsolve.ansatz`, call ``_combine`` directly.

:func:`nullspace` is multimodular: it eliminates each row's int parts
modulo word-size primes, reconstructs the rational kernel by Chinese
remaindering and Wang's rational reconstruction, and returns it only once
an exact certificate proves it is M's RREF kernel. :func:`determinant` is a
forward fraction-free (Bareiss) elimination over the Gaussian integers.
A ``Matrix`` multiplies vectors and scalars, never another matrix: the one
spectrum needed is that of an arrowhead, whose characteristic polynomial
:func:`char_poly` expands from the head, diagonal and border alone.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import gcd, isqrt, lcm, prod
from operator import mul
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
    if not isinstance(text, str):
        raise TypeError(f"scalar literal must be a string, not {type(text).__name__}")
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


def _parts(s: GaussianRational) -> tuple[int, int, int]:
    """(x, y, d) with s = (x + y*i) / d, d > 0 the lcm of the parts' denominators."""
    a, b = s.re, s.im
    p, q = a.denominator, b.denominator
    if p == q:
        return a.numerator, b.numerator, p
    d = lcm(p, q)
    return a.numerator * (d // p), b.numerator * (d // q), d


def _entry(x: int, y: int, den: int) -> GaussianRational:
    if not (x or y):
        return ZERO
    return GaussianRational(Fraction(x, den), Fraction(y, den))


class Vector:
    """Dense exact vector: int real and imaginary parts over one shared denominator.

    Entry j is ``(re[j] + im[j]*i) / den``. The form is canonical, ``den > 0``
    and ``gcd(den, *re, *im) == 1``, so equal vectors have equal parts and
    ``==`` and ``hash`` compare plain tuples. Arithmetic is an int loop and
    one gcd per result; entries become ``GaussianRational`` only when read
    (indexing, slicing, iteration, ``data``, ``str``).
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, entries: Iterable[ScalarLike]):
        xs = [GaussianRational.coerce(e) for e in entries]
        # No gcd pass: every part is a reduced Fraction, so for each prime p
        # of den the part whose denominator holds p's deepest power has a
        # numerator prime to p, scaled by den // denominator, also prime to p.
        den = lcm(*(a.re.denominator for a in xs), *(a.im.denominator for a in xs))
        re = tuple(a.re.numerator * (den // a.re.denominator) for a in xs)
        im = tuple(a.im.numerator * (den // a.im.denominator) for a in xs)
        _init(self, re, im, den)

    @staticmethod
    def from_parts(re: Sequence[int], im: Sequence[int], den: int) -> "Vector":
        """The vector with entries (re[j] + im[j]*i) / den, den > 0, brought to canonical form."""
        if den <= 0:
            raise ValueError("shared denominator must be positive")
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [y // g for y in im]
        return _make(tuple(re), tuple(im), den)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @staticmethod
    def zero(n: int) -> "Vector":
        return _make((0,) * n, (0,) * n, 1)

    @staticmethod
    def unit(n: int, i: int) -> "Vector":
        re = [0] * n
        re[i] = 1
        return _make(tuple(re), (0,) * n, 1)

    @staticmethod
    def concat(parts: Sequence["Vector"]) -> "Vector":
        """The entries of every vector in ``parts``, one after the other."""
        den = lcm(*(v.den for v in parts))
        re, im = [], []
        for v in parts:
            f = den // v.den
            if f == 1:
                re += v.re
                im += v.im
            else:
                re += [x * f for x in v.re]
                im += [y * f for y in v.im]
        # canonical without a gcd pass, by the argument in __init__: each
        # prime of den keeps a numerator prime to it in the deepest part
        return _make(tuple(re), tuple(im), den)

    def segment(self, start: int, stop: int) -> "Vector":
        """Entries start..stop-1 as a vector."""
        return Vector.from_parts(self.re[start:stop], self.im[start:stop], self.den)

    @property
    def data(self) -> tuple[GaussianRational, ...]:
        den = self.den
        return tuple(_entry(x, y, den) for x, y in zip(self.re, self.im))

    @property
    def dim(self) -> int:
        return len(self.re)

    def __len__(self):
        return len(self.re)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.data[i]
        return _entry(self.re[i], self.im[i], self.den)

    def _lift(self, other: "Vector") -> tuple[int, int, int]:
        """Factors that bring self and other to their lcm denominator, and that lcm."""
        if len(self.re) != len(other.re):
            raise ValueError("vector dimension mismatch")
        a, b = self.den, other.den
        if a == b:
            return 1, 1, a
        g = gcd(a, b)
        return b // g, a // g, a // g * b

    def __add__(self, other: "Vector") -> "Vector":
        fa, fb, den = self._lift(other)
        return Vector.from_parts(
            [x * fa + u * fb for x, u in zip(self.re, other.re)],
            [y * fa + v * fb for y, v in zip(self.im, other.im)],
            den,
        )

    def __sub__(self, other: "Vector") -> "Vector":
        fa, fb, den = self._lift(other)
        return Vector.from_parts(
            [x * fa - u * fb for x, u in zip(self.re, other.re)],
            [y * fa - v * fb for y, v in zip(self.im, other.im)],
            den,
        )

    def __neg__(self):
        return _make(tuple(-x for x in self.re), tuple(-y for y in self.im), self.den)

    def scale(self, s: ScalarLike) -> "Vector":
        sr, si, sd = _parts(GaussianRational.coerce(s))
        if si:
            re = [sr * x - si * y for x, y in zip(self.re, self.im)]
            im = [sr * y + si * x for x, y in zip(self.re, self.im)]
        else:
            re = [sr * x for x in self.re]
            im = [sr * y for y in self.im]
        return Vector.from_parts(re, im, sd * self.den)

    def __rmul__(self, s):
        return self.scale(s)

    def dot(self, other: "Vector") -> GaussianRational:
        """Bilinear dot product (no conjugation)."""
        if len(self.re) != len(other.re):
            raise ValueError("vector dimension mismatch")
        sr = si = 0
        for x, y, u, v in zip(self.re, self.im, other.re, other.im):
            sr += x * u - y * v
            si += x * v + y * u
        return _entry(sr, si, self.den * other.den)

    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def __eq__(self, other):
        if isinstance(other, Vector):
            return self.den == other.den and self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __str__(self):
        return "[" + ", ".join(str(a) for a in self.data) + "]"

    def __repr__(self):
        return f"Vector({self})"


def _init(v: Vector, re: tuple, im: tuple, den: int):
    object.__setattr__(v, "re", re)
    object.__setattr__(v, "im", im)
    object.__setattr__(v, "den", den)


def _make(re: tuple, im: tuple, den: int) -> Vector:
    """A vector from parts already in canonical form."""
    v = object.__new__(Vector)
    _init(v, re, im, den)
    return v


def linear_combination(terms: Iterable[tuple[ScalarLike, Vector]], dim: int) -> Vector:
    """sum_j s_j v_j over (s_j, v_j) in ``terms``, as one int loop and one gcd."""
    return _combine(((*_parts(GaussianRational.coerce(s)), v) for s, v in terms), dim)


def _combine(terms: Iterable[tuple[int, int, int, Vector]], dim: int) -> Vector:
    """sum_j (x_j + y_j*i) / d_j * v_j over (x_j, y_j, d_j, v_j) in ``terms``, d_j > 0.

    The scalars' int parts need not be in lowest terms: every term is
    lifted to one denominator, summed in one int loop and reduced by one gcd.
    """
    lifted = []
    for sr, si, sd, v in terms:
        if v.dim != dim:
            raise ValueError("vector dimension mismatch")
        if sr or si:
            lifted.append((sr, si, sd * v.den, v))
    den = lcm(*(d for _, _, d, _ in lifted))
    re, im = [0] * dim, [0] * dim
    for sr, si, d, v in lifted:
        f = den // d
        sr, si = sr * f, si * f
        for j, (x, y) in enumerate(zip(v.re, v.im)):
            if x or y:
                re[j] += sr * x - si * y
                im[j] += sr * y + si * x
    return Vector.from_parts(re, im, den)


class Matrix:
    """Dense exact matrix, stored as its row vectors."""

    __slots__ = ("rows", "cols", "_vecs")

    def __init__(self, rows: Iterable[Union[Vector, Iterable[ScalarLike]]]):
        vecs = tuple(r if isinstance(r, Vector) else Vector(r) for r in rows)
        if not vecs:
            raise ValueError("matrix needs at least one row")
        width = len(vecs[0])
        if any(len(v) != width for v in vecs):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "_vecs", vecs)
        object.__setattr__(self, "rows", len(vecs))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([Vector.unit(n, i) for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([Vector.zero(cols)] * rows)

    @staticmethod
    def from_columns(columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            raise ValueError("need at least one column")
        n = columns[0].dim
        if any(col.dim != n for col in columns):
            raise ValueError("column dimension mismatch")
        den = lcm(*(col.den for col in columns))
        lifted = [(den // col.den, col.re, col.im) for col in columns]
        return Matrix(
            Vector.from_parts(
                [re[i] * f for f, re, _ in lifted], [im[i] * f for f, _, im in lifted], den
            )
            for i in range(n)
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        """[self | other], row by row."""
        if self.rows != other.rows:
            raise ValueError("matrix shape mismatch")
        return Matrix(Vector.concat((a, b)) for a, b in zip(self._vecs, other._vecs))

    @property
    def data(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return tuple(v.data for v in self._vecs)

    def row(self, i: int) -> Vector:
        return self._vecs[i]

    def __getitem__(self, key):
        i, j = key
        return self._vecs[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(a + b for a, b in zip(self._vecs, other._vecs))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(a - b for a, b in zip(self._vecs, other._vecs))

    def __neg__(self):
        return Matrix(-a for a in self._vecs)

    def scale(self, s: ScalarLike) -> "Matrix":
        s = GaussianRational.coerce(s)
        return Matrix(a.scale(s) for a in self._vecs)

    def __rmul__(self, s):
        return self.scale(s)

    def __mul__(self, other):
        if isinstance(other, Vector):
            if self.cols != other.dim:
                raise ValueError("matrix/vector shape mismatch")
            # only products of two nonzero entries: assembled systems and
            # kernel vectors are mostly exact zeros
            support = [(j, u, v) for j, (u, v) in enumerate(zip(other.re, other.im)) if u or v]
            sums = []
            for row in self._vecs:
                xr, xi = row.re, row.im
                sr = si = 0
                for j, u, v in support:
                    x, y = xr[j], xi[j]
                    if x or y:
                        sr += x * u - y * v
                        si += x * v + y * u
                sums.append((sr, si, row.den))
            den = lcm(*(d for _, _, d in sums))
            return Vector.from_parts(
                [sr * (den // d) for sr, _, d in sums],
                [si * (den // d) for _, si, d in sums],
                den * other.den,
            )
        return self.scale(other)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self._vecs)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self._vecs == other._vecs
        return NotImplemented

    def __hash__(self):
        return hash(self._vecs)

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

# Miller-Rabin with these bases is exact below 3.1e23, far above every prime
# the search below can reach.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _modular_primes():
    """The primes p = 1 (mod 4) above 2^61 in increasing order, each as
    ``(p, iota)`` with ``iota**2 = -1 (mod p)``: iota = g^((p-1)/4) for the
    least quadratic non-residue g."""
    for p in count(2**61 + 1, 4):
        if _is_prime(p):
            g = next(g for g in count(2) if pow(g, (p - 1) // 2, p) == p - 1)
            yield p, pow(g, (p - 1) // 4, p)


@cache
def _prime(k: int) -> tuple[int, int]:
    """The k-th ``(p, iota)`` of :func:`_modular_primes`, found once."""
    return next(islice(_modular_primes(), k, None))


def _rref_mod(rows: list[list[int]], p: int) -> list[int]:
    """Gauss-Jordan elimination of ``rows`` modulo p in place; the pivot columns.

    Pivot row i ends up as row i, scaled to pivot 1. The RREF does not
    depend on which row supplies a pivot, so of the rows at or below the
    current one with a nonzero entry in the column, the one with the most
    zeros is taken: assembled systems are sparse, and a row update touches
    only the pivot row's nonzero entries.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        candidates = [i for i in range(r, nrows) if rows[i][c]]
        if not candidates:
            continue
        piv = max(candidates, key=lambda i: rows[i].count(0))
        rows[r], rows[piv] = rows[piv], rows[r]
        # every row at or below r is zero left of c
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        tail = [(j, x * inv % p) for j, x in enumerate(prow[c + 1 :], c + 1) if x]
        prow[c] = 1
        for j, y in tail:
            prow[j] = y
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c] = 0
                for j, y in tail:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots


def _kernel_mod(rows: list[list[int]], p: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """Pivot columns of ``rows`` modulo p, and its RREF kernel as a block.

    Block entry [f][i], for the f-th free column and the i-th pivot column
    left of it, is the kernel vector's entry at that pivot column. Every
    vector is re-substituted into ``rows`` modulo p: the elimination is
    exact in F_p, so a nonzero product is a fault, never an unlucky prime.
    """
    work = [list(r) for r in rows]
    pivots = _rref_mod(work, p)
    pivot_set = set(pivots)
    block = []
    for f in range(len(rows[0])):
        if f in pivot_set:
            continue
        entries = [-work[i][f] % p for i, pc in enumerate(pivots) if pc < f]
        v = [0] * len(rows[0])
        v[f] = 1
        for pc, x in zip(pivots, entries):
            v[pc] = x
        if any(sum(map(mul, row, v)) % p for row in rows):
            raise ArithmeticError(f"kernel image failed re-substitution modulo {p}")
        block.append(entries)
    return tuple(pivots), block


def _image(M: Matrix, p: int, iota: int, gaussian: bool):
    """``(pivots, block)`` of M's cleared rows modulo p, or None if p is unlucky.

    A row (re + im*i) / den is cleared to re + im*i. A real matrix needs one
    image. A Gaussian one is reduced under i -> iota and i -> -iota; a kernel
    entry x + y*i maps to x + y*iota and x - y*iota, whose half-sum and
    half-difference over iota are x and y modulo p. Images whose pivots
    differ cannot both be lucky, so the prime is dropped.
    """
    if not gaussian:
        return _kernel_mod([[x % p for x in v.re] for v in M._vecs], p)
    plus = _kernel_mod([[(x + iota * y) % p for x, y in zip(v.re, v.im)] for v in M._vecs], p)
    minus = _kernel_mod([[(x - iota * y) % p for x, y in zip(v.re, v.im)] for v in M._vecs], p)
    if plus[0] != minus[0]:
        return None
    half, half_iota = pow(2, -1, p), pow(2 * iota, -1, p)
    block = [
        [w for u, v in zip(a, b) for w in ((u + v) * half % p, (u - v) * half_iota % p)]
        for a, b in zip(plus[1], minus[1])
    ]
    return plus[0], block


def _wang(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d*u (mod m), |n| <= bound and 0 < d <= bound, or None.

    Wang's rational reconstruction: the extended Euclidean remainder
    sequence of (m, u), stopped at the first remainder within the bound.
    With 2 * bound**2 < m such an n/d is unique if it exists.
    """
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(residues: list[int], m: int) -> tuple[list[int], int] | None:
    """The residues mod m as rationals over one common denominator d: (numerators, d).

    Each entry is tried first against the running d: if d*u reduces to a
    numerator within the bound and d itself is within it, that is the
    reconstruction. Only the others pay for a Wang reduction, whose
    denominator is folded into d. None if some entry has no reconstruction.
    """
    bound = isqrt(m // 2)
    half = m // 2
    d = 1
    nums: list[int] = []
    for u in residues:
        a = d * u % m
        if a > half:
            a -= m
        if d <= bound and -bound <= a <= bound:
            nums.append(a)
            continue
        w = _wang(u, m, bound)
        if w is None:
            return None
        n, e = w
        f = e // gcd(d, e)
        nums = [x * f for x in nums]
        d *= f
        nums.append(n * (d // e))
    return nums, d


def _certified_lift(
    M: Matrix, pivots: tuple[int, ...], residues: list[int], modulus: int, gaussian: bool
) -> list[Vector] | None:
    """The kernel vectors lifted from ``residues`` modulo ``modulus``, or None
    unless every one is reconstructed and satisfies M v = 0 exactly.

    ``residues`` is the kernel block flattened: for each free column, its
    entries at the pivot columns left of it, real and imaginary parts
    interleaved when ``gaussian``.
    """
    pivot_set = set(pivots)
    step = 2 if gaussian else 1
    basis = []
    at = 0
    for f in (c for c in range(M.cols) if c not in pivot_set):
        size = step * bisect_left(pivots, f)
        lifted = _lift(residues[at : at + size], modulus)
        at += size
        if lifted is None:
            return None
        nums, d = lifted
        vr, vi = [0] * M.cols, [0] * M.cols
        vr[f] = d
        if gaussian:
            for pc, x, y in zip(pivots, nums[::2], nums[1::2]):
                vr[pc], vi[pc] = x, y
        else:
            for pc, x in zip(pivots, nums):
                vr[pc] = x
        vec = Vector.from_parts(vr, vi, d)
        if not (M * vec).is_zero():
            return None
        basis.append(vec)
    return basis


def nullspace(M: Matrix) -> list[Vector]:
    """Basis of the exact right nullspace {v : Mv = 0}: the RREF kernel, one vector per free column.

    Multimodular. The cleared rows are eliminated modulo word-size primes
    p = 1 (mod 4) (:func:`_image`); the kernel blocks of primes that agree
    on the pivot columns are combined by the Chinese remainder theorem and
    lifted to rationals (:func:`_lift`). A prime's image can be unlucky,
    never better than the truth: its rank is at most M's, and at equal rank
    its pivot list is no smaller than M's lexicographically first column
    basis. So the image with the larger rank, then the smaller pivot list,
    is kept and a worse one is skipped.

    A lift is returned only once it is certified. Each vector is built 1 on
    its own free column, 0 on the other free columns and 0 on every pivot
    column to its right, and is re-substituted into M exactly. Vectors in
    the kernel that are the identity on the free columns are independent
    and number the nullity modulo p, at least M's nullity, so they are a
    kernel basis and the pivot columns a column basis. Each free column is
    then a combination of the pivot columns to its left, so the pivots are
    the lexicographically first column basis: the vectors are M's unique
    RREF kernel. A lift that fails waits for the next prime.
    """
    gaussian = any(any(v.im) for v in M._vecs)
    best = modulus = residues = None
    for k in count():
        p, iota = _prime(k)
        image = _image(M, p, iota, gaussian)
        if image is None:
            continue
        pivots, block = image
        key = (-len(pivots), pivots)
        flat = [x for entries in block for x in entries]
        if best is None or key < best:
            best, modulus, residues = key, p, flat
        elif key == best:
            # Chinese remaindering: x = r (mod modulus), x = s (mod p)
            inv = pow(modulus, -1, p)
            residues = [r + modulus * ((s - r) * inv % p) for r, s in zip(residues, flat)]
            modulus *= p
        else:
            continue
        basis = _certified_lift(M, pivots, residues, modulus, gaussian)
        if basis is not None:
            return basis


def determinant(M: Matrix) -> GaussianRational:
    """Exact determinant by forward fraction-free (Bareiss) elimination.

    Row i is cleared to Gaussian integers by its shared denominator D_i.
    Each step turns every entry below and right of the pivot p into
    (p*a - f*b) / q, with q the previous pivot; by Sylvester's identity the
    result is a minor of the cleared matrix, so the division is exact. The
    last pivot is that matrix's determinant up to the sign of the row
    exchanges, and det M is it over prod D_i.
    """
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    re = [list(v.re) for v in M._vecs]
    im = [list(v.im) for v in M._vecs]
    den = prod(v.den for v in M._vecs)
    n = M.rows
    qr, qi = 1, 0
    for c in range(n):
        piv = next((i for i in range(c, n) if re[i][c] or im[i][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            re[c], re[piv], im[c], im[piv] = re[piv], re[c], im[piv], im[c]
            den = -den
        br, bi = re[c], im[c]
        pr, pi = br[c], bi[c]
        # dividing by q is multiplying by conj(q) over the integer |q|^2
        nq = qr * qr + qi * qi
        sr, si = pr * qr + pi * qi, pi * qr - pr * qi
        ur, ui = br[c + 1 :], bi[c + 1 :]
        for i in range(c + 1, n):
            fr, fi = re[i][c], im[i][c]
            gr, gi = fr * qr + fi * qi, fi * qr - fr * qi
            row = list(zip(re[i][c + 1 :], im[i][c + 1 :], ur, ui))
            re[i][c + 1 :] = [(sr * x - si * y - gr * u + gi * v) // nq for x, y, u, v in row]
            im[i][c + 1 :] = [(sr * y + si * x - gr * v - gi * u) // nq for x, y, u, v in row]
        qr, qi = pr, pi
    return GaussianRational(Fraction(qr, den), Fraction(qi, den))


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


def char_poly(head: ScalarLike, diagonal: Sequence, border: Sequence) -> list[GaussianRational]:
    """Monic det(xI - M) in descending powers, [1, c1, ..., cn], for an arrowhead M.

    M has ``head`` at (1, 1), ``diagonal[k-1]`` at (k+1, k+1), ``border[k-1]``
    at (1, k+1) and (k+1, 1) and zeros elsewhere, so with Q = prod_k (x - d_k)
    det(xI - M) = (x - a) Q - sum_k b_k^2 Q / (x - d_k). Each quotient is one
    exact deflation of Q, shared by equal d_k: O(n^2) scalar operations.
    """
    a = GaussianRational.coerce(head)
    d = [GaussianRational.coerce(x) for x in diagonal]
    b = [GaussianRational.coerce(x) for x in border]
    if len(d) != len(b):
        raise ValueError("arrowhead diagonal and border lengths differ")
    Q = [ONE]
    for dk in d:
        Q = _poly_times_linear(Q, dk)
    out = _poly_times_linear(Q, a)
    weight: dict[GaussianRational, GaussianRational] = {}
    for dk, bk in zip(d, b):
        weight[dk] = weight.get(dk, ZERO) + bk * bk
    for dk, s in weight.items():
        # Q / (x - d_k) has degree n - 2: it lands on the last n - 1 coefficients
        for i, c in enumerate(_poly_deflate(Q, dk), start=2):
            out[i] = out[i] - s * c
    return out


def _poly_times_linear(coeffs, x):
    """Multiply a polynomial in descending powers by (t - x)."""
    return [c - x * p for c, p in zip(coeffs + [ZERO], [ZERO] + coeffs)]


def integer_eigenvalues(coeffs: Sequence[GaussianRational], bound: int) -> dict[int, int]:
    """Integer roots of magnitude at most ``bound``, with multiplicities.

    ``coeffs`` is monic in descending powers, as :func:`char_poly` returns
    it. For a characteristic polynomial the matrix's row-sum norm is a
    cap that, unlike a Cauchy bound, stays small as coefficients grow.
    Candidates come from a rational-root search: after clearing
    denominators the constant coefficient is a Gaussian integer whose norm
    any integer root must divide in square. Each candidate is confirmed by
    exact evaluation and its multiplicity by repeated deflation.
    """
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
    den = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    norm_const = int((coeffs[-1] * den).norm())
    for mag in range(1, min(bound, isqrt(norm_const) + 1) + 1):
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


# Nothing constructs an AffineSolution. The class stays only because
# perfbench's tracer imports it: ``_max_bits`` reads ``from kzsolve.exactalg
# import AffineSolution`` on every traced elimination.
class AffineSolution:
    pass
