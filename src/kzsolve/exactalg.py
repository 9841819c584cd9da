"""Exact scalar arithmetic and small dense exact linear algebra.

Scalars are Gaussian rationals (complex numbers with rational real and
imaginary parts), ``GaussianRational``, each part a ``fractions.Fraction``.
Everything downstream (matrix assembly, nullspaces, residue checks) relies
on these operations being exact, so no floats appear anywhere in this
module.

A ``Vector`` does not hold scalars: it stores the int real and imaginary
parts of its entries over one shared positive denominator, in lowest
terms, so vector arithmetic is int loops with one gcd per result and no
per-entry ``Fraction``; it hands out ``GaussianRational`` entries when
read. A ``Matrix`` is elimination input, a tuple of row vectors built from
rows or columns, and multiplies only a ``Vector``. :func:`_lifted` is the
one loop that sums scalar times vector terms, block by block at entry
offsets over one shared denominator; the ``ansatz`` gluing calls it, and
``_combine`` is it on one block, reduced by :meth:`Vector.from_parts`.
``+``, ``-``, ``scale`` and :func:`linear_combination` lift their scalars
to int parts and call ``_combine``, as :mod:`kzsolve.frobenius` and
:mod:`kzsolve.ansatz` do with int parts they already hold.

:func:`nullspace` is multimodular: it eliminates each row's int parts
modulo 126-bit primes, reconstructs the rational kernel by Chinese
remaindering and Wang's rational reconstruction, and returns it only once
an exact certificate proves it is M's RREF kernel. :func:`determinant` is a
forward fraction-free (Bareiss) elimination over the Gaussian integers.
No matrix product is needed: the one spectrum needed is that of an
arrowhead, whose characteristic polynomial :func:`char_poly` factors from
the head, diagonal and border alone, each repeated diagonal value as a
power and the rest as the polynomial of a reduced arrowhead with one
diagonal entry per distinct value.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_left
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

ScalarLike = Union["GaussianRational", Fraction, int]

# A scalar literal: p or p/q with an optional sign, or (re,im) with each part
# one; blanks may surround the literal and each part of a complex one
_RAT = r"([+-]?\d+)(?:/(\d+))?"
_SCALAR = _re.compile(rf"\s*(?:{_RAT}|\(\s*{_RAT}\s*,\s*{_RAT}\s*\))\s*")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """Immutable exact complex scalar with rational real/imaginary parts.

    The hash is computed once and kept in a slot set on first use, since
    ``Fraction.__hash__`` is costly and poles and sample points key the
    memos of :mod:`kzsolve.kzcore` and :mod:`kzsolve.ansatz`. It equals the
    hash of the real part, a ``Fraction`` or int, when the scalar is real.
    """

    __slots__ = ("re", "im", "_hash")

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

    def norm(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def abs_bound(self) -> Fraction:
        """|re| + |im|, a cheap exact upper bound on the modulus."""
        return abs(self.re) + abs(self.im)

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
        try:
            return self._hash
        except AttributeError:
            h = hash(self.re) if self.im == 0 else hash((self.re, self.im))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re},{self.im})"

    def __repr__(self):
        return f"GaussianRational({self})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _scalar(m) -> GaussianRational:
    """A ``_SCALAR`` match's scalar: one part for a real literal, two for a complex one."""
    g = m.groups()
    parts = [(int(num), int(den or 1)) for num, den in zip(g[::2], g[1::2]) if num is not None]
    if any(den == 0 for _, den in parts):
        raise ValueError(f"zero denominator in literal: {m.group().strip()!r}")
    return GaussianRational(*(Fraction(*p) for p in parts))


def parse_scalar(text: str) -> GaussianRational:
    """Parse ``p``, ``-p/q`` or ``(re,im)`` into an exact scalar.

    Each part is a rational literal with optional sign and positive
    denominator. Round-trips with ``str``: sign and gcd get normalized.
    """
    if not isinstance(text, str):
        raise TypeError(f"scalar literal must be a string, not {type(text).__name__}")
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed scalar literal: {text!r}")
    return _scalar(m)


def parse_scalars(text: str) -> list[GaussianRational]:
    """Parse a comma list of :func:`parse_scalar` literals, at least one, none empty."""
    out, at = [], -1
    while at < len(text):
        m = _SCALAR.match(text, at + 1)
        if m is None or m.end() < len(text) and text[m.end()] != ",":
            raise ValueError(f"malformed comma list of literals: {text!r}")
        out.append(_scalar(m))
        at = m.end()
    return out


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


def _part_str(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for den > 0, from one gcd."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


class Vector:
    """Dense exact vector: int real and imaginary parts over one shared denominator.

    Entry j is ``(re[j] + im[j]*i) / den``. The form is canonical, ``den > 0``
    and ``gcd(den, *re, *im) == 1``, so equal vectors have equal parts and
    ``==`` and ``hash`` compare plain tuples. Arithmetic is an int loop and
    one gcd per result; entries become ``GaussianRational`` only when read
    (indexing, slicing, iteration, ``data``). ``str`` and
    :meth:`entry_strings` print the entries from the int parts.
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
        if not (any(re) or any(im)):
            return Vector.zero(len(re))
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

    def __add__(self, other: "Vector") -> "Vector":
        return _combine([(1, 0, 1, self), (1, 0, 1, other)], len(self.re))

    def __sub__(self, other: "Vector") -> "Vector":
        return _combine([(1, 0, 1, self), (-1, 0, 1, other)], len(self.re))

    def __neg__(self):
        return _make(tuple(-x for x in self.re), tuple(-y for y in self.im), self.den)

    def scale(self, s: ScalarLike) -> "Vector":
        return linear_combination([(s, self)], len(self.re))

    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def __eq__(self, other):
        if isinstance(other, Vector):
            return self.den == other.den and self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def entry_strings(self) -> list[str]:
        """Each entry as ``str`` prints its ``GaussianRational``: ``a/b``, or ``(re,im)``
        when im != 0, written from the int parts with one gcd per part."""
        den = self.den
        return [
            f"({_part_str(x, den)},{_part_str(y, den)})" if y else _part_str(x, den)
            for x, y in zip(self.re, self.im)
        ]

    def __str__(self):
        return "[" + ", ".join(self.entry_strings()) + "]"

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
    """sum_j (x_j + y_j*i) / d_j * v_j over (x_j, y_j, d_j, v_j) in ``terms``, d_j > 0,
    each v_j of dimension ``dim``: :func:`_lifted` on one block, reduced by one gcd."""
    block = [(x, y, d, v, 0) for x, y, d, v in terms]
    if any(v.dim != dim for _, _, _, v, _ in block):
        raise ValueError("vector dimension mismatch")
    den, ((re, im),) = _lifted([block], dim)
    return Vector.from_parts(re, im, den)


def _lifted(blocks, size: int) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """One denominator and the int parts (re, im) of each block's ``size`` entries, not reduced.

    Term (x, y, d, v, at) of a block adds (x + y*i)/d * v at entries at..,
    its parts not necessarily in lowest terms, lifted once to the lcm of
    every d * v.den, in one pass that skips zero scalars and zero entries.
    """
    blocks = [[(x, y, d * v.den, v, at) for x, y, d, v, at in terms if x or y] for terms in blocks]
    den = lcm(*(d for terms in blocks for _, _, d, _, _ in terms))
    out = []
    for terms in blocks:
        re, im = [0] * size, [0] * size
        for x, y, d, v, at in terms:
            f = den // d
            x, y = x * f, y * f
            for i, a, b in zip(count(at), v.re, v.im):
                if a or b:
                    re[i] += x * a - y * b
                    im[i] += x * b + y * a
        out.append((re, im))
    return den, out


class Matrix:
    """Dense exact elimination input, stored as its row vectors; its one
    product, with a ``Vector``, certifies :func:`nullspace`'s kernel."""

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

    def __mul__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
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

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in v) for v in self._vecs) + "]"

    def __repr__(self):
        return f"Matrix({self})"


# -- elimination ------------------------------------------------------------

# Miller-Rabin with these bases is exact below 3.1e23; above that, where the
# moduli of nullspace lie, it is a strong-probable-prime test, on which no
# result depends (see nullspace).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.1e23."""
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


def _modular_primes(start: int = 2**125 + 1):
    """The probable primes p = 1 (mod 4) from ``start`` on (2^125 + 1, or a
    number 1 mod 4 past it) in increasing order, each as ``(p, iota)`` with
    ``iota**2 = -1 (mod p)``: iota = g^((p-1)/4) for the least g with
    g^((p-1)/2) = -1.

    At 126 bits Wang's bound covers 62-bit numerators and denominators, so a
    kernel with entries of that size lifts from one prime. ArithmeticError
    unless iota**2 = -1 (mod p): both Gaussian images of :func:`_image` are
    ring maps only then.
    """
    for p in count(start, 4):
        if _is_prime(p):
            g = next(g for g in count(2) if pow(g, (p - 1) // 2, p) == p - 1)
            iota = pow(g, (p - 1) // 4, p)
            if iota * iota % p != p - 1:
                raise ArithmeticError(f"no square root of -1 modulo {p}")
            yield p, iota


# The first four (p, iota) of _modular_primes(), written out so that no process
# searches for them; the search resumes past them for the rare elimination that
# draws a fifth prime.
_PRIMES = [
    (42535295865117307932921825928971026753, 14994785806041114255853408218739995340),
    (42535295865117307932921825928971027061, 35754033681682279013401505722758354997),
    (42535295865117307932921825928971027169, 6949924386169235443154126083142228183),
    (42535295865117307932921825928971027341, 36513287987593558845863443884996034369),
]
_MORE_PRIMES = _modular_primes(_PRIMES[-1][0] + 4)


def _prime(k: int) -> tuple[int, int]:
    """The k-th ``(p, iota)`` of :func:`_modular_primes`, each found at most once."""
    while len(_PRIMES) <= k:
        _PRIMES.append(next(_MORE_PRIMES))
    return _PRIMES[k]


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
    left of it, is the kernel vector's entry at that pivot column. ``rows``
    is left as given, for :func:`_holds_mod`.
    """
    work = [list(r) for r in rows]
    pivots = _rref_mod(work, p)
    pivot_set = set(pivots)
    block = [
        [-work[i][f] % p for i, pc in enumerate(pivots) if pc < f]
        for f in range(len(rows[0]))
        if f not in pivot_set
    ]
    return tuple(pivots), block


def _holds_mod(rows: list[list[int]], pivots: tuple[int, ...], block: list[list[int]], p: int) -> bool:
    """Whether every kernel vector of ``block`` (see :func:`_kernel_mod`) satisfies ``rows`` modulo p."""
    pivot_set = set(pivots)
    free = (f for f in range(len(rows[0])) if f not in pivot_set)
    for f, entries in zip(free, block):
        v = [0] * len(rows[0])
        v[f] = 1
        for pc, x in zip(pivots, entries):
            v[pc] = x
        if any(sum(map(mul, row, v)) % p for row in rows):
            return False
    return True


def _image(M: Matrix, p: int, iota: int, gaussian: bool):
    """``(pivots, block, held)`` of M's cleared rows modulo p, or None if p is unlucky.

    A row (re + im*i) / den is cleared to re + im*i. A real matrix needs one
    image. A Gaussian one is reduced under i -> iota and i -> -iota; a kernel
    entry x + y*i maps to x + y*iota and x - y*iota, whose half-sum and
    half-difference over iota are x and y modulo p. Images whose pivots
    differ cannot both be lucky, so the prime is dropped. ``held`` lists
    each elimination's reduced rows and kernel block, for :func:`_holds_mod`.
    """
    if not gaussian:
        rows = [[x % p for x in v.re] for v in M._vecs]
        pivots, block = _kernel_mod(rows, p)
        return pivots, block, [(rows, block)]
    plus_rows = [[(x + iota * y) % p for x, y in zip(v.re, v.im)] for v in M._vecs]
    minus_rows = [[(x - iota * y) % p for x, y in zip(v.re, v.im)] for v in M._vecs]
    plus, minus = _kernel_mod(plus_rows, p), _kernel_mod(minus_rows, p)
    if plus[0] != minus[0]:
        return None
    half, half_iota = pow(2, -1, p), pow(2 * iota, -1, p)
    block = [
        [w for u, v in zip(a, b) for w in ((u + v) * half % p, (u - v) * half_iota % p)]
        for a, b in zip(plus[1], minus[1])
    ]
    return plus[0], block, [(plus_rows, plus[1]), (minus_rows, minus[1])]


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
    M: Matrix,
    pivots: tuple[int, ...],
    residues: list[int],
    modulus: int,
    gaussian: bool,
    final: dict[int, Vector],
) -> list[Vector] | None:
    """The kernel vectors lifted from ``residues`` modulo ``modulus``, or None
    unless every one is reconstructed and satisfies M v = 0 exactly.

    ``residues`` is the kernel block flattened: for each free column, its
    entries at the pivot columns left of it, real and imaginary parts
    interleaved when ``gaussian``. ``final`` maps a free column to its
    vector certified at an earlier modulus under the same pivots; that one
    is not lifted again. Each vector certified here is added to it, so a
    call that returns None at one free column keeps those before it.
    """
    pivot_set = set(pivots)
    step = 2 if gaussian else 1
    free = [c for c in range(M.cols) if c not in pivot_set]
    at = 0
    for f in free:
        size = step * bisect_left(pivots, f)
        at += size
        if f in final:
            continue
        lifted = _lift(residues[at - size : at], modulus)
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
        final[f] = vec
    return [final[f] for f in free]


def nullspace(M: Matrix) -> list[Vector]:
    """Basis of the exact right nullspace {v : Mv = 0}: the RREF kernel, one vector per free column.

    Multimodular. The cleared rows are eliminated modulo 126-bit primes
    p = 1 (mod 4) (:func:`_image`), so a kernel whose entries have
    numerators and denominators up to 62 bits lifts from the first prime;
    the kernel blocks of primes that agree on the pivot columns are
    combined by the Chinese remainder theorem and lifted to rationals
    (:func:`_lift`). A prime's image can be unlucky, never better than the
    truth: its rank is at most M's, and at equal rank its pivot list is no
    smaller than M's lexicographically first column basis. So the image
    with the larger rank, then the smaller pivot list, is kept and a worse
    one is skipped.

    None of this rests on p being prime, which above 3.1e23 Miller-Rabin
    only makes probable (:func:`_is_prime`). Every pivot is inverted by
    ``pow(x, -1, p)``, which raises unless x is a unit mod p, so the row
    operations are invertible mod p and take the pivot columns to the unit
    vectors; by Cauchy-Binet some minor of the cleared rows on those
    columns is then nonzero mod p. Under a ring map (i -> iota with
    iota**2 = -1 for a Gaussian image) that is the image of a nonzero
    minor, so the pivot columns are independent over the rationals:
    rank(M) is at least the number of pivots, and at equal rank they are a
    column basis, so no smaller than the lexicographically first one. A
    wrong image can only fail the certificate below.

    A lift is returned only once it is certified. Each vector is built 1 on
    its own free column, 0 on the other free columns and 0 on every pivot
    column to its right, and is re-substituted into M exactly. Vectors in
    the kernel that are the identity on the free columns are independent
    and number the nullity modulo p, at least M's nullity, so they are a
    kernel basis and the pivot columns a column basis. Each free column is
    then a combination of the pivot columns to its left, so the pivots are
    the lexicographically first column basis: the vectors are M's unique
    RREF kernel. That holds whichever modulus each vector was certified
    at, so a certified vector is kept until a better image changes the
    pivots. Each prime then lifts only the vectors not yet kept, up to the
    first that fails: a kernel that needs k primes costs its nullity plus
    at most k lifts. A lift that fails may only need more primes, or the
    image may be faulty: the image's kernel vectors are then re-substituted
    into its reduced rows modulo p (:func:`_holds_mod`), which raises
    ArithmeticError on a fault and otherwise waits for the next prime.
    """
    gaussian = any(any(v.im) for v in M._vecs)
    best = modulus = residues = None
    for k in count():
        p, iota = _prime(k)
        image = _image(M, p, iota, gaussian)
        if image is None:
            continue
        pivots, block, held = image
        key = (-len(pivots), pivots)
        flat = [x for entries in block for x in entries]
        if best is None or key < best:
            best, modulus, residues = key, p, flat
            final = {}
        elif key == best:
            # Chinese remaindering: x = r (mod modulus), x = s (mod p)
            inv = pow(modulus, -1, p)
            residues = [r + modulus * ((s - r) * inv % p) for r, s in zip(residues, flat)]
            modulus *= p
        else:
            continue
        basis = _certified_lift(M, pivots, residues, modulus, gaussian, final)
        if basis is not None:
            return basis
        # the elimination is exact in F_p, so a kernel image that fails modulo p
        # is a fault, never an unlucky prime
        if not all(_holds_mod(rows, pivots, b, p) for rows, b in held):
            raise ArithmeticError(f"kernel image failed re-substitution modulo {p}")


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


def _poly_deflate(coeffs, x):
    """The quotient of a monic polynomial by (t - x), for a root x: the remainder is not formed."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + x * out[-1])
    return out


def char_poly(
    head: ScalarLike, diagonal: Sequence, border: Sequence
) -> tuple[list[GaussianRational], dict[GaussianRational, int]]:
    """det(xI - M) for an arrowhead M, factored by its repeated diagonal entries.

    M has ``head`` at (1, 1), ``diagonal[k-1]`` at (k+1, k+1), ``border[k-1]``
    at (1, k+1) and (k+1, 1) and zeros elsewhere, so
    det(xI - M) = (x - a) prod_k (x - d_k) - sum_k b_k^2 prod_{l != k} (x - d_l).
    Group the k by equal d_k into groups G of value d_G and weight
    beta_G = sum_{k in G} b_k^2. Every term then holds (x - d_G)^(|G|-1), and
    with Q = prod_G (x - d_G)

        det(xI - M) = prod_G (x - d_G)^(|G|-1) * [(x - a) Q - sum_G beta_G Q / (x - d_G)],

    the bracket being the characteristic polynomial of the reduced arrowhead,
    one diagonal entry d_G per group (O'Leary & Stewart, J. Comput. Phys. 90,
    1990, deflate an arrowhead the same way). Returns ``(coeffs, repeated)``:
    the bracket, monic in descending powers [1, c1, ..., c_(g+1)] for g groups,
    and {d_G: |G| - 1} for every group of two or more. A d_G with beta_G = 0 is
    also a root of the bracket. O(n) scalar operations to group, O(g^2) after.
    """
    a = GaussianRational.coerce(head)
    d = [GaussianRational.coerce(x) for x in diagonal]
    b = [GaussianRational.coerce(x) for x in border]
    if len(d) != len(b):
        raise ValueError("arrowhead diagonal and border lengths differ")
    weight: dict[GaussianRational, GaussianRational] = {}
    size: dict[GaussianRational, int] = {}
    for dk, bk in zip(d, b):
        weight[dk] = weight.get(dk, ZERO) + bk * bk
        size[dk] = size.get(dk, 0) + 1
    Q = [ONE]
    for dg in weight:
        Q = _poly_times_linear(Q, dg)
    out = _poly_times_linear(Q, a)
    for dg, s in weight.items():
        # Q / (x - d_G) has degree g - 1: it lands on the last g coefficients
        for i, c in enumerate(_poly_deflate(Q, dg), start=2):
            out[i] = out[i] - s * c
    return out, {dg: m - 1 for dg, m in size.items() if m > 1}


def _poly_times_linear(coeffs, x):
    """Multiply a polynomial in descending powers by (t - x)."""
    return [c - x * p for c, p in zip(coeffs + [ZERO], [ZERO] + coeffs)]


# Nothing constructs an AffineSolution. The class stays only because
# perfbench's tracer imports it: ``_max_bits`` reads ``from kzsolve.exactalg
# import AffineSolution`` on every traced elimination.
class AffineSolution:
    pass
