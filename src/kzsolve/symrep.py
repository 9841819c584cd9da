"""The star transpositions of the symmetric group, used as KZ residues.

The residues are the transpositions P_k = (1 k+1) acting on coordinates,
the "star" generators; no dense generator matrix is built here. A
residue operator c*I + sum_k w_k P_k is carried as its shift c and its
weights w. Two callers write such an action on int parts themselves: the
Frobenius right-hand sides fuse it into their sum over terms
(:func:`kzsolve.frobenius._convolution`), and
:func:`kzsolve.ansatz.check_conditions` writes (I - P_k), P_k and (I + T)
out entry by entry. :func:`_star_parts` applies a weighted sum to an
exact vector in O(n) int operations on the weights' and the vector's raw
numerators, for the residual evaluator, the pole balance of
:mod:`kzsolve.ansatz` and the Frobenius re-substitution, and
:func:`star_act_array` applies it to a floating vector or matrix in O(n)
work per column. No residue operator is written into the rows of a
linear system. A lone P_k is no weighted
sum: :func:`transpose` exchanges two entries of a ``Vector`` (the
Frobenius recursion folds the same exchange into the int parts of its
closed form). The generator sum T governs the large-z behaviour of the
system, so its integer spectrum is found here too, without any matrix:
T's n - 1 equal diagonal entries leave the arrowhead's factored
characteristic polynomial a quadratic, read off in closed form. T's
three spectral projectors, E_(n-1) = 11^T/n, E_(-1) = ww^T/(n(n-1)) for
w = (n-1, -1, ..., -1) and E_(n-2) = I - E_(n-1) - E_(-1), give
(cI - rho T)^-1 in O(n) (:func:`_t_solve`, which at a resonance
c = rho*lambda leaves lambda out) and the kernel at a resonance
(:func:`_t_kernel`), which the recursion at infinity of
:mod:`kzsolve.ansatz` reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod
from typing import NamedTuple, Sequence

from .exactalg import ONE, GaussianRational, Vector, ZERO, _make, char_poly


def transpose(v: Vector, k: int) -> Vector:
    """P_k v: v with entries 1 and k + 1 exchanged, still in canonical form."""
    re, im = list(v.re), list(v.im)
    re[0], re[k], im[0], im[k] = re[k], re[0], im[k], im[0]
    return _make(tuple(re), tuple(im), v.den)


def _star_parts(
    wr: Sequence[int], wi: Sequence[int], vr: Sequence[int], vi: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Numerators of (sum_k w_k P_k) v from the weights' and the vector's int numerators.

    The result is over the product of their denominators and is not reduced.
    """
    tr, ti = sum(wr), sum(wi)
    hr, hi = vr[0], vi[0]
    re, im = [0], [0]
    sr = si = 0
    for a, b, x, y in zip(wr, wi, vr[1:], vi[1:]):
        sr += a * x - b * y
        si += a * y + b * x
        cr, ci = tr - a, ti - b
        re.append(a * hr - b * hi + cr * x - ci * y)
        im.append(a * hi + b * hr + cr * y + ci * x)
    re[0], im[0] = sr, si
    return re, im


def star_act_array(weights, W):
    """(sum_k w_k P_k) W for a float array W of n rows (a vector or a matrix).

    ``weights`` is a length n - 1 array; any other length fails in ``w @ D``
    with a ``ValueError``. With D = W[1:] - W[0], the product is sum(w) W,
    plus w.D in row 1, minus w_k D[k-1] in row k+1: O(n) work per column and
    no matrix. Only the arguments' array methods are used, so this module
    imports no numpy.
    """
    D = W[1:] - W[0]
    out = W * weights.sum()
    out[0] += weights @ D
    out[1:] -= (D.T * weights).T
    return out


class TSpectrum(NamedTuple):
    eigenvalues: dict[int, int]
    least: int
    greatest: int


def _quadratic_integer_roots(reduced: Sequence[GaussianRational]) -> dict[int, int]:
    """Integer roots, with multiplicities, of a monic real quadratic x^2 + bx + c.

    The roots (-b +- s)/2 are rational only when D = b^2 - 4c >= 0 and s, the
    isqrt of D's numerator over that of its denominator, squares to D; an
    integer root is kept once it solves the quadratic exactly, a double one
    twice. Anything else raises: T's reduced polynomial is always a quadratic.
    """
    if len(reduced) != 3 or reduced[0] != ONE or any(x.im for x in reduced):
        raise ArithmeticError("reduced polynomial of T is not a monic real quadratic")
    b, c = reduced[1].re, reduced[2].re
    disc = b * b - 4 * c
    s = Fraction(isqrt(disc.numerator), isqrt(disc.denominator)) if disc >= 0 else None
    out: dict[int, int] = {}
    if s is not None and s * s == disc:
        for x in ((-b + s) / 2, (-b - s) / 2):
            if x.denominator == 1 and x * x + b * x + c == 0:
                out[int(x)] = out.get(int(x), 0) + 1
    return out


def t_spectrum(n: int) -> TSpectrum:
    """Integer spectrum of T with multiplicities and its integer window.

    For n >= 3 the spectrum is {n-1, n-2, -1} and the window is [-1, n-1].
    :func:`char_poly` factors T's n - 1 diagonal entries n - 2 out as a repeat
    and leaves a quadratic, whose integer roots are read off in closed form;
    each integer repeat adds its extra multiplicity. The spectrum is returned
    as found, so a caller can check it against T; only a window other than
    [-1, n-1] raises, as no caller could read a wrong window off the result.
    """
    if n < 3:
        raise ValueError("spectrum contract needs n >= 3")
    w = [ONE] * (n - 1)
    total = sum(w, ZERO)
    reduced, repeated = char_poly(ZERO, [total - wk for wk in w], w)
    eig = _quadratic_integer_roots(reduced)
    for d, m in repeated.items():
        if d.im == 0 and d.re.denominator == 1:
            eig[int(d.re)] = eig.get(int(d.re), 0) + m
    if min(eig) != -1 or max(eig) != n - 1:
        raise ArithmeticError("T spectrum window is not [-1, n-1]")
    return TSpectrum(eigenvalues=eig, least=min(eig), greatest=max(eig))


def _t_solve(c: int, rho: int, r: Vector) -> Vector:
    """The x with (cI - rho T) x = r that has no component in that operator's kernel.

    x = sum_lambda E_lambda r / (c - rho*lambda) over T's eigenvalues with
    c != rho*lambda, so off resonance x = (cI - rho T)^-1 r, and at
    resonance r must lie in the operator's range. With q_lambda the kept
    c - rho*lambda, Q their product, A, B, C = Q/q_lambda for
    lambda = n-2, n-1, -1 (0 for the one left out) and S = sum(r), x times
    n(n-1)Q is n(n-1)A r + (n-1)(B - A) S 1 + (C - A)(n r_1 - S) w, one int
    loop over r's parts.
    """
    n = r.dim
    q = {lam: c - rho * lam for lam in (n - 2, n - 1, -1) if c != rho * lam}
    total = prod(q.values())
    a, b, e = (total // q[lam] if lam in q else 0 for lam in (n - 2, n - 1, -1))
    f, g, h = n * (n - 1) * a, (n - 1) * (b - a), e - a
    sign = 1 if total > 0 else -1
    out = []
    for xs in (r.re, r.im):
        sx = sum(xs)
        u, t = g * sx, h * (n * xs[0] - sx)
        out.append([sign * (f * xs[0] + u + (n - 1) * t), *(sign * (f * x + u - t) for x in xs[1:])])
    return Vector.from_parts(*out, r.den * n * (n - 1) * abs(total))


def _t_kernel(c: int, rho: int, n: int) -> list[Vector]:
    """A basis of the kernel of cI - rho T, empty unless c = rho*lambda for an eigenvalue lambda.

    1 for lambda = n - 1, w for -1, and e_i - e_2 (i = 3..n) for n - 2.
    """
    if c == rho * (n - 1):
        return [Vector([1] * n)]
    if c == -rho:
        return [Vector([n - 1] + [-1] * (n - 1))]
    if c == rho * (n - 2):
        return [Vector.unit(n, i) - Vector.unit(n, 1) for i in range(2, n)]
    return []
