"""The star transpositions of the symmetric group, used as KZ residues.

The residues are the transpositions P_k = (1 k+1) acting on coordinates,
the "star" generators; no dense generator matrix is built here. A
residue operator sum_k w_k P_k is carried as its weight tuple w, and this
is the only module that knows what the weights mean: :func:`star_apply`
applies one P_k as a coordinate swap, :func:`star_act` applies a weighted
sum in O(n) int operations on the vector's shared-denominator parts,
:func:`star_act_array` applies it to a floating vector or matrix in
O(n) work per column, and :func:`star_sum` builds the dense arrowhead
matrix where elimination needs one. The
generator sum T governs the large-z behaviour of the system, so its
integer spectrum is computed and sanity-checked here as well, from the
characteristic polynomial of the arrowhead's parts, without any matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactalg import Matrix, ONE, ScalarLike, Vector, ZERO
from .exactalg import char_poly, integer_eigenvalues


def star_apply(k: int, v: Vector) -> Vector:
    """P_k v for the star transposition (1 k+1): swap coordinates 1 and k+1."""
    if not 1 <= k < v.dim:
        raise ValueError(f"star generator index {k} out of range 1..{v.dim - 1}")
    re, im = list(v.re), list(v.im)
    re[0], re[k] = re[k], re[0]
    im[0], im[k] = im[k], im[0]
    return Vector.from_parts(re, im, v.den)


def star_sum(weights: Sequence[ScalarLike]) -> Matrix:
    """Dense sum_k w_k P_k over the n = len(weights) + 1 point star generators.

    An arrowhead: w_k at (1, k+1) and (k+1, 1), sum(w) - w_k at (k+1, k+1)
    and 0 at (1, 1), filled in O(n^2) from the weights' int parts.
    """
    w = Vector(weights)
    if not w.dim:
        raise ValueError("need at least one weight")
    n = w.dim + 1
    tr, ti = sum(w.re), sum(w.im)
    rows = [Vector.from_parts((0, *w.re), (0, *w.im), w.den)]
    for k, (a, b) in enumerate(zip(w.re, w.im), start=1):
        re, im = [0] * n, [0] * n
        re[0], im[0], re[k], im[k] = a, b, tr - a, ti - b
        rows.append(Vector.from_parts(re, im, w.den))
    return Matrix(rows)


def star_act(weights: Sequence[ScalarLike], v: Vector) -> Vector:
    """(sum_k w_k P_k) v in O(n), without building the arrowhead.

    Entry 1 is sum_k w_k v_(k+1); entry k+1 is w_k v_1 + (sum(w) - w_k) v_(k+1).
    The weights are lifted to int parts over one denominator (pass a
    ``Vector`` to lift them once for many products), so the product is an
    int loop over the weights' and the vector's parts with one gcd.
    """
    w = weights if isinstance(weights, Vector) else Vector(weights)
    if w.dim != v.dim - 1:
        raise ValueError(f"{w.dim} star weights do not act on dimension {v.dim}")
    tr, ti = sum(w.re), sum(w.im)
    hr, hi = v.re[0], v.im[0]
    re, im = [0], [0]
    sr = si = 0
    for a, b, x, y in zip(w.re, w.im, v.re[1:], v.im[1:]):
        sr += a * x - b * y
        si += a * y + b * x
        cr, ci = tr - a, ti - b
        re.append(a * hr - b * hi + cr * x - ci * y)
        im.append(a * hi + b * hr + cr * y + ci * x)
    re[0], im[0] = sr, si
    return Vector.from_parts(re, im, w.den * v.den)


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


@dataclass(frozen=True)
class TSpectrum:
    n: int
    eigenvalues: dict[int, int]
    least: int
    greatest: int


def t_spectrum(n: int) -> TSpectrum:
    """Integer spectrum of T with multiplicities and its integer window.

    For n >= 3 the spectrum is {n-1, n-2, -1} and the window is [-1, n-1];
    a violation would mean the exact eigensolve and the construction of T
    disagree, so it raises rather than returning garbage.
    """
    if n < 3:
        raise ValueError("spectrum contract needs n >= 3")
    w = [ONE] * (n - 1)
    total = sum(w, ZERO)
    diagonal = [total - wk for wk in w]
    # arrowhead: head 0, diagonal sum(w) - w_k, border w_k; the row-sum norm caps eigenvalues
    rows = [w, *([d, wk] for d, wk in zip(diagonal, w))]
    bound = int(max(sum(a.abs_bound() for a in row) for row in rows))
    eig = integer_eigenvalues(char_poly(ZERO, diagonal, w), bound)
    if sum(eig.values()) != n:
        raise ArithmeticError("T spectrum is not fully integer")
    for required in (n - 1, n - 2, -1):
        if required not in eig:
            raise ArithmeticError(f"expected integer eigenvalue {required} missing")
    if min(eig) != -1 or max(eig) != n - 1:
        raise ArithmeticError("T spectrum window is not [-1, n-1]")
    return TSpectrum(n=n, eigenvalues=eig, least=min(eig), greatest=max(eig))
