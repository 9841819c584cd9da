"""Natural-representation matrices of the symmetric group used as KZ residues.

The residue matrices are the transpositions (1 k+1) acting on coordinates,
the "star" generators. This is the only module that knows which coordinates
each P_k swaps: :func:`star_apply` applies one as a coordinate swap and
:func:`star_sum` builds a weighted sum of them as a dense arrowhead matrix.
Their sum T and the closely related bordered matrix S govern the large-z
behaviour of the system, so the integer spectrum of T is computed and
sanity-checked here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactalg import GaussianRational, Matrix, ONE, ScalarLike, Vector, ZERO
from .exactalg import integer_eigenvalues


def transposition_matrix(n: int, i: int, j: int) -> Matrix:
    """Permutation matrix of the transposition (i j) on n points, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices out of range: ({i},{j}) for n={n}")
    if i == j:
        raise ValueError("a transposition needs two distinct points")
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = ONE
    a, b = i - 1, j - 1
    rows[a][a] = ZERO
    rows[b][b] = ZERO
    rows[a][b] = ONE
    rows[b][a] = ONE
    return Matrix(rows)


def star_generators(n: int) -> list[Matrix]:
    """The n-1 star transposition matrices (1 2), (1 3), ..., (1 n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [transposition_matrix(n, 1, k + 1) for k in range(1, n)]


def star_apply(k: int, v: Vector) -> Vector:
    """P_k v for the star transposition (1 k+1): swap coordinates 1 and k+1."""
    if not 1 <= k < v.dim:
        raise ValueError(f"star generator index {k} out of range 1..{v.dim - 1}")
    data = list(v)
    data[0], data[k] = data[k], data[0]
    return Vector(data)


def star_sum(weights: Sequence[ScalarLike]) -> Matrix:
    """Dense sum_k w_k P_k over the n = len(weights) + 1 point star generators.

    An arrowhead: w_k at (1, k+1) and (k+1, 1), sum(w) - w_k at (k+1, k+1)
    and 0 at (1, 1), filled in O(n^2) with O(n) scalar operations.
    """
    w = [GaussianRational.coerce(x) for x in weights]
    if not w:
        raise ValueError("need at least one weight")
    n = len(w) + 1
    total = sum(w, ZERO)
    rows = [[ZERO] * n for _ in range(n)]
    for k, wk in enumerate(w, start=1):
        rows[0][k] = rows[k][0] = wk
        rows[k][k] = total - wk
    return Matrix(rows)


def plus_minus_matrices(P: Matrix) -> tuple[Matrix, Matrix]:
    """Split an involution P into the pair (I + P, I - P).

    The two factors annihilate each other, projecting (up to a factor 2)
    onto the +1 and -1 eigenspaces of P.
    """
    if P.rows != P.cols:
        raise ValueError("involution must be square")
    ident = Matrix.identity(P.rows)
    if P * P != ident:
        raise ValueError("matrix is not an involution")
    return ident + P, ident - P


def s_matrix(n: int) -> Matrix:
    """Bordered matrix with corner 2-n and all-ones first row/column tail."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = [[ZERO] * n for _ in range(n)]
    rows[0][0] = GaussianRational(2 - n)
    for k in range(1, n):
        rows[0][k] = ONE
        rows[k][0] = ONE
    return Matrix(rows)


def t_matrix(n: int) -> Matrix:
    """Sum T of the star generators, equal to (n-2)I + S."""
    if n < 2:
        raise ValueError("need n >= 2")
    return star_sum([ONE] * (n - 1))


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
    eig = integer_eigenvalues(t_matrix(n))
    if sum(eig.values()) != n:
        raise ArithmeticError("T spectrum is not fully integer")
    for required in (n - 1, n - 2, -1):
        if required not in eig:
            raise ArithmeticError(f"expected integer eigenvalue {required} missing")
    if min(eig) != -1 or max(eig) != n - 1:
        raise ArithmeticError("T spectrum window is not [-1, n-1]")
    return TSpectrum(n=n, eigenvalues=eig, least=min(eig), greatest=max(eig))
