"""Property tests: field axioms and round trips of the exact scalar and
vector, and the symmetries of the KZ system acting on ``solve_ansatz`` bases.

W(az + b) solves the system on the poles (z_k - b)/a, and relabeling the
poles permutes coordinates 2..n with them; each transformed basis function
must lie in the span of the transformed system's basis. The coefficient
maps are written out here, so they share no code with the solver.
Examples are derandomized so the suite stays deterministic from run to run.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from math import comb  # noqa: E402

from conftest import power  # noqa: E402
from kzsolve.ansatz import RationalVectorFunction, in_span, solve_ansatz  # noqa: E402
from kzsolve.exactalg import (  # noqa: E402
    ONE,
    ZERO,
    GaussianRational,
    Vector,
    linear_combination,
    parse_scalar,
    parse_scalars,
)
from kzsolve.kzcore import new_system  # noqa: E402

rationals = st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30)
scalars = st.builds(GaussianRational, rationals, rationals) | st.builds(GaussianRational, rationals)
nonzero = scalars.filter(lambda x: not x.is_zero())

deterministic = settings(derandomize=True, database=None, max_examples=200)


@deterministic
@given(scalars, scalars, scalars)
def test_addition_is_an_abelian_group(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZERO == a
    assert a + (-a) == ZERO
    assert a - b == a + (-b)


@deterministic
@given(scalars, scalars, scalars)
def test_multiplication_is_commutative_associative_and_distributes(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a
    assert a * (b + c) == a * b + a * c


@deterministic
@given(scalars, nonzero)
def test_nonzero_scalars_are_invertible(a, b):
    inv = ONE / b
    assert b * inv == ONE
    assert (a / b) * b == a
    assert b * GaussianRational(b.re, -b.im) == b.norm()


@deterministic
@given(scalars)
def test_parse_round_trip(x):
    assert parse_scalar(str(x)) == x


blanks = st.sampled_from(["", " ", "  ", "\t"])


@deterministic
@given(st.lists(scalars, min_size=1, max_size=6), st.data())
def test_parse_list_round_trip(zs, data):
    def spaced(text):
        # blanks around the literal and around each part of a complex one
        b = lambda: data.draw(blanks)  # noqa: E731
        if text.startswith("("):
            re, im = text[1:-1].split(",")
            text = f"({b()}{re}{b()},{b()}{im}{b()})"
        return b() + text + b()

    assert parse_scalars(", ".join(map(str, zs))) == zs
    assert parse_scalars(",".join(spaced(str(z)) for z in zs)) == zs


@deterministic
@given(st.lists(scalars, max_size=9))
def test_vector_round_trip(entries):
    v = Vector(entries)
    assert Vector(v.data) == v
    assert hash(Vector(v.data)) == hash(v)
    assert list(v) == entries
    assert str(v) == "[" + ", ".join(str(a) for a in entries) + "]"


@deterministic
@given(rationals, scalars)
def test_reflected_subtraction_and_division(a, g):
    # an int or Fraction on the left leaves the operator to the Gaussian rational
    assert a - g == GaussianRational(a) - g
    if not g.is_zero():
        assert a / g == GaussianRational(a) / g


# -- symmetries of the KZ system: solutions map to solutions ------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# a and b of the rescaling z -> az + b
A, B = GaussianRational(2, -1), GaussianRational(1, 3)
few = settings(derandomize=True, database=None, max_examples=6, deadline=None)
couplings = pytest.mark.parametrize("n, rho", [(n, rho) for n in (4, 5) for rho in range(-2, 3)])


def distinct_points(n):
    """n - 1 distinct Gaussian-rational poles."""
    return st.lists(st.builds(GaussianRational, small, small), min_size=n - 1, max_size=n - 1, unique=True)


def bound_shape(sys):
    """Pole order |rho| and degree max(rho(n - 1), -rho), at least (1, 0)."""
    return max(abs(sys.rho), 1), max(sys.rho * (sys.n - 1), -sys.rho, 0)


def rescaled(fn, points):
    """W(az + b) on the poles (z_k - b)/a: L_(k,r) -> a^-r L_(k,r), and
    Q'_j = sum_(d>=j) C(d, j) a^j b^(d-j) Q_d by the binomial theorem."""
    poles = [[v.scale(ONE / power(A, r)) for r, v in enumerate(g, 1)] for g in fn.pole_coeffs]
    q = fn.poly_coeffs
    poly = [
        linear_combination(((comb(d, j) * power(A, j) * power(B, d - j), q[d]) for d in range(j, len(q))), fn.dim)
        for j in range(len(q))
    ]
    return RationalVectorFunction.from_blocks(fn.dim, points, poles, poly)


def relabeled(fn, points, sigma):
    """Pole k of the result is pole sigma[k] of fn, and so is coordinate k + 2:
    coordinate 1 stays, coordinate sigma[k] + 2 moves to k + 2."""

    def move(v):
        return Vector([v[0], *(v[1 + j] for j in sigma)])

    poles = [[move(v) for v in fn.pole_coeffs[j]] for j in sigma]
    return RationalVectorFunction.from_blocks(fn.dim, points, poles, [move(v) for v in fn.poly_coeffs])


@couplings
@few
@given(data=st.data())
def test_rescaled_solutions_solve_the_rescaled_system(n, rho, data):
    sys = new_system(n, rho, data.draw(distinct_points(n)))
    shape = bound_shape(sys)
    basis = solve_ansatz(sys, *shape)
    moved = new_system(sys.n, sys.rho, [(z - B) / A for z in sys.points])
    image = solve_ansatz(moved, *shape)
    assert len(image) == len(basis) == n
    assert all(in_span(image, rescaled(fn, moved.points), *shape) for fn in basis)


@couplings
@few
@given(data=st.data())
def test_relabeled_solutions_solve_the_relabeled_system(n, rho, data):
    sys = new_system(n, rho, data.draw(distinct_points(n)))
    sigma = data.draw(st.permutations(range(sys.s)))
    shape = bound_shape(sys)
    basis = solve_ansatz(sys, *shape)
    moved = new_system(sys.n, sys.rho, [sys.points[j] for j in sigma])
    image = solve_ansatz(moved, *shape)
    assert len(image) == len(basis) == n
    assert all(in_span(image, relabeled(fn, moved.points, sigma), *shape) for fn in basis)
