"""Property tests of the exact scalar and vector: field axioms and round trips.

Examples are derandomized so the suite stays deterministic from run to run.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kzsolve.exactalg import ONE, ZERO, GaussianRational, Vector, parse_scalar, parse_scalars  # noqa: E402

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
