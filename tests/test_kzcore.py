import random
from fractions import Fraction
from importlib import import_module
from pkgutil import iter_modules

import pytest

from conftest import (
    MEMOS,
    dense_combination,
    identity,
    matmul,
    power,
    random_points,
    reference_local_coefficients,
    star_generators,
    star_sum,
    t_matrix,
)
import kzsolve
from kzsolve.exactalg import GaussianRational, Vector
from kzsolve.kzcore import _inverses, eval_A, local_coefficients, new_system


def abs_floor(x: GaussianRational) -> Fraction:
    """max(|re|, |im|), an exact lower bound on the modulus."""
    return max(abs(x.re), abs(x.im))


class TestNewSystem:
    def test_valid(self):
        sys = new_system(4, -1, [0, 1, 2])
        assert sys.s == 3

    def test_duplicate_points(self):
        with pytest.raises(ValueError):
            new_system(4, -1, [0, 1, 1])

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            new_system(4, -1, [0, 1])

    def test_too_small(self):
        with pytest.raises(ValueError):
            new_system(2, -1, [0])

    def test_non_integer_rho(self):
        with pytest.raises(ValueError):
            new_system(4, 0.5, [0, 1, 2])


class TestEvalA:
    def test_direct_substitution(self):
        sys = new_system(4, -1, [0, 1, 2])
        P1, P2, P3 = star_generators(4)
        expected = dense_combination([(Fraction(1, 3), P1), (Fraction(1, 2), P2), (Fraction(1, 1), P3)])
        assert star_sum(eval_A(sys, 3)) == expected

    def test_pole_error(self):
        sys = new_system(4, -1, [0, 1, 2])
        with pytest.raises(ValueError):
            eval_A(sys, 0)

    def test_large_z_approaches_generator_sum(self):
        # z*A(z) - T = sum_k P_k z_k/(z - z_k): entries vanish like 1/z
        sys = new_system(4, -1, [0, 1, 2])
        z = GaussianRational(10 ** 6)
        diff = dense_combination([(z, star_sum(eval_A(sys, z))), (-1, t_matrix(4))])
        for row in diff:
            for a in row:
                assert a.abs_bound() < Fraction(1, 100000)


class TestLocalCoefficients:
    def test_residue_term(self):
        sys = new_system(4, -1, [0, 1, 2])
        loc = local_coefficients(sys, 1, 0)
        assert star_sum(loc.minus_one) == dense_combination([(-1, star_generators(4)[0])])

    def test_order_zero_frozen(self):
        # independent geometric expansion: a0 = -sum_{l != 1} P_l/(z1 - z_l)
        sys = new_system(4, -1, [0, 1, 2])
        loc = local_coefficients(sys, 1, 0)
        P2, P3 = star_generators(4)[1:]
        expected = dense_combination([(1, P2), (Fraction(1, 2), P3)])
        assert star_sum(loc.regular[0]) == expected

    def test_residue_squares_to_identity(self):
        for rho in (-1, 1):
            sys = new_system(4, rho, [0, 1, 2])
            for k in (1, 2, 3):
                a = star_sum(local_coefficients(sys, k, -1).minus_one)
                assert matmul(a, a) == identity(4)

    def test_matches_reference(self):
        """Entry by entry equal to rho (-1)^j / (z_k - z_l)^(j+1), each weight computed alone."""
        rng = random.Random(202)
        for count in (2, 3, 4, 5):
            pts = random_points(rng, count, span=7)
            for rho in range(-3, 4):
                sys = new_system(count + 1, rho, pts)
                for k in range(1, count + 1):
                    for order in range(-1, 9):
                        loc = local_coefficients(sys, k, order)
                        minus_one, regular = reference_local_coefficients(sys, k, order)
                        assert isinstance(loc.minus_one, Vector)
                        assert list(loc.minus_one) == minus_one
                        assert len(loc.regular) == len(regular) == order + 1
                        for got, want in zip(loc.regular, regular):
                            assert isinstance(got, Vector)
                            assert list(got) == want

    def test_index_out_of_range(self):
        sys = new_system(4, -1, [0, 1, 2])
        with pytest.raises(ValueError):
            local_coefficients(sys, 4, 2)

    def test_residue_sum_property(self):
        rng = random.Random(200)
        for rho in (-1, 1, 2):
            pts = random_points(rng)
            sys = new_system(4, rho, pts)
            residues = [star_sum(local_coefficients(sys, k, -1).minus_one) for k in (1, 2, 3)]
            total = dense_combination((1, a) for a in residues)
            assert total == dense_combination([(rho, t_matrix(4))])

    def test_truncation_consistency_with_tail_bound(self):
        """Partial sums reproduce rho*A near the pole within the geometric tail."""
        rng = random.Random(201)
        N = 8
        for trial in range(6):
            pts = random_points(rng, span=4)
            sys = new_system(4, -1, pts)
            for k in (1, 2, 3):
                zk = sys.points[k - 1]
                floors = [
                    abs_floor(zk - zl)
                    for i, zl in enumerate(sys.points)
                    if i != k - 1
                ]
                dmin = min(floors)
                u = GaussianRational(dmin / 4)  # |u| well under half the gap
                loc = local_coefficients(sys, k, N)
                terms = [(GaussianRational(1) / u, star_sum(loc.minus_one))]
                terms += [(power(u, j), star_sum(loc.regular[j])) for j in range(N + 1)]
                target = star_sum(eval_A(sys, zk + u))
                diff = dense_combination([(sys.rho, target), *((-s, M) for s, M in terms)])
                # tail bound: sum_{j>N} |u|^j * sum_l 1/|d_l|^{j+1}
                ub = u.abs_bound()
                tail = Fraction(0)
                for fl in floors:
                    r = ub / fl
                    assert r < 1
                    tail += (r ** (N + 1)) / (fl * (1 - r))
                for row in diff:
                    for a in row:
                        assert a.abs_bound() <= tail


class TestMemos:
    """The memos are keyed on everything their values depend on, bounded and immutable."""

    def test_every_input_memo_is_listed_and_bounded(self):
        modules = [import_module(f"kzsolve.{m.name}") for m in iter_modules(kzsolve.__path__)]
        memos = {id(obj): obj for mod in modules for obj in vars(mod).values() if hasattr(obj, "cache_clear")}
        assert sorted(memos) == sorted(map(id, MEMOS))
        for memo in MEMOS:
            assert memo.cache_parameters()["maxsize"] <= 32

    def test_different_poles_get_different_inverses_at_the_same_z(self):
        z = GaussianRational(7)
        a = _inverses(new_system(4, -1, [0, 1, 2]).points, z)
        b = _inverses(new_system(4, -1, [0, 1, 3]).points, z)
        assert a == Vector([Fraction(1, 7), Fraction(1, 6), Fraction(1, 5)])
        assert b == Vector([Fraction(1, 7), Fraction(1, 6), Fraction(1, 4)])
        assert _inverses.cache_info().misses == 2

    def test_cached_inverses_are_a_shared_vector(self):
        sys = new_system(4, -1, [0, GaussianRational(1, 2), 2])
        first = eval_A(sys, 5)
        assert isinstance(first, Vector)
        assert eval_A(sys, GaussianRational(5)) is first
        assert _inverses.cache_info().hits == 1

    def test_pole_refused_on_a_warm_memo(self):
        sys = new_system(4, -1, [0, 1, 2])
        _inverses(sys.points, GaussianRational(1))  # a pole: inverse 0 there
        with pytest.raises(ValueError):
            eval_A(sys, 1)

    @pytest.mark.parametrize("x", [Fraction(3, 4), Fraction(-7, 3), Fraction(5), 5, 0, -12])
    def test_real_hash_equals_the_fraction_hash_before_and_after_the_slot_is_set(self, x):
        a = GaussianRational(x)
        with pytest.raises(AttributeError):
            a._hash
        assert hash(a) == hash(Fraction(x)) == hash(x)
        assert a._hash == hash(x)
        assert hash(a) == hash(Fraction(x)) == hash(x)
        assert hash(GaussianRational(x, 0)) == hash(x)

    def test_gaussian_hash_is_set_once(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3, 5))
        with pytest.raises(AttributeError):
            a._hash
        h = hash(a)
        assert h == hash((Fraction(1, 2), Fraction(-3, 5))) == a._hash == hash(a)
        assert hash(GaussianRational(Fraction(1, 2), Fraction(-3, 5))) == h
