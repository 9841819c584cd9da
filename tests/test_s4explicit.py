import random
from fractions import Fraction

import pytest

from conftest import (
    S4Coefficients,
    generic_points,
    leibniz_det,
    random_points,
    random_scalar,
    reference_s4_columns,
    star_generators,
    t_matrix,
)
from kzsolve.ansatz import check_conditions, in_span, residual, solve_ansatz
from kzsolve.exactalg import GaussianRational, Matrix, Vector
from kzsolve.kzcore import new_system
from kzsolve.s4explicit import (
    fundamental_matrix,
    independence_certificate,
    y1,
    y2,
    y3,
    y4,
)

CANON = [0, 1, 2]

F = Fraction


def gr(x):
    return GaussianRational.coerce(x)


class TestCoefficients:
    def test_canonical_values(self):
        co = S4Coefficients.from_points(CANON)
        assert co.alpha == gr(F(-1, 2))
        assert co.beta == gr(1)
        assert co.betas == (gr(-1), gr(2), gr(-1))
        assert co.alphas == (gr(1), gr(F(-1, 2)), gr(1))
        assert co.y3_abc == (gr(-1), gr(F(1, 2)), gr(F(-1, 2)))
        assert co.y4_abcde == (gr(-1), gr(2), gr(-2), gr(1), gr(-1))

    def test_symbol_families_are_distinct(self):
        # the two (a, b, c) families come from different formulas
        co = S4Coefficients.from_points(CANON)
        assert co.y3_abc[2] == gr(F(-1, 2))
        assert co.y4_abcde[2] == gr(-2)
        assert co.y3_abc[2] != co.y4_abcde[2]

    def test_beta_sum_vanishes(self):
        rng = random.Random(500)
        for _ in range(20):
            co = S4Coefficients.from_points(random_points(rng))
            assert (co.betas[0] + co.betas[1] + co.betas[2]).is_zero()

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            S4Coefficients.from_points([0, 0, 1])


class TestMatchesReference:
    """Every column equals the one the reference coefficients build by
    scaling ``Vector``s with ``GaussianRational`` quotients."""

    @staticmethod
    def gaussian(rng, span):
        return GaussianRational(
            F(rng.randint(-span, span), rng.randint(1, span)),
            F(rng.randint(-span, span), rng.randint(1, span)),
        )

    def configurations(self, rng, count):
        """Integer, Gaussian-with-denominators and midpoint-locus triples, in turn."""
        made = 0
        while made < count:
            if made % 3 == 0:
                pts = [GaussianRational(x) for x in rng.sample(range(-30, 31), 3)]
            elif made % 3 == 1:
                pts = [self.gaussian(rng, 9) for _ in range(3)]
            else:
                # the midpoint locus 2 z2 = z1 + z3, where y4 is a multiple of y3
                z1, z3 = self.gaussian(rng, 9), self.gaussian(rng, 9)
                pts = [z1, (z1 + z3) / GaussianRational(2), z3]
            if len(set(pts)) == 3:
                made += 1
                yield pts

    def test_random_configurations(self):
        rng = random.Random(508)
        midpoints = 0
        for pts in self.configurations(rng, 600):
            midpoints += (pts[1] + pts[1] - pts[0] - pts[2]).is_zero()
            for build, want in zip((y1, y2, y3, y4), reference_s4_columns(pts)):
                assert build(pts) == want, (build.__name__, pts)
        assert midpoints >= 200


@pytest.mark.parametrize("build", [y1, y2, y3, y4, independence_certificate])
def test_coincident_poles_rejected(build):
    with pytest.raises(ValueError, match=r"^pole locations must be distinct$"):
        build([0, 0, 1])


class TestY1:
    def test_canonical_structure(self):
        fn = y1(CANON)
        assert fn.residues[0] == Vector([1, 1, -1, -1])
        assert fn.residues[1] == Vector([1, -1, 1, -1]).scale(gr(F(-1, 2)))
        assert fn.residues[2] == Vector([1, -1, -1, 1])
        assert fn.q_linear == Vector([F(-3, 2), F(1, 2), F(1, 2), F(1, 2)])
        assert fn.q_const == Vector([F(3, 2), F(-3, 2), F(-1, 2), F(1, 2)])

    def test_passes_conditions(self):
        sys = new_system(4, -1, CANON)
        assert check_conditions(sys, y1(CANON)).passed

    def test_growth_condition_structurally(self):
        rng = random.Random(501)
        T = t_matrix(4)
        ident = Matrix.identity(4)
        for _ in range(10):
            pts = random_points(rng)
            fn = y1(pts)
            assert ((ident + T) * fn.q_linear).is_zero()


class TestY2:
    def test_residues_are_scaled_ones(self):
        fn = y2(CANON)
        ones = Vector([1, 1, 1, 1])
        assert fn.residues == (ones.scale(-1), ones.scale(2), ones.scale(-1))
        assert fn.q_const.is_zero() and fn.q_linear.is_zero()

    def test_difference_identities(self):
        # the cyclic differences satisfy both two-term pole identities,
        # plus the analogous one at the third pole
        rng = random.Random(502)
        for _ in range(30):
            z1, z2, z3 = random_points(rng)
            b1, b2, b3 = z2 - z3, z3 - z1, z1 - z2
            assert ((b1 + b2) / (z1 - z2) + (b1 + b3) / (z1 - z3)).is_zero()
            assert ((b1 + b2) / (z2 - z1) + (b2 + b3) / (z2 - z3)).is_zero()
            assert ((b1 + b3) / (z3 - z1) + (b2 + b3) / (z3 - z2)).is_zero()

    def test_value_at_three(self):
        assert y2(CANON).eval(3) == Vector([1, 1, 1, 1]).scale(gr(F(-1, 3)))


class TestY3:
    def test_canonical_residues(self):
        fn = y3(CANON)
        assert fn.residues[0] == Vector([0, 0, -1, 1])

    def test_first_condition_by_inspection(self):
        # coordinates 1 and 2 of the first residue vanish, so the swap fixes it
        fn = y3(CANON)
        P1 = star_generators(4)[0]
        assert ((Matrix.identity(4) - P1) * fn.residues[0]).is_zero()

    def test_passes_conditions(self):
        sys = new_system(4, -1, CANON)
        assert check_conditions(sys, y3(CANON)).passed


class TestY4:
    def test_exact_residual(self):
        sys = new_system(4, -1, CANON)
        assert residual(sys, y4(CANON), 5).is_zero()

    def test_passes_conditions(self):
        sys = new_system(4, -1, CANON)
        assert check_conditions(sys, y4(CANON)).passed


class TestAllSolutionsRandomConfigs:
    def test_random_configurations(self):
        rng = random.Random(503)
        for _ in range(25):
            pts = random_points(rng)
            sys = new_system(4, -1, pts)
            for build in (y1, y2, y3, y4):
                fn = build(pts)
                assert check_conditions(sys, fn).passed
                assert residual(sys, fn, _safe_probe(pts)).is_zero()

    def test_residues_fixed_by_own_transposition(self):
        rng = random.Random(504)
        for _ in range(10):
            pts = random_points(rng)
            for build in (y1, y2, y3, y4):
                fn = build(pts)
                for P, L in zip(star_generators(4), fn.residues):
                    assert P * L == L


def _safe_probe(pts):
    bound = max(int(gr(p).abs_bound()) for p in pts) + 3
    return GaussianRational(bound)


class TestFundamentalMatrix:
    def test_columns_reproduced_by_unit_constants(self):
        for i, build in enumerate((y1, y2, y3, y4)):
            consts = [0] * 4
            consts[i] = 1
            fund = fundamental_matrix(CANON, consts)
            want = build(CANON)
            got = fund.combined
            probe = GaussianRational(6)
            assert got.eval(probe) == want.eval(probe)
            assert got.eval(GaussianRational(11)) == want.eval(GaussianRational(11))

    def test_generic_configuration_certifies(self):
        fund = fundamental_matrix([1, 3, 7])
        assert fund.certificate.ok
        assert not fund.certificate.det.is_zero()
        # cross-check the probe determinant with the Leibniz oracle
        M = fund.eval_matrix(fund.certificate.probe)
        assert leibniz_det(M) == fund.certificate.det

    def test_combined_random_constants_solves(self):
        rng = random.Random(505)
        pts = generic_points(rng)
        sys = new_system(4, -1, pts)
        consts = [random_scalar(rng) for _ in range(4)]
        fund = fundamental_matrix(pts, consts)
        assert residual(sys, fund.combined, _safe_probe(pts)).is_zero()

    def test_random_generic_configurations_certify(self):
        rng = random.Random(506)
        for _ in range(20):
            pts = generic_points(rng)
            cert = independence_certificate(pts)
            assert cert.ok, f"independence should hold at generic {pts}"

    def test_columns_span_matches_solver(self):
        rng = random.Random(507)
        pts = generic_points(rng)
        sys = new_system(4, -1, pts)
        basis = solve_ansatz(sys)
        assert len(basis) == 4
        for build in (y1, y2, y3, y4):
            assert in_span(basis, build(pts))


class TestIndependenceCertificate:
    def test_repeated_column_never_certifies(self):
        cols = (y1(CANON), y1(CANON), y3(CANON), y4(CANON))
        cert = independence_certificate(CANON, cols)
        assert not cert.ok
        assert cert.det.is_zero()
        assert cert.probes_tried == 24

    def test_midpoint_configuration_degenerates(self):
        """At 2*z2 = z1 + z3 the fourth column is a multiple of the third,
        so the certificate must honestly fail; the solution space itself
        stays four-dimensional (see solver tests)."""
        for pts in (CANON, [-1, 2, 5], [F(1, 2), 1, F(3, 2)]):
            cert = independence_certificate(pts)
            assert not cert.ok
            f3, f4 = y3(pts), y4(pts)
            # exact proportionality of the two columns at a probe
            a = f3.eval(_safe_probe(pts))
            b = f4.eval(_safe_probe(pts))
            ratios = {
                str(x / y) for x, y in zip(a, b) if not y.is_zero()
            }
            assert len(ratios) == 1

    def test_certificate_probe_avoids_poles(self):
        cert = independence_certificate([1, 3, 7])
        assert all(not (cert.probe - gr(p)).is_zero() for p in (1, 3, 7))
