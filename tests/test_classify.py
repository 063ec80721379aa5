"""Classification of triangles and the scalar diagnostics behind it."""

import math

import numpy as np
import pytest

from napsphere import (
    INWARD,
    OUTWARD,
    Verdict,
    classify,
    classify_d,
    napoleonise,
    new_triangle,
    realize,
    sample_napoleonic_d,
    side_parameters,
)
from napsphere import algebra
from napsphere.triangle import SideParameters

from conftest import NAPOLEONIC_D, SCALENE_VERTICES, equilateral_vertices, random_triangles

SYMMETRIC_POINT = SideParameters(*(1.0 / math.sqrt(3.0),) * 3)


def _chi(d: SideParameters) -> float:
    return math.sqrt(algebra.chi_squared(*d.as_tuple()))


def _uniform_sign_residual(d, chi: float, eps: int) -> float:
    """N+- = alpha (d0+d1+d2 - d0 d1 d2) + eps chi (1 - d0 d1 - d1 d2 - d2 d0), which vanishes
    exactly when the uniform-sign Napoleonisation with sign *eps* is equilateral (for
    non-equilateral d); ``algebra.verify_factorisation`` proves the product N+ N- exactly."""
    return algebra.alpha(*d) * algebra.sum_minus_product(*d) + eps * chi * algebra.one_minus_pairs(*d)


def _epsilon_from_d(d: SideParameters, tol: float = 1e-12) -> int:
    """Sign of (1 - d0^2 - d1^2 - d2^2)(1 - d0 d1 - d1 d2 - d2 d0).

    This is the only uniform sign whose Napoleonisation can possibly be
    equilateral at *d*.  Raises ``ValueError`` when the product is within
    *tol* of zero (e.g. at the symmetric point (1,1,1)/sqrt(3), where both
    factors vanish).
    """
    d0, d1, d2 = d.as_tuple()
    product = (1.0 - d0 * d0 - d1 * d1 - d2 * d2) * algebra.one_minus_pairs(d0, d1, d2)
    if abs(product) <= tol:
        raise ValueError(f"sign product {product!r} vanishes within tolerance")
    return 1 if product > 0 else -1


def _chi_relation_check(d: SideParameters, chi: float) -> float:
    """2 chi - (d0 + d1 + d2 - d0 d1 d2); approximately 0 on the quadric.

    Off the quadric the value is generically nonzero, so it doubles as a
    diagnostic of how far a triangle is from the outward-Napoleonic locus.
    """
    return 2.0 * chi - algebra.sum_minus_product(*d.as_tuple())


class TestConditionValue:
    def test_known_napoleonic_d(self):
        assert algebra.condition(*NAPOLEONIC_D) == pytest.approx(2.0, abs=1e-14)

    def test_symmetric_point(self):
        assert algebra.condition(*SYMMETRIC_POINT.as_tuple()) == pytest.approx(2.0, abs=1e-14)

    def test_scalene_triangle_far_from_locus(self):
        d = side_parameters(new_triangle(*SCALENE_VERTICES))
        # hand-derived: squares 2 + sqrt(3)/2, 2, 5/2 plus the three products
        d0, d1, d2 = d.as_tuple()
        expected = (6.5 + math.sqrt(3.0) / 2.0) + d0 * d1 + d0 * d2 + d1 * d2
        value = algebra.condition(*d.as_tuple())
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(14.67302717825265, abs=1e-10)
        assert value > 2.0 + 1.0


class TestNapoleonicEquationResidual:
    def test_known_d_vanishes_for_outward_sign(self):
        d = SideParameters(*NAPOLEONIC_D)
        assert _uniform_sign_residual(d, _chi(d), -1) == pytest.approx(0.0, abs=1e-12)

    def test_known_d_nonzero_for_inward_sign(self):
        d = SideParameters(*NAPOLEONIC_D)
        assert abs(_uniform_sign_residual(d, _chi(d), +1)) > 1e-3

    def test_nonzero_on_unit_sphere_of_d(self):
        # points with sum of squares = 1 cannot satisfy the equation for
        # either sign (away from the symmetric point)
        rng = np.random.default_rng(30)
        found = 0
        while found < 200:
            v = np.abs(rng.normal(size=3))
            v /= np.linalg.norm(v)
            d = SideParameters(*v)
            if algebra.equilateral_factor(*d.as_tuple()) < 1e-3 or algebra.chi_squared(*d.as_tuple()) <= 1e-12:
                continue
            found += 1
            chi = _chi(d)
            assert abs(_uniform_sign_residual(d, chi, -1)) > 1e-12
            assert abs(_uniform_sign_residual(d, chi, +1)) > 1e-12

    def test_signs_cannot_vanish_simultaneously(self):
        for t in random_triangles(1000, seed=31):
            d = side_parameters(t)
            if algebra.equilateral_factor(*d.as_tuple()) < 1e-9:
                continue
            chi = _chi(d)
            r_out = abs(_uniform_sign_residual(d, chi, -1))
            r_in = abs(_uniform_sign_residual(d, chi, +1))
            assert max(r_out, r_in) > 1e-12


class TestEpsilonFromD:
    def test_known_d(self):
        # (1 - 28/25) < 0 and (1 - 22/25) > 0, so the product is negative
        assert _epsilon_from_d(SideParameters(*NAPOLEONIC_D)) == -1

    def test_locus_points_always_outward(self):
        for d in sample_napoleonic_d(200, seed=32):
            if algebra.equilateral_factor(*d.as_tuple()) < 1e-6:
                continue
            assert _epsilon_from_d(d) == -1

    def test_symmetric_point_indeterminate(self):
        with pytest.raises(ValueError, match="vanishes within tolerance"):
            _epsilon_from_d(SYMMETRIC_POINT)


class TestClassify:
    def test_known_napoleonic_triangle(self, napoleonic_triangle):
        report = classify(napoleonic_triangle)
        assert report.verdict is Verdict.OUTWARD_NAPOLEONIC
        assert report.predicted_rr == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert report.predicted_side == pytest.approx(math.pi - math.acos(1.0 / 3.0), abs=1e-12)
        assert report.epsilon_sign == -1

    def test_equilateral_triangle(self):
        report = classify(new_triangle(*equilateral_vertices(-1.0 / 3.0)))
        assert report.verdict is Verdict.EQUILATERAL
        assert report.predicted_rr is None
        assert report.note is not None

    def test_scalene_triangle(self, scalene_triangle):
        report = classify(scalene_triangle)
        assert report.verdict is Verdict.NOT_NAPOLEONIC
        assert report.predicted_rr is None

    def test_symmetric_point_is_equilateral_not_napoleonic_verdict(self):
        # lies on the quadric, but the equilateral verdict takes precedence
        report = classify_d(SYMMETRIC_POINT)
        assert abs(report.condition_residual) < 1e-12
        assert report.verdict is Verdict.EQUILATERAL

    @pytest.mark.filterwarnings("ignore::napsphere.errors.BoundaryConditioningWarning")
    def test_outward_verdict_matches_construction(self):
        for d in sample_napoleonic_d(100, seed=33):
            if algebra.equilateral_factor(*d.as_tuple()) < 1e-6:
                continue
            t = realize(d)
            report = classify(t)
            assert report.verdict is Verdict.OUTWARD_NAPOLEONIC
            res = napoleonise(t, OUTWARD)
            for rr in res.centroid_inners:
                assert rr == pytest.approx(-1.0 / 3.0, abs=1e-9)


class TestClassifyThresholds:
    # cres = 0.02 and eqf = 0.28 here, so each threshold can be set to the other quantity.
    D = SideParameters(0.3, 0.5, 0.9)

    def test_equilateral_threshold_is_strict(self):
        eqf = algebra.equilateral_factor(*self.D.as_tuple())
        assert classify_d(self.D, tol=eqf).verdict is Verdict.OUTWARD_NAPOLEONIC

    def test_condition_threshold_is_strict(self):
        cres = algebra.condition(*self.D.as_tuple()) - 2.0
        assert classify_d(self.D, tol=abs(cres)).verdict is Verdict.NOT_NAPOLEONIC

    def test_unrealizable_d_reports_zero_chi(self):
        report = classify_d(SideParameters(math.sqrt(2.0), math.sqrt(2.8), math.sqrt(0.4)))
        assert report.chi == 0.0
        assert report.verdict is Verdict.NOT_NAPOLEONIC


class TestChiRelation:
    def test_known_d(self):
        d = SideParameters(*NAPOLEONIC_D)
        assert _chi_relation_check(d, _chi(d)) == pytest.approx(0.0, abs=1e-12)

    def test_locus_samples(self):
        for d in sample_napoleonic_d(1000, seed=34):
            assert abs(_chi_relation_check(d, _chi(d))) < 1e-10

    def test_off_locus_nonzero(self):
        d = side_parameters(new_triangle(*SCALENE_VERTICES))
        assert abs(_chi_relation_check(d, _chi(d))) > 1e-3


def test_positivity_of_sum_minus_product_on_random_d():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        d0, d1, d2 = rng.uniform(1e-6, math.sqrt(3.0) - 1e-6, size=3)
        assert d0 + d1 + d2 - d0 * d1 * d2 > 0.0


def test_reverse_direction_at_safe_margins():
    # Non-equilateral triangles away from the quadric admit no equilateral
    # uniform-sign construction.  Margins here are set where the residual
    # floor 1e-4 is provably clear of the continuous decay to zero near the
    # equilateral family and near the quadric (see the decisions ledger for
    # why the tighter 1e-3 margins of the acceptance criteria cannot hold).
    checked = 0
    for t in random_triangles(2000, seed=36):
        d = side_parameters(t)
        if algebra.equilateral_factor(*d.as_tuple()) <= 1e-2:
            continue
        if abs(algebra.condition(*d.as_tuple()) - 2.0) <= 1e-2:
            continue
        checked += 1
        assert napoleonise(t, OUTWARD).equilateral_residual > 1e-4
        assert napoleonise(t, INWARD).equilateral_residual > 1e-4
    assert checked > 1500
