"""Triangle validation, side parameters, and the derived scalar invariants."""

import math
import warnings

import numpy as np
import pytest

from napsphere import (
    OUTWARD,
    BoundaryConditioningWarning,
    CogeodesicError,
    DegenerateError,
    NapsphereError,
    TooWideError,
    apex,
    Verdict,
    apex_by_rotation,
    classify,
    dot,
    edge_centroid,
    napoleonise,
    new_triangle,
    side_parameters,
    triple,
)
from napsphere import algebra
from napsphere.oracle import random_triangles
from napsphere.triangle import BOUNDARY_BAND, SQRT3, SideParameters, _validate

from conftest import NAPOLEONIC_D, SCALENE_VERTICES, equilateral_vertices

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
BAND_TEXT = r"edge inner product -0\.49999\d* is within 1e-06 of -1/2; apex and centroid are ill-conditioned"


def _edge_at(c):
    """An edge from (1, 0, 0) whose endpoints have inner product *c*."""
    return EX, np.array([c, math.sqrt(1.0 - c * c), 0.0])


class TestNewTriangle:
    def test_known_napoleonic_vertices_accepted(self, napoleonic_triangle):
        assert napoleonic_triangle.chi > 0.0
        assert not napoleonic_triangle.orientation_swapped

    def test_cogeodesic_rejected(self):
        p0 = (1.0, 0.0, 0.0)
        p1 = (-0.5, math.sqrt(3.0) / 2.0, 0.0)
        p2 = (-0.5, -math.sqrt(3.0) / 2.0, 0.0)
        with pytest.raises(CogeodesicError):
            new_triangle(p0, p1, p2)

    def test_too_wide_rejected(self):
        with pytest.raises(TooWideError):
            new_triangle((1.0, 0.0, 0.0), (-0.6, 0.8, 0.0), (0.0, 0.0, 1.0))

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateError):
            new_triangle((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("sep", [1.01e-9, 1e-8])
    def test_near_coincident_vertices_rejected(self, sep):
        # Far enough apart for the coincidence test, but <p0, p1> rounds so
        # that d2 = sqrt(1 + 2 <p0, p1>) equals sqrt(3).
        with pytest.raises(DegenerateError, match="vertices 0 and 1 coincide"):
            new_triangle(EX, (1.0, sep, 0.0), EZ)

    def test_close_vertices_accepted_and_classified(self):
        t = new_triangle(EX, (1.0, 1e-7, 0.0), EZ)
        assert side_parameters(t).d2 < SQRT3
        assert classify(t).verdict is Verdict.NOT_NAPOLEONIC

    def test_near_pairs_rejected_or_in_range(self):
        # Random vertex pairs 1.01e-9 to 2e-8 apart: new_triangle rejects
        # the triangle, or its side parameters are all in range.
        rng = np.random.default_rng(17)
        kinds = []
        for _ in range(500):
            p, u, r = rng.normal(size=(3, 3))
            p /= np.linalg.norm(p)
            u -= (u @ p) * p
            q = p + rng.uniform(1.01e-9, 2e-8) * u / np.linalg.norm(u)
            try:
                t = new_triangle(p, q / np.linalg.norm(q), r / np.linalg.norm(r))
            except NapsphereError as exc:
                kinds.append(exc.kind)
                continue
            side_parameters(t)
        assert "Degenerate" in kinds

    def test_antipodal_rejected(self):
        with pytest.raises(DegenerateError):
            new_triangle((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

    def test_orientation_swap_recorded(self):
        t = new_triangle(*SCALENE_VERTICES)
        assert t.orientation_swapped
        assert t.chi > 0.0
        # the stored triangle is the input with vertices 1 and 2 exchanged
        assert np.allclose(t.vertices[1], SCALENE_VERTICES[2])
        assert np.allclose(t.vertices[2], SCALENE_VERTICES[1])

    @pytest.mark.parametrize(
        "point",
        [(0.0, 1.1, 0.0), (0.0, 1.0), (0.0, math.nan, 1.0), None],
        ids=["non-unit", "two-components", "nan", "none"],
    )
    def test_malformed_point_rejected(self, point):
        with pytest.raises(ValueError) as exc:
            new_triangle(EX, point, EZ)
        assert not isinstance(exc.value, NapsphereError)

    @pytest.mark.parametrize(
        "points",
        [(EX, [[0.0, 1.0, 0.0]], EZ), ([EX], [EZ], [[0.0, 1.0, 0.0]]), (1.0, 0.0, 0.0), (np.eye(3),) * 3],
        ids=["one-nested", "all-nested", "scalars", "stacked"],
    )
    def test_points_of_wrong_shape_rejected(self, points):
        with pytest.raises(ValueError) as exc:
            new_triangle(*points)
        assert not isinstance(exc.value, NapsphereError)

    def test_revalidation_is_idempotent(self, napoleonic_triangle):
        t2 = new_triangle(*napoleonic_triangle.vertices)
        assert not t2.orientation_swapped
        for a, b in zip(t2.vertices, napoleonic_triangle.vertices):
            assert np.allclose(a, b, atol=1e-15)
        assert t2.chi == pytest.approx(napoleonic_triangle.chi, abs=1e-15)


@pytest.mark.parametrize("construction", [apex, edge_centroid, apex_by_rotation])
class TestSingleEdgeRule:
    """The single-edge constructions admit an edge by new_triangle's rule."""

    @pytest.mark.parametrize(
        "edge, error",
        [((EX, EX), DegenerateError), ((EX, -EX), DegenerateError), (_edge_at(-0.5), TooWideError)],
        ids=["coincident", "antipodal", "too-wide"],
    )
    def test_rejected_with_new_triangles_kind(self, construction, edge, error):
        with pytest.raises(error):
            construction(*edge, -1)
        with pytest.raises(error):
            new_triangle(*edge, EZ)

    def test_boundary_band_warns_the_caller(self, construction):
        a, b = _edge_at(-0.5 + 1e-7)
        with pytest.warns(BoundaryConditioningWarning, match=BAND_TEXT) as record:
            construction(a, b, -1)
        assert [w.filename for w in record if w.category is BoundaryConditioningWarning] == [__file__]
        new_triangle(a, b, EZ)  # admissible

    @pytest.mark.parametrize(
        "edge",
        [(np.eye(3)[:2], np.eye(3)[1:]), ((1.0, 0.0), (0.0, 1.0)), ([EX], EZ)],
        ids=["stack-of-edges", "2-component", "nested"],
    )
    def test_one_edge_only(self, construction, edge):
        with pytest.raises(ValueError, match="3-component"):
            construction(*edge, 1)

    def test_sign_checked(self, construction):
        with pytest.raises(ValueError, match="eps"):
            construction(EX, EZ, 0)

    @pytest.mark.parametrize(
        "edge, message",
        [
            (((math.nan, 0.0, 0.0), EY), "finite"),
            ((EX, (0.0, math.inf, 0.0)), "finite"),
            (((2.0, 0.0, 0.0), (0.0, 2.0, 0.0)), "not a unit vector"),
        ],
        ids=["nan", "inf", "norm-2"],
    )
    def test_malformed_endpoint_rejected(self, construction, edge, message):
        with pytest.raises(ValueError, match=message):
            construction(*edge, 1)


def test_band_edge_is_inclusive():
    # The band is (-1/2, -1/2 + BOUNDARY_BAND]: its upper end warns, one ulp above it does not.
    c = -0.5 + BOUNDARY_BAND
    with pytest.warns(BoundaryConditioningWarning, match=BAND_TEXT):
        apex(*_edge_at(c), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryConditioningWarning)
        apex(*_edge_at(math.nextafter(c, 0.0)), 1)


def test_napoleonise_band_warning_matches_single_edge():
    t = new_triangle(*_edge_at(-0.5 + 1e-7), EZ)
    with pytest.warns(BoundaryConditioningWarning, match=BAND_TEXT) as record:
        assert napoleonise(t, OUTWARD).near_boundary
    assert [w.filename for w in record if w.category is BoundaryConditioningWarning] == [__file__]


class TestSideParameters:
    def test_known_triangle(self, napoleonic_triangle):
        d = side_parameters(napoleonic_triangle)
        assert d.as_tuple() == pytest.approx(NAPOLEONIC_D, abs=1e-15)

    def test_equilateral_third_sqrt(self):
        t = new_triangle(*equilateral_vertices(-1.0 / 3.0))
        d = side_parameters(t)
        expected = 1.0 / math.sqrt(3.0)
        assert d.as_tuple() == pytest.approx((expected,) * 3, abs=1e-12)

    def test_scalene_triangle_from_edge_inners(self):
        t = new_triangle(*SCALENE_VERTICES)
        d = side_parameters(t)
        # independent route: d_i = sqrt(1 + 2 c_i) from the stored edge inners
        expected = sorted(math.sqrt(1.0 + 2.0 * t.edge_inners[i]) for i in range(3))
        assert sorted(d.as_tuple()) == pytest.approx(expected, abs=1e-15)
        assert sorted(d.as_tuple()) == pytest.approx(
            sorted((1.6929339632083817, math.sqrt(2.0), math.sqrt(2.5))), abs=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            SideParameters(0.0, 1.0, 1.0)
        with pytest.raises(Exception):
            SideParameters(1.0, 1.0, SQRT3)

    def test_swap_invariance_up_to_transposition(self):
        t_raw = new_triangle(*SCALENE_VERTICES)
        assert t_raw.orientation_swapped
        # relabelled input that needs no swap
        t_pre = new_triangle(SCALENE_VERTICES[0], SCALENE_VERTICES[2], SCALENE_VERTICES[1])
        assert not t_pre.orientation_swapped
        assert side_parameters(t_raw).as_tuple() == side_parameters(t_pre).as_tuple()


def test_stored_edge_inners_are_the_per_pair_products_exactly():
    # new_triangle evaluates the three edge inner products as one stacked
    # product before any swap; each must equal the plain product of its two
    # stored vertices bit for bit, swapped orientations included.
    triangles = []
    for t in random_triangles(100, seed=26):
        triangles += [t, new_triangle(*t.vertices[[0, 2, 1]])]
    assert any(t.orientation_swapped for t in triangles)
    for t in triangles:
        v = t.vertices
        stacked = dot(v.take([1, 2, 0], 0), v.take([2, 0, 1], 0))
        for i in range(3):
            expected = float(v[(i + 1) % 3] @ v[(i + 2) % 3])
            assert stacked[i] == expected and t.edge_inners[i] == expected


def test_stacked_validation_matches_one_triangle_at_a_time_exactly():
    v = np.array([t.vertices for t in random_triangles(3000, seed=7)])
    v[1::2] = v[1::2].take([0, 2, 1], axis=1)  # every other triangle entered with the opposite orientation
    triangles = [new_triangle(*row) for row in v]
    vertices, edge_inners, chi, swapped = _validate(v)
    assert vertices.tobytes() == np.array([t.vertices for t in triangles]).tobytes()
    assert edge_inners.tobytes() == np.array([t.edge_inners for t in triangles]).tobytes()
    assert chi.tolist() == [t.chi for t in triangles]
    assert swapped.tolist() == [t.orientation_swapped for t in triangles] == [False, True] * 1500


def test_stacked_validation_names_vertices_within_the_first_failing_triangle():
    v = np.array([SCALENE_VERTICES, (EX, EY, EY), SCALENE_VERTICES, (EX, EX, EZ)])
    with pytest.raises(DegenerateError, match="^vertices 1 and 2 coincide$"):
        _validate(v)


@pytest.mark.parametrize("field", ["vertices", "edge_inners"])
def test_triangle_record_is_read_only(napoleonic_triangle, field):
    # edge_inners is stored, not recomputed: an in-place change to either
    # array would leave the two disagreeing.
    with pytest.raises(ValueError, match="read-only"):
        getattr(napoleonic_triangle, field)[0] = 0.0


class TestAlpha:
    def test_unit_sides(self):
        assert algebra.alpha(1.0, 1.0, 1.0) == 1.0

    def test_known_triangle(self):
        assert algebra.alpha(*NAPOLEONIC_D) == pytest.approx(3.0 / 50.0, abs=1e-15)

    def test_vanishes_on_unit_sphere_of_d(self):
        s = 1.0 / math.sqrt(3.0)
        assert algebra.alpha(s, s, s) == pytest.approx(0.0, abs=1e-15)


class TestChiSquared:
    def test_equilateral_value(self):
        s = 1.0 / math.sqrt(3.0)
        # (2*1*1 + 3/9 + 1/27) / 4 = 16/27
        assert algebra.chi_squared(s, s, s) == pytest.approx(16.0 / 27.0, abs=1e-15)
        t = new_triangle(*equilateral_vertices(-1.0 / 3.0))
        assert triple(*t.vertices) ** 2 == pytest.approx(16.0 / 27.0, abs=1e-12)

    def test_matches_triple_product_on_random_triangles(self):
        for t in random_triangles(1000, seed=10):
            d = side_parameters(t)
            assert algebra.chi_squared(*d.as_tuple()) == pytest.approx(t.chi**2, abs=1e-10)

    def test_known_triangle_satisfies_double_chi_relation(self):
        d = SideParameters(*NAPOLEONIC_D)
        chi = math.sqrt(algebra.chi_squared(*d.as_tuple()))
        d0, d1, d2 = d.as_tuple()
        assert 2.0 * chi == pytest.approx(d0 + d1 + d2 - d0 * d1 * d2, abs=1e-12)
