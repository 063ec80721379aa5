"""Apex and centroid constructions, Napoleonisations, and the closed form."""

import itertools
import math
import warnings

import numpy as np
import pytest

from napsphere import (
    INWARD,
    OUTWARD,
    BoundaryConditioningWarning,
    DegenerateError,
    SignVector,
    TooWideError,
    apex,
    barycentre,
    centroid_inner_closed_form,
    dot,
    cross,
    edge_centroid,
    napoleonise,
    new_triangle,
    side_parameters,
    spherical_distance,
)
from napsphere import algebra
from napsphere.oracle import random_triangles

from conftest import (
    NAPOLEONIC_APEXES,
    NAPOLEONIC_CENTROIDS,
    NAPOLEONIC_D,
    NAPOLEONIC_VERTICES,
    SCALENE_CENTROID_DISTANCES,
    SCALENE_VERTICES,
    equilateral_vertices,
)

ALL_SIGNS = [SignVector(*e) for e in itertools.product((-1, 1), repeat=3)]


def _admissible_pairs(count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        v = rng.normal(size=(2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        if float(v[0] @ v[1]) > -0.5 + 1e-6:
            pairs.append((v[0], v[1]))
    return pairs


def _near_boundary_pair(offset):
    c = -0.5 + offset
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([c, math.sqrt(1.0 - c * c), 0.0])
    return a, b


class TestApex:
    def test_near_width_boundary_converges_to_unique_apex(self):
        # At the width boundary the apex degenerates to -(a+b); just inside
        # it must be close to that limit (error ~ sqrt(2*offset)*sqrt(3)).
        a, b = _near_boundary_pair(1e-6)
        limit = np.array([-0.5, -math.sqrt(3.0) / 2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryConditioningWarning)
            for eps in (-1, +1):
                q = apex(a, b, eps)
                assert np.linalg.norm(q - limit) < 5e-3

    def test_known_triangle_apexes(self):
        p0, p1, p2 = NAPOLEONIC_VERTICES
        assert np.allclose(apex(p1, p2, -1), NAPOLEONIC_APEXES[0], atol=1e-12)
        assert np.allclose(apex(p2, p0, -1), NAPOLEONIC_APEXES[1], atol=1e-12)
        assert np.allclose(apex(p0, p1, -1), NAPOLEONIC_APEXES[2], atol=1e-12)

    def test_sign_selects_side_of_cross_product(self):
        for a, b in _admissible_pairs(50, seed=20):
            assert dot(apex(a, b, +1), cross(a, b)) > 0.0
            assert dot(apex(a, b, -1), cross(a, b)) < 0.0

    def test_equidistance(self):
        for a, b in _admissible_pairs(200, seed=21):
            c = dot(a, b)
            for eps in (-1, +1):
                q = apex(a, b, eps)
                assert abs(dot(q, a) - c) < 1e-12
                assert abs(dot(q, b) - c) < 1e-12
                assert abs(dot(q, q) - 1.0) < 1e-12

    def test_swapping_endpoints_negates_sign(self):
        for a, b in _admissible_pairs(50, seed=22):
            for eps in (-1, +1):
                assert np.allclose(apex(b, a, eps), apex(a, b, -eps), atol=1e-14)

    def test_too_wide_rejected(self):
        a, b = _near_boundary_pair(0.0)
        with pytest.raises(TooWideError):
            apex(a, b, -1)

    def test_antipodal_rejected(self):
        with pytest.raises(DegenerateError):
            apex((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), +1)

    def test_boundary_band_warns(self):
        a, b = _near_boundary_pair(1e-7)
        with pytest.warns(BoundaryConditioningWarning):
            apex(a, b, -1)


class TestEdgeCentroid:
    def test_near_width_boundary_centroid_approaches_pole(self):
        # The inward centroid of the maximal equilateral triangle on this
        # edge is the north pole; at offset 1e-6 the distance is ~1.6e-3
        # (scales as sqrt(8/3 * offset)).
        a, b = _near_boundary_pair(1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryConditioningWarning)
            r = edge_centroid(a, b, +1)
        assert np.linalg.norm(r - np.array([0.0, 0.0, 1.0])) < 2e-3

    def test_known_triangle_centroid(self):
        _, p1, p2 = NAPOLEONIC_VERTICES
        assert np.allclose(edge_centroid(p1, p2, -1), NAPOLEONIC_CENTROIDS[0], atol=1e-12)

    def test_matches_barycentre_of_apex_triangle(self):
        for a, b in _admissible_pairs(1000, seed=23):
            for eps in (-1, +1):
                direct = edge_centroid(a, b, eps)
                via_barycentre = barycentre(a, b, apex(a, b, eps))
                assert np.allclose(direct, via_barycentre, atol=1e-12)


class TestNapoleonise:
    def test_scalene_outward_distances(self, scalene_triangle):
        # Signs refer to the caller's vertex order even though validation
        # swapped two vertices internally.
        res = napoleonise(scalene_triangle, OUTWARD)
        got = sorted(
            spherical_distance(res.centroids[i], res.centroids[(i + 1) % 3]) for i in range(3)
        )
        assert got == pytest.approx(sorted(SCALENE_CENTROID_DISTANCES), abs=1e-5)

    def test_known_triangle_outward_inner_products(self, napoleonic_triangle):
        res = napoleonise(napoleonic_triangle, OUTWARD)
        for rr in res.centroid_inners:
            assert rr == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert res.equilateral_residual < 1e-12

    def test_known_triangle_centroids_match(self, napoleonic_triangle):
        res = napoleonise(napoleonic_triangle, OUTWARD)
        for got, expected in zip(res.centroids, NAPOLEONIC_CENTROIDS):
            assert np.allclose(got, expected, atol=1e-12)

    def test_equilateral_inward_collapse(self):
        t = new_triangle(*equilateral_vertices(-1.0 / 3.0))
        res = napoleonise(t, INWARD)
        assert np.allclose(res.centroids[0], res.centroids[1], atol=1e-12)
        assert np.allclose(res.centroids[1], res.centroids[2], atol=1e-12)
        assert res.centroids_coincident

    def test_signs_follow_input_vertex_order(self):
        # Sign vectors are anchored to the vertex order the caller supplied:
        # exchanging two input vertices reverses every edge's cross product,
        # so the same sign label selects the opposite apex side.
        t_raw = new_triangle(*SCALENE_VERTICES)
        t_pre = new_triangle(SCALENE_VERTICES[0], SCALENE_VERTICES[2], SCALENE_VERTICES[1])
        assert t_raw.orientation_swapped and not t_pre.orientation_swapped
        for s_raw, s_pre in ((OUTWARD, INWARD), (INWARD, OUTWARD)):
            rs_raw = sorted(map(tuple, napoleonise(t_raw, s_raw).centroids))
            rs_pre = sorted(map(tuple, napoleonise(t_pre, s_pre).centroids))
            assert np.allclose(rs_raw, rs_pre, atol=1e-12)

    @pytest.mark.parametrize("signs, name", [((0, 1, 1), "e0"), ((1, -1, 2), "e2")])
    def test_sign_vector_entries_checked(self, signs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be -1 or \+1$"):
            SignVector(*signs)


@pytest.mark.parametrize("field", ["apexes", "centroids"])
def test_result_arrays_are_read_only(napoleonic_triangle, field):
    # rr01/rr12/rr20 and the residual are derived from them at construction
    res = napoleonise(napoleonic_triangle, OUTWARD)
    with pytest.raises(ValueError, match="read-only"):
        getattr(res, field)[0] = getattr(res, field)[1]


def _reference_edge(a, b, eps):
    """Apex and centroid of one edge, written out as the closed forms read."""
    c = float(a @ b)
    w = np.cross(a, b)
    q = (c * (a + b) + eps * math.sqrt(1.0 + 2.0 * c) * w) / (1.0 + c)
    r = (math.sqrt(1.0 + 2.0 * c) * (a + b) + eps * w) / (math.sqrt(3.0) * (1.0 + c))
    return q, r


def test_napoleonise_matches_one_edge_at_a_time_exactly():
    # All three edges are built in one stacked evaluation; each must equal
    # the per-edge closed form bit for bit, swapped orientations included.
    triangles = []
    for t in random_triangles(100, seed=26):
        triangles += [t, new_triangle(*t.vertices[[0, 2, 1]])]
    for t in triangles:
        v = t.vertices
        for s in ALL_SIGNS:
            res = napoleonise(t, s)
            for i, e in enumerate(s.oriented(t.orientation_swapped).as_tuple()):
                q, r = _reference_edge(v[(i + 1) % 3], v[(i + 2) % 3], e)
                assert np.array_equal(res.apexes[i], q) and np.array_equal(res.centroids[i], r)
            r0, r1, r2 = res.centroids
            assert res.centroid_inners == (float(r0 @ r1), float(r1 @ r2), float(r2 @ r0))


def test_equilateral_residual_is_the_largest_of_all_three_differences():
    # In 292 of these 800 cases |rr20 - rr01| alone is the largest, so a
    # residual built from two of the three differences fails here.
    third_alone = 0
    for t in random_triangles(100, seed=5):
        for s in ALL_SIGNS:
            res = napoleonise(t, s)
            diffs = (abs(res.rr01 - res.rr12), abs(res.rr12 - res.rr20), abs(res.rr20 - res.rr01))
            assert res.equilateral_residual == max(diffs)
            third_alone += diffs[2] > max(diffs[:2])
    assert third_alone > 0


class TestNearBoundaryFlag:
    def test_flag_and_warning_on_near_boundary_triangle(self):
        c = -0.5 + 5e-7
        p0 = np.array([1.0, 0.0, 0.0])
        p1 = np.array([c, math.sqrt(1.0 - c * c), 0.0])
        p2 = np.array([0.2, 0.3, 0.9])
        p2 /= np.linalg.norm(p2)
        t = new_triangle(p0, p1, p2)
        with pytest.warns(BoundaryConditioningWarning):
            res = napoleonise(t, OUTWARD)
        assert res.near_boundary

    def test_flag_clear_for_interior_triangle(self, napoleonic_triangle):
        res = napoleonise(napoleonic_triangle, OUTWARD)
        assert not res.near_boundary


class TestClosedForm:
    def test_matches_direct_construction_for_all_signs(self):
        triangles = random_triangles(1000, seed=24)
        worst = 0.0
        for t in triangles:
            d = side_parameters(t)
            chi = math.sqrt(algebra.chi_squared(*d.as_tuple()))
            for s in ALL_SIGNS:
                res = napoleonise(t, s)
                direct = {0: res.rr20, 1: res.rr01, 2: res.rr12}
                for i in range(3):
                    cf = centroid_inner_closed_form(d, chi, s, i)
                    worst = max(worst, abs(cf - direct[i]))
        assert worst < 1e-10

    def test_known_triangle_outward(self):
        from napsphere.triangle import SideParameters

        d = SideParameters(*NAPOLEONIC_D)
        chi = math.sqrt(algebra.chi_squared(*d.as_tuple()))
        for i in range(3):
            assert centroid_inner_closed_form(d, chi, OUTWARD, i) == pytest.approx(
                -1.0 / 3.0, abs=1e-12
            )

    def test_equilateral_inward_gives_unity(self):
        from napsphere.triangle import SideParameters

        s = 1.0 / math.sqrt(3.0)
        d = SideParameters(s, s, s)
        chi = math.sqrt(algebra.chi_squared(*d.as_tuple()))
        for i in range(3):
            assert centroid_inner_closed_form(d, chi, INWARD, i) == pytest.approx(1.0, abs=1e-12)


def test_gamma_positive_on_random_triangles():
    for t in random_triangles(100, seed=25):
        d = side_parameters(t)
        gamma = 3.0 * math.prod(v * v + 1.0 for v in d.as_tuple())
        assert gamma > 0.0
