"""Apex and centroid constructions, Napoleonisations, and the closed form."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from napsphere import (
    INWARD,
    OUTWARD,
    NapsphereError,
    SignVector,
    TooWideError,
    barycentre,
    centroid_inner_closed_form,
    dot,
    napoleonise,
    new_triangle,
    side_parameters,
    spherical_distance,
)
from napsphere import algebra
from napsphere.triangle import _opposite_edges

from conftest import (
    NAPOLEONIC_APEXES,
    NAPOLEONIC_CENTROIDS,
    NAPOLEONIC_D,
    SCALENE_CENTROID_DISTANCES,
    SCALENE_VERTICES,
    equilateral_vertices,
    random_triangles,
)

ALL_SIGNS = [SignVector(*e) for e in itertools.product((-1, 1), repeat=3)]


EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def _near_boundary_triangle(offset):
    """A triangle whose edge opposite vertex 2, from (1, 0, 0) in the xy-plane, has inner
    product -1/2 + *offset*; its normal points along +z and no swap occurs."""
    c = -0.5 + offset
    return new_triangle(EX, (c, math.sqrt(1.0 - c * c), 0.0), EZ)


def _rows(triangles):
    """Each triangle with each sign vector: the triangle, the signs in stored order and the result."""
    for t in triangles:
        for s in ALL_SIGNS:
            yield t, s.oriented(t.orientation_swapped).as_tuple(), napoleonise(t, s)


class TestApex:
    """Properties of each row of ``NapoleonisationResult.apexes``."""

    def test_near_width_boundary_converges_to_unique_apex(self):
        # At the width boundary the apex degenerates to -(a+b); just inside
        # it must be close to that limit (error ~ sqrt(2*offset)*sqrt(3)).
        t = _near_boundary_triangle(1e-6)
        limit = np.array([-0.5, -math.sqrt(3.0) / 2.0, 0.0])
        for s in (OUTWARD, INWARD):
            assert np.linalg.norm(napoleonise(t, s).apexes[2] - limit) < 5e-3

    def test_known_triangle_apexes(self, napoleonic_triangle):
        res = napoleonise(napoleonic_triangle, OUTWARD)
        for got, expected in zip(res.apexes, NAPOLEONIC_APEXES):
            assert np.allclose(got, expected, atol=1e-12)

    def test_sign_selects_side_of_cross_product(self):
        for t, eps, res in _rows(random_triangles(50, seed=20)):
            assert np.array_equal(np.sign(dot(res.apexes, t.edge_normals)), eps)

    def test_equidistance(self):
        for t, _, res in _rows(random_triangles(100, seed=21)):
            a, b = _opposite_edges(t.vertices)
            q = res.apexes
            assert np.abs(dot(q, a) - t.edge_inners).max() < 1e-12
            assert np.abs(dot(q, b) - t.edge_inners).max() < 1e-12
            assert np.abs(dot(q, q) - 1.0).max() < 1e-12

    def test_swapping_endpoints_negates_sign(self):
        # Entering vertices 1 and 2 exchanged reverses every edge, so the caller's
        # sign for it builds what the negated sign builds on the other entry.
        for v in (t.vertices for t in random_triangles(50, seed=22)):
            kept, swapped = new_triangle(*v), new_triangle(*v[[0, 2, 1]])
            assert swapped.orientation_swapped
            for e0, e1, e2 in itertools.product((-1, 1), repeat=3):
                got = napoleonise(swapped, SignVector(e0, e1, e2))
                expected = napoleonise(kept, SignVector(-e0, -e2, -e1))
                assert np.array_equal(got.apexes, expected.apexes)
                assert np.array_equal(got.centroids, expected.centroids)

    def test_too_wide_rejected(self):
        # At c = -1/2 exactly the apexes would coincide; new_triangle refuses the triangle.
        with pytest.raises(TooWideError):
            _near_boundary_triangle(0.0)

    def test_boundary_band_flagged_on_any_edge(self):
        # Whichever edge lies in the band, the one check over all three edges flags it.
        for row in range(3):
            t = new_triangle(*np.roll(_near_boundary_triangle(1e-7).vertices, row - 2, axis=0))
            assert t.edge_inners[row] == -0.5 + 1e-7
            assert napoleonise(t, OUTWARD).near_boundary


class TestEdgeCentroid:
    """Properties of each row of ``NapoleonisationResult.centroids``."""

    def test_near_width_boundary_centroid_approaches_pole(self):
        # The inward centroid of the maximal equilateral triangle on this
        # edge is the north pole; at offset 1e-6 the distance is ~1.6e-3
        # (scales as sqrt(8/3 * offset)).
        t = _near_boundary_triangle(1e-6)
        r = napoleonise(t, INWARD).centroids[2]
        assert np.linalg.norm(r - EZ) < 2e-3

    def test_matches_barycentre_of_apex_triangle(self):
        for t, _, res in _rows(random_triangles(100, seed=23)):
            v = t.vertices
            for i in range(3):
                via_barycentre = barycentre(v[(i + 1) % 3], v[(i + 2) % 3], res.apexes[i])
                assert np.allclose(res.centroids[i], via_barycentre, atol=1e-12)


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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sign_rule_in_input_order_for_both_orientations(self, seed):
        # Sign i picks the side of the edge normal P_{i+1} x P_{i+2} taken in the input order, so
        # the apex opposite input vertex i is on the interior side exactly when e_i times the
        # sign of the input's triple product is +1; after a swap that apex is row [0, 2, 1][i].
        rng = np.random.default_rng(seed)
        while True:
            p = rng.normal(size=(3, 3))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            try:
                new_triangle(*p)
                break
            except NapsphereError:
                continue
        for vertices in (p, p[[0, 2, 1]]):  # one of the two orders is swapped by new_triangle
            t = new_triangle(*vertices)
            orientation = np.sign(np.linalg.det(vertices))
            for s in ALL_SIGNS:
                apexes = napoleonise(t, s).apexes
                for i, e in enumerate(s.as_tuple()):
                    q = apexes[[0, 2, 1][i] if t.orientation_swapped else i]
                    normal = np.cross(vertices[(i + 1) % 3], vertices[(i + 2) % 3])
                    interior = np.sign(q @ normal) == np.sign(vertices[i] @ normal)
                    assert interior == (e * orientation == 1)

    @pytest.mark.parametrize("signs, name", [((0, 1, 1), "e0"), ((1, -1, 2), "e2")])
    def test_sign_vector_entries_checked(self, signs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be -1 or \+1$"):
            SignVector(*signs)


def test_sign_vector_is_a_validated_tuple_of_its_signs():
    # The repr, str and hash of the frozen dataclass it replaced; equality with the plain tuple of
    # its signs is the one new behaviour.
    assert repr(OUTWARD) == "SignVector(e0=-1, e1=-1, e2=-1)"
    assert (str(OUTWARD), str(SignVector(+1, -1, +1))) == ("---", "+-+")
    assert hash(SignVector(1, -1, 1)) == hash((1, -1, 1))
    assert OUTWARD == (-1, -1, -1) and OUTWARD.as_tuple() == (-1, -1, -1) and OUTWARD != INWARD
    for bad in ((-1, 0, 1), (1, 2, 1)):
        with pytest.raises(ValueError, match=r"^e1 must be -1 or \+1$"):
            SignVector(*bad)
        with pytest.raises(ValueError, match=r"^e1 must be -1 or \+1$"):
            SignVector._make(bad)
    with pytest.raises(ValueError, match=r"^e1 must be -1 or \+1$"):
        OUTWARD._replace(e1=0)
    for name in ("e0", "e1", "e2"):
        with pytest.raises(AttributeError):
            setattr(OUTWARD, name, 1)
    with pytest.raises(AttributeError):
        OUTWARD.extra = 1
    assert OUTWARD == SignVector(-1, -1, -1)  # unchanged


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
    def test_flag_set_on_near_boundary_triangle(self):
        c = -0.5 + 5e-7
        p0 = np.array([1.0, 0.0, 0.0])
        p1 = np.array([c, math.sqrt(1.0 - c * c), 0.0])
        p2 = np.array([0.2, 0.3, 0.9])
        p2 /= np.linalg.norm(p2)
        t = new_triangle(p0, p1, p2)
        assert napoleonise(t, OUTWARD).near_boundary

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
