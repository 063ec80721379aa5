"""Rotation-based apexes, the exhaustive sign-vector search, and the rotation chain."""

import itertools
import math

import numpy as np

import napsphere
from napsphere import (
    INWARD,
    OUTWARD,
    SignVector,
    Verdict,
    classify,
    napoleonise,
    new_triangle,
    search_equilateral,
    side_parameters,
)
from napsphere import NapsphereError, algebra, realize, sample_napoleonic_d
from napsphere.core import _NEXT, barycentre, dot
from napsphere.oracle import _rotate
from napsphere.triangle import _opposite_edges

from conftest import NAPOLEONIC_APEXES, equilateral_vertices, random_triangles


def _apexes_by_rotation(t, s):
    """The apexes of *t* with signs *s* (caller's order) as ``search_equilateral`` builds them:
    b rotated about a by the equilateral vertex angle, on the stored frame."""
    a, b = _opposite_edges(t.vertices)
    c = t.edge_inners
    eps = np.array(s.oriented(t.orientation_swapped).as_tuple(), dtype=float)
    return _rotate(b, a, t.edge_normals, c, eps * np.arccos(c / (1.0 + c)))


def _search_reference(t):
    """Reference: ``search_equilateral(t, inf)`` with all 24 apexes rotated and barycentred, one
    per sign vector and edge, from the full (8, 3) angle table."""
    signs = [SignVector(*e) for e in itertools.product((-1, +1), repeat=3)]
    a, b = _opposite_edges(t.vertices)
    c = t.edge_inners
    angles = np.array(signs, dtype=float) * np.arccos(c / (1.0 + c))
    r = barycentre(a, b, _rotate(b, a, t.edge_normals, c, angles))  # (8 signs, 3 edges, 3)
    rr = dot(r, r.take(_NEXT, 1))
    residuals = np.abs(rr - rr.take(_NEXT, 1)).max(axis=1).tolist()
    return sorted(zip(signs, residuals), key=lambda pair: pair[1])


class TestApexByRotation:
    def test_agrees_with_closed_form(self):
        worst = 0.0
        for t in random_triangles(300, seed=60):
            for e in itertools.product((-1, 1), repeat=3):
                s = SignVector(*e)
                worst = max(worst, np.abs(_apexes_by_rotation(t, s) - napoleonise(t, s).apexes).max())
        assert worst < 1e-10

    def test_known_triangle_apexes(self, napoleonic_triangle):
        for got, expected in zip(_apexes_by_rotation(napoleonic_triangle, OUTWARD), NAPOLEONIC_APEXES):
            assert np.allclose(got, expected, atol=1e-12)

    def test_boundary_adjacent_pair_flagged_and_close(self):
        c = -0.5 + 1e-7
        t = new_triangle((1.0, 0.0, 0.0), (c, math.sqrt(1.0 - c * c), 0.0), (0.0, 0.0, 1.0))
        assert t.edge_inners[2] == c
        res = napoleonise(t, OUTWARD)
        assert res.near_boundary
        # agreement degrades near the boundary but stays far better than the
        # construction's own distance to the limiting apex
        assert np.abs(_apexes_by_rotation(t, OUTWARD) - res.apexes).max() < 1e-8


class TestSearchEquilateral:
    def test_known_napoleonic_triangle_contains_outward(self, napoleonic_triangle):
        hits = search_equilateral(napoleonic_triangle, tol=1e-9)
        signs = {s.as_tuple() for s, _ in hits}
        assert OUTWARD.as_tuple() in signs

    def test_scalene_triangle_has_no_uniform_hit(self, scalene_triangle):
        hits = search_equilateral(scalene_triangle, tol=1e-4)
        uniform = {s.as_tuple() for s, _ in hits} & {OUTWARD.as_tuple(), INWARD.as_tuple()}
        assert uniform == set()

    def test_equilateral_triangle_contains_both_uniform_signs(self):
        t = new_triangle(*equilateral_vertices(-1.0 / 3.0))
        hits = search_equilateral(t, tol=1e-9)
        signs = {s.as_tuple() for s, _ in hits}
        assert OUTWARD.as_tuple() in signs
        assert INWARD.as_tuple() in signs

    def test_residuals_sorted_and_below_tolerance(self, napoleonic_triangle):
        hits = search_equilateral(napoleonic_triangle, tol=1e-6)
        residuals = [r for _, r in hits]
        assert residuals == sorted(residuals)
        assert all(r < 1e-6 for r in residuals)

    def test_ties_keep_search_order_and_tolerance_is_strict(self):
        # On the octant triangle two residuals are exactly 0.0 and others tie too: equal
        # residuals keep the search order (e0 slowest, -1 before +1), and a residual equal
        # to the tolerance is not a match.
        t = new_triangle((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        search_order = list(itertools.product((-1, 1), repeat=3))
        hits = search_equilateral(t, math.inf)
        assert [r for _, r in hits[:2]] == [0.0, 0.0]
        keys = [(r, search_order.index(s.as_tuple())) for s, r in hits]
        assert keys == sorted(keys) and len(keys) == 8
        assert search_equilateral(t, 0.0) == []
        assert search_equilateral(t, hits[2][1]) == hits[:2]


def test_search_and_classification_agree_on_uniform_signs():
    # At matching tolerances, a uniform-sign equilateral construction exists
    # exactly for Equilateral / OutwardNapoleonic verdicts.  Bands around
    # both classification thresholds are excluded to avoid tolerance
    # flapping: near the quadric the outward residual decays continuously
    # through the search tolerance, and near the equilateral family both
    # residuals do (they scale like equilateral_factor^(3/2)).
    checked = 0
    for t in random_triangles(10000, seed=61):
        d = side_parameters(t)
        if 1e-8 < abs(algebra.condition(*d.as_tuple()) - 2.0) < 1e-4:
            continue
        if 1e-8 < algebra.equilateral_factor(*d.as_tuple()) < 1e-3:
            continue
        report = classify(t, tol=1e-6)
        hits = search_equilateral(t, tol=1e-6)
        uniform_hit = bool(
            {s.as_tuple() for s, _ in hits} & {OUTWARD.as_tuple(), INWARD.as_tuple()}
        )
        expected = report.verdict in (Verdict.EQUILATERAL, Verdict.OUTWARD_NAPOLEONIC)
        checked += 1
        assert uniform_hit == expected
    assert checked > 9000


def test_random_triangles_are_seeded_and_normalised():
    a = random_triangles(20, seed=62)
    b = random_triangles(20, seed=62)
    for ta, tb in zip(a, b):
        assert np.allclose(ta.vertices, tb.vertices)
        assert not ta.orientation_swapped
        assert ta.chi > 0.0


# Vertices of a regular inscribed tetrahedron, each over sqrt(3): the outward centroids
# R_0, R_1, R_2 of a triangle whose outward Napoleonisation has inner products -1/3.
CHAIN_AXES = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1)])


def _chain_rotation(axis, sense):
    """The rotation by ``sense * 120`` degrees about ``axis / sqrt(3)`` as an integer matrix:
    Rodrigues' formula with cos = -1/2 and sin = sqrt(3)/2 reads (-I + sense [axis]x + axis axis^T) / 2."""
    x, y, z = axis
    twice = -np.eye(3, dtype=int) + sense * np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]]) + np.outer(axis, axis)
    assert not (twice % 2).any()
    return twice // 2


class TestRotationChain:
    """The +120 degree rotation about R_i maps P_{i+1} to P_{i+2}, so a start point P0
    that the chain M1 M0 M2 fixes gives a triangle with Napoleon centres R_0, R_1, R_2."""

    def test_outward_chain_is_the_identity_in_integers(self):
        m0, m1, m2 = (_chain_rotation(axis, +1) for axis in CHAIN_AXES)
        assert (m1 @ m0 @ m2 == np.eye(3, dtype=int)).all()

    def test_inward_chain_is_a_half_turn(self):
        m0, m1, m2 = (_chain_rotation(axis, -1) for axis in CHAIN_AXES)
        assert (m1 @ m0 @ m2 == np.diag([-1, -1, 1])).all()

    def test_chain_triangles_are_outward_napoleonic_exactly_when_the_signs_agree(self):
        # P1 and P2 are signed permutations of P0, so the vertices are exact floats.
        m0, _, m2 = (_chain_rotation(axis, +1) for axis in CHAIN_AXES)
        rng = np.random.default_rng(63)
        kinds = {True: 0, False: 0}
        for p0 in rng.normal(size=(2000, 3)):
            p0 /= np.linalg.norm(p0)
            p = (p0, m2 @ p0, m0 @ m2 @ p0)
            sigma = {np.sign(CHAIN_AXES[i] @ p[(i + 1) % 3]) for i in range(3)}
            t = new_triangle(*p)
            hits = [str(s) for s, _ in search_equilateral(t, napsphere.CLASSIFY_TOL)]
            equal = len(sigma) == 1
            kinds[equal] += 1
            if equal:
                assert classify(t).verdict is Verdict.OUTWARD_NAPOLEONIC
                assert hits == ["---"]
            else:
                assert classify(t).verdict is Verdict.NOT_NAPOLEONIC
                assert not {"---", "+++"} & set(hits)
        assert min(kinds.values()) > 100

    def test_equal_sign_chain_centroids_are_the_face_rows(self):
        # The chain fixes the outward centroids: up to order and a common sign they are
        # CHAIN_AXES / sqrt(3), here within 1e-13 of those rows, edges within the boundary
        # band included (their vertices are exact floats too).  napoleonise reads its
        # signs in the caller's vertex order and negates them when new_triangle swaps two
        # vertices, so the outward construction of a swapped triangle is the caller's INWARD
        # (the equal-sigma chains with sigma = +1 are the swapped ones).
        m0, _, m2 = (_chain_rotation(axis, +1) for axis in CHAIN_AXES)
        faces = CHAIN_AXES / math.sqrt(3.0)
        rng = np.random.default_rng(64)
        checked = 0
        for p0 in rng.normal(size=(2000, 3)):
            p0 /= np.linalg.norm(p0)
            p = (p0, m2 @ p0, m0 @ m2 @ p0)
            if len({np.sign(CHAIN_AXES[i] @ p[(i + 1) % 3]) for i in range(3)}) != 1:
                continue
            t = new_triangle(*p)
            centroids = napoleonise(t, INWARD if t.orientation_swapped else OUTWARD).centroids
            error = min(
                np.abs(centroids - sign * faces[list(order)]).max()
                for order in itertools.permutations(range(3))
                for sign in (1.0, -1.0)
            )
            assert error <= 1e-13
            checked += 1
        assert checked > 100


def _chain_triangles(count, seed):
    """Triangles of the outward chain of :class:`TestRotationChain`: P1 and P2 signed permutations of a random P0."""
    m0, _, m2 = (_chain_rotation(axis, +1) for axis in CHAIN_AXES)
    for p0 in np.random.default_rng(seed).normal(size=(count, 3)):
        p0 /= np.linalg.norm(p0)
        yield new_triangle(p0, m2 @ p0, m0 @ m2 @ p0)


def test_six_apex_search_equals_the_full_angle_table_exactly():
    # The search rotates the six distinct (sign, edge) apexes and gathers them into the eight
    # sign vectors; every residual must keep the bits of the 24-apex table, on kept and swapped
    # random triangles, realized quadric samples and rotation-chain triangles.
    rng = np.random.default_rng(65)
    uniform = []
    while len(uniform) < 300:
        v = rng.normal(size=(3, 3))
        try:
            uniform.append(new_triangle(*(v / np.linalg.norm(v, axis=1, keepdims=True))))
        except NapsphereError:
            continue
    quadric = [realize(d) for d in sample_napoleonic_d(200, seed=66)]
    chain = list(_chain_triangles(200, seed=67))
    swapped = [t.orientation_swapped for t in uniform + chain]
    assert 100 < sum(swapped) < 400
    for t in uniform + quadric + chain:
        got, expected = search_equilateral(t, math.inf), _search_reference(t)
        assert [s for s, _ in got] == [s for s, _ in expected]
        assert np.array([r for _, r in got]).tobytes() == np.array([r for _, r in expected]).tobytes()
