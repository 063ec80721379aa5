"""Rotation-based apex oracle and the exhaustive sign-vector search."""

import math
import warnings

import numpy as np
import pytest

from napsphere import (
    INWARD,
    OUTWARD,
    BoundaryConditioningWarning,
    Verdict,
    apex,
    apex_by_rotation,
    classify,
    new_triangle,
    search_equilateral,
    side_parameters,
)
from napsphere import algebra

from conftest import NAPOLEONIC_APEXES, NAPOLEONIC_VERTICES, equilateral_vertices, random_triangles


def _admissible_pairs(count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        v = rng.normal(size=(2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        if float(v[0] @ v[1]) > -0.5 + 1e-6:
            pairs.append((v[0], v[1]))
    return pairs


class TestApexByRotation:
    def test_agrees_with_closed_form(self):
        worst = 0.0
        for a, b in _admissible_pairs(1000, seed=60):
            for eps in (-1, +1):
                delta = np.abs(apex_by_rotation(a, b, eps) - apex(a, b, eps)).max()
                worst = max(worst, delta)
        assert worst < 1e-10

    def test_known_triangle_apexes(self):
        p0, p1, p2 = NAPOLEONIC_VERTICES
        assert np.allclose(apex_by_rotation(p1, p2, -1), NAPOLEONIC_APEXES[0], atol=1e-12)
        assert np.allclose(apex_by_rotation(p2, p0, -1), NAPOLEONIC_APEXES[1], atol=1e-12)
        assert np.allclose(apex_by_rotation(p0, p1, -1), NAPOLEONIC_APEXES[2], atol=1e-12)

    def test_boundary_adjacent_pair_flagged_and_close(self):
        c = -0.5 + 1e-7
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([c, math.sqrt(1.0 - c * c), 0.0])
        with pytest.warns(BoundaryConditioningWarning):
            q_rot = apex_by_rotation(a, b, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryConditioningWarning)
            q_cf = apex(a, b, -1)
        # agreement degrades near the boundary but stays far better than the
        # construction's own distance to the limiting apex
        assert np.abs(q_rot - q_cf).max() < 1e-8


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
