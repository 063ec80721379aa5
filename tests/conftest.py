"""Shared reference data for the test suite.

``NAPOLEONIC_*`` is a known outward-Napoleonic, non-isosceles triangle with
exact algebraic coordinates; its apexes, centroids, and barycentres are
closed-form values that every construction routine must reproduce.
``SCALENE_*`` is a small scalene triangle that is not Napoleonic; the
centroid distances of its outward construction are a fixed regression
target.  :func:`random_triangles` draws seeded uniform triangles to check
against, and :func:`opposite_edges` gathers a vertex array's edges.
"""

import math

import numpy as np
import pytest

S2451 = math.sqrt(2451.0)
S4902 = math.sqrt(4902.0)

# Outward-Napoleonic and not isosceles; edge inner products -7/50, -17/50, -23/50.
NAPOLEONIC_VERTICES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([-7.0 / 50.0, S2451 / 50.0, 0.0]),
    np.array([-17.0 / 50.0, -423.0 * S2451 / 40850.0, 46.0 * S4902 / 4085.0]),
)

# Apex opposite vertex i, built on the edge joining the other two vertices,
# all directed away from the interior.
NAPOLEONIC_APEXES = (
    np.array([0.0, -23.0 / S2451, -31.0 * math.sqrt(2.0 / 2451.0)]),
    np.array([-17.0 / 50.0, -1019.0 / (50.0 * S2451), -(148.0 / 5.0) * math.sqrt(2.0 / 2451.0)]),
    np.array([-7.0 / 50.0, -(7.0 / 50.0) * math.sqrt(57.0 / 43.0), -(3.0 / 5.0) * math.sqrt(114.0 / 43.0)]),
)

NAPOLEONIC_CENTROIDS = (
    np.array([-(2.0 / 5.0) * math.sqrt(6.0), (8.0 / 15.0) * math.sqrt(2.0 / 817.0), -17.0 / (3.0 * math.sqrt(817.0))]),
    np.array([(2.0 / 5.0) * math.sqrt(2.0 / 3.0), -(286.0 / 15.0) * math.sqrt(2.0 / 817.0), -5.0 / (3.0 * math.sqrt(817.0))]),
    np.array([math.sqrt(6.0) / 5.0, (3.0 / 5.0) * math.sqrt(38.0 / 43.0), -math.sqrt(19.0 / 43.0)]),
)

# Printed to six decimals; barycentres of the triangle and of its
# outward-construction centroid triangle.
NAPOLEONIC_BARYCENTRE = np.array([0.491354, 0.451198, 0.744978])
NAPOLEONIC_NAPOLEON_BARYCENTRE = np.array([-0.163299, -0.352936, -0.921287])

# Side parameters of the triangle above (exact: sqrt(2)/5 * (1, 2, 3)).
NAPOLEONIC_D = (math.sqrt(2.0) / 5.0, 2.0 * math.sqrt(2.0) / 5.0, 3.0 * math.sqrt(2.0) / 5.0)

# Small scalene triangle, not Napoleonic (raw vertex order is negatively
# oriented, which exercises the orientation anchoring of sign vectors).
SCALENE_VERTICES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([3.0 / 4.0, 1.0 / 4.0, math.sqrt(6.0) / 4.0]),
    np.array([1.0 / 2.0, 1.0 / 2.0, math.sqrt(2.0) / 2.0]),
)

# Pairwise centroid distances of the outward construction on the scalene
# triangle, in the vertex order given above.
SCALENE_CENTROID_DISTANCES = (0.474066, 0.490357, 0.448728)


def equilateral_vertices(inner: float = -1.0 / 3.0):
    """Vertices of an equilateral triangle with the given edge inner product.

    The third vertex is solved for directly in the {p0, p1, p0 x p1} frame
    (positively oriented), independent of the package's own constructions.
    """
    c = inner
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([c, math.sqrt(1.0 - c * c), 0.0])
    a0 = a1 = c / (1.0 + c)
    b = math.sqrt((1.0 - (a0 * a0 + a1 * a1 + 2.0 * a0 * a1 * c)) / (1.0 - c * c))
    p2 = a0 * p0 + a1 * p1 + b * np.cross(p0, p1)
    return (p0, p1, p2 / np.linalg.norm(p2))


def opposite_edges(v):
    """Endpoints (P_{i+1}, P_{i+2}) of the edges opposite each vertex of a vertex array (..., 3, 3)."""
    return v[..., [1, 2, 0], :], v[..., [2, 0, 1], :]


def random_triangles(count: int, seed: int):
    """Deterministic list of *count* uniformly random valid triangles for *seed*.

    Vertices are independent uniform points of the sphere (normalised
    Gaussian triples); candidates that ``new_triangle`` rejects are skipped.
    Each result is rebuilt in its orientation-normalised vertex order, so
    ``orientation_swapped`` is always False.
    """
    from napsphere import NapsphereError, new_triangle

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        try:
            t = new_triangle(v[0], v[1], v[2])
        except NapsphereError:
            continue
        if t.orientation_swapped:
            t = new_triangle(*t.vertices)
        out.append(t)
    return out


@pytest.fixture
def napoleonic_triangle():
    from napsphere import new_triangle

    return new_triangle(*NAPOLEONIC_VERTICES)


@pytest.fixture
def scalene_triangle():
    from napsphere import new_triangle

    return new_triangle(*SCALENE_VERTICES)
