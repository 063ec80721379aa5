"""An independent brute-force check of the closed-form constructions.

:func:`search_equilateral` enumerates all eight sign vectors, constructing
each Napoleonisation from rotation-based apexes and plain barycentres, and
reports every sign vector whose centroid triangle is equilateral within a
tolerance.  The apex on edge (a, b) lies at the common edge distance from
both endpoints, so it is the image of b under a rotation about a by the
equilateral vertex angle ``arccos(c / (1 + c))``; no coefficient formula from
the construction module is used.  What the two routes share is the validated
edge frame: Rodrigues' formula needs ``axis x v`` and ``<axis, v>``, which for
a rotation of b about a are the stored edge normal a x b and inner product
<a, b>.

The eight sign vectors have only six distinct apexes, one per sign and edge.
Those six are rotated and barycentred, from the angles ``-/+ arccos(c / (1 +
c))``, and the eight centroid triangles read them: each inner product
``<R_i, R_{i+1}>`` depends only on the signs of edges i and i + 1, so the
twelve distinct ones are taken once.  Each entry holds the bits it would have
if all 24 apexes were built, because the same operations run on the same
operands; a test compares the two.  Everything is Python float arithmetic on
the triangle's coordinates, with the angles from ``math.acos``, ``math.cos``
and ``math.sin``: the bits depend on the platform's libm and on nothing else.
"""

from __future__ import annotations

import math

from .core import _barycentre, _dot
from .napoleon import _SIGNS, SignVector
from .triangle import SphericalTriangle, _check_tol

# For each sign vector, where its inner products <R_0, R_1>, <R_1, R_2> and <R_2, R_0> sit in the
# search's list of the twelve distinct ones: 4 i + 2 k + m for <R_i, R_{i+1}> with sign row k on
# edge i and m on edge i + 1 (row 0 for the angle -theta, 1 for +theta).
_INNER_AT = [tuple(4 * i + 2 * (s[i] > 0) + (s[i - 2] > 0) for i in range(3)) for s in _SIGNS]


def _rotate(v, axis, w, c, cos, sin):
    """Rodrigues' rotation of the coordinate triple *v* about the unit *axis* by the angle whose
    cosine and sine are *cos* and *sin*, given the frame ``w = axis x v`` and ``c = <axis, v>``;
    Python floats, or NumPy values that broadcast."""
    k = c * (1.0 - cos)
    return (
        v[0] * cos + w[0] * sin + axis[0] * k,
        v[1] * cos + w[1] * sin + axis[1] * k,
        v[2] * cos + w[2] * sin + axis[2] * k,
    )


def _search(p, inners, normals, tol: float) -> list[tuple[SignVector, float]]:
    """:func:`search_equilateral` on a triangle's frame, as Python floats: the stored vertices *p*,
    edge inner products and edge normals, each a triple, with *tol* already checked."""
    centroids = ([], [])  # centroids[k][i]: edge i's centroid with the apex at angle -/+ theta (k = 0/1)
    for i, c in enumerate(inners):
        a, b = p[i - 2], p[i - 1]  # P_{i+1} and P_{i+2}
        theta = math.acos(c / (1.0 + c))
        for row, angle in zip(centroids, (-theta, theta)):
            row.append(_barycentre(a, b, _rotate(b, a, normals[i], c, math.cos(angle), math.sin(angle))))
    inner = [_dot(centroids[k][i], centroids[m][i - 2]) for i in range(3) for k in (0, 1) for m in (0, 1)]
    hits = []
    for s, (j0, j1, j2) in zip(_SIGNS, _INNER_AT):
        rr01, rr12, rr20 = inner[j0], inner[j1], inner[j2]
        residual = max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))
        if residual < tol:
            hits.append((s, residual))
    hits.sort(key=lambda pair: pair[1])
    return hits


def search_equilateral(t: SphericalTriangle, tol: float) -> list[tuple[SignVector, float]]:
    """All sign vectors whose Napoleonisation of *t* is equilateral within *tol*.

    Works entirely from rotation-based apexes and barycentres (never the
    closed-form centroid or inner-product formulas).  Signs are interpreted
    in the stored vertex order of *t*.  Returns (sign vector, residual)
    pairs with residual < *tol*, sorted by residual, ties in search order; an
    empty list means no equilateral Napoleonisation exists at this tolerance;
    ``inf`` lists all eight.  NaN or a negative *tol* is ``ValueError``.  This
    is :func:`_search` on the triangle's arrays.
    """
    return _search(t.vertices.tolist(), t.edge_inners.tolist(), t.edge_normals.tolist(), _check_tol(tol))
