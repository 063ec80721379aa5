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
Those six are rotated and barycentred at once, from the angles ``-/+ arccos(c /
(1 + c))``, and then gathered into the (8 signs, 3 edges) centroid table.  Each
entry holds the bits it would have if all 24 were built, because every
operation before the gather acts entry by entry; a test compares the two.
"""

from __future__ import annotations

import numpy as np

from .core import _NEXT, barycentre
from .napoleon import _SIGNS, SignVector
from .triangle import SphericalTriangle, _check_tol, _opposite_edges


# The two signs of an apex angle as a column, -1 in row 0 and +1 in row 1; each converts exactly, so
# the angles keep their bits.
_ANGLE_SIGNS = np.array([[-1.0], [1.0]])
# Row of the (2 signs x 3 edges) apex table that each sign vector takes on each edge: 3 * sign row
# (0 for -1, 1 for +1) + edge, as an (8, 3) index table.
_APEX_ROWS = 3 * (np.array(_SIGNS) > 0) + np.arange(3)


def _rotate(v, axis, w, c, angle):
    """Rodrigues' rotation of *v* about the unit *axis* by *angle*, given the
    frame ``w = axis x v`` and ``c = <axis, v>`` (all stackable)."""
    cos = np.cos(angle)[..., None]
    sin = np.sin(angle)[..., None]
    return v * cos + w * sin + axis * (np.asarray(c)[..., None] * (1.0 - cos))


def search_equilateral(t: SphericalTriangle, tol: float) -> list[tuple[SignVector, float]]:
    """All sign vectors whose Napoleonisation of *t* is equilateral within *tol*.

    Works entirely from rotation-based apexes and barycentres (never the
    closed-form centroid or inner-product formulas).  Signs are interpreted
    in the stored vertex order of *t*.  Returns (sign vector, residual)
    pairs with residual < *tol*, sorted by residual, ties in search order; an
    empty list means no equilateral Napoleonisation exists at this tolerance;
    ``inf`` lists all eight.  NaN or a negative *tol* is ``ValueError``.
    """
    _check_tol(tol)
    a, b = _opposite_edges(t.vertices)
    c = t.edge_inners
    angles = _ANGLE_SIGNS * np.arccos(c / (1.0 + c))  # (2 signs, 3 edges)
    r = barycentre(a, b, _rotate(b, a, t.edge_normals, c, angles)).reshape(6, 3).take(_APEX_ROWS, 0)
    rr = np.vecdot(r, r.take(_NEXT, 1))  # r is (8 signs, 3 edges, 3)
    residuals = np.abs(rr - rr.take(_NEXT, 1)).max(axis=1).tolist()
    hits = [(s, res) for s, res in zip(_SIGNS, residuals) if res < tol]
    hits.sort(key=lambda pair: pair[1])
    return hits
