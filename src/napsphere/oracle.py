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
<a, b>.  It is evaluated for all eight sign vectors and three edges at once.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import _NEXT, barycentre, dot
from .napoleon import SignVector
from .triangle import SphericalTriangle, _check_tol, _opposite_edges


# Sign vectors in search order: e0 varies slowest, each from -1 to +1.
_SIGNS = [SignVector(*e) for e in itertools.product((-1, +1), repeat=3)]
# The same signs as one (8, 3) float table; each +-1 converts exactly, so the angles keep their bits.
_SIGN_TABLE = np.array([s.as_tuple() for s in _SIGNS], dtype=float)


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
    pairs sorted by residual; an empty list means no equilateral
    Napoleonisation exists at this tolerance; ``inf`` lists all eight.  NaN
    or a negative *tol* is ``ValueError``.
    """
    _check_tol(tol)
    a, b = _opposite_edges(t.vertices)
    c = t.edge_inners
    angles = _SIGN_TABLE * np.arccos(c / (1.0 + c))
    r = barycentre(a, b, _rotate(b, a, t.edge_normals, c, angles))  # (8 signs, 3 edges, 3)
    rr = dot(r, r.take(_NEXT, 1))
    residuals = np.abs(rr - rr.take(_NEXT, 1)).max(axis=1).tolist()
    hits = [(s, res) for s, res in zip(_SIGNS, residuals) if res < tol]
    hits.sort(key=lambda pair: pair[1])
    return hits
