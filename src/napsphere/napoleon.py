"""Equilateral apexes, edge centroids, and full Napoleonisations.

For an admissible edge (a, b) with c = <a, b> in (-1/2, 1), the two unit
vectors equidistant from a and b at the common distance arccos(c) are

    Q = [c (a + b) + eps sqrt(1 + 2c) (a x b)] / (1 + c),     eps = +-1,

and the spherical centroid of the equilateral triangle (a, b, Q) is

    R = [sqrt(1 + 2c) (a + b) + eps (a x b)] / (sqrt(3) (1 + c)).

The apex lies on the side of the great circle through a and b to which
eps (a x b) points.  On the stored triangle, whose triple product is
positive, eps = +1 therefore points the apex towards the interior and
eps = -1 away from it.

Sign vectors passed to :func:`napoleonise` are read in the vertex order the
caller supplied to ``new_triangle``: sign i picks the side of
``P_{i+1} x P_{i+2}`` of the input vertices.  When the constructor swapped
two vertices, the signs are remapped internally (negate all three and
exchange the entries opposite the swapped vertices), which keeps that rule.
So the apex opposite input vertex i lies on the interior side exactly when
e_i times the sign of the input's triple product is +1: ``OUTWARD`` builds
every apex away from the interior only for positively oriented input, and
the inward construction for negatively oriented input.  After a swap that
apex is row ``[0, 2, 1][i]`` of the result.  ``classify`` and
``search_equilateral`` read the stored triangle, so their "outward" and
their signs are geometric.

Both formulas read only the edge's frame: the sum a + b, the normal a x b,
c and sqrt(1 + 2c).  :func:`napoleonise` takes the normals, inner products
and side parameters that ``new_triangle`` stored on the triangle.
"""

from __future__ import annotations

import collections
import itertools
from typing import NamedTuple

import numpy as np

from . import polynomials
from .core import _NEXT, _dot, _first
from .triangle import SQRT3, SphericalTriangle
from .triangle import _checked, _in_band, _opposite_edges


class SignVector(collections.namedtuple("SignVector", "e0 e1 e2")):
    """Per-edge apex directions; e_i belongs to the edge opposite vertex i.

    A validated tuple of its three signs, each -1 or +1 (else ``ValueError``), with read-only fields
    (assignment raises ``AttributeError``).  Being a tuple, a sign vector compares equal to the plain
    tuple of its signs, ``SignVector(-1, -1, -1) == (-1, -1, -1)``, and hashes like it.
    """

    __slots__ = ()

    def __new__(cls, e0: int, e1: int, e2: int) -> "SignVector":
        for i, e in enumerate((e0, e1, e2)):
            if e not in (-1, +1):
                raise ValueError(f"e{i} must be -1 or +1")
        return tuple.__new__(cls, (e0, e1, e2))

    @classmethod
    def _make(cls, iterable) -> "SignVector":
        """The namedtuple constructor from an iterable, validated too (``_replace`` calls it)."""
        return cls(*iterable)

    def as_tuple(self) -> tuple[int, int, int]:
        """``tuple(self)``, kept only because the benchmark's ``perfbench/workloads.py`` calls it (ROADMAP item 1)."""
        return tuple(self)

    def oriented(self, swapped: bool) -> "SignVector":
        """Signs in the stored (orientation-normalised) vertex order.

        Swapping vertices 1 and 2 reverses every edge's cross product and
        exchanges which edges sit opposite vertices 1 and 2.
        """
        return _SWAPPED[self] if swapped else self

    @classmethod
    def parse(cls, text: str) -> "SignVector":
        """Parse 'out', 'in', or a 3-character +/- string such as '+-+'."""
        t = text.strip().lower()
        if t in ("out", "outward"):
            return OUTWARD
        if t in ("in", "inward"):
            return INWARD
        if len(t) == 3 and set(t) <= {"+", "-"}:
            return cls(*(1 if ch == "+" else -1 for ch in t))
        raise ValueError(f"cannot parse sign vector from {text!r}")

    def __str__(self) -> str:
        return "".join("+" if e > 0 else "-" for e in self)


OUTWARD = SignVector(-1, -1, -1)
INWARD = SignVector(+1, +1, +1)

# The eight sign vectors in search order: e0 varies slowest, each from -1 to +1.
_SIGNS = [SignVector(*e) for e in itertools.product((-1, +1), repeat=3)]
# Each sign vector in the stored order of a swapped triangle (see SignVector.oriented).
_SWAPPED = {s: SignVector(-s.e0, -s.e2, -s.e1) for s in _SIGNS}
# Each sign vector as the read-only (3, 1) float column that _construct multiplies by.
_COLUMN_TABLE = np.array(_SIGNS, dtype=float)[..., None]
_COLUMN_TABLE.flags.writeable = False
_COLUMNS = dict(zip(_SIGNS, _COLUMN_TABLE))


class NapoleonisationResult(NamedTuple):
    """Apexes, centroids, and centroid inner products of one construction.

    ``apexes`` and ``centroids`` are read-only (3, 3) arrays whose row ``i`` sits
    opposite the triangle's stored vertex ``i`` (built on the edge joining the
    other two vertices).  The residual is the maximum pairwise difference of
    the three centroid inner products; it vanishes exactly when the
    Napoleonisation is equilateral.  ``near_boundary`` is the one report that
    some edge inner product lies in the ill-conditioned band
    ``(-1/2, -1/2 + BOUNDARY_BAND]``.
    """

    apexes: np.ndarray
    centroids: np.ndarray
    rr01: float
    rr12: float
    rr20: float
    equilateral_residual: float
    signs: SignVector
    near_boundary: bool

    # Equal and hashed by identity: a tuple's ``==`` would compare the array fields and raise
    # ``ValueError``, and its hash would hash them and raise ``TypeError``.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def centroid_inners(self) -> tuple[float, float, float]:
        return (self.rr01, self.rr12, self.rr20)

    @property
    def centroids_coincident(self) -> bool:
        """True when all three centroids agree to ~1e-9 (inner products ~ 1)."""
        return min(self.rr01, self.rr12, self.rr20) > 1.0 - 1e-9


def _construct(s, w, c, h, e):
    """Apexes and centroids of stacked admissible edges (a, b) from the frame
    validation built for them: the sums ``s = a + b``, normals ``w = a x b``,
    inner products *c*, side parameters ``h = sqrt(1 + 2c)``, and the float
    column *e* of their signs, one per edge (a ``_COLUMNS`` entry for one
    triangle); every edge of a stack comes out bit for bit as alone."""
    c, h = np.asarray(c)[..., None], np.asarray(h)[..., None]
    c1 = 1.0 + c
    q = (c * s + e * h * w) / c1
    r = (h * s + e * w) / (SQRT3 * c1)
    return q, r


def napoleonise(t: SphericalTriangle, s: SignVector) -> NapoleonisationResult:
    """Construct apexes and centroids on every edge of *t* with signs *s*.

    ``s`` is interpreted in the vertex order originally passed to
    ``new_triangle``; apex and centroid ``i`` are indexed opposite the stored
    vertex ``i``.  Centroids need not be distinct: the inward construction on
    an equilateral triangle collapses all three onto the triangle's centre.
    The edges and their frame (normals, inner products and side parameters)
    come from ``new_triangle``; only the boundary band is checked here, once
    for all three edges.
    """
    e = _COLUMNS[s.oriented(t.orientation_swapped)]
    near = _first(t.edge_inners.tolist(), _in_band) is not None
    a, b = _opposite_edges(t.vertices)
    q, r = _construct(a + b, t.edge_normals, t.edge_inners, t.d, e)
    q.flags.writeable = r.flags.writeable = False
    rr01, rr12, rr20 = _dot(r, r.take(_NEXT, 0)).tolist()
    residual = max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))
    return NapoleonisationResult(q, r, rr01, rr12, rr20, residual, s, near)


def centroid_inner_closed_form(d, chi: float, s: SignVector, i: int) -> float:
    """Centroid inner product <R_{i+2}, R_i> from side parameters alone.

    *d* is any three numbers in (0, sqrt(3)).  ``chi`` must be the positive
    square root of :func:`napsphere.polynomials.chi_squared` of *d*, and ``s`` the
    signs in the same vertex order as ``d`` (the stored triangle order).  Valid
    for every sign vector, mixed signs included.
    """
    dv = _checked(d)
    dj = dv[(i + 1) % 3]
    return (dj * dj + 1) / polynomials.gamma(*dv) * polynomials.centroid_bracket(dv, chi, s, i)
