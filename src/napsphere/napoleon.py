"""Equilateral apexes, edge centroids, and full Napoleonisations.

For an admissible edge (a, b) with c = <a, b> in (-1/2, 1), the two unit
vectors equidistant from a and b at the common distance arccos(c) are

    Q = [c (a + b) + eps sqrt(1 + 2c) (a x b)] / (1 + c),     eps = +-1,

and the spherical centroid of the equilateral triangle (a, b, Q) is

    R = [sqrt(1 + 2c) (a + b) + eps (a x b)] / (sqrt(3) (1 + c)).

With the triangle's orientation normalised so its triple product is
positive, eps = +1 points the apex towards the triangle's interior and
eps = -1 away from it.

Sign vectors passed to :func:`napoleonise` refer to the vertex order the
caller supplied to ``new_triangle``.  When the constructor swapped two
vertices to normalise orientation, the signs are remapped internally
(negate all three and exchange the entries opposite the swapped vertices)
so the construction is anchored to the caller's labelling.

Single edges and their signs are admitted in :mod:`napsphere.triangle`, by the
rule ``new_triangle`` applies; only :class:`SignVector` checks signs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .core import _NEXT, UnitVector, cross, dot
from .triangle import SQRT3, SideParameters, SphericalTriangle
from .triangle import _check_sign, _edge_inner, _near_boundary, _opposite_edges

__all__ = [
    "SignVector",
    "OUTWARD",
    "INWARD",
    "NapoleonisationResult",
    "apex",
    "edge_centroid",
    "napoleonise",
    "centroid_inner_closed_form",
]

@dataclass(frozen=True)
class SignVector:
    """Per-edge apex directions; e_i belongs to the edge opposite vertex i."""

    e0: int
    e1: int
    e2: int

    def __post_init__(self):
        for name in ("e0", "e1", "e2"):
            _check_sign(getattr(self, name), name)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.e0, self.e1, self.e2)

    def oriented(self, swapped: bool) -> "SignVector":
        """Signs in the stored (orientation-normalised) vertex order.

        Swapping vertices 1 and 2 reverses every edge's cross product and
        exchanges which edges sit opposite vertices 1 and 2.
        """
        if not swapped:
            return self
        return SignVector(-self.e0, -self.e2, -self.e1)

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
        return "".join("+" if e > 0 else "-" for e in self.as_tuple())


OUTWARD = SignVector(-1, -1, -1)
INWARD = SignVector(+1, +1, +1)


@dataclass(frozen=True, eq=False)
class NapoleonisationResult:
    """Apexes, centroids, and centroid inner products of one construction.

    ``apexes`` and ``centroids`` are read-only (3, 3) arrays whose row ``i`` sits
    opposite the triangle's stored vertex ``i`` (built on the edge joining the
    other two vertices).  The residual is the maximum pairwise difference of
    the three centroid inner products; it vanishes exactly when the
    Napoleonisation is equilateral.
    """

    apexes: np.ndarray
    centroids: np.ndarray
    rr01: float
    rr12: float
    rr20: float
    equilateral_residual: float
    signs: SignVector
    near_boundary: bool = False

    @property
    def centroid_inners(self) -> tuple[float, float, float]:
        return (self.rr01, self.rr12, self.rr20)

    @property
    def centroids_coincident(self) -> bool:
        """True when all three centroids agree to ~1e-9 (inner products ~ 1)."""
        return min(self.rr01, self.rr12, self.rr20) > 1.0 - 1e-9


def _construct(a, b, c, eps):
    """Apexes and centroids of stacked admissible edges (a, b), with the inner
    products *c* validation computed for them and one sign each; every edge
    of a stack comes out bit for bit as alone."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.expand_dims(c, -1)
    e = np.expand_dims(np.asarray(eps, dtype=float), -1)
    h = np.sqrt(1.0 + 2.0 * c)
    w = cross(a, b)
    q = (c * (a + b) + e * h * w) / (1.0 + c)
    r = (h * (a + b) + e * w) / (SQRT3 * (1.0 + c))
    return q, r


def apex(a, b, eps: int) -> UnitVector:
    """Apex of the equilateral spherical triangle erected on edge (a, b).

    The result Q is a unit vector with <Q,a> = <Q,b> = <a,b>; ``eps=+1``
    places it on the positive side of a x b, ``eps=-1`` on the negative side.
    """
    return _construct(a, b, _edge_inner(a, b, eps), eps)[0]


def edge_centroid(a, b, eps: int) -> UnitVector:
    """Spherical centroid of the equilateral triangle (a, b, apex(a, b, eps)).

    Equals ``barycentre(a, b, apex(a, b, eps))`` but is evaluated in closed
    form.
    """
    return _construct(a, b, _edge_inner(a, b, eps), eps)[1]


def napoleonise(t: SphericalTriangle, s: SignVector) -> NapoleonisationResult:
    """Construct apexes and centroids on every edge of *t* with signs *s*.

    ``s`` is interpreted in the vertex order originally passed to
    ``new_triangle``; apex and centroid ``i`` are indexed opposite the stored
    vertex ``i``.  Centroids need not be distinct: the inward construction on
    an equilateral triangle collapses all three onto the triangle's centre.
    The edges and their inner products come from ``new_triangle``; only the
    boundary band is checked here, once for all three edges.
    """
    eff = s.oriented(t.orientation_swapped)
    near = _near_boundary(t.edge_inners, stacklevel=2)
    q, r = _construct(*_opposite_edges(t.vertices), t.edge_inners, eff.as_tuple())
    q.flags.writeable = r.flags.writeable = False
    rr01, rr12, rr20 = dot(r, r.take(_NEXT, 0)).tolist()
    residual = max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))
    return NapoleonisationResult(
        apexes=q, centroids=r,
        rr01=rr01, rr12=rr12, rr20=rr20,
        equilateral_residual=residual,
        signs=s,
        near_boundary=near,
    )


def centroid_inner_closed_form(d: SideParameters, chi: float, s: SignVector, i: int) -> float:
    """Centroid inner product <R_{i+2}, R_i> from side parameters alone.

    ``chi`` must be the positive square root of :func:`napsphere.algebra.chi_squared`
    of *d*, and ``s`` the signs in the same vertex order as ``d`` (the stored
    triangle order).  Valid for every sign vector, mixed signs included.
    """
    dv = d.as_tuple()
    dj = dv[(i + 1) % 3]
    return (dj * dj + 1) / algebra.gamma(*dv) * algebra.centroid_bracket(dv, chi, s.as_tuple(), i)
