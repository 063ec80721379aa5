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

    ``q_i``/``r_i`` sit opposite the triangle's stored vertex ``p_i`` (they
    are built on the edge joining the other two vertices).  The residual is
    the maximum pairwise difference of the three centroid inner products; it
    vanishes exactly when the Napoleonisation is equilateral.
    """

    q0: UnitVector
    q1: UnitVector
    q2: UnitVector
    r0: UnitVector
    r1: UnitVector
    r2: UnitVector
    rr01: float
    rr12: float
    rr20: float
    equilateral_residual: float
    signs: SignVector
    near_boundary: bool = False

    @property
    def apexes(self) -> tuple[UnitVector, UnitVector, UnitVector]:
        return (self.q0, self.q1, self.q2)

    @property
    def centroids(self) -> tuple[UnitVector, UnitVector, UnitVector]:
        return (self.r0, self.r1, self.r2)

    @property
    def centroid_inners(self) -> tuple[float, float, float]:
        return (self.rr01, self.rr12, self.rr20)

    @property
    def centroids_coincident(self) -> bool:
        """True when all three centroids agree to ~1e-9 (inner products ~ 1)."""
        return min(self.rr01, self.rr12, self.rr20) > 1.0 - 1e-9


def _construct(a, b, eps):
    """Apexes, centroids and inner products of stacked admissible edges (a, b)
    with one sign each; every edge of a stack comes out bit for bit as alone."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.expand_dims(dot(a, b), -1)
    e = np.expand_dims(np.asarray(eps, dtype=float), -1)
    h = np.sqrt(1.0 + 2.0 * c)
    w = cross(a, b)
    q = (c * (a + b) + e * h * w) / (1.0 + c)
    r = (h * (a + b) + e * w) / (SQRT3 * (1.0 + c))
    return q, r, c[..., 0]


def apex(a, b, eps: int) -> UnitVector:
    """Apex of the equilateral spherical triangle erected on edge (a, b).

    The result Q is a unit vector with <Q,a> = <Q,b> = <a,b>; ``eps=+1``
    places it on the positive side of a x b, ``eps=-1`` on the negative side.
    """
    _edge_inner(a, b, eps)
    return _construct(a, b, eps)[0]


def edge_centroid(a, b, eps: int) -> UnitVector:
    """Spherical centroid of the equilateral triangle (a, b, apex(a, b, eps)).

    Equals ``barycentre(a, b, apex(a, b, eps))`` but is evaluated in closed
    form.
    """
    _edge_inner(a, b, eps)
    return _construct(a, b, eps)[1]


def napoleonise(t: SphericalTriangle, s: SignVector) -> NapoleonisationResult:
    """Construct apexes and centroids on every edge of *t* with signs *s*.

    ``s`` is interpreted in the vertex order originally passed to
    ``new_triangle``; q_i and r_i are indexed opposite the stored vertex p_i.
    Centroids need not be distinct: the inward construction on an
    equilateral triangle collapses all three onto the triangle's centre.
    The edges were validated by ``new_triangle``; only the boundary band is
    checked here, once for all three edges.
    """
    eff = s.oriented(t.orientation_swapped)
    q, r, c = _construct(*_opposite_edges(np.array(t.vertices)), eff.as_tuple())
    near = _near_boundary(c, stacklevel=2)
    rr01, rr12, rr20 = dot(r, r.take(_NEXT, 0)).tolist()
    residual = max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))
    return NapoleonisationResult(
        q0=q[0], q1=q[1], q2=q[2],
        r0=r[0], r1=r[1], r2=r[2],
        rr01=rr01, rr12=rr12, rr20=rr20,
        equilateral_residual=residual,
        signs=s,
        near_boundary=near,
    )


def centroid_inner_closed_form(d: SideParameters, chi: float, s: SignVector, i: int) -> float:
    """Centroid inner product <R_{i+2}, R_i> from side parameters alone.

    ``chi`` must be the positive square root of ``chi_squared(d)`` and ``s``
    the signs in the same vertex order as ``d`` (the stored triangle order).
    Valid for every sign vector, mixed signs included.
    """
    dv = d.as_tuple()
    dj = dv[(i + 1) % 3]
    return (dj * dj + 1) / algebra.gamma(*dv) * algebra.centroid_bracket(dv, chi, s.as_tuple(), i)
