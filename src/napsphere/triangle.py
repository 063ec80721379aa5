"""Validated spherical triangles and their side parameters.

A triangle is admissible when its vertices are pairwise distinct and
non-antipodal, every edge satisfies the strict width bound
``<p_i, p_j> > -1/2`` (so equilateral triangles with well-defined interiors
can be erected on each edge), and the vertices are not cogeodesic.  The
constructor normalises orientation: if the scalar triple product of the
vertices is negative, the second and third vertices are swapped (recorded in
``orientation_swapped``) so that the stored ``chi`` is always positive.

Each edge is encoded by a side parameter ``d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>)``
in (0, sqrt(3)), a monotone function of the length of the edge opposite
vertex ``i``.  The quantities ``alpha`` and ``chi_squared`` derived from the
side parameters reproduce ``1 + <p0,p1> + <p1,p2> + <p2,p0>`` and the squared
triple product of the vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .core import _NEXT, _PREV, UNIT_NORM_TOL, UnitVector, dot, triple, unit_vector
from .errors import CogeodesicError, DegenerateError, OutOfRangeError, TooWideError

__all__ = [
    "DEGENERACY_TOL",
    "SQRT3",
    "SphericalTriangle",
    "SideParameters",
    "new_triangle",
    "side_parameters",
    "alpha",
    "chi_squared",
]

# Tolerance for distinctness / antipodality / cogeodesy checks, matching the
# unit-norm tolerance scale of core.unit_vector.
DEGENERACY_TOL = 1e-9

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class SphericalTriangle:
    """Admissible, orientation-normalised vertex triple on the unit sphere.

    ``chi`` is the (positive) scalar triple product of the stored vertices.
    ``orientation_swapped`` records whether ``p1`` and ``p2`` were exchanged
    relative to the constructor input; callers can use it to map indices (and
    apex directions) back to their original labelling.
    """

    p0: UnitVector
    p1: UnitVector
    p2: UnitVector
    chi: float
    orientation_swapped: bool = False

    @property
    def vertices(self) -> tuple[UnitVector, UnitVector, UnitVector]:
        return (self.p0, self.p1, self.p2)

    def edge_inner(self, i: int) -> float:
        """Inner product of the edge opposite vertex *i*."""
        v = self.vertices
        return dot(v[(i + 1) % 3], v[(i + 2) % 3])


@dataclass(frozen=True)
class SideParameters:
    """Edge encoding d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>), each in (0, sqrt(3))."""

    d0: float
    d1: float
    d2: float

    def __post_init__(self):
        for name in ("d0", "d1", "d2"):
            v = getattr(self, name)
            if not (0.0 < v < SQRT3):
                raise OutOfRangeError(f"{name} = {v!r} outside the open interval (0, sqrt(3))")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d0, self.d1, self.d2)

    def as_array(self) -> np.ndarray:
        return np.array([self.d0, self.d1, self.d2])

    def edge_inners(self) -> tuple[float, float, float]:
        """Vertex inner products (<p1,p2>, <p2,p0>, <p0,p1>) this d encodes."""
        return tuple((v * v - 1.0) / 2.0 for v in self.as_tuple())


def _opposite_edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the edges opposite each vertex of a stacked (..., 3, 3) triple."""
    return v.take(_NEXT, -2), v.take(_PREV, -2)


def _unit_rows(points) -> np.ndarray:
    """The three points as rows of one array, checked and re-normalised like
    ``unit_vector``, which raises its own error for the first bad point."""
    try:
        v = np.array(points, dtype=float)
        nsq = dot(v, v) if v.shape == (3, 3) and np.isfinite(v).all() else None
    except (TypeError, ValueError):
        nsq = None
    if nsq is None or (np.abs(nsq - 1.0) > UNIT_NORM_TOL).any():
        return np.array([unit_vector(p) for p in points])
    return v / np.sqrt(nsq)[:, None]


def new_triangle(p0, p1, p2) -> SphericalTriangle:
    """Validate three unit vectors as a spherical triangle.

    Raises :class:`DegenerateError` for coincident or antipodal vertices,
    :class:`CogeodesicError` when the triple product vanishes within
    tolerance, and :class:`TooWideError` when some edge has inner product
    <= -1/2.  If the raw triple product is negative, ``p1`` and ``p2`` are
    swapped so the stored orientation has positive triple product.
    """
    v = _unit_rows((p0, p1, p2))

    # pair i is (v[i], v[i+1]); first failing (pair, coincide/antipodal) wins
    w = v.take(_NEXT, 0)
    gaps = np.stack((v - w, v + w), axis=1)
    close = np.sqrt(dot(gaps, gaps)).ravel() <= DEGENERACY_TOL
    if close.any():
        i, antipodal = divmod(int(close.argmax()), 2)
        raise DegenerateError(f"vertices {i} and {(i + 1) % 3} {'are antipodal' if antipodal else 'coincide'}")

    t = triple(*v)
    if abs(t) <= DEGENERACY_TOL:
        raise CogeodesicError("vertices lie on a common great circle")

    c = dot(*_opposite_edges(v))
    if (c <= -0.5).any():
        i = int((c <= -0.5).argmax())
        raise TooWideError(f"edge opposite vertex {i} has inner product {float(c[i])!r} <= -1/2")

    swapped = t < 0.0
    if swapped:
        v = v[[0, 2, 1]]
        t = -t
    return SphericalTriangle(v[0], v[1], v[2], chi=t, orientation_swapped=swapped)


def side_parameters(t: SphericalTriangle) -> SideParameters:
    """Side parameters of a validated triangle; each is guaranteed in range."""
    return SideParameters(*(math.sqrt(1.0 + 2.0 * t.edge_inner(i)) for i in range(3)))


def _columns(d):
    """(d0, d1, d2) of side parameters, or the columns of an (..., 3) array of them."""
    return d.as_tuple() if isinstance(d, SideParameters) else np.moveaxis(np.asarray(d, dtype=float), -1, 0)


def alpha(d: SideParameters) -> float:
    """:func:`napsphere.algebra.alpha` of *d*, i.e. 1 + the sum of edge inner
    products; an (..., 3) array of side parameters is evaluated row-wise."""
    return algebra.alpha(*_columns(d))


def chi_squared(d: SideParameters) -> float:
    """Squared triple product of any triangle realising *d*, from the side
    parameters alone (:func:`napsphere.algebra.chi_squared`).  May be
    negative, in which case *d* is not realizable by any spherical triangle.
    Like :func:`alpha`, also evaluates an (..., 3) array row-wise."""
    return algebra.chi_squared(*_columns(d))
