"""Validated spherical triangles and their side parameters.

A triangle is admissible when its vertices are pairwise distinct and
non-antipodal, every edge satisfies the strict width bound
``<p_i, p_j> > -1/2`` (so equilateral triangles with well-defined interiors
can be erected on each edge), and the vertices are not cogeodesic.  The
constructor normalises orientation: if the scalar triple product of the
vertices is negative, the second and third vertices are swapped (recorded in
``orientation_swapped``) so that the stored ``chi`` is always positive.

The coincident/antipodal (``DEGENERACY_TOL``), width and ill-conditioned band
(``BOUNDARY_BAND``) tests are one function each here, shared by :func:`new_triangle`
and the single-edge constructions; the unit-norm test is ``core.unit_vector``.

Each edge is encoded by a side parameter ``d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>)``
in (0, sqrt(3)), a monotone function of the length of the edge opposite
vertex ``i``.  :func:`napsphere.algebra.alpha` and
:func:`napsphere.algebra.chi_squared` of the side parameters reproduce
``1 + <p0,p1> + <p1,p2> + <p2,p0>`` and the squared triple product of the
vertices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _NEXT, _PREV, _first, dot, triple, unit_vector
from .errors import BoundaryConditioningWarning, CogeodesicError, DegenerateError, OutOfRangeError, TooWideError

__all__ = [
    "DEGENERACY_TOL",
    "BOUNDARY_BAND",
    "SQRT3",
    "SphericalTriangle",
    "SideParameters",
    "new_triangle",
    "side_parameters",
]

# Tolerance for distinctness / antipodality / cogeodesy checks, matching the
# unit-norm tolerance scale of core.unit_vector.
DEGENERACY_TOL = 1e-9

# Edges with <a,b> in (-1/2, -1/2 + BOUNDARY_BAND] are admissible but
# numerically ill-conditioned; constructions on them emit a warning.
BOUNDARY_BAND = 1e-6

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class SphericalTriangle:
    """Admissible, orientation-normalised vertex triple on the unit sphere.

    ``vertices`` is a read-only (3, 3) array, one stored vertex per row, and
    ``edge_inners`` the read-only (3,) array of the inner products of the edges
    opposite them, computed once by :func:`new_triangle` and read by everything
    downstream.  ``chi`` is the (positive) triple product of the vertices.
    ``orientation_swapped`` records whether vertices 1 and 2 were exchanged
    relative to the constructor input, to map indices back to that labelling.
    """

    vertices: np.ndarray
    edge_inners: np.ndarray
    chi: float
    orientation_swapped: bool = False


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


def _opposite_edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the edges opposite each vertex of a stacked (..., 3, 3) triple."""
    return v.take(_NEXT, -2), v.take(_PREV, -2)


def _reject_degenerate(a, b, message) -> None:
    """Raise :class:`DegenerateError` with ``message(i, how)`` for the first
    stacked pair (a[i], b[i]) that coincides or is antipodal (coincidence first)."""
    coincide = np.sqrt(dot(a - b, a - b)) <= DEGENERACY_TOL
    antipodal = np.sqrt(dot(a + b, a + b)) <= DEGENERACY_TOL
    if _first(coincide | antipodal) is not None:
        i, anti = divmod(_first(np.stack((coincide, antipodal), axis=-1)), 2)
        raise DegenerateError(message(i, "are antipodal" if anti else "coincide"))


def _reject_too_wide(c, message) -> None:
    """Raise :class:`TooWideError` with ``message(i, c_i)`` for the first edge
    inner product c_i <= -1/2 of *c* (one or stacked)."""
    i = _first(c <= -0.5)
    if i is not None:
        raise TooWideError(message(i, float(np.ravel(c)[i])))


def _near_boundary(c, stacklevel: int) -> bool:
    """Whether some edge inner product of *c* lies in the ill-conditioned band;
    if so, warn with *stacklevel* counted from the caller, as in ``warnings.warn``."""
    near = _first(c <= -0.5 + BOUNDARY_BAND) is not None
    if near:
        warnings.warn(
            f"edge inner product {float(np.min(c))!r} is within {BOUNDARY_BAND:g} of -1/2; "
            "apex and centroid are ill-conditioned",
            BoundaryConditioningWarning,
            stacklevel=stacklevel + 1,
        )
    return near


def _check_sign(value, name: str = "eps") -> None:
    """Raise ``ValueError`` unless *value*, the construction sign *name*, is -1 or +1."""
    if value not in (-1, +1):
        raise ValueError(f"{name} must be -1 or +1")


def _edge_inner(a, b, eps: int) -> float:
    """Inner product of one edge (a, b) given from outside the package, for a
    construction with sign *eps*: checks the sign, that each endpoint is one
    finite unit 3-vector and :func:`new_triangle`'s rule for edges; warns for
    the caller's caller.  The constructions use the caller's *a* and *b* as given."""
    _check_sign(eps)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError(f"expected two 3-component points, got shapes {a.shape} and {b.shape}")
    unit_vector((a, b))
    _reject_degenerate(a, b, lambda i, how: f"apex undefined: endpoints {how}")
    c = dot(a, b)
    _reject_too_wide(c, lambda i, ci: f"no equilateral triangle on edge with inner product {ci!r} <= -1/2")
    _near_boundary(c, stacklevel=3)
    return c


def _validate(v):
    """:func:`new_triangle`'s rules, in its order, over stacked triples (..., 3, 3), each raising for
    its first flagged entry.  Returns the read-only vertices and edge inner products, chi and the
    swap mask: the fields of :class:`SphericalTriangle`, for one triangle or stacked."""
    v = unit_vector(v)
    _reject_degenerate(v, v.take(_NEXT, -2), lambda i, how: f"vertices {i % 3} and {(i + 1) % 3} {how}")

    t = triple(v[..., 0, :], v[..., 1, :], v[..., 2, :])
    if _first(abs(t) <= DEGENERACY_TOL) is not None:
        raise CogeodesicError("vertices lie on a common great circle")

    c = dot(*_opposite_edges(v))
    _reject_too_wide(c, lambda i, ci: f"edge opposite vertex {i % 3} has inner product {ci!r} <= -1/2")
    i = _first(np.sqrt(1.0 + 2.0 * c) >= SQRT3)  # side_parameters' own expression
    if i is not None:
        raise DegenerateError(f"vertices {(i + 1) % 3} and {(i + 2) % 3} coincide: d{i % 3} rounds to sqrt(3)")

    swapped = t < 0.0
    if _first(swapped) is not None:
        flip = np.asarray(swapped)[..., None]
        v = np.where(flip[..., None], v.take([0, 2, 1], -2), v)
        c = np.where(flip, c.take([0, 2, 1], -1), c)
    v.flags.writeable = c.flags.writeable = False
    return v, c, abs(t), swapped


def new_triangle(p0, p1, p2) -> SphericalTriangle:
    """Validate three unit vectors as a spherical triangle.

    Raises ``ValueError`` for a point that is not a finite unit 3-vector,
    :class:`DegenerateError` for coincident or antipodal vertices, or so close
    that a side parameter rounds to sqrt(3), :class:`CogeodesicError` when the
    triple product vanishes within tolerance, and :class:`TooWideError` when
    some edge has inner product <= -1/2.  If the raw triple product is
    negative, ``p1`` and ``p2`` (and their edge inner products) are swapped so
    the stored orientation has positive triple product.  This is
    :func:`_validate` for one triangle.
    """
    v = np.asarray((p0, p1, p2), dtype=float)
    if v.ndim != 2:
        unit_vector(v)  # a malformed or non-unit point is reported before the shape
        raise ValueError(f"expected three 3-component points, got shape {v.shape}")
    return SphericalTriangle(*_validate(v))


def side_parameters(t: SphericalTriangle) -> SideParameters:
    """Side parameters of a validated triangle; each is guaranteed in range."""
    return SideParameters(*np.sqrt(1.0 + 2.0 * t.edge_inners).tolist())
