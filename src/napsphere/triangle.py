"""Validated spherical triangles and their side parameters.

A triangle is admissible when its vertices are pairwise distinct and
non-antipodal, every edge satisfies the strict width bound
``<p_i, p_j> > -1/2`` (so equilateral triangles with well-defined interiors
can be erected on each edge), and the vertices are not cogeodesic.  The
constructor normalises orientation: if the scalar triple product of the
vertices is negative, the second and third vertices are swapped (recorded in
``orientation_swapped``) so that the stored ``chi`` is always positive.

The coincident/antipodal (``DEGENERACY_TOL``), width and ill-conditioned band
(``BOUNDARY_BAND``) tests are one function each here; the unit-norm test is
``core.unit_vector``.

Each edge is encoded by a side parameter ``d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>)``
in (0, sqrt(3)), a monotone function of the length of the edge opposite
vertex ``i``.  :func:`napsphere.polynomials.alpha` and
:func:`napsphere.polynomials.chi_squared` of the side parameters reproduce
``1 + <p0,p1> + <p1,p2> + <p2,p0>`` and the squared triple product of the
vertices.  Side parameters are plain triples.  A validated triangle's ``d`` is
in range by construction.  A triple given from outside is checked once where
it enters, by :func:`_checked`: it must hold three numbers, each in the open
interval.  A tolerance given from outside is checked by :func:`_check_tol`.

Validation builds every edge's frame once, for all three edges (or a stack
of triangles) together: the inner products, the normals ``p_{i+1} x p_{i+2}``
with one cross product, whose first row gives the triple product, and the side
parameters with one square root.  A triangle that is swapped gets the frame
rebuilt from its stored vertices.  The record stores the frame and every
construction reads it.

Two exact tests can fire only near ``|c| = 1``: the coincidence/antipodality
test ``sqrt(<a-+b, a-+b>) <= DEGENERACY_TOL`` and the rounds-to-sqrt(3) test.
:func:`_validate` runs both, unchanged and in their place in the rule order,
when some edge inner product of its input has ``|c| >= 1 - DEGENERACY_TOL``,
and skips them otherwise, because then neither can fire.  With ``u = 2**-53``
and the forward error bound of a floating-point inner product (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1):

* The rescaled vertices have ``|a|**2 = 1`` within about ``6u``, and the
  computed ``c`` is within ``3u`` of ``<a, b>``.  So ``|a-+b|**2 = |a|**2 +
  |b|**2 -+ 2<a, b>`` exceeds ``2 DEGENERACY_TOL`` less about ``1e-15``, and
  its computed value, good to a few ``u`` relative, exceeds ``1.9e-9``.  Every
  separation is then above ``4e-5``, far above ``DEGENERACY_TOL = 1e-9``.
* ``1 + 2c < 3 - 2 DEGENERACY_TOL`` puts ``d`` below ``sqrt(3) - 5.7e-10``,
  and the rounding of the sum and the square root moves it by about ``4e-16``,
  so ``d < SQRT3``.

The bound needs vertices that are unit to rounding, as ``unit_vector``'s
rescaling leaves them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import _NEXT, _PREV, _first, _record, cross, dot, unit_vector
from .errors import BoundaryConditioningWarning, CogeodesicError, DegenerateError, OutOfRangeError, TooWideError

# Tolerance for distinctness / antipodality / cogeodesy checks, matching the
# unit-norm tolerance scale of core.unit_vector.
DEGENERACY_TOL = 1e-9

# Edges with <a,b> in (-1/2, -1/2 + BOUNDARY_BAND] are admissible but
# numerically ill-conditioned; constructions on them emit a warning.
BOUNDARY_BAND = 1e-6

SQRT3 = math.sqrt(3.0)

# Vertex order with vertices 1 and 2 exchanged; it also exchanges the edges opposite them.
_SWAP = np.array([0, 2, 1])


@dataclass(frozen=True, eq=False)
class SphericalTriangle:
    """Admissible, orientation-normalised vertex triple on the unit sphere.

    ``vertices`` is a read-only (3, 3) array, one stored vertex per row.  The
    edge frame is read-only too: ``edge_inners`` (3,) holds the inner products
    ``<P_{i+1}, P_{i+2}>`` of the edges opposite the vertices, ``edge_normals``
    (3, 3) their cross products ``P_{i+1} x P_{i+2}`` row by row, and ``d`` (3,)
    the side parameters ``sqrt(1 + 2 edge_inners)``.  :func:`new_triangle`
    computes them once and everything downstream reads them.  ``chi`` is the
    (positive) triple product of the vertices.  ``orientation_swapped`` records
    whether vertices 1 and 2 were exchanged relative to the constructor input,
    to map indices back to that labelling.
    """

    vertices: np.ndarray
    edge_inners: np.ndarray
    edge_normals: np.ndarray
    d: np.ndarray
    chi: float
    orientation_swapped: bool = False


class SideParameters(NamedTuple):
    """Edge encoding d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>), as three named floats; no check of its own."""

    d0: float
    d1: float
    d2: float

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


def _in_range(d):
    """The open-interval rule ``0 < d < sqrt(3)`` of side parameters, on floats or arrays; NaN fails it."""
    return (d > 0.0) & (d < SQRT3)


def _checked(d) -> tuple[float, float, float]:
    """Side parameters *d* from outside the package, as three Python floats; raises ``ValueError`` for
    another count and :class:`OutOfRangeError` for the first entry failing :func:`_in_range`."""
    dv = tuple(map(float, d.tolist() if isinstance(d, np.ndarray) else d))  # one call for an array row
    if len(dv) != 3:
        raise ValueError(f"expected three side parameters, got {len(dv)}")
    if not (_in_range(dv[0]) and _in_range(dv[1]) and _in_range(dv[2])):
        i = next(i for i, x in enumerate(dv) if not _in_range(x))
        raise OutOfRangeError(f"d{i} = {dv[i]!r} outside the open interval (0, sqrt(3))")
    return dv


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


def _near_boundary(c) -> bool:
    """Whether some edge inner product of *c* lies in the ill-conditioned band;
    if so, warn, attributed to the caller of :func:`napsphere.napoleon.napoleonise`."""
    near = _first(c <= -0.5 + BOUNDARY_BAND) is not None
    if near:
        warnings.warn(
            f"edge inner product {float(np.min(c))!r} is within {BOUNDARY_BAND:g} of -1/2; "
            "apex and centroid are ill-conditioned",
            BoundaryConditioningWarning,
            stacklevel=3,
        )
    return near


def _check_tol(tol: float) -> float:
    """Raise ``ValueError`` unless the tolerance *tol* is >= 0 (``inf`` included); returns *tol*."""
    if not tol >= 0.0:  # NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    return tol


def _validate(v):
    """:func:`new_triangle`'s rules, in its order, over stacked triples (..., 3, 3), each raising for
    its first flagged entry.  Returns the read-only vertices, edge inner products, edge normals and
    side parameters, chi and the swap mask: the fields of :class:`SphericalTriangle`, for one
    triangle or stacked."""
    v = unit_vector(v)
    a, b = _opposite_edges(v)
    c = dot(a, b)
    # The two exact tests below can fire only near |c| = 1 (see the module docstring).
    near = _first(abs(c) >= 1.0 - DEGENERACY_TOL) is not None
    if near:
        _reject_degenerate(v, a, lambda i, how: f"vertices {i % 3} and {(i + 1) % 3} {how}")

    w = cross(a, b)
    t = dot(v[..., 0, :], w[..., 0, :])  # the triple product <P0, P1 x P2>
    if _first(abs(t) <= DEGENERACY_TOL) is not None:
        raise CogeodesicError("vertices lie on a common great circle")

    _reject_too_wide(c, lambda i, ci: f"edge opposite vertex {i % 3} has inner product {ci!r} <= -1/2")
    if near:
        i = _first(np.sqrt(1.0 + 2.0 * c) >= SQRT3)
        if i is not None:
            raise DegenerateError(f"vertices {(i + 1) % 3} and {(i + 2) % 3} coincide: d{i % 3} rounds to sqrt(3)")

    swapped = t < 0.0
    if _first(swapped) is not None:
        v = np.where(np.asarray(swapped)[..., None, None], v.take(_SWAP, -2), v)
        # The frame rebuilt from the stored vertices: b x a and -(a x b) differ in the sign of an
        # exact zero, and dot(b, a) has the bits of dot(a, b), which a test pins.
        a, b = _opposite_edges(v)
        w, c = cross(a, b), dot(a, b)
    d = np.sqrt(1.0 + 2.0 * c)
    for field in (v, c, w, d):
        field.flags.writeable = False
    return v, c, w, d, abs(t), swapped


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
    return _record(SphericalTriangle, *_validate(v))


def side_parameters(t: SphericalTriangle) -> SideParameters:
    """``t.d`` as named Python floats; each is in range by validation."""
    return SideParameters(*t.d.tolist())
