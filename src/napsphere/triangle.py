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
``core.unit_vector``.  Each rule is one module-level predicate handed to
``core._first``, which tests one triangle's values as Python floats and a
stack's columns with one NumPy compare each.

Each edge is encoded by a side parameter ``d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>)``
in (0, sqrt(3)), a monotone function of the length of the edge opposite
vertex ``i``.  :func:`napsphere.polynomials.alpha` and
:func:`napsphere.polynomials.chi_squared` of the side parameters reproduce
``1 + <p0,p1> + <p1,p2> + <p2,p0>`` and the squared triple product of the
vertices.  Side parameters are plain triples.  A validated triangle's ``d`` is
in range by construction.  A triple given from outside is checked once where
it enters, by :func:`_checked`: it must hold three numbers, each in the open
interval.  A tolerance given from outside is checked by :func:`_check_tol`.

Validation works on the nine coordinates of the vertices, as core's module
docstring describes: Python floats for one triangle, (N,) columns for a stack,
through the same expressions (:func:`_frame`).  It builds every edge's frame
once: the inner products, the normals ``p_{i+1} x p_{i+2}`` (:func:`_cross`),
the first of which gives the triple product, and the side parameters.  The
record stores the frame and every construction reads it.  Most too-wide
triples are rejected before the frame, from their inner products alone (the
width gate below).  Every value is a fixed sequence of correctly rounded IEEE
operations, so the record's bits do not depend on the BLAS kernel or the CPU
dispatch of the host.

A swapped triangle's inner products and side parameters are the entered ones
reordered, and its normals are computed from the stored vertices.  Its stored
edge ``i`` is an entered edge reversed: the entered (a, b) becomes (b, a).
Coordinate k of ``b x a`` is ``b_{k+1} a_{k+2} - b_{k+2} a_{k+1}``, the same
two products as in ``a x b``, because IEEE multiplication commutes exactly, so
the stored normals carry the bits they would have had if the vertices had been
entered in the stored order, signed zeros included; ``-(a x b)`` would differ
in the sign of an exact zero.  That ``<b, a>`` rounds exactly like ``<a, b>``
follows the same way and is pinned by a test, so a record does not depend on
the order in which vertices 1 and 2 were entered.

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

The third gate decides the width rule before the frame.  When some edge has
``c <= -1/2``, :func:`_validate` evaluates the Gram determinant of the vertices
on the same floats, ``g = 1 - c0**2 - c1**2 - c2**2 + 2 c0 c1 c2`` (:func:`_gram`,
which :func:`napsphere.ellipsoid.realize` also uses), and if every triangle has
``g > GRAM_GATE = 1e-12`` it raises :class:`TooWideError` at once, without the
cross product and triple product ``t``.  That can change no outcome, because
then the cogeodesy rule ``|t| <= DEGENERACY_TOL``, the one rule between the
coincidence test and the width rule, cannot fire:

* In exact arithmetic ``g = t**2``, the determinant of the Gram matrix of the
  rows of ``v``, ``det(v v^T) = det(v)**2``.  Its nine entries are computed
  or taken as 1 within ``6u`` each, and each partial derivative of the
  determinant is a cofactor, at most 2 in magnitude, so the entries move
  ``g`` by at most about ``108u = 1.2e-14``; evaluating the polynomial adds a
  few ``u``.  The computed ``t``, a dot product of a cross product, is within a
  few ``u`` of ``det(v)``.  Over 200,000 uniform triples and 80,000 triples
  tilted ``1e-3`` to ``1e-12`` off a great circle, ``|g - t**2|`` stayed below
  ``1.3e-15`` (at most ``1.22e-15`` and ``9.0e-16``), with every inner
  product the plain sum of :func:`core._dot`.
* So ``g > 1e-12`` gives ``t**2 > 1e-12 - 2e-14`` and ``|t| > 9.8e-7``, far
  above ``DEGENERACY_TOL``.  No triple of those sets passed the gate with
  ``|t| <= 1e-9``; the least ``|t|`` that passed was ``1.0e-6``, and one of
  the 112,718 uniform wide triples had ``g <= 1e-12`` (``6.4e-13``), so nearly
  every rejection takes the gate.

The gate runs after the coincidence test, which precedes the width rule.  A
wide triple that the gate does not pass, and every admissible one, takes the
frame and the rules in their order, so a cogeodesic wide triple still raises
:class:`CogeodesicError`.

The bounds need vertices that are unit to rounding, as ``unit_vector``'s
rescaling leaves them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import _array, _components, _dot, _entry, _first, _normalised, _real, _sqrt, unit_vector
from .errors import CogeodesicError, DegenerateError, OutOfRangeError, TooWideError

# Tolerance for distinctness / antipodality / cogeodesy checks, matching the
# unit-norm tolerance scale of core.unit_vector.
DEGENERACY_TOL = 1e-9

# Edges with <a,b> in (-1/2, -1/2 + BOUNDARY_BAND] are admissible but
# numerically ill-conditioned; results built on them report ``near_boundary``.
BOUNDARY_BAND = 1e-6

SQRT3 = math.sqrt(3.0)

# A Gram determinant of the vertices above this excludes cogeodesy: the width rule can then be
# decided before the frame (see the module docstring).
GRAM_GATE = 1e-12

class SphericalTriangle(NamedTuple):
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
    orientation_swapped: bool

    # Equal and hashed by identity: a tuple's ``==`` would compare the array fields and raise
    # ``ValueError``, and its hash would hash them and raise ``TypeError``.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class SideParameters(NamedTuple):
    """Edge encoding d_i = sqrt(1 + 2<p_{i+1}, p_{i+2}>), as three named floats; no check of its own."""

    d0: float
    d1: float
    d2: float

    def as_tuple(self) -> tuple[float, float, float]:
        """``tuple(self)``, kept only because the benchmark's ``perfbench/workloads.py`` calls it (ROADMAP item 1)."""
        return tuple(self)


def _checked(d) -> tuple[float, float, float]:
    """Side parameters *d* from outside the package, as three Python floats; raises ``ValueError`` for
    another count and :class:`OutOfRangeError` for the first entry outside the open interval (0, sqrt(3)), NaN too."""
    dv = tuple(map(float, d.tolist() if isinstance(d, np.ndarray) else d))  # one call for an array row
    if len(dv) != 3:
        raise ValueError(f"expected three side parameters, got {len(dv)}")
    for i, x in enumerate(dv):
        if not 0.0 < x < SQRT3:
            raise OutOfRangeError(f"d{i} = {x!r} outside the open interval (0, sqrt(3))")
    return dv


def _cross(a, b):
    """The cross product ``a x b`` of two coordinate triples: coordinate k is
    ``a_{k+1} b_{k+2} - a_{k+2} b_{k+1}``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


# The rules, one module-level predicate each, true on a flagged value; each gives the same flag on a
# Python float as on an array entry (see core._first).
def _coincident(s):
    """Coincidence or antipodality: a separation ``|a -+ b|`` of at most ``DEGENERACY_TOL``."""
    return s <= DEGENERACY_TOL


def _near_unit(c):
    """The gate of the two exact tests: an edge inner product with ``|c| >= 1 - DEGENERACY_TOL``."""
    return abs(c) >= 1.0 - DEGENERACY_TOL


def _cogeodesic(t):
    """Cogeodesy: a triple product within ``DEGENERACY_TOL`` of zero."""
    return abs(t) <= DEGENERACY_TOL


def _too_wide(c):
    """The width rule: an edge inner product <= -1/2."""
    return c <= -0.5


def _in_band(c):
    """The ill-conditioned band: an edge inner product <= -1/2 + ``BOUNDARY_BAND``."""
    return c <= -0.5 + BOUNDARY_BAND


def _rounds_to_sqrt3(d):
    """A side parameter that rounds to sqrt(3)."""
    return d >= SQRT3


def _negative(t):
    """The swap rule: a negative triple product."""
    return t < 0.0


def _reject_degenerate(points) -> None:
    """Raise :class:`DegenerateError` for the first pair (P_i, P_{i+1}) of the three vertices'
    coordinate triples *points* that coincides or is antipodal (coincidence first), naming
    vertices ``i`` and ``i + 1`` of its triangle."""
    separations = []
    for i in range(3):
        (ax, ay, az), (bx, by, bz) = points[i], points[i - 2]
        difference, total = (ax - bx, ay - by, az - bz), (ax + bx, ay + by, az + bz)
        separations += (_sqrt(_dot(difference, difference)), _sqrt(_dot(total, total)))
    k = _first(separations, _coincident)
    if k is not None:
        i, anti = divmod(k, 2)
        raise DegenerateError(f"vertices {i % 3} and {(i + 1) % 3} {'are antipodal' if anti else 'coincide'}")


def _may_be_cogeodesic(g):
    """The width gate's complement: a Gram determinant ``g`` at most ``GRAM_GATE``, which leaves
    cogeodesy open."""
    return g <= GRAM_GATE


def _gram(c0, c1, c2):
    """The Gram determinant ``1 - c0^2 - c1^2 - c2^2 + 2 c0 c1 c2`` of three unit vectors with
    pairwise inner products c0, c1, c2, on floats or on columns: the squared triple product in
    exact arithmetic."""
    return 1.0 - c0 * c0 - c1 * c1 - c2 * c2 + 2.0 * c0 * c1 * c2


def _reject_too_wide(c, i) -> None:
    """Raise :class:`TooWideError` for entry *i* of the edge inner products *c* (numbered as
    :func:`core._first` numbers them) unless *i* is None; *i* is the first entry that
    :func:`_too_wide` flags."""
    if i is not None:
        raise TooWideError(f"edge opposite vertex {i % 3} has inner product {_entry(c, i)!r} <= -1/2")


def _check_tol(tol: float) -> float:
    """Raise ``ValueError`` unless the tolerance *tol* is >= 0 (``inf`` included); returns *tol*."""
    if not tol >= 0.0:  # NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    return tol


def _pack(values, shape: tuple) -> np.ndarray:
    """:func:`core._array` of *values*, read-only."""
    a = _array(values, shape)
    a.flags.writeable = False
    return a


def _frame(p0, p1, p2):
    """:func:`_validate` on the coordinate triples of the three vertices: Python floats for one
    triangle, or columns for a stack, through the same expressions."""
    p0, p1, p2 = _normalised((p0, p1, p2))
    c = _dot(p1, p2), _dot(p2, p0), _dot(p0, p1)
    # The two exact tests below can fire only near |c| = 1 (see the module docstring).
    near = _first(c, _near_unit) is not None
    if near:
        _reject_degenerate((p0, p1, p2))
    wide = _first(c, _too_wide)
    if wide is not None and _first([_gram(*c)], _may_be_cogeodesic) is None:  # the width gate
        _reject_too_wide(c, wide)

    w0 = _cross(p1, p2)
    t = _dot(p0, w0)  # the triple product <P0, P1 x P2>
    if _first([t], _cogeodesic) is not None:
        raise CogeodesicError("vertices lie on a common great circle")

    _reject_too_wide(c, wide)
    d = _sqrt(1.0 + 2.0 * c[0]), _sqrt(1.0 + 2.0 * c[1]), _sqrt(1.0 + 2.0 * c[2])
    if near:
        i = _first(d, _rounds_to_sqrt3)
        if i is not None:
            raise DegenerateError(f"vertices {(i + 1) % 3} and {(i + 2) % 3} coincide: d{i % 3} rounds to sqrt(3)")

    swapped = _negative(t)
    if _first([t], _negative) is not None:
        # Stored order (P0, P2, P1): its inner products and side parameters are the entered ones
        # reordered, and its normals are built from the stored vertices (see the module docstring).
        entered = (*p1, *p2, c[1], c[2], d[1], d[2])
        stored = (*p2, *p1, c[2], c[1], d[2], d[1])
        if type(swapped) is not bool:  # a stack: its swapped rows
            stored = [np.where(swapped, x, y) for x, y in zip(stored, entered)]
        p1, p2, (c1, c2, d1, d2) = stored[0:3], stored[3:6], stored[6:]
        c, d = (c[0], c1, c2), (d[0], d1, d2)
        w0 = _cross(p1, p2)
    w1, w2 = _cross(p2, p0), _cross(p0, p1)
    record = _pack([*p0, *p1, *p2, *c, *w0, *w1, *w2, *d], (8, 3))
    return record[..., 0:3, :], record[..., 3, :], record[..., 4:7, :], record[..., 7, :], abs(t), swapped


def _validate(v):
    """:func:`new_triangle`'s rules, in its order, over a vertex array (3, 3) or stacked triples
    (..., 3, 3), each raising for its first flagged entry.  Returns the read-only vertices, edge
    inner products, edge normals and side parameters, chi and the swap mask: the fields of
    :class:`SphericalTriangle`, for one triangle or stacked.  A stack's rows are tested and built
    as columns, each bit for bit as alone."""
    v = _real(v)
    return _frame(*(v.tolist() if v.ndim == 2 else (_components(v[..., i, :]) for i in range(3))))


def new_triangle(p0, p1, p2) -> SphericalTriangle:
    """Validate three unit vectors as a spherical triangle.

    Raises ``TypeError`` for complex components, ``ValueError`` for a point
    that is not a finite unit 3-vector, :class:`DegenerateError` for
    coincident or antipodal vertices, or so close that a side parameter rounds
    to sqrt(3), :class:`CogeodesicError` when the triple product vanishes
    within tolerance, and :class:`TooWideError` when some edge has inner
    product <= -1/2.  If the raw triple product is negative, ``p1`` and ``p2``
    (and their edge inner products) are swapped so the stored orientation has
    positive triple product.  This is :func:`_validate` for one triangle.
    """
    v = np.asarray((p0, p1, p2))  # converted to float by core._real, which refuses complex input
    if v.ndim != 2:
        unit_vector(v)  # a malformed or non-unit point is reported before the shape
        raise ValueError(f"expected three 3-component points, got shape {v.shape}")
    return SphericalTriangle(*_validate(v))


def side_parameters(t: SphericalTriangle) -> SideParameters:
    """``t.d`` as named Python floats, each in range by validation; kept only because the benchmark's
    ``perfbench/workloads.py`` calls it (ROADMAP item 1)."""
    return SideParameters(*t.d.tolist())
