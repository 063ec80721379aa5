"""Elementary 3-vector and unit-sphere primitives, as coordinate arithmetic.

The public functions take length-3 ``numpy`` arrays (or anything convertible),
also 3-vectors stacked on the last axis.  Points of the unit sphere are plain
arrays, validated once by :func:`unit_vector` and never re-normalised.

Underneath, every formula is written once on the coordinates of its points:
a point is an ``(x, y, z)`` triple of Python floats for one vector, or of
equal-shape NumPy columns for a stack, and the same expressions serve both.
An inner product is the plain left-to-right sum ``(a0 b0 + a1 b1) + a2 b2``
(:func:`_dot`), so every result is a fixed sequence of correctly rounded IEEE
operations and no BLAS kernel, which may fuse a multiply and an add, decides
its bits.  Only four things depend on the kind of input: the square root
(:func:`_sqrt`), the rule test (:func:`_first`), a stack's per-row choice
(``np.where``, in the triangle's swap) and building the result arrays
(:func:`_array` and ``triangle._pack``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroSumError

# |x^2+y^2+z^2 - 1| allowed on construction of a unit vector.
UNIT_NORM_TOL = 1e-9


def _first(values, flagged) -> int | None:
    """Index of the first of *values* that the rule *flagged* flags, or None.

    *values* is a sequence: one triangle's Python floats, tested one by one, or
    a stack's equal-shape columns, tested with one NumPy compare each.  Entries
    are numbered row by row, so index ``i`` of ``n`` columns is row ``i // n``
    of column ``i % n`` (:func:`_entry` reads it).  *flagged* is a module-level
    predicate, one expression that gives the same flag on a Python float as on
    an array entry."""
    if type(values[0]) is np.ndarray:
        flags = np.stack([flagged(v) for v in values], -1)
        return int(flags.argmax()) if flags.any() else None
    for i, x in enumerate(values):
        if flagged(x):
            return i
    return None


def _entry(values, i: int) -> float:
    """Entry *i* of *values*, numbered as :func:`_first` numbers them, as a Python float."""
    n = len(values)
    return float(np.ravel(values[i % n])[i // n])


def _sqrt(x):
    """The correctly rounded square root of a Python float or, entry by entry, of a column."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _dot(a, b):
    """Inner product of two coordinate triples: the plain sum ``(a0 b0 + a1 b1) + a2 b2``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def _components(a: np.ndarray):
    """The coordinates of a float array of 3-vectors (..., 3): Python floats for one vector, else columns."""
    return a.tolist() if a.ndim == 1 else (a[..., 0], a[..., 1], a[..., 2])


def _array(values, shape: tuple = (3,)) -> np.ndarray:
    """*values*, Python floats or a stack's equal-shape columns, as a float array of shape *shape*,
    or (..., *shape) for columns: a coordinate triple by default."""
    a = np.array(values) if type(values[0]) is float else np.stack(values, -1)
    return a.reshape(a.shape[:-1] + shape)


def _real(v) -> np.ndarray:
    """*v* as a float array of 3-vectors (..., 3): ``TypeError`` for complex components and
    ``ValueError`` for another last axis."""
    a = np.asarray(v)
    if a.dtype.kind == "c":  # a float conversion would drop the imaginary part
        raise TypeError(f"vector components must be real, got {a.dtype}")
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"expected 3 components, got shape {a.shape}")
    return a


def _off_unit(nsq):
    """The unit-norm rule on squared norms: flags a deviation from 1 beyond ``UNIT_NORM_TOL``, and NaN;
    a non-finite component makes its squared norm inf or NaN, which is flagged too."""
    return (abs(nsq - 1.0) > UNIT_NORM_TOL) | (nsq != nsq)


def _zero_sum(n):
    """The zero-sum rule of :func:`barycentre` on the norms of vertex sums."""
    return n < 1e-9


def _normalised(points) -> list:
    """*points*, coordinate triples, checked by :func:`unit_vector`'s rule and divided by their norms."""
    nsq = [x * x + y * y + z * z for x, y, z in points]  # _dot(p, p), written out
    i = _first(nsq, _off_unit)
    if i is not None:
        if not np.isfinite(points).all():
            raise ValueError("vector components must be finite")
        raise ValueError(f"not a unit vector: |v|^2 = {_entry(nsq, i)!r}")
    return [(x / n, y / n, z / n) for (x, y, z), n in zip(points, map(_sqrt, nsq))]


def _barycentre(p0, p1, p2):
    """:func:`barycentre` of three coordinate triples, as a coordinate triple."""
    s = (p0[0] + p1[0] + p2[0], p0[1] + p1[1] + p2[1], p0[2] + p1[2] + p2[2])
    n = _sqrt(_dot(s, s))
    if _first([n], _zero_sum) is not None:
        raise ZeroSumError("vertex sum is (near-)zero; barycentre undefined")
    return s[0] / n, s[1] / n, s[2] / n


def unit_vector(v) -> np.ndarray:
    """Validate *v* as a point (or stack of points) of the unit sphere and re-normalise it once.

    Raises ``TypeError`` for complex components, and ``ValueError`` for a
    shape other than (..., 3), a non-finite component, or a squared norm that
    deviates from 1 by more than ``UNIT_NORM_TOL``.  Callers that accept
    unnormalised input (e.g. the CLI) divide by the norm first.
    """
    return _array(_normalised([_components(_real(v))])[0])


def dot(a, b):
    """Euclidean inner product of 3-vectors over the last axis: a float for two 3-vectors, else an
    array.  Every entry is the plain left-to-right sum ``(a0 b0 + a1 b1) + a2 b2`` of its pair,
    whichever BLAS kernel the host would pick."""
    return _dot(_components(np.asarray(a, dtype=float)), _components(np.asarray(b, dtype=float)))


def spherical_distance(p, q) -> float:
    """Great-circle distance in [0, pi] between two unit vectors."""
    x = dot(p, q)
    # Clamped to [-1, 1] against rounding past +-1; NaN passes through.
    return math.acos(-1.0 if x < -1.0 else 1.0 if x > 1.0 else x)


def barycentre(p0, p1, p2) -> np.ndarray:
    """Normalised vertex sum (spherical centroid direction) of three points.

    Stacked points give one barycentre per triple.  Raises
    :class:`ZeroSumError` when some vertex sum is too small to determine a
    direction (e.g. three equally spaced cogeodesic points).
    """
    return _array(_barycentre(*(_components(np.asarray(p, dtype=float)) for p in (p0, p1, p2))))
