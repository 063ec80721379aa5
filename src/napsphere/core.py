"""Elementary 3-vector and unit-sphere primitives.

All functions are pure and operate on length-3 ``numpy`` arrays (or anything
convertible), most also on 3-vectors stacked on the last axis.  Points of the
unit sphere are plain arrays, validated once by :func:`unit_vector` and never re-normalised.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroSumError

# |x^2+y^2+z^2 - 1| allowed on construction of a unit vector.
UNIT_NORM_TOL = 1e-9

# Cyclic successor and predecessor of each of the indices 0, 1, 2.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _first(flags) -> int | None:
    """Index of the first true entry of *flags* (one or stacked), or None."""
    if isinstance(flags, bool):  # one check on Python floats needs no array
        return 0 if flags else None
    if not np.count_nonzero(flags):  # the common case, all clear, in one cheap call
        return None
    return int(np.asarray(flags).argmax())


def unit_vector(v) -> np.ndarray:
    """Validate *v* as a point (or stack of points) of the unit sphere and re-normalise it once.

    Raises ``ValueError`` for a shape other than (..., 3), a non-finite
    component, or a squared norm that deviates from 1 by more than
    ``UNIT_NORM_TOL``.  Callers that accept unnormalised input (e.g. the CLI)
    divide by the norm first.
    """
    a = np.asarray(v, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"expected 3 components, got shape {a.shape}")
    nsq = dot(a, a)
    # A non-finite component makes its squared norm inf or NaN, which fails this test too.
    if _first(~(np.abs(nsq - 1.0) <= UNIT_NORM_TOL)) is None:
        return a / np.sqrt(nsq)[..., None]
    if not np.isfinite(a).all():
        raise ValueError("vector components must be finite")
    i = _first(np.abs(nsq - 1.0) > UNIT_NORM_TOL)
    raise ValueError(f"not a unit vector: |v|^2 = {float(np.ravel(nsq)[i])!r}")


def dot(a, b):
    """Euclidean inner product over the last axis: a float for two 3-vectors,
    else an array, each entry rounded exactly like ``a @ b`` of its pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == b.ndim == 1:
        return float(a.dot(b))
    return np.vecdot(a, b)


def _record(cls, *values):
    """A frozen dataclass *cls* with *values* for its fields in declaration order, built like
    ``algebra._wrap`` without the generated ``__init__``; for values the package computed itself."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def cross(a, b) -> np.ndarray:
    """Right-handed cross product over the last axis (``np.cross``'s arithmetic, less set-up)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


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
    s = np.asarray(p0, dtype=float) + np.asarray(p1, dtype=float) + np.asarray(p2, dtype=float)
    n = np.sqrt(dot(s, s))
    if _first(n < 1e-9) is not None:
        raise ZeroSumError("vertex sum is (near-)zero; barycentre undefined")
    return s / n[..., None]
