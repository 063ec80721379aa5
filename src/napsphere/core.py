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


# Most values a rule tests one by one as Python floats (see _first).
_FLOAT_RULE_MAX = 9


def _floats(values: np.ndarray):
    """An array's values as a flat list of Python floats if it holds at most ``_FLOAT_RULE_MAX``, else the array."""
    return values.ravel().tolist() if values.size <= _FLOAT_RULE_MAX else values


def _first(values, flagged) -> int | None:
    """Flat index of the first of *values* (a float, an array or :func:`_floats` of one) that the rule
    *flagged* flags, or None.  *flagged* is a module-level predicate, one expression that gives the
    same flag on a Python float as on an array entry.  Up to ``_FLOAT_RULE_MAX`` values (three
    triangles' edges) are tested one by one as Python floats, a larger stack with one NumPy compare and
    ``count_nonzero``.  Timed in process on n passing values (2-vCPU VM, NumPy 2.4), the first costs
    about 0.5 + 0.06 n us and the second about 1.1 us for any n up to 48, so the two meet near n = 10."""
    if type(values) is np.ndarray:
        if values.size > _FLOAT_RULE_MAX:
            flags = flagged(values)
            return int(flags.argmax()) if np.count_nonzero(flags) else None
        values = values.ravel().tolist()
    elif type(values) is not list:  # one float
        return 0 if flagged(values) else None
    for i, x in enumerate(values):
        if flagged(x):
            return i
    return None


def _off_unit(nsq):
    """The unit-norm rule on squared norms: flags a deviation from 1 beyond ``UNIT_NORM_TOL``, and NaN;
    a non-finite component makes its squared norm inf or NaN, which is flagged too."""
    return (abs(nsq - 1.0) > UNIT_NORM_TOL) | (nsq != nsq)


def _zero_sum(n):
    """The zero-sum rule of :func:`barycentre` on the norms of vertex sums."""
    return n < 1e-9


def unit_vector(v) -> np.ndarray:
    """Validate *v* as a point (or stack of points) of the unit sphere and re-normalise it once.

    Raises ``TypeError`` for complex components, and ``ValueError`` for a
    shape other than (..., 3), a non-finite component, or a squared norm that
    deviates from 1 by more than ``UNIT_NORM_TOL``.  Callers that accept
    unnormalised input (e.g. the CLI) divide by the norm first.
    """
    a = np.asarray(v)
    if a.dtype.kind == "c":  # a float conversion would drop the imaginary part
        raise TypeError(f"vector components must be real, got {a.dtype}")
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"expected 3 components, got shape {a.shape}")
    nsq = _dot(a, a)
    i = _first(nsq, _off_unit)
    if i is None:
        return a / np.sqrt(nsq)[..., None]
    if not np.isfinite(a).all():
        raise ValueError("vector components must be finite")
    raise ValueError(f"not a unit vector: |v|^2 = {float(np.ravel(nsq)[i])!r}")


def dot(a, b):
    """Euclidean inner product over the last axis: a float for two 3-vectors,
    else an array, each entry rounded exactly like ``a @ b`` of its pair."""
    return _dot(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _dot(a: np.ndarray, b: np.ndarray):
    """:func:`dot` of two float arrays, with no conversion."""
    return float(a.dot(b)) if a.ndim == b.ndim == 1 else np.vecdot(a, b)


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
    n = np.sqrt(_dot(s, s))
    if _first(n, _zero_sum) is not None:
        raise ZeroSumError("vertex sum is (near-)zero; barycentre undefined")
    return s / n[..., None]
