"""The outward-Napoleonic quadric, its parametrization, and realization.

In rotated coordinates

    X = (d0 + d1 + d2)/sqrt(3),
    Y = (-2 d0 + d1 + d2)/sqrt(6),
    Z = (-d1 + d2)/sqrt(2),

the locus d0^2+d1^2+d2^2+d0d1+d0d2+d1d2 = 2 becomes the ellipsoid of
revolution 2 X^2 + Y^2/2 + Z^2/2 = 2 with semi-axes (1, 2, 2);
``algebra.verify_rotation_quadratic`` proves the two sides equal as
polynomials in d.  :func:`d_to_xyz` rotates side parameters stacked on the
last axis to plain (..., 3) arrays and :func:`quadric_value` evaluates the
left side per row; :func:`sample_napoleonic_d_with_attempts` draws
admissible side parameters from this surface as one (count, 3) array, and
:func:`realize` places any realizable side parameters as a canonical triangle
on the unit sphere (``_realized`` places a stack; the placement itself is
``triangle._placed``, which the CLI runs without loading this module).  Side
parameters are plain triples; only the sampler's row view
:func:`sample_napoleonic_d` builds :class:`SideParameters`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import dot
from .errors import SeedExhaustedError
from .triangle import SideParameters, SphericalTriangle, _checked, _fields, _placed

# Orthogonal rotation taking (d0, d1, d2) to (X, Y, Z); rows are orthonormal,
# so the inverse is the transpose.
ROTATION = np.array(
    [
        [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)],
        [-2.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0)],
        [0.0, -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
    ]
)

# Diagonal-line exclusion margin for sampling: points within this Euclidean
# distance of {d0 = d1 = d2} are rejected as effectively equilateral.
DIAGONAL_MARGIN = 1e-6

# Least sampled side parameter (see _quadric_block): a smaller d_i is not
# carried by float vertices to within CLASSIFY_TOL of the quadric.
D_FLOOR = 1e-6

_MAX_REJECTIONS = 10**6

# Upper bound on the draws mapped per block (about 7.6 draws per accept).
_MAX_BLOCK = 1 << 15


def d_to_xyz(d) -> np.ndarray:
    """Rotate side parameters (..., 3) into the ellipsoid's principal-axis frame."""
    return (ROTATION @ np.asarray(d, dtype=float)[..., None])[..., 0]


def quadric_value(xyz):
    """``2 X^2 + Y^2/2 + Z^2/2`` of rotated coordinates (..., 3); 2 on the quadric."""
    x, y, z = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    return 2.0 * x * x + y * y / 2.0 + z * z / 2.0


def _quadric_block(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Side parameters of draws *u* (shape (k, 2)) and the acceptance mask.

    theta = pi u0 and phi = 2 pi u1 are exactly ``rng.uniform(0, pi)`` and
    ``rng.uniform(0, 2 pi)`` of the same stream, drawn one at a time.

    An accepted draw needs no realizability test: chi^2 > 1/2.  On the
    quadric ``4 chi^2 = smp^2`` with ``smp = s - d0 d1 d2``.  With
    ``s = d0 + d1 + d2`` and ``q = d0 d1 + d0 d2 + d1 d2``, the quadric reads
    ``s^2 = 2 + q``, and ``sum d_i^2 >= q`` gives ``q <= 1``.  If every d_i > 0,
    then q > 0 and s > sqrt(2), and ``q^2 >= 3 d0 d1 d2 s`` gives
    ``d0 d1 d2 <= q^2 / (3 s) < q / (s + sqrt(2)) = s - sqrt(2)``.  So
    ``smp > sqrt(2)``.  Nor does it need a range test: with every d_i > 0 the
    quadric gives ``d_i^2 < 2``, so each d_i lies in (0, sqrt(2)).

    Each d_i must also reach ``D_FLOOR``: a smaller one is not carried by the
    realized triangle to within ``CLASSIFY_TOL`` of the quadric.  Float
    vertices fix the edge inner product c_i near -1/2 only to about 1e-16, so
    they fix ``d_i = sqrt(1 + 2 c_i)`` only to about ``1e-16 / (2 d_i)``.  On
    the quadric each partial derivative of the condition, ``2 (A d)_i`` for
    its form ``d^T A d = 2``, is below ``2 sqrt(2)`` (Cauchy-Schwarz in the
    A-norm, with ``e_i^T A e_i = 1``).  At ``d_i = 1e-6`` the realized
    condition residual therefore stays near 1.4e-10 per such side, under
    ``CLASSIFY_TOL``; 400 quadric points with d0 = 1e-6 gave at most 3.8e-10,
    while at d0 = 2e-7 and 1e-7 one in seven and one in five of them left the
    quadric at that tolerance.  The floor removes a share of about 1.7e-6 of
    the draws accepted without it."""
    theta = math.pi * u[:, 0]
    phi = 2.0 * math.pi * u[:, 1]
    sin_theta = np.sin(theta)
    p = np.stack((np.cos(theta), 2.0 * sin_theta * np.cos(phi), 2.0 * sin_theta * np.sin(phi)), axis=-1)
    d = p @ ROTATION
    d0, d1, d2 = d.T
    off = d - ((d0 + d1 + d2) / 3.0)[:, None]
    ok = (d0 >= D_FLOOR) & (d1 >= D_FLOOR) & (d2 >= D_FLOOR) & (np.sqrt(dot(off, off)) >= DIAGONAL_MARGIN)
    return d, ok


def sample_napoleonic_d_with_attempts(count: int, seed: int) -> tuple[np.ndarray, int]:
    """Sample admissible non-equilateral points of the Napoleonic quadric.

    Returns the samples as one (count, 3) float64 array and the number of
    draws.  The ellipsoid is parametrized by two angles drawn uniformly; each
    point is rotated back to side parameters and rejected unless every d_i
    reaches ``D_FLOOR`` and the point is at least ``DIAGONAL_MARGIN`` from the
    equilateral diagonal; every such point is realizable and classifies as
    OutwardNapoleonic once realized (see ``_quadric_block``).  Deterministic
    per seed: draws are mapped in blocks and accepted in stream order, so
    samples and attempts do not depend on the block size.

    A draw is accepted with probability ``P = 0.1322705``.  Its side
    parameters are ``d_i = cos(theta)/sqrt(3) + 2 sqrt(2/3) sin(theta) cos(phi - phi_i)``
    with phi_i in {pi, -pi/3, pi/3}, so for fixed theta the admissible phi form
    one arc, and ``P0 = (t1 + int_t1^t2 (1 - (3/pi) arccos(cot(theta)/(2 sqrt(2)))) dtheta) / pi
    = 0.1322707`` with ``t1 = arctan(1/(2 sqrt(2)))`` and ``t2 = arctan(1/sqrt(2))``
    is the share with every d_i in (0, sqrt(3)); ``D_FLOOR`` takes 2.2e-7 off it.  The
    samples are not area-uniform on the quadric but dense near the equilateral
    point: a draw has ``equilateral_factor = 6 sin^2(theta)``, so a share of about
    ``sqrt(m/6) / (pi P)`` of the samples has ``equilateral_factor < m``
    (3.2% below 1e-3).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = []
    need, attempts = count, 0
    run = 0  # consecutive rejections carried into the next block
    while need:
        k = min(8 * need + 64, _MAX_BLOCK)
        d, ok = _quadric_block(rng.random((k, 2)))
        hits = np.flatnonzero(ok)[:need]
        done = len(hits) == need
        # rejections before each accepted draw, then (if unfinished) at the block's end
        gaps = np.diff(np.concatenate(([-1 - run], hits, [] if done else [k]))) - 1
        if gaps.max() >= _MAX_REJECTIONS:
            raise SeedExhaustedError(f"{_MAX_REJECTIONS} consecutive rejections; sampler stuck")
        run = int(gaps[-1])
        attempts += int(hits[-1]) + 1 if done else k
        blocks.append(d[hits])
        need -= len(hits)
    return np.concatenate(blocks), attempts


def sample_napoleonic_d(count: int, seed: int) -> list[SideParameters]:
    """The samples of :func:`sample_napoleonic_d_with_attempts` as :class:`SideParameters` rows.

    Kept for the benchmark's ``cold-cli`` workload (``perfbench/workloads.py``),
    which reads these rows through ``as_tuple()``, until it moves to the array
    (ROADMAP item 1).
    """
    return [SideParameters(*row) for row in sample_napoleonic_d_with_attempts(count, seed)[0].tolist()]


def _realized(d0, d1, d2):
    """:func:`realize` with the same expressions on floats or on columns (N,): the fields of the
    placed triangle (``triangle._placed``), for one row or stacked, or the first row's error."""
    return _fields(_placed(d0, d1, d2))


def realize(d) -> SphericalTriangle:
    """Canonical triangle on the unit sphere with side parameters *d*, any three numbers.

    P0 = (1,0,0), P1 lies in the upper xy half-plane, and the third vertex
    is placed with positive orientation, so the result needs no vertex swap
    and represents the congruence class of *d*.  Raises
    :class:`UnrealizableError` when the Gram form ``1 - sum c_i^2 + 2 c0 c1 c2``
    of ``c_i = (d_i^2 - 1)/2`` is <= 1e-12: :func:`napsphere.polynomials.chi_squared`
    as a polynomial (``test_gram_determinant_is_chi_squared``), though rounded
    differently.  The placed vertices must pass :func:`new_triangle`'s rules: a
    d_i below about 1.5e-8 is :class:`TooWideError`.  Before all that, another
    count than three is ``ValueError`` and a d_i outside (0, sqrt(3)) is
    :class:`OutOfRangeError`.  This is :func:`_realized` for one row.
    """
    return SphericalTriangle(*_realized(*_checked(d)))
