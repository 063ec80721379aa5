"""Napoleonisations of spherical triangles.

Construct equilateral-triangle apexes and centroids on the edges of a
spherical triangle, classify which triangles admit an equilateral outward
Napoleonisation (a quadric condition on the side parameters), sample that
quadric, and verify the underlying polynomial identities in exact rational
arithmetic.
"""

import types as _types

from .classify import (
    CLASSIFY_TOL,
    ClassificationReport,
    Verdict,
    classify,
    classify_d,
)
from .core import (
    barycentre,
    cross,
    dot,
    spherical_distance,
    unit_vector,
)
from .ellipsoid import (
    d_to_xyz,
    quadric_value,
    realize,
    sample_napoleonic_d,
    sample_napoleonic_d_with_attempts,
)
from .errors import (
    BoundaryConditioningWarning,
    CogeodesicError,
    DegenerateError,
    NapsphereError,
    OutOfRangeError,
    SeedExhaustedError,
    TooWideError,
    UnrealizableError,
    ZeroSumError,
)
from .napoleon import (
    INWARD,
    OUTWARD,
    NapoleonisationResult,
    SignVector,
    apex,
    centroid_inner_closed_form,
    edge_centroid,
    napoleonise,
)
from .oracle import apex_by_rotation, search_equilateral
from .triangle import (
    SideParameters,
    SphericalTriangle,
    new_triangle,
    side_parameters,
)

__version__ = "0.1.0"

# Everything imported above, and nothing else, is the public API; the modules
# flattened here declare no __all__ of their own.  The submodules algebra and
# cli are not flattened, so each declares its surface in its own __all__.
__all__ = [
    name for name, value in list(globals().items()) if not (name.startswith("_") or isinstance(value, _types.ModuleType))
]
