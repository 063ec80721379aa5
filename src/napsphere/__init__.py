"""Napoleonisations of spherical triangles.

Construct equilateral-triangle apexes and centroids on the edges of a
spherical triangle, classify which triangles admit an equilateral outward
Napoleonisation (a quadric condition on the side parameters), sample that
quadric, and verify the underlying polynomial identities in exact rational
arithmetic.

The public names are loaded on first use (PEP 562): ``import napsphere``
imports no submodule, and ``napsphere.classify`` imports ``verdict``, its
home module, with NumPy, the first time it is read.  So the exact layer,
``napsphere.algebra``, and the CLI's ``verify-identities`` run without NumPy.
"""

import importlib as _importlib

__version__ = "0.1.0"

# The public API, in the order of __all__: each name and the submodule that
# defines it.  The modules flattened here declare no __all__ of their own;
# algebra (named here only for CLASSIFY_TOL) and cli stay submodules, and
# each declares its surface in its own __all__.
_HOMES = {
    "classify": "verdict",
    "CLASSIFY_TOL": "algebra",
    "ClassificationReport": "verdict",
    "Verdict": "verdict",
    "classify_d": "verdict",
    "barycentre": "core",
    "cross": "core",
    "dot": "core",
    "spherical_distance": "core",
    "unit_vector": "core",
    "d_to_xyz": "ellipsoid",
    "quadric_value": "ellipsoid",
    "realize": "ellipsoid",
    "sample_napoleonic_d": "ellipsoid",
    "sample_napoleonic_d_with_attempts": "ellipsoid",
    "BoundaryConditioningWarning": "errors",
    "CogeodesicError": "errors",
    "DegenerateError": "errors",
    "NapsphereError": "errors",
    "OutOfRangeError": "errors",
    "SeedExhaustedError": "errors",
    "TooWideError": "errors",
    "UnrealizableError": "errors",
    "ZeroSumError": "errors",
    "INWARD": "napoleon",
    "OUTWARD": "napoleon",
    "NapoleonisationResult": "napoleon",
    "SignVector": "napoleon",
    "centroid_inner_closed_form": "napoleon",
    "napoleonise": "napoleon",
    "search_equilateral": "oracle",
    "SideParameters": "triangle",
    "SphericalTriangle": "triangle",
    "new_triangle": "triangle",
    "side_parameters": "triangle",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """Import a public name's home module on first use and bind the name here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
