"""The public surface of the package: adding or removing a name is deliberate."""

import napsphere

PUBLIC_NAMES = [
    "BoundaryConditioningWarning",
    "CLASSIFY_TOL",
    "ClassificationReport",
    "CogeodesicError",
    "DegenerateError",
    "INWARD",
    "NapoleonisationResult",
    "NapsphereError",
    "OUTWARD",
    "OutOfRangeError",
    "SeedExhaustedError",
    "SideParameters",
    "SignVector",
    "SphericalTriangle",
    "TooWideError",
    "UnrealizableError",
    "Verdict",
    "ZeroSumError",
    "alpha",
    "apex",
    "apex_by_rotation",
    "barycentre",
    "centroid_inner_closed_form",
    "chi_squared",
    "classify",
    "classify_d",
    "condition_residual",
    "condition_value",
    "cross",
    "d_to_xyz",
    "dot",
    "edge_centroid",
    "equilateral_factor",
    "napoleonic_equation_residual",
    "napoleonise",
    "new_triangle",
    "normalize",
    "quadric_value",
    "random_triangles",
    "realize",
    "sample_napoleonic_d",
    "sample_napoleonic_d_with_attempts",
    "search_equilateral",
    "side_parameters",
    "spherical_distance",
    "triple",
    "unit_vector",
]

# Names the package no longer exports: tests-only helpers, single-caller
# wrappers, a re-export and a per-row record replaced by stacked arrays.
REMOVED_NAMES = [
    "BasisCoefficients",
    "EllipsoidPoint",
    "IndeterminateError",
    "chi_relation_check",
    "clamp",
    "epsilon_from_d",
    "norm",
    "quadratic_form",
    "random_triangle",
    "third_vertex_coefficients",
    "xyz_to_d",
]


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(napsphere.__all__) == PUBLIC_NAMES


def test_removed_names_are_not_attributes():
    for name in REMOVED_NAMES:
        assert not hasattr(napsphere, name), name
