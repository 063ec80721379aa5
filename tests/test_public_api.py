"""The public surface of the package: adding or removing a name is deliberate."""

import napsphere
import napsphere.algebra
import napsphere.cli

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
    "apex",
    "apex_by_rotation",
    "barycentre",
    "centroid_inner_closed_form",
    "classify",
    "classify_d",
    "cross",
    "d_to_xyz",
    "dot",
    "edge_centroid",
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

# The submodules the package does not flatten; each keeps its own __all__.
ALGEBRA_NAMES = [
    "RationalPolynomial",
    "D0",
    "D1",
    "D2",
    "ONE",
    "alpha",
    "chi_squared",
    "gamma",
    "condition",
    "equilateral_factor",
    "sum_minus_product",
    "one_minus_pairs",
    "centroid_bracket",
    "IdentityCheck",
    "verify_factorisation",
    "verify_sum_of_squares",
    "verify_final_identity",
    "verify_rotation_quadratic",
    "verify_all",
]

# The modules whose public names napsphere.__all__ re-exports; the package's
# imports are their only declaration.
FLATTENED_MODULES = ["classify", "core", "ellipsoid", "errors", "napoleon", "oracle", "triangle"]

# Names the package no longer exports: tests-only helpers, single-caller
# wrappers, a re-export, a per-row record replaced by stacked arrays, and the
# SideParameters adapters of polynomials that napsphere.algebra defines.
REMOVED_NAMES = [
    "BasisCoefficients",
    "EllipsoidPoint",
    "IndeterminateError",
    "alpha",
    "chi_relation_check",
    "chi_squared",
    "clamp",
    "condition_residual",
    "condition_value",
    "epsilon_from_d",
    "equilateral_factor",
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


def test_algebra_surface_is_exactly_the_listed_names():
    assert napsphere.algebra.__all__ == ALGEBRA_NAMES


def test_cli_surface_is_main_alone():
    assert napsphere.cli.__all__ == ["main"]


def test_flattened_modules_declare_no_second_surface():
    for name in FLATTENED_MODULES:
        assert "__all__" not in vars(getattr(napsphere, name)), name
