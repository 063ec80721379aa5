"""The public surface of the package: adding or removing a name is deliberate."""

import ast
import importlib
from pathlib import Path

import numpy as np

import napsphere
import napsphere.algebra
import napsphere.cli
from napsphere import (
    INWARD,
    OUTWARD,
    SideParameters,
    centroid_inner_closed_form,
    classify,
    classify_d,
    realize,
    sample_napoleonic_d,
    sample_napoleonic_d_with_attempts,
    side_parameters,
)

from conftest import random_triangles

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
    "napoleonise",
    "new_triangle",
    "quadric_value",
    "realize",
    "sample_napoleonic_d",
    "sample_napoleonic_d_with_attempts",
    "search_equilateral",
    "side_parameters",
    "spherical_distance",
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
# random_triangles now lives in tests/conftest.py; triple is dot(a, cross(b, c)).
# The CLI divides a vertex by its own norm instead of calling normalize, and the
# tests build N+- (napoleonic_equation_residual) from napsphere.algebra.
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
    "napoleonic_equation_residual",
    "norm",
    "normalize",
    "quadratic_form",
    "random_triangle",
    "random_triangles",
    "third_vertex_coefficients",
    "triple",
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


# SideParameters, side_parameters and the two row samplers stay public because
# the benchmark under perfbench/ uses them as below.

BENCHMARK_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_every_name_the_benchmark_imports_exists():
    imported = {}
    for node in ast.walk(ast.parse(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("napsphere", "napsphere.algebra"):
            imported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    assert sorted(imported) == ["napsphere", "napsphere.algebra"]
    for module, names in imported.items():
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert callable(napsphere.cli.main)


def test_sampler_rows_are_side_parameters():
    rows, attempts = sample_napoleonic_d_with_attempts(50, 3)
    assert rows == sample_napoleonic_d(50, 3) and attempts >= 50
    for row in rows:
        assert type(row) is SideParameters
        assert type(row.as_tuple()) is tuple and row.as_tuple() == (row.d0, row.d1, row.d2)
        assert all(type(x) is float for x in row)


def test_entry_points_give_the_same_bits_for_every_kind_of_triple():
    for d in sample_napoleonic_d(20, 4) + [SideParameters(0.3, 0.5, 0.9)]:
        kinds = [d, d.as_tuple(), list(d), np.array(d)]
        triangles = [realize(x) for x in kinds]
        for t in triangles[1:]:
            assert t.vertices.tobytes() == triangles[0].vertices.tobytes()
            assert t.d.tobytes() == triangles[0].d.tobytes() and t.chi == triangles[0].chi
        reports = [repr(classify_d(x)) for x in kinds]
        assert reports == [reports[0]] * 4
        chi = triangles[0].chi
        for s in (OUTWARD, INWARD):
            for i in range(3):
                inners = [centroid_inner_closed_form(x, chi, s, i) for x in kinds]
                assert all(type(x) is float for x in inners)
                assert [x.hex() for x in inners] == [inners[0].hex()] * 4


def test_classify_is_classify_d_of_the_stored_d():
    for t in random_triangles(200, 5) + [realize(d) for d in sample_napoleonic_d(200, 6)]:
        report, direct = classify(t), classify_d(t.d.tolist())
        assert report == direct and repr(report) == repr(direct)
        assert report.d == side_parameters(t) and type(report.d) is SideParameters
        assert all(type(x) is float for x in report.d)
