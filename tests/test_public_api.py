"""The public surface of the package: adding or removing a name is deliberate."""

import ast
import importlib
import json
import os
import subprocess
import sys
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
    "barycentre",
    "centroid_inner_closed_form",
    "classify",
    "classify_d",
    "cross",
    "d_to_xyz",
    "dot",
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
# table of names is their only declaration.
FLATTENED_MODULES = ["core", "ellipsoid", "errors", "napoleon", "oracle", "triangle", "verdict"]

# Names the package no longer exports: tests-only helpers, single-caller
# wrappers, a re-export, a per-row record replaced by stacked arrays, and the
# SideParameters adapters of polynomials that napsphere.algebra defines.
# random_triangles now lives in tests/conftest.py; triple is dot(a, cross(b, c)).
# The CLI divides a vertex by its own norm instead of calling normalize, and the
# tests build N+- (napoleonic_equation_residual) from napsphere.algebra.
# apex, edge_centroid and apex_by_rotation built one apex or centroid from a
# bare edge; napoleonise builds every edge of a validated triangle.
REMOVED_NAMES = [
    "BasisCoefficients",
    "EllipsoidPoint",
    "IndeterminateError",
    "alpha",
    "apex",
    "apex_by_rotation",
    "chi_relation_check",
    "chi_squared",
    "clamp",
    "condition_residual",
    "condition_value",
    "edge_centroid",
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
        assert "__all__" not in vars(importlib.import_module(f"napsphere.{name}")), name


SRC = Path(napsphere.__file__).resolve().parent


def _defining_modules() -> dict[str, str]:
    """Each public name and the submodule whose source defines it at top level."""
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in set(names) & set(PUBLIC_NAMES):
                assert name not in homes, f"{name} is defined in {homes[name]} and {path.stem}"
                homes[name] = path.stem
    return homes


# Run in a fresh interpreter: the CLI imports its modules first, as
# ``python -m napsphere.cli`` does, and the package names are read after.
IMPORT_ORDER_SCRIPT = """
import contextlib, importlib, io, json, sys
import napsphere.cli

homes = json.loads(sys.argv[1])
doc = '{"d": [0.9, 1.0, 1.1]}'
for argv in (["napoleonise", "-"], ["classify", "-"], ["sample", "--count", "2", "--realize"],
             ["search", "-"], ["verify-identities"]):
    sys.stdin = io.StringIO(doc)
    with contextlib.redirect_stdout(io.StringIO()):
        assert napsphere.cli.main(argv) == 0, argv

import napsphere

for name in napsphere.__all__:
    value = getattr(napsphere, name)
    assert value is getattr(importlib.import_module("napsphere." + homes[name]), name), name
assert callable(napsphere.classify) and napsphere.classify.__module__ == "napsphere.verdict"
listed = dir(napsphere)
assert len(napsphere.__all__) == 35 and all(name in listed for name in napsphere.__all__)
try:
    napsphere.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_public_names_resolve_after_the_cli_ran():
    homes = _defining_modules()
    assert sorted(homes) == PUBLIC_NAMES
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER_SCRIPT, json.dumps(homes)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


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
