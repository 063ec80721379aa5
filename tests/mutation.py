"""Mutation check: does the test suite notice small changes to napsphere?

Run as ``python tests/mutation.py`` from any directory.  Each mutant is one
textual edit of a file in ``src/napsphere/``, applied in its own temporary
copy of ``src/``, ``tests/`` and ``perfbench/``.  In the copy, the test that
killed the mutant last runs first, alone; only when it passes, or is no
longer collected (pytest exit 4 or 5), does the whole suite run with
``pytest -x``, leaving out acceptance criteria 4 and 5, which fail as stated.
A mutant is *killed* when some test fails or a test module no longer
imports, by whichever test, and *survives* when every test passes.  The
unmutated copy runs the whole suite first and must pass, and a mutant whose
source text is not found exactly once stops the script, so a stale list
cannot pass as a score.  The copies run one after another.  Prints, for
each mutant, the test that killed it (and the stored one, if that differs;
update ``MUTANTS`` from it), then the score and the wall time; exits 1 if
any mutant survives.  Standard library only; pytest does not collect this
file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file in src/napsphere, source text, its replacement, the test that killed it last): that test runs
# first, so a run costs one test per mutant until a killer goes stale.
MUTANTS = [
    ("algebra.py", "return self._merge(other, -1)", "return self._merge(other, 1)",
     "tests/test_acceptance.py::test_criterion_7_exact_identities"),
    ("algebra.py", "if not math.isfinite(other):", "if math.isnan(other):",
     "tests/test_algebra.py::TestRingOperations::test_constants_equal_finite_floats_of_their_value"),
    ("algebra.py", "_CARRY = _EXP_LIMIT * (", "_CARRY = 2 * _EXP_LIMIT * (",
     "tests/test_acceptance.py::test_criterion_7_exact_identities"),
    ("algebra.py", "        return self.holds", "        return True",
     "tests/test_algebra.py::TestFactorisation::test_mutated_chi_squared_fails"),
    ("__init__.py", '"ClassificationReport": "verdict",', '"ClassificationReport": "napoleon",',
     "tests/test_core.py"),
    ("cli.py", "NORMALISE_WARN = 1e-6", "NORMALISE_WARN = 1e-5",
     "tests/test_cli.py::TestNapoleonise::test_renormalisation_warning_threshold[1.000005-True]"),
    ("cli.py", "args.tol >= 0.0", "args.tol > 0.0",
     "tests/test_cli.py::TestErrors::test_zero_tolerance_accepted"),
    ("cli.py", "if n < 1e-12:", "if n < 1e-10:",
     "tests/test_cli.py::TestNapoleonise::test_tiny_vertex_is_normalised"),
    ("core.py", "UNIT_NORM_TOL = 1e-9", "UNIT_NORM_TOL = 1e-8",
     "tests/test_core.py::TestUnitVector::test_tolerance_is_on_the_squared_norm"),
    ("core.py", "return n < 1e-9", "return n < 1e-6",
     "tests/test_core.py::TestBarycentre::test_small_vertex_sum_still_has_a_direction"),
    ("core.py", "n = _sqrt(_dot(s, s))", "n = _dot(s, s)",
     "tests/test_acceptance.py::test_criterion_2_known_napoleonic_triangle"),
    ("core.py", "_components(np.asarray(b, dtype=float)))", "_components(np.asarray(a, dtype=float)))",
     "tests/test_acceptance.py::test_criterion_1_scalene_construction_values"),
    ("core.py", "if flagged(x):\n            return i\n", "if flagged(x):\n            return i + 1\n",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("core.py", "for v in values], -1)", "for v in values], 0)",
     "tests/test_core.py::test_rule_is_tested_on_python_floats_for_a_triangle_and_in_numpy_for_a_stack"),
    ("core.py", "if flags.any() else None", "if flags.all() else None",
     "tests/test_core.py::test_rule_gives_one_triangle_and_a_stack_the_same_first_index[unit norm]"),
    # the summation order of every inner product, reversed
    ("core.py", "return a0 * b0 + a1 * b1 + a2 * b2", "return a2 * b2 + a1 * b1 + a0 * b0",
     "tests/test_core.py::TestDot::test_stacked_entries_round_like_each_pair[shape0]"),
    ("core.py", "[x * x + y * y + z * z for", "[z * z + y * y + x * x for",
     "tests/test_golden_cli.py::test_golden_stdout[napoleonise-json-random-in]"),
    ("ellipsoid.py", "_MAX_REJECTIONS = 10**6", "_MAX_REJECTIONS = 10**5",
     "tests/test_ellipsoid.py::TestSamplerStuckGuard::test_one_rejection_short_of_the_limit_passes"),
    ("ellipsoid.py", "np.sqrt(dot(off, off)) >= DIAGONAL_MARGIN", "np.sqrt(dot(off, off)) > DIAGONAL_MARGIN",
     "tests/test_ellipsoid.py::TestSamplerStream::test_diagonal_margin_equality[1.591549430871888e-07-1e-06-True]"),
    ("ellipsoid.py", "(d0 >= D_FLOOR) & (d1 >= D_FLOOR) & (d2 >= D_FLOOR)", "(d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)",
     "tests/test_ellipsoid.py::TestSampler::test_side_parameters_reach_the_floor"),
    ("ellipsoid.py", "(d0 >= D_FLOOR) & (d1 >= D_FLOOR) & (d2 >= D_FLOOR)", "(d0 >= D_FLOOR) | (d1 >= D_FLOOR) | (d2 >= D_FLOOR)",
     "tests/test_acceptance.py::test_criterion_3_forward_direction_on_quadric"),
    ("ellipsoid.py", "return np.concatenate(blocks), attempts", "return np.concatenate(blocks), attempts + 1",
     "tests/test_ellipsoid.py::TestSamplerStream::test_matches_reference_loop[1]"),
    ("ellipsoid.py", "(count, seed)[0].tolist()]", "(count, seed)[0].tolist()[::-1]]",
     "tests/test_public_api.py::test_sampler_rows_are_side_parameters"),
    ("errors.py", 'kind = "TooWide"', 'kind = "Wide"',
     "tests/test_acceptance.py::test_criterion_8_degenerate_handling"),
    (
        "napoleon.py",
        "max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))",
        "max(abs(rr01 - rr12), abs(rr12 - rr20))",
        "tests/test_napoleon.py::test_equilateral_residual_is_the_largest_of_all_three_differences",
    ),
    ("napoleon.py", "h0, h1, h2 = t.d.tolist()", "h0, h1, h2 = t.edge_inners.tolist()",
     "tests/test_acceptance.py::test_criterion_1_scalene_construction_values"),
    ("napoleon.py", "if e not in (-1, +1):", "if e not in (-1, +1) and i != 1:",
     "tests/test_napoleon.py::test_sign_vector_is_a_validated_tuple_of_its_signs"),
    ("napoleon.py", "-s.e2, -s.e1", "-s.e1, -s.e2",
     "tests/test_golden_cli.py::test_golden_stdout[napoleonise-json-vertices-swapped-mixed]"),
    # two entries of the swapped-sign table exchanged: (-,-,+) and (-,+,-) map to each other's images
    ("napoleon.py", "for s in _SIGNS}\n", "for s in _SIGNS} | {_SIGNS[1]: _SIGNS[6], _SIGNS[2]: _SIGNS[5]}\n",
     "tests/test_napoleon.py::TestNapoleonise::test_sign_rule_in_input_order_for_both_orientations"),
    ("napoleon.py", "NapoleonisationResult(q, r, rr01, rr12,", "NapoleonisationResult(q, r, rr12, rr01,",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("napoleon.py", "den = SQRT3 * c1", "den = 1.7320508 * c1",
     "tests/test_acceptance.py::test_criterion_2_known_napoleonic_triangle"),
    ("napoleon.py", "itertools.product((-1, +1), repeat=3)", "itertools.product((+1, -1), repeat=3)",
     "tests/test_oracle.py::TestSearchEquilateral::test_ties_keep_search_order_and_tolerance_is_strict"),
    ("oracle.py", "v[0] * cos + w[0] * sin", "v[0] * cos - w[0] * sin",
     "tests/test_cli.py::TestSearch::test_known_triangle_contains_outward"),
    ("oracle.py", "(-theta, theta)", "(theta, -theta)",
     "tests/test_cli.py::TestSearch::test_known_triangle_contains_outward"),
    # one angle row negated: both apexes of an edge on the same side
    ("oracle.py", "(-theta, theta)", "(-theta, -theta)",
     "tests/test_golden_cli.py::test_golden_stdout[search-vertices]"),
    ("oracle.py", "math.acos(c / (1.0 + c))", "math.acos(c / (1.0 - c))",
     "tests/test_cli.py::TestSearch::test_known_triangle_contains_outward"),
    ("oracle.py", "residual = max(", "residual = min(",
     "tests/test_golden_cli.py::test_golden_stdout[search-vertices-swapped]"),
    ("oracle.py", "if residual < tol:", "if residual <= tol:",
     "tests/test_oracle.py::TestSearchEquilateral::test_ties_keep_search_order_and_tolerance_is_strict"),
    ("oracle.py", "    hits.sort(key=lambda pair: pair[1])\n", "",
     "tests/test_golden_cli.py::test_golden_stdout[search-vertices-swapped]"),
    ("polynomials.py", "d2 * d2 - 1) / 2", "d2 * d2 + 1) / 2",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("polynomials.py", "(1 - a) * (1 + 2 * a)", "(1 - a) * (1 + a)",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("polynomials.py", "s2 * s0 + s0 * s1 * s2) / 4", "s2 * s0) / 4",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("polynomials.py", "return 3 * (d0 * d0 + 1)", "return 2 * (d0 * d0 + 1)",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("polynomials.py", "d0 * d1 + d0 * d2 + d1 * d2", "d0 * d1 - d0 * d2 + d1 * d2",
     "tests/test_acceptance.py::test_criterion_7_exact_identities"),
    ("polynomials.py", "d2 * d2 - d0 * d1 - d1 * d2 - d2 * d0", "d2 * d2 - d0 * d1 - d1 * d2 + d2 * d0",
     "tests/test_acceptance.py::test_criterion_7_exact_identities"),
    ("polynomials.py", "CLASSIFY_TOL = 1e-9", "CLASSIFY_TOL = 1e-8",
     "tests/test_golden_cli.py::test_golden_stdout[search-vertices]"),
    ("polynomials.py", "return d0 + d1 + d2 - d0 * d1 * d2", "return d0 + d1 + d2 + d0 * d1 * d2",
     "tests/test_acceptance.py::test_criterion_7_exact_identities"),
    ("polynomials.py", "return 1 - d0 * d1 - d1 * d2 - d2 * d0", "return 1 - d0 * d1 - d1 * d2",
     "tests/test_acceptance.py::test_criterion_7_exact_identities"),
    ("polynomials.py", "+ ek * ei * (", "+ (",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("polynomials.py", "chi * (ei * dk + ek * di)", "chi * (ei * di + ek * dk)",
     "tests/test_acceptance.py::test_criterion_6_closed_form_consistency"),
    ("triangle.py", "return c <= -0.5 + BOUNDARY_BAND", "return c < -0.5 + BOUNDARY_BAND",
     "tests/test_triangle.py::test_band_edge_is_inclusive"),
    ("triangle.py", "and {(i + 1) % 3} {'are antipodal'", "and {(i + 2) % 3} {'are antipodal'",
     "tests/test_triangle.py::test_stacked_validation_names_vertices_within_the_first_failing_triangle"),
    ("triangle.py", "edge opposite vertex {i % 3} has", "edge opposite vertex {i} has",
     "tests/test_ellipsoid.py::TestRealize::test_stacked_realize_reports_the_first_failing_row"),
    (
        "triangle.py",
        "{_entry(c, i)!r}",
        "{_entry(c, 0)!r}",
        "tests/test_triangle.py::test_rejection_messages_name_the_pair_or_edge"
        "[edge opposite vertex 0 has inner product -0.75 <= -1/2-stacked]",
    ),
    ("triangle.py", "if wide is not None and _first([_gram(*c)], _may_be_cogeodesic) is None:", "if wide is not None:",
     "tests/test_triangle.py::TestNewTriangle::test_cogeodesic_rejected"),
    ("triangle.py", "_may_be_cogeodesic) is None:", "_may_be_cogeodesic) != 0:",
     "tests/test_triangle.py::test_width_gate_changes_no_outcome_near_a_great_circle"),
    ("triangle.py", "GRAM_GATE = 1e-12\n", "GRAM_GATE = 1e-18\n",
     "tests/test_triangle.py::test_width_gate_changes_no_outcome_near_a_great_circle"),
    ("triangle.py", "return abs(t) <= DEGENERACY_TOL", "return abs(t) < DEGENERACY_TOL",
     "tests/test_triangle.py::TestNewTriangle::test_cogeodesic_bound_is_inclusive"),
    # a swapped triangle keeps the normal of its entered edge 0, reverses it, or negates it (which
    # differs from the reversal only in the sign of an exact zero)
    ("triangle.py", "d1, d2)\n        w0 = _cross(p1, p2)\n", "d1, d2)\n",
     "tests/test_acceptance.py::test_criterion_1_scalene_construction_values"),
    ("triangle.py", "d1, d2)\n        w0 = _cross(p1, p2)\n", "d1, d2)\n        w0 = _cross(p2, p1)\n",
     "tests/test_acceptance.py::test_criterion_1_scalene_construction_values"),
    ("triangle.py", "d1, d2)\n        w0 = _cross(p1, p2)\n", "d1, d2)\n        w0 = tuple(-x for x in _cross(p2, p1))\n",
     "tests/test_triangle.py::test_stored_edge_frame_is_built_from_the_stored_vertices_exactly"),
    ("triangle.py", "for x, y in zip(stored, entered)]", "for x, y in zip(entered, stored)]",
     "tests/test_triangle.py::test_stored_edge_frame_is_built_from_the_stored_vertices_exactly"),
    # the two terms of one cross-product coordinate exchanged
    ("triangle.py", "return a1 * b2 - a2 * b1,", "return a2 * b1 - a1 * b2,",
     "tests/test_acceptance.py::test_criterion_1_scalene_construction_values"),
    ("triangle.py", "return abs(c) >= 1.0 - DEGENERACY_TOL", "return abs(c) > 1.0",
     "tests/test_acceptance.py::test_criterion_8_degenerate_handling"),
    ("triangle.py", "if not 0.0 < x < SQRT3:", "if not 0.0 < x <= SQRT3:",
     "tests/test_triangle.py::TestSideParameters::test_out_of_range_rejected"),
    ("triangle.py", "if not 0.0 < x < SQRT3:", "if not 0.0 <= x < SQRT3:",
     "tests/test_triangle.py::TestSideParameters::test_out_of_range_rejected"),
    ("triangle.py", "if not 0.0 < x < SQRT3:", "if not 0.0 < x < SQRT3 and x == x:",
     "tests/test_triangle.py::test_range_rule_at_every_entry_point[realize-list]"),
    ("triangle.py", "for i, x in enumerate(dv):", "for i, x in enumerate(dv[:2]):",
     "tests/test_triangle.py::TestSideParameters::test_out_of_range_rejected"),
    ("triangle.py", "d.tolist() if isinstance", "d.tolist()[::-1] if isinstance",
     "tests/test_public_api.py::test_sampler_rows_are_side_parameters"),
    ("triangle.py", "if len(dv) != 3:", "if len(dv) < 3:",
     "tests/test_triangle.py::test_count_rule_at_every_entry_point[realize]"),
    ("triangle.py", "if not tol >= 0.0:", "if tol < 0.0:",
     "tests/test_triangle.py::test_tolerance_rule_at_every_entry_point[classify]"),
    ("triangle.py", "if not tol >= 0.0:", "if not tol > 0.0:",
     "tests/test_cli.py::TestErrors::test_zero_tolerance_accepted"),
    ("triangle.py", "object.__eq__, object.__ne__, object.__hash__", "tuple.__eq__, tuple.__ne__, tuple.__hash__",
     "tests/test_core.py::test_array_results_are_equal_and_hashed_by_identity[SphericalTriangle]"),
    ("verdict.py", "if eqf < tol:", "if eqf <= tol:",
     "tests/test_classify.py::TestClassifyThresholds::test_equilateral_threshold_is_strict"),
    ("verdict.py", "elif abs(cres) < tol:", "elif abs(cres) <= tol:",
     "tests/test_classify.py::TestClassifyThresholds::test_condition_threshold_is_strict"),
    ("verdict.py", "if chi2 > 0.0 else 0.0", "if chi2 > 0.0 else -1.0",
     "tests/test_classify.py::TestClassifyThresholds::test_unrealizable_d_reports_zero_chi"),
    ("verdict.py", "cval, cres, eqf", "cres, cval, eqf",
     "tests/test_classify.py::TestClassify::test_symmetric_point_is_equilateral_not_napoleonic_verdict"),
]

KNOWN_FAILURES = [
    "tests/test_acceptance.py::test_criterion_4_reverse_direction_population",
    "tests/test_acceptance.py::test_criterion_5_inward_impossibility_near_quadric",
]


def _pytest(work: Path, *tests: str) -> tuple[int, str | None]:
    """pytest's exit status over *tests* (the whole suite if none) in the copy *work*, with ``-x``,
    and the id of the test that failed or the module that failed to import, if any."""
    deselect = [arg for test in KNOWN_FAILURES for arg in ("--deselect", test)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect, *tests],
        cwd=work,
        env={**os.environ, "PYTHONPATH": str(work / "src")},
        capture_output=True,
        text=True,
    )
    # 1: some test failed; 2: a test module failed to import, which after the unmutated copy has
    # passed only the mutant can cause; 4 or 5: a named test no longer exists or is no longer
    # collected; anything else: the run itself broke
    if proc.returncode not in ((0, 1, 2, 4, 5) if tests else (0, 1, 2)):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed[0] if failed else None


def run_mutant(mutant=None) -> str | None:
    """The id of a test that fails on a copy of the tree with *mutant* applied (the unmutated
    tree if None), or None if the suite passes.  The mutant's stored killer runs first; the
    whole suite runs only when it passes or is gone."""
    with tempfile.TemporaryDirectory(prefix="napsphere-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        for part in ("src", "tests", "perfbench"):  # a test reads perfbench/workloads.py
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is None:
            status, failed = _pytest(work)
        else:
            name, old, new, killer = mutant
            path = work / "src" / "napsphere" / name
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"mutant source {old!r} occurs {text.count(old)} times in {name}, not once")
            path.write_text(text.replace(old, new))
            status, failed = _pytest(work, killer) if killer else (0, None)
            if status in (0, 4, 5):
                status, failed = _pytest(work)
    return (failed or "an unnamed test") if status in (1, 2) else None


def main() -> int:
    start = time.monotonic()
    if run_mutant() is not None:
        sys.exit("the unmutated suite fails; no mutant can be scored")
    killed = 0
    for mutant in MUTANTS:
        name, old, new, killer = mutant
        by = run_mutant(mutant)
        killed += by is not None
        stale = "" if by in (None, killer) else f"  (stored killer: {killer})"
        print(f"{f'killed by {by}' if by else 'SURVIVED'}{stale}\n    {name}: {old!r} -> {new!r}", flush=True)
    print(f"mutation score: {killed}/{len(MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
