"""Mutation check: does the test suite notice small changes to napsphere?

Run as ``python tests/mutation.py`` from any directory (about 9 minutes on a
2-vCPU machine).  Each mutant is one textual edit of a file in
``src/napsphere/``, applied in its own temporary copy of ``src/``,
``tests/`` and ``perfbench/``; the copy's suite then runs with ``pytest -x``,
leaving out acceptance criteria 4 and 5, which fail as stated.  A mutant is
*killed* when some test fails or a test module no longer imports, and
*survives* when every test passes.  The unmutated copy runs first and must
pass, and a mutant whose source text is not found exactly once stops the
script, so a stale list cannot pass as a score.  The copies run
one after another.  Prints one line per mutant and the score; exits 1 if any
mutant survives.  Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file in src/napsphere, source text, its replacement)
MUTANTS = [
    ("algebra.py", "return self._merge(other, -1)", "return self._merge(other, 1)"),
    ("algebra.py", "if not math.isfinite(other):", "if math.isnan(other):"),
    ("algebra.py", "_CARRY = _EXP_LIMIT * (", "_CARRY = 2 * _EXP_LIMIT * ("),
    ("algebra.py", "        return self.holds", "        return True"),
    ("__init__.py", '"ClassificationReport": "verdict",', '"ClassificationReport": "napoleon",'),
    ("cli.py", "NORMALISE_WARN = 1e-6", "NORMALISE_WARN = 1e-5"),
    ("cli.py", "args.tol >= 0.0", "args.tol > 0.0"),
    ("cli.py", "if n < 1e-12:", "if n < 1e-10:"),
    ("core.py", "UNIT_NORM_TOL = 1e-9", "UNIT_NORM_TOL = 1e-8"),
    ("core.py", "if _first(n < 1e-9) is not None:", "if _first(n < 1e-6) is not None:"),
    ("core.py", "n = np.sqrt(dot(s, s))", "n = dot(s, s)"),
    ("core.py", "return np.vecdot(a, b)", "return np.vecdot(a, a)"),
    (
        "core.py",
        "a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)",
        "a.take(_PREV, -1) * b.take(_NEXT, -1) - a.take(_NEXT, -1) * b.take(_PREV, -1)",
    ),
    ("ellipsoid.py", "_MAX_REJECTIONS = 10**6", "_MAX_REJECTIONS = 10**5"),
    ("ellipsoid.py", "np.sqrt(dot(off, off)) >= DIAGONAL_MARGIN", "np.sqrt(dot(off, off)) > DIAGONAL_MARGIN"),
    ("ellipsoid.py", "(d >= D_FLOOR).all(axis=1)", "(d > 0.0).all(axis=1)"),
    ("ellipsoid.py", "(d >= D_FLOOR).all(axis=1)", "(d >= D_FLOOR).any(axis=1)"),
    ("ellipsoid.py", "return np.concatenate(blocks), attempts", "return np.concatenate(blocks), attempts + 1"),
    ("ellipsoid.py", "(count, seed)[0].tolist()]", "(count, seed)[0].tolist()[::-1]]"),
    ("errors.py", 'kind = "TooWide"', 'kind = "Wide"'),
    (
        "napoleon.py",
        "max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))",
        "max(abs(rr01 - rr12), abs(rr12 - rr20))",
    ),
    ("napoleon.py", "t.edge_inners, t.d, eff", "t.edge_inners, t.edge_inners, eff"),
    ("napoleon.py", "-self.e2, -self.e1", "-self.e1, -self.e2"),
    ("napoleon.py", "NapoleonisationResult(q, r, rr01, rr12,", "NapoleonisationResult(q, r, rr12, rr01,"),
    ("napoleon.py", "(SQRT3 * c1)", "(1.7320508 * c1)"),
    ("oracle.py", "itertools.product((-1, +1), repeat=3)", "itertools.product((+1, -1), repeat=3)"),
    ("oracle.py", "return v * cos + w * sin + axis", "return v * cos - w * sin + axis"),
    ("oracle.py", "np.arccos(c / (1.0 + c))", "np.arccos(c / (1.0 - c))"),
    ("oracle.py", "np.abs(rr - rr.take(_NEXT, 1)).max(axis=1)", "np.abs(rr - rr.take(_NEXT, 1)).min(axis=1)"),
    ("oracle.py", "if res < tol]", "if res <= tol]"),
    ("oracle.py", "    hits.sort(key=lambda pair: pair[1])\n", ""),
    ("polynomials.py", "d2 * d2 - 1) / 2", "d2 * d2 + 1) / 2"),
    ("polynomials.py", "(1 - a) * (1 + 2 * a)", "(1 - a) * (1 + a)"),
    ("polynomials.py", "s2 * s0 + s0 * s1 * s2) / 4", "s2 * s0) / 4"),
    ("polynomials.py", "return 3 * (d0 * d0 + 1)", "return 2 * (d0 * d0 + 1)"),
    ("polynomials.py", "d0 * d1 + d0 * d2 + d1 * d2", "d0 * d1 - d0 * d2 + d1 * d2"),
    ("polynomials.py", "d2 * d2 - d0 * d1 - d1 * d2 - d2 * d0", "d2 * d2 - d0 * d1 - d1 * d2 + d2 * d0"),
    ("polynomials.py", "CLASSIFY_TOL = 1e-9", "CLASSIFY_TOL = 1e-8"),
    ("polynomials.py", "return d0 + d1 + d2 - d0 * d1 * d2", "return d0 + d1 + d2 + d0 * d1 * d2"),
    ("polynomials.py", "return 1 - d0 * d1 - d1 * d2 - d2 * d0", "return 1 - d0 * d1 - d1 * d2"),
    ("polynomials.py", "+ ek * ei * (", "+ ("),
    ("polynomials.py", "chi * (ei * dk + ek * di)", "chi * (ei * di + ek * dk)"),
    ("triangle.py", "_first(c <= -0.5 + BOUNDARY_BAND)", "_first(c < -0.5 + BOUNDARY_BAND)"),
    ("triangle.py", "and {(i + 1) % 3} {'are antipodal'", "and {(i + 2) % 3} {'are antipodal'"),
    ("triangle.py", "edge opposite vertex {i % 3} has", "edge opposite vertex {i} has"),
    ("triangle.py", "_first(abs(t) <= DEGENERACY_TOL)", "_first(abs(t) < DEGENERACY_TOL)"),
    ("triangle.py", "w, c = cross(a, b), dot(a, b)", "c = dot(a, b)"),
    ("triangle.py", "_first(abs(c) >= 1.0 - DEGENERACY_TOL)", "_first(abs(c) > 1.0)"),
    ("triangle.py", "return (d > 0.0) & (d < SQRT3)", "return (d > 0.0) & (d <= SQRT3)"),
    ("triangle.py", "return (d > 0.0) & (d < SQRT3)", "return (d >= 0.0) & (d < SQRT3)"),
    ("triangle.py", "return (d > 0.0) & (d < SQRT3)", "return (d > 0.0) & (d < SQRT3) | (d != d)"),
    ("triangle.py", "_in_range(dv[1]) and _in_range(dv[2])", "_in_range(dv[1])"),
    ("triangle.py", "d.tolist() if isinstance", "d.tolist()[::-1] if isinstance"),
    ("triangle.py", "if len(dv) != 3:", "if len(dv) < 3:"),
    ("triangle.py", "if not tol >= 0.0:", "if tol < 0.0:"),
    ("triangle.py", "if not tol >= 0.0:", "if not tol > 0.0:"),
    (
        "triangle.py",
        "object.__eq__, object.__ne__, object.__hash__",
        "tuple.__eq__, tuple.__ne__, tuple.__hash__",
    ),
    ("verdict.py", "if eqf < tol:", "if eqf <= tol:"),
    ("verdict.py", "elif abs(cres) < tol:", "elif abs(cres) <= tol:"),
    ("verdict.py", "if chi2 > 0.0 else 0.0", "if chi2 > 0.0 else -1.0"),
    ("verdict.py", "cval, cres, eqf", "cres, cval, eqf"),
]

KNOWN_FAILURES = [
    "tests/test_acceptance.py::test_criterion_4_reverse_direction_population",
    "tests/test_acceptance.py::test_criterion_5_inward_impossibility_near_quadric",
]


def run_suite(mutant=None) -> bool:
    """Whether the suite passes on a copy of the tree with *mutant* applied."""
    with tempfile.TemporaryDirectory(prefix="napsphere-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        for part in ("src", "tests", "perfbench"):  # a test reads perfbench/workloads.py
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is not None:
            name, old, new = mutant
            path = work / "src" / "napsphere" / name
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"mutant source {old!r} occurs {text.count(old)} times in {name}, not once")
            path.write_text(text.replace(old, new))
        deselect = [arg for test in KNOWN_FAILURES for arg in ("--deselect", test)]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect],
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True,
            text=True,
        )
    # 1: some test failed; 2: a test module failed to import, which after the unmutated copy has
    # passed only the mutant can cause; anything else: the run itself broke
    if proc.returncode not in (0, 1, 2):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 0


def main() -> int:
    if not run_suite():
        sys.exit("the unmutated suite fails; no mutant can be scored")
    killed = 0
    for mutant in MUTANTS:
        survived = run_suite(mutant)
        killed += not survived
        name, old, new = mutant
        print(f"{'SURVIVED' if survived else 'killed  '}  {name}: {old} -> {new}", flush=True)
    print(f"mutation score: {killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
