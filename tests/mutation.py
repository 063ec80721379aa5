"""Mutation check: does the test suite notice small changes to napsphere?

Run as ``python tests/mutation.py`` from any directory (about 2 minutes on a
2-vCPU machine).  Each mutant is one textual edit of a file in
``src/napsphere/``, applied in its own temporary copy of ``src/`` and
``tests/``; the copy's suite then runs with ``pytest -x``, leaving out
acceptance criteria 4 and 5, which fail as stated.  A mutant is *killed* when
some test fails and *survives* when every test passes.  The unmutated copy
runs first and must pass, and a mutant whose source text is not found exactly
once stops the script, so a stale list cannot pass as a score.  The copies run
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
    ("classify.py", "if eqf < tol:", "if eqf <= tol:"),
    ("classify.py", "elif abs(cres) < tol:", "elif abs(cres) <= tol:"),
    ("classify.py", "if chi2 > 0.0 else 0.0", "if chi2 > 0.0 else -1.0"),
    ("ellipsoid.py", "_MAX_REJECTIONS = 10**6", "_MAX_REJECTIONS = 10**5"),
    (
        "napoleon.py",
        "max(abs(rr01 - rr12), abs(rr12 - rr20), abs(rr20 - rr01))",
        "max(abs(rr01 - rr12), abs(rr12 - rr20))",
    ),
    ("triangle.py", "_first(c <= -0.5 + BOUNDARY_BAND)", "_first(c < -0.5 + BOUNDARY_BAND)"),
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
        for part in ("src", "tests"):
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
    if proc.returncode not in (0, 1):  # 1: some test failed; anything else: the run itself broke
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
