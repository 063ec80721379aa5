"""Every function in the package is called by real traffic, or is listed with its reason.

Real traffic is the golden CLI corpus run through ``napsphere.cli.main`` and
each benchmark workload of ``perfbench/workloads.py`` (its set-up plus ten
steps at seed 1), in a fresh interpreter whose ``sys.setprofile`` hook
records every code object that gets called.  ``cold-cli``'s set-up makes its
calls in process and its steps repeat them in child processes, which the
hook cannot see, so it runs no step.  A ``def`` in ``src/napsphere/`` that
none of it calls is a second way to do a job the package already does,
unless ``UNCALLED`` below names it and says why it stays.  The benchmark is
only imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "napsphere"

# The defs that real traffic does not call, each with the reason it stays.
UNCALLED = {
    "algebra.RationalPolynomial.__eq__": "the tests compare polynomials with their references",
    "algebra.RationalPolynomial.coeffs": "the tests read coefficients against a Fraction reference",
    "algebra._exponents": "unpacks a key for coeffs and __repr__",
    "algebra.RationalPolynomial.__repr__": "verify-identities prints a failed check's difference",
    "napoleon.SignVector._make": "keeps _replace validated",
    "napoleon.SignVector.__str__": "the --signs spelling of a sign vector",
    "verdict.classify_d": "the paper's test on a raw d",
    "core.unit_vector": "the public point check; triangles apply its rule to coordinates (core._normalised)",
    "__init__.__dir__": "dir(napsphere) lists the lazily loaded names",
    "cli._Parser.error": "usage errors exit 1, not argparse's 2",
}

# Run in a fresh interpreter, with the hook in place before napsphere is imported.
TRAFFIC_SCRIPT = """
import contextlib, io, json, os, sys

codes = set()


def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(hook)
root, package = sys.argv[1], os.path.realpath(sys.argv[2])
sys.path.insert(0, os.path.join(root, "perfbench"))
import napsphere.cli
import workloads
from tracing import Tracer

for case in json.load(open(os.path.join(root, "tests", "golden", "cases.json"))):
    sys.stdin = io.StringIO(json.dumps(case["stdin"]) if "stdin" in case else "")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert napsphere.cli.main(case["argv"]) == case["exit"], case["name"]
sys.stdin = sys.__stdin__
for name, cls in workloads.WORKLOADS.items():
    workload = cls(1, Tracer(), dict(os.environ))
    for _ in range(0 if cls is workloads.ColdCli else 10):
        _, failed = workload.step()
        assert failed == 0, (name, workload.errors)
sys.setprofile(None)
called = {(os.path.relpath(os.path.realpath(c.co_filename), package), c.co_firstlineno) for c in codes}
print(json.dumps(sorted(called)))
"""


def _defs() -> dict[tuple[str, int], str]:
    """Each def in the package by (file, first line of its code object), with its dotted name."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    # A decorated function's code object starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path.name, first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def test_every_def_is_called_by_real_traffic_or_listed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", TRAFFIC_SCRIPT, str(ROOT), str(PACKAGE)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    called = {tuple(key) for key in json.loads(proc.stdout)}
    defs = _defs()
    assert len(defs) >= 100, sorted(defs.values())  # the walk found the package's functions
    uncalled = {name for key, name in defs.items() if key not in called}
    # Left: defs nothing calls (delete them, or list them with a reason); right: listed defs now called.
    assert (sorted(uncalled - UNCALLED.keys()), sorted(UNCALLED.keys() - uncalled)) == ([], [])
