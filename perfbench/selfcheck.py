"""Self-checks of the benchmark itself.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py

1. The exact per-seed counts (``ellipsoid.attempts_per_accept``,
   ``triangle.reject_frac``, ``triangle.rejects.<kind>``) repeat exactly in
   two traced runs at one seed and change when the seed changes.
2. In a directory holding only BENCHMARK.json and this directory, the
   runner exits non-zero without printing a result.

Exits 0 when both hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = {
    "quadric-population": ["ellipsoid.attempts_per_accept"],
    "random-search": [
        "triangle.reject_frac",
        "triangle.rejects.Degenerate",
        "triangle.rejects.TooWide",
        "triangle.rejects.Cogeodesic",
    ],
}


def run(cwd: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=cwd, capture_output=True, timeout=300,
    )


def counts(workload: str, seed: int) -> list[float]:
    proc = run(ROOT, workload, seed)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.decode()[-1000:]}")
    metrics = json.loads(proc.stdout.decode().splitlines()[-1])["metrics"]
    return [metrics[name]["value"] for name in COUNTS[workload]]


def main() -> int:
    ok = True
    for workload, names in COUNTS.items():
        a, again, other = counts(workload, 301), counts(workload, 301), counts(workload, 302)
        repeat, moves = a == again, a != other
        ok &= repeat and moves
        print(f"{workload}: {dict(zip(names, a))} repeats={repeat} changes-with-seed={moves}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "exact-proof", 1)
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    ok &= refused
    print(f"without src: exit {proc.returncode}, stdout {len(proc.stdout)} bytes, refused={refused}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
