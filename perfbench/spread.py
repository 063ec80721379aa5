"""Run-to-run spread of the end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints per
workload and metric the median, the quartile spread (Q3 - Q1 of
``statistics.quantiles(values, n=4)``) as a share of the median, and the
metric's bound from BENCHMARK.json.  Exits 1 if a run fails, reports a
failed operation, or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        calib: list[tuple[float, float]] = []
        wall: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr.decode()[-2000:]}")
                return 1
            lines = proc.stdout.decode().splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            calib.append((record["host.calib_ms_before"], record["host.calib_ms_after"]))
            wall.append(record["ops_per_s_wall"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            gated = metric["name"] != "setup_s"
            within = share <= metric["bound"] or not gated
            ok &= within
            print(
                f"{workload:20s} {metric['name']:10s} median {med:12.5g} {metric['unit']:4s} "
                f"spread {share:6.3f} bound {metric['bound']:.2f}{'' if within else '  EXCEEDS BOUND'}"
                f"  values {[round(x, 4) for x in v]}",
                flush=True,
            )
        q1, med, q3 = statistics.quantiles(wall, n=4)
        print(f"{workload:20s} unscaled ops per wall second: median {med:.5g}, spread {(q3 - q1) / med:.3f}")
        print(f"{workload:20s} host.calib_ms before/after {[(round(a), round(b)) for a, b in calib]}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
