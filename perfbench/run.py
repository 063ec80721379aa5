"""napsphere benchmark: one workload, one seed, one timed run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``cold-cli``, ``quadric-population``, ``random-search`` and
``exact-proof`` (see README.md in this directory for why each exists and
which per-layer figure should move which end-to-end figure).  The package
is imported from the checkout's ``src``; without it the runner exits 2 and
prints no result.

With ``--trace 0`` the timed loop runs untraced and the result carries the
end-to-end metrics, ``ops_per_s`` and ``setup_s``, in reference-host time
(see ``host_scale`` and ``fast_rate``).  With ``--trace 1`` the loop
alternates untraced and traced steps; the result carries the per-layer
metrics, computed from the traced steps, and ``trace.overhead_frac``, the
untraced over the traced ``ops_per_s`` minus one.  The last line of standard output is the
result object; the line before it is a provenance record, also written to
``perfbench/out/<workload>-trace<0|1>.json`` together with the spans.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh-process set-ups timed per untraced run, half before and half after
# the timed loop so that they sample two host phases.
SETUP_REPEATS = 8
# Cold ``python -c`` imports timed per traced run, per module.
IMPORT_REPEATS = 3
# Host speed is read from a fixed pure-Python loop: CALIB_ITERATIONS of it
# before and after a run (host.calib_ms), REF_ITERATIONS of it between steps
# and before every set-up.  End-to-end times are scaled to a reference host
# on which the CALIB_ITERATIONS loop takes REF_CALIB_MS (see run_loop).
CALIB_ITERATIONS = 1_000_000
REF_ITERATIONS = 20_000
REF_CALIB_MS = 50.0
# Share of a run's steps, cheapest first, behind ops_per_s (see fast_rate).
FAST_SHARE = 0.2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_src() -> None:
    """Make ``import napsphere`` resolve to this checkout's ``src`` only."""
    if not (SRC / "napsphere" / "__init__.py").is_file():
        fail(f"no napsphere package under {SRC}")
    sys.path.insert(0, str(SRC))
    import napsphere

    if Path(napsphere.__file__).resolve().parent != (SRC / "napsphere").resolve():
        fail(f"napsphere imported from {napsphere.__file__}, not from {SRC}")


def subprocess_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first on the
    path and no ``NAPOLEON_TOL``, so that the CLI sees only generated input."""
    env = {k: v for k, v in os.environ.items() if k != "NAPOLEON_TOL"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calib_ms(iterations: int = CALIB_ITERATIONS) -> float:
    """Milliseconds the host takes for CALIB_ITERATIONS of a fixed pure-Python
    loop, timed over *iterations* of it."""
    start = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return (time.perf_counter() - start) * 1e3 * CALIB_ITERATIONS / iterations


def host_scale(*calib: float) -> float:
    """Factor that turns a wall time into the time it would take on the
    reference host, from calibration times read around it (measured now when
    none are given): below 1 while this host runs slow."""
    return REF_CALIB_MS / statistics.mean(calib or (calib_ms(REF_ITERATIONS),))


def child_setups(workload: str, seed: int, env: dict[str, str], repeats: int) -> list[tuple[float, float]]:
    """``(spawn-to-ready wall seconds, host scale)`` of fresh processes that
    only set up."""
    out = []
    for _ in range(repeats):
        scale = host_scale()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, env=env, timeout=120,
        )
        ready = [ln for ln in proc.stdout.decode().splitlines() if ln.startswith("SETUP_READY ")]
        if proc.returncode != 0 or not ready:
            fail(f"set-up child failed ({proc.returncode}): {proc.stderr.decode()[-500:]}")
        out.append((float(ready[-1].split()[1]) - start, scale))
    return out


def cold_import_ms(env: dict[str, str]) -> dict[str, float]:
    """Median wall time of cold ``python -c`` processes, per imported module."""
    out = {}
    for key, code in (("python", "pass"), ("numpy", "import numpy"), ("napsphere", "import napsphere")):
        times = []
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                fail(f"python -c {code!r} failed: {proc.stderr.decode()[-500:]}")
        out[f"import.{key}_ms"] = statistics.median(times) * 1e3
    return out


def run_loop(wl, tracer, seconds: float, trace: bool) -> list[tuple[float, int, int, bool, float]]:
    """Closed loop for *seconds* (and, when tracing, until the per-seed counts
    are complete); returns ``(seconds, operations, failed, traced, host
    scale)`` per step, the scale read from the calibration loop run just
    before and just after the step."""
    steps = []
    calib = [calib_ms(REF_ITERATIONS)]
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(steps) >= 1 + trace and now - start >= seconds and (not trace or wl.counts_done()):
            return [(*step, host_scale(calib[i], calib[i + 1])) for i, step in enumerate(steps)]
        traced = trace and len(steps) % 2 == 1
        tracer.on = traced
        t0 = tracer.begin_op() if traced else time.perf_counter()
        ops, failed = wl.step()
        t1 = time.perf_counter()
        if traced:
            tracer.end_op()
        steps.append((t1 - t0, ops, failed, traced))
        calib.append(calib_ms(REF_ITERATIONS))


def rate(steps, scaled: bool = False) -> float:
    """Operations per second over *steps*: of wall time, or of reference-host
    time when *scaled*."""
    return sum(s[1] for s in steps) / sum(s[0] * (s[4] if scaled else 1.0) for s in steps)


def fast_rate(steps) -> float:
    """Operations per second of reference-host time over the cheapest
    ``FAST_SHARE`` of *steps*.

    This host's speed swings by up to about 2x over seconds to minutes (CPU
    time tracks wall time, so it is not steal time), and a run's plain mean
    mixes fast and slow phases in proportions that vary from run to run.
    Each step's wall time is scaled by the host speed read just before and
    just after it, which follows the swings closely but not exactly; the cheapest scaled
    steps then measure the code at the host's full speed.  Steps hold enough
    work that their cost barely depends on which inputs they drew.
    """
    by_cost = sorted(steps, key=lambda s: s[0] * s[4] / s[1])
    return rate(by_cost[: max(1, math.ceil(len(by_cost) * FAST_SHARE))], scaled=True)


def layer_metrics(spans, steps) -> dict[str, float]:
    from tracing import durations, layer_summary, median, tail
    from workloads import QuadricPopulation

    def us(layer, name):
        return median(durations(spans, layer, name)) * 1e6

    samples = durations(spans, "ellipsoid", "sample")
    m = {
        "cli.import_ms_p50": median(durations(spans, "import", "napsphere.cli")) * 1e3,
        "cli.main_ms_p50": median(durations(spans, "cli", "main")) * 1e3,
        "cli.call_ms_tail": tail(durations(spans, "cli", "call")) * 1e3,
        "ellipsoid.sample_us_per_accept": sum(samples) * 1e6 / (len(samples) * QuadricPopulation.BATCH)
        if samples else 0.0,
        "ellipsoid.realize_us_p50": us("ellipsoid", "realize"),
        "triangle.new_triangle_us_p50": us("triangle", "new_triangle"),
        "napoleon.napoleonise_us_p50": us("napoleon", "napoleonise"),
        "oracle.search_us_p50": us("oracle", "search"),
        "classify.classify_us_p50": us("classify", "classify"),
        "algebra.verify_all_ms_p50": us("algebra", "verify_all") / 1e3,
    }
    m.update(layer_summary(spans, sum(s[0] for s in steps if s[3])))
    return m


def versions() -> dict[str, str]:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = "absent"
    return out


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print SETUP_READY <perf_counter>, exit")
    args = parser.parse_args()

    use_checkout_src()
    os.environ.pop("NAPOLEON_TOL", None)
    from tracing import Tracer, tail
    from workloads import EXACT_COUNTS, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    env = subprocess_env()
    tracer = Tracer()

    if args.setup_only:
        cls(args.seed, tracer, env)
        print(f"SETUP_READY {time.perf_counter()!r}", flush=True)
        return

    # The reference loop and the measured work, children included, share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calib_before = calib_ms()
    setup_repeats = 0 if args.trace else SETUP_REPEATS // 2
    setups = child_setups(args.workload, args.seed, env, setup_repeats)
    imports = cold_import_ms(env) if args.trace else {}
    wl = cls(args.seed, tracer, env)
    steps = run_loop(wl, tracer, args.seconds, bool(args.trace))
    setups += child_setups(args.workload, args.seed, env, setup_repeats)
    calib_after = calib_ms()
    setups_scaled = [wall * scale for wall, scale in setups]

    attempted = sum(s[1] for s in steps)
    failed = sum(s[2] for s in steps)
    plain = [s for s in steps if not s[3]]
    traced = [s for s in steps if s[3]]
    per_op_ms = [s[0] * 1e3 / s[1] for s in plain]
    if args.trace:
        metrics = {**imports, **layer_metrics(tracer.spans, steps)}
        metrics.update(dict.fromkeys(EXACT_COUNTS, 0))
        metrics.update(wl.exact_counts())
        metrics["trace.overhead_frac"] = fast_rate(plain) / fast_rate(traced) - 1.0
        metrics["host.calib_ms"] = (calib_before + calib_after) / 2
    else:
        metrics = {"ops_per_s": fast_rate(plain), "setup_s": statistics.median(setups_scaled)}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(metrics):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(unit_of) ^ set(metrics))}")
    record = {
        "workload": wl.name,
        "why": wl.why,
        "op": wl.op,
        "aliases": wl.aliases,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        **versions(),
        "nproc": os.cpu_count(),
        "host.calib_ms_before": calib_before,
        "host.calib_ms_after": calib_after,
        "steps": len(steps),
        "ops_per_s_wall": rate(plain),
        "ops_per_s_scaled": rate(plain, scaled=True),
        "host_scale_p50": statistics.median(s[4] for s in plain),
        "op_ms_p50": statistics.median(per_op_ms),
        "op_ms_tail": tail(per_op_ms),
        "ops_timed": len(per_op_ms),
        "setup_s_wall": [wall for wall, _ in setups],
        "setup_s_scaled": setups_scaled,
        "failed_frac": failed / attempted,
        "errors": wl.errors,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics, "steps": steps, "spans": tracer.spans}, fh)
    for err in wl.errors:
        print(f"perfbench: failed operation: {err}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
