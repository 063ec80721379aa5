"""The benchmark's four workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one client: :meth:`step` runs one unit
of work, checks its outputs and returns ``(operations, failed)``.  A wrong
answer, a non-zero exit or an unexpected exception counts as a failed
operation; the loop goes on.  Calls into napsphere go through
``Tracer.call`` so that a traced run records one span per call.

Import this module only after ``napsphere`` is importable from the
checkout's ``src`` (``run.py`` arranges that).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import napsphere.cli
from napsphere import (
    INWARD,
    OUTWARD,
    NapsphereError,
    SignVector,
    Verdict,
    centroid_inner_closed_form,
    classify,
    napoleonise,
    new_triangle,
    realize,
    sample_napoleonic_d,
    sample_napoleonic_d_with_attempts,
    search_equilateral,
    side_parameters,
)
from napsphere.algebra import verify_all

from tracing import Tracer

HERE = Path(__file__).resolve().parent


class Workload:
    name = ""
    why = ""
    # One operation, the unit of ``ops_per_s`` and of ``attempted``.
    op = ""
    # Workload-specific names of the generic metrics.
    aliases: dict[str, str] = {}

    def __init__(self, seed: int, tracer: Tracer, env: dict[str, str]) -> None:
        self.seed = seed
        self.tr = tracer
        self.env = env
        self.errors: list[str] = []

    def step(self) -> tuple[int, int]:
        raise NotImplementedError

    def counts_done(self) -> bool:
        """True once the fixed prefix behind the exact per-seed counts has run."""
        return True

    def exact_counts(self) -> dict[str, float]:
        """Counts that depend only on the seed (reported in traced runs)."""
        return {}

    def _unexpected(self, exc: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


class ColdCli(Workload):
    name = "cold-cli"
    why = (
        "Each call pays interpreter start and `import napsphere` (SciPy's spatial package among it); "
        "compute is a few ms. Start-up changes show here, kernel changes do not."
    )
    op = "one cold CLI process, spawn to exit"
    aliases = {"op_ms_p50": "cli_ms_p50", "ops_per_s": "cli_calls_per_s"}
    # Subcommands cycled through; inputs vary per seed.
    KINDS = (
        "classify-vertices",
        "classify-d",
        "napoleonise-json",
        "napoleonise-csv",
        "search-vertices",
        "search-d",
        "verify-identities",
        "sample-realize",
    )

    def __init__(self, seed, tracer, env):
        super().__init__(seed, tracer, env)
        rng = np.random.default_rng(seed)
        quadric = sample_napoleonic_d(8, seed)
        self.calls: list[tuple[list[str], bytes, bytes]] = []
        for copy in range(2):
            for k, kind in enumerate(self.KINDS):
                argv, doc = self._make_call(kind, rng, quadric[copy * 4 + k % 4], swap=bool(copy))
                self.calls.append((argv, doc, self._expected(argv, doc)))
        order = rng.permutation(len(self.calls))
        self.calls = [self.calls[i] for i in order]
        self.index = 0

    @staticmethod
    def _vertices_doc(rng, swap: bool) -> bytes:
        while True:
            v = rng.normal(size=(3, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            try:
                new_triangle(v[0], v[1], v[2])
            except NapsphereError:
                continue
            rows = [v[0], v[2], v[1]] if swap else [v[0], v[1], v[2]]
            return json.dumps({"vertices": [[float(x) for x in r] for r in rows]}).encode()

    def _make_call(self, kind, rng, quadric_d, swap):
        d_doc = json.dumps({"d": list(quadric_d.as_tuple())}).encode()
        if kind == "classify-vertices":
            return ["classify", "-"], self._vertices_doc(rng, swap)
        if kind == "classify-d":
            return ["classify", "-"], d_doc
        if kind == "napoleonise-json":
            return ["napoleonise", "-", "--signs", "out"], self._vertices_doc(rng, swap)
        if kind == "napoleonise-csv":
            return ["napoleonise", "-", "--signs", "out", "--format", "csv"], d_doc
        if kind == "search-vertices":
            return ["search", "-", "--tol", "1e-6"], self._vertices_doc(rng, swap)
        if kind == "search-d":
            return ["search", "-", "--tol", "1e-6"], d_doc
        if kind == "verify-identities":
            return ["verify-identities"], b""
        return ["sample", "--count", "20", "--seed", str(int(rng.integers(0, 2**31))), "--realize"], b""

    @staticmethod
    def _expected(argv: list[str], doc: bytes) -> bytes:
        """Stdout of the same call made in this process."""
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(doc.decode())
        try:
            with contextlib.redirect_stdout(out):
                code = napsphere.cli.main(argv)
        finally:
            sys.stdin = saved
        if code != 0:
            raise RuntimeError(f"set-up call {argv} exited {code}")
        return out.getvalue().encode()

    @staticmethod
    def _well_formed(argv: list[str], stdout: bytes) -> bool:
        text = stdout.decode()
        if argv[0] == "verify-identities":
            lines = text.splitlines()
            return bool(lines) and all(line.startswith("PASS  ") for line in lines)
        if "csv" in argv:
            return text.startswith("kind,index,x,y,z\n")

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        try:
            json.loads(text, parse_constant=reject)
        except ValueError:
            return False
        return text.count("\n") == 1

    def step(self):
        argv, doc, expected = self.calls[self.index % len(self.calls)]
        self.index += 1
        traced = self.tr.on
        script = [str(HERE / "cli_child.py")] if traced else ["-m", "napsphere.cli"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *script, *argv], input=doc, capture_output=True, env=self.env, timeout=120
        )
        end = time.perf_counter()
        ok = proc.returncode == 0 and proc.stdout == expected and self._well_formed(argv, proc.stdout)
        if traced:
            call = self.tr.add("cli", "call", start, end)
            marks = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith("CLI_CHILD ")]
            if marks:
                child = json.loads(marks[-1][len("CLI_CHILD "):])
                self.tr.add("import", "napsphere.cli", *child["import"], parent=call)
                self.tr.add("cli", "main", *child["main"], parent=call)
            else:
                ok = False
        if not ok and len(self.errors) < 5:
            self.errors.append(f"{argv}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
        return 1, 0 if ok else 1


class QuadricPopulation(Workload):
    name = "quadric-population"
    why = (
        "The paper's forward direction and `sample --realize` at scale: sample the quadric, realize, "
        "build the outward Napoleonisation and classify."
    )
    op = "one triangle sampled, realized, constructed, classified and checked"
    aliases = {"ops_per_s": "quadric_tri_per_s"}
    BATCH = 100
    # Batches behind ellipsoid.attempts_per_accept (an exact count per seed).
    COUNT_BATCHES = 10
    OK_VERDICTS = (Verdict.OUTWARD_NAPOLEONIC, Verdict.EQUILATERAL)

    def __init__(self, seed, tracer, env):
        super().__init__(seed, tracer, env)
        self.batch = 0
        self.prefix_attempts = 0

    def step(self):
        tr = self.tr
        try:
            samples, attempts = tr.call(
                "ellipsoid", "sample", sample_napoleonic_d_with_attempts, self.BATCH, self.seed * 1_000_003 + self.batch
            )
        except Exception as exc:  # an exception here is a failed operation, not a crash
            self._unexpected(exc)
            self.batch += 1
            return 1, 1
        if self.batch < self.COUNT_BATCHES:
            self.prefix_attempts += attempts
        self.batch += 1
        failed = 0
        for d in samples:
            try:
                t = tr.call("ellipsoid", "realize", realize, d)
                res = tr.call("napoleon", "napoleonise", napoleonise, t, OUTWARD)
                report = tr.call("classify", "classify", classify, t)
            except Exception as exc:  # an exception here is a failed operation, not a crash
                self._unexpected(exc)
                failed += 1
                continue
            ok = (
                res.equilateral_residual < 1e-9
                and all(abs(rr + 1.0 / 3.0) <= 1e-9 for rr in res.centroid_inners)
                and report.verdict in self.OK_VERDICTS
            )
            failed += not ok
        return len(samples), failed

    def counts_done(self):
        return self.batch >= self.COUNT_BATCHES

    def exact_counts(self):
        return {"ellipsoid.attempts_per_accept": self.prefix_attempts / (self.COUNT_BATCHES * self.BATCH)}


class RandomSearch(Workload):
    name = "random-search"
    why = (
        "The reverse direction and the `search` subcommand at scale: uniform vertex triples, typed rejections, "
        "both uniform-sign constructions, the 8-sign oracle and classification."
    )
    op = "one kept triangle fully processed, with the rejected candidates drawn before it"
    aliases = {"ops_per_s": "search_tri_per_s"}
    TOL = 1e-6
    KEPT_PER_STEP = 16
    # Candidates behind triangle.reject_frac and triangle.rejects.<kind>.
    COUNT_CANDIDATES = 1000
    BLOCK = 4096
    KINDS = ("Degenerate", "TooWide", "Cogeodesic")

    def __init__(self, seed, tracer, env):
        super().__init__(seed, tracer, env)
        self.rng = np.random.default_rng(seed)
        self.pool = self._block()
        self.drawn = 0
        self.rejects = {kind: 0 for kind in self.KINDS}

    def _block(self) -> np.ndarray:
        v = self.rng.normal(size=(self.BLOCK, 3, 3))
        return v / np.linalg.norm(v, axis=2, keepdims=True)

    def _candidate(self) -> np.ndarray:
        i = self.drawn % self.BLOCK
        if i == 0 and self.drawn:
            self.pool = self._block()
        self.drawn += 1
        return self.pool[i]

    def step(self):
        failed = 0
        for _ in range(self.KEPT_PER_STEP):
            failed += self._one()
        return self.KEPT_PER_STEP, failed

    def _one(self) -> int:
        tr = self.tr
        while True:
            v = self._candidate()
            try:
                t = tr.call("triangle", "new_triangle", new_triangle, v[0], v[1], v[2])
                break
            except NapsphereError as exc:
                if exc.kind not in self.rejects:
                    self._unexpected(exc)
                    return 1
                if self.drawn <= self.COUNT_CANDIDATES:
                    self.rejects[exc.kind] += 1
            except Exception as exc:  # an untyped rejection is a failed operation
                self._unexpected(exc)
                return 1
        try:
            res_out = tr.call("napoleon", "napoleonise", napoleonise, t, OUTWARD)
            res_in = tr.call("napoleon", "napoleonise", napoleonise, t, INWARD)
            hits = tr.call("oracle", "search", search_equilateral, t, self.TOL)
            report = tr.call("classify", "classify", classify, t, self.TOL)
            ok = self._check(t, res_out, res_in, hits, report)
        except Exception as exc:  # an exception here is a failed operation, not a crash
            self._unexpected(exc)
            return 1
        return 0 if ok else 1

    def _check(self, t, res_out, res_in, hits, report) -> bool:
        """Outputs checked in the stored (orientation-normalised) vertex order.

        ``search_equilateral`` reports stored-order signs, while ``napoleonise``
        takes signs in the caller's order: on a swapped triangle the caller's
        OUTWARD is the stored (+,+,+) construction.
        """
        by_stored = {}
        for res in (res_out, res_in):
            by_stored[res.signs.oriented(t.orientation_swapped).as_tuple()] = res

        # Closed-form centroid inner products <R_{i+2}, R_i> at the stored signs.
        d = side_parameters(t)
        for signs, res in by_stored.items():
            s = SignVector(*signs)
            rr = (res.rr20, res.rr01, res.rr12)
            for i in range(3):
                if abs(centroid_inner_closed_form(d, t.chi, s, i) - rr[i]) > 1e-9:
                    return False

        # Agreement rule of the oracle test, with its exclusion bands.
        if 1e-8 < abs(report.condition_residual) < 1e-4 or 1e-8 < report.equilateral_factor < 1e-3:
            return True
        found = {s.as_tuple() for s, _ in hits}
        expected = report.verdict in (Verdict.EQUILATERAL, Verdict.OUTWARD_NAPOLEONIC)
        if bool(found & set(by_stored)) != expected:
            return False
        return all((by_stored[u].equilateral_residual < self.TOL) == (u in found) for u in by_stored)

    def counts_done(self):
        return self.drawn >= self.COUNT_CANDIDATES

    def exact_counts(self):
        out = {"triangle.reject_frac": sum(self.rejects.values()) / self.COUNT_CANDIDATES}
        out.update({f"triangle.rejects.{kind}": n for kind, n in self.rejects.items()})
        return out


class ExactProof(Workload):
    name = "exact-proof"
    why = "Pure-Python Fraction arithmetic of `verify_all`, which no other workload spends time in."
    op = "one full verify_all pass"
    aliases = {"ops_per_s": "proofs_per_s"}

    def __init__(self, seed, tracer, env):
        super().__init__(seed, tracer, env)
        self.names = [c.name for c in verify_all()]

    PASSES_PER_STEP = 4

    def step(self):
        failed = 0
        for _ in range(self.PASSES_PER_STEP):
            try:
                checks = self.tr.call("algebra", "verify_all", verify_all)
            except Exception as exc:  # an exception here is a failed operation, not a crash
                self._unexpected(exc)
                failed += 1
                continue
            failed += not ([c.name for c in checks] == self.names and all(checks))
        return self.PASSES_PER_STEP, failed


WORKLOADS = {w.name: w for w in (ColdCli, QuadricPopulation, RandomSearch, ExactProof)}
# Names of every workload's exact per-seed counts; 0 where a workload has none.
EXACT_COUNTS = ("ellipsoid.attempts_per_accept", "triangle.reject_frac", *(f"triangle.rejects.{k}" for k in RandomSearch.KINDS))
