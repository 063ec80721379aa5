"""Output bits that depend on neither the BLAS kernel nor NumPy's CPU dispatch.

Two child processes run the same script: one with the host's settings and one
with ``NPY_DISABLE_CPU_FEATURES`` switching off NumPy's AVX-512 loops (among
them its ``arccos``) and, on a host with AVX2, ``OPENBLAS_CORETYPE=Haswell``,
whose ``ddot`` does not fuse multiply and add as the AVX-512 kernel does.  Each
child runs the golden corpus through the CLI and compares every file as bytes,
then hashes a small sample of outputs: 500 uniform vertex triples through
``new_triangle`` (a rejection by its type and message), all eight
``napoleonise`` calls and ``search_equilateral(t, inf)`` of each kept triangle,
and 200 realized quadric samples.  The two hashes must be equal.  The package
reads neither variable; they are set only in the child's environment.  The
inputs are built with element-wise NumPy arithmetic, which rounds the same
under either setting.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, hashlib, io, itertools, json, sys
from pathlib import Path

import numpy as np

from napsphere import (NapsphereError, SignVector, napoleonise, new_triangle, realize,
                       sample_napoleonic_d_with_attempts, search_equilateral)
from napsphere.cli import main

golden = Path(sys.argv[1])
differ = []
for case in json.loads((golden / "cases.json").read_text()):
    out = io.StringIO()
    sys.stdin = io.StringIO(json.dumps(case["stdin"]) if "stdin" in case else "")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(case["argv"])
    if code != case["exit"] or out.getvalue().encode() != (golden / (case["name"] + ".out")).read_bytes():
        differ.append(case["name"])

h = hashlib.sha256()


def add(*values):
    for v in values:
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())


signs = [SignVector(*e) for e in itertools.product((-1, 1), repeat=3)]
v = np.random.default_rng(2024).normal(size=(500, 3, 3))
v /= np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])[..., None]
for row in v:
    try:
        t = new_triangle(*row)
    except NapsphereError as exc:
        add(type(exc).__name__, str(exc))
        continue
    add(t.vertices, t.edge_inners, t.edge_normals, t.d, t.chi, t.orientation_swapped)
    for s in signs:
        res = napoleonise(t, s)
        add(res.apexes, res.centroids, res.centroid_inners, res.equilateral_residual, res.near_boundary)
    add(search_equilateral(t, float("inf")))
for d in sample_napoleonic_d_with_attempts(200, 2024)[0]:
    t = realize(d)
    add(t.vertices, t.edge_inners, t.edge_normals, t.d, t.chi)
print(json.dumps({"differ": differ, "digest": h.hexdigest()}))
"""


def _portable_settings() -> dict:
    """The child environment's switches: no AVX-512 loops in NumPy and, where the CPU has AVX2,
    OpenBLAS's Haswell kernels."""
    from numpy._core._multiarray_umath import __cpu_features__

    settings = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    if __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"):
        settings["OPENBLAS_CORETYPE"] = "Haswell"
    return settings


def _child(settings: dict) -> dict:
    """The golden files that differ and the output digest, from a child process with *settings*."""
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "tests" / "golden")],
        env={**env, **settings}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_outputs_are_the_same_bits_under_another_blas_kernel_and_cpu_dispatch():
    native, portable = _child({}), _child(_portable_settings())
    assert native["differ"] == []
    assert portable["differ"] == []
    assert portable["digest"] == native["digest"]

