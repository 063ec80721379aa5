"""SHA-256 digests of napsphere's outputs over a fixed set of seeded inputs.

Run as ``PYTHONPATH=src python tests/output_digest.py`` (about 40 s).  It
prints one digest per group of inputs and a total.  A change that must keep
every output bit for bit is checked by running this one file against both
source trees and comparing the totals; a group whose digest moves names
where the outputs differ.  The digests depend on the platform's floating
point, as the golden corpus does.

Every float is hashed exactly (array bytes, or the shortest round-trip repr
of a scalar); every rejection by its error type and message; every warning
by its category and message.  Only attributes present in both the old and
the new triangle record are read: the vertices and apexes are iterated.  The
seeded uniform triangles come from ``random_triangles`` in ``conftest.py``.
pytest does not collect this file.

An earlier ``edges`` group digested ``apex``, ``edge_centroid`` and
``apex_by_rotation`` on bare edges.  Those single-edge constructions are gone;
every apex and centroid is now built by ``napoleonise`` or
``search_equilateral``, which the other groups digest.  So the totals of trees
before and after that removal differ; compare the remaining groups one by one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from napsphere import (
    NapsphereError,
    SideParameters,
    SignVector,
    classify,
    classify_d,
    napoleonise,
    new_triangle,
    realize,
    sample_napoleonic_d,
    search_equilateral,
    side_parameters,
)
from napsphere.cli import main as cli_main

from conftest import random_triangles

GOLDEN = Path(__file__).resolve().parent / "golden" / "cases.json"
SIGNS = [SignVector(*s) for s in itertools.product((-1, 1), repeat=3)]


class Digest:
    """A SHA-256 over a stream of values, each hashed exactly with its type."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self.h.update(f"{v.dtype}{v.shape}".encode() + v.tobytes())
            else:
                self.h.update(f"{type(v).__name__}:{v!r};".encode())

    def error(self, exc: Exception) -> None:
        self.add(type(exc).__name__, str(exc))

    def triangle(self, t) -> None:
        for p in t.vertices:
            self.add(p)
        self.add(t.chi, t.orientation_swapped, side_parameters(t).as_tuple(), repr(classify(t)))

    def napoleonisation(self, res) -> None:
        for p in (*res.apexes, *res.centroids):
            self.add(p)
        self.add(res.centroid_inners, res.equilateral_residual, str(res.signs), res.near_boundary,
                 res.centroids_coincident)


def _unit(rng: np.random.Generator, shape) -> np.ndarray:
    v = rng.normal(size=(*shape, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _vertices(dg: Digest, v, signs=SIGNS) -> None:
    """Validate a vertex triple; digest the triangle and its constructions, or the rejection."""
    try:
        t = new_triangle(*v)
    except (NapsphereError, ValueError) as exc:
        dg.error(exc)
        return
    dg.triangle(t)
    for s in signs:
        dg.napoleonisation(napoleonise(t, s))


def quadric(dg: Digest) -> None:
    """40 seeds x 300 quadric samples, realized and built with all eight signs."""
    for seed in range(40):
        for d in sample_napoleonic_d(300, seed):
            dg.add(d.as_tuple())
            t = realize(d)
            dg.triangle(t)
            for s in SIGNS:
                dg.napoleonisation(napoleonise(t, s))


def uniform_vertices(dg: Digest) -> None:
    """15,000 uniform vertex triples, rejections included, with both uniform signs."""
    for v in _unit(np.random.default_rng(1), (15_000, 3)):
        _vertices(dg, v, signs=(SIGNS[0], SIGNS[-1]))


def boundary(dg: Digest) -> None:
    """Hand cases at each validation threshold, in both vertex orders."""
    ex, ez = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    cases = [(ex, [0.0, 1.0, 0.0], ez), (ex, ex, ez), (ex, -ex, ez), (ex, [0.0, 1.1, 0.0], ez),
             (ex, [math.nan, 0.0, 0.0], ez), (ex, [-0.5, math.sqrt(0.75), 0.0], [-0.5, -math.sqrt(0.75), 0.0])]
    for c in (-0.5 - 1e-12, -0.5, *(-0.5 + k * 1e-7 for k in range(1, 21)), -1.0 / 3.0, 0.0, 0.9, 1.0 - 1e-12):
        s = math.sqrt(1.0 - c * c)
        cases.append((ex, [c, s, 0.0], ez))
        cases.append((ex, [c, s, 0.0], [c, -s / 2.0, math.sqrt(1.0 - c * c - s * s / 4.0)]))
    for sep in (1e-10, 5e-8, 1e-7, 1e-6, 1e-4):
        cases.append((ex, np.array([1.0, sep, 0.0]) / math.hypot(1.0, sep), ez))
        cases.append((ex, np.array([-1.0, sep, 0.0]) / math.hypot(1.0, sep), ez))
    for tp in (5e-10, 2e-9, 1e-8):
        cases.append((ex, [0.0, 1.0, 0.0], [-math.sqrt(0.5), math.sqrt(0.5 - tp * tp), tp]))
    for v in cases:
        _vertices(dg, v)
        _vertices(dg, (v[0], v[2], v[1]))


def uniform_d(dg: Digest) -> None:
    """15,000 uniform side parameters: classified, realized and built outward."""
    for row in np.random.default_rng(2).uniform(0.0, math.sqrt(3.0), size=(15_000, 3)).tolist():
        try:
            d = SideParameters(*row)
            dg.add(repr(classify_d(d)))
            t = realize(d)
        except NapsphereError as exc:
            dg.error(exc)
            continue
        dg.triangle(t)
        dg.napoleonisation(napoleonise(t, SIGNS[0]))


def oracle(dg: Digest) -> None:
    """random_triangles(2000, 99) with every sign vector's oracle residual."""
    for t in random_triangles(2000, 99):
        dg.triangle(t)
        dg.add([(str(s), r) for s, r in search_equilateral(t, math.inf)])


def _cli(argv, stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cli(dg: Digest) -> None:
    """The golden corpus's successful cases, and two 3,000-row ``sample --realize`` calls.

    Rejections are digested by the library groups above; the golden files
    pin the CLI's error documents byte for byte.
    """
    for case in json.loads(GOLDEN.read_text()):
        if case["exit"] == 0:
            dg.add(case["name"], *_cli(case["argv"], json.dumps(case["stdin"]) if "stdin" in case else ""))
    dg.add(*_cli(["sample", "--count", "3000", "--seed", "5", "--realize"]))
    dg.add(*_cli(["sample", "--count", "3000", "--seed", "6", "--realize", "--format", "csv"]))


def sample(dg: Digest) -> None:
    """480 ``sample`` calls: 120 seeds with counts from 1 to 700, JSON and CSV, with and without ``--realize``."""
    for seed in range(120):
        count = 1 + seed * 233 % 700
        for extra in ([], ["--realize"], ["--format", "csv"], ["--realize", "--format", "csv"]):
            dg.add(*_cli(["sample", "--count", str(count), "--seed", str(seed), *extra]))


def realize_boundary(dg: Digest) -> None:
    """``realize`` at its Gram-value threshold and with one tiny side parameter, in each position."""
    for i, value in itertools.product(range(3), (math.sqrt(3.0 - 1e-12), math.sqrt(3.0 - 8e-13), 1e-9, 1e-8, 2e-8, 1e-7)):
        d = [1.0, 1.0, 1.0]
        d[i] = value
        try:
            t = realize(SideParameters(*d))
        except NapsphereError as exc:
            dg.error(exc)
            continue
        dg.triangle(t)
        dg.napoleonisation(napoleonise(t, SIGNS[0]))


GROUPS = [quadric, uniform_vertices, boundary, uniform_d, oracle, cli, sample, realize_boundary]


def main() -> None:
    total = hashlib.sha256()
    for group in GROUPS:
        dg = Digest()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            group(dg)
        for w in caught:
            dg.add(w.category.__name__, str(w.message))
        digest = dg.h.hexdigest()
        total.update(digest.encode())
        print(f"{group.__name__:17} {digest}", flush=True)
    print(f"{'total':17} {total.hexdigest()}")


if __name__ == "__main__":
    main()
