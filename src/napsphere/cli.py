"""Command-line interface.

Subcommands
-----------
napoleonise        construct apexes/centroids for a triangle or d-triple
classify           report the Equilateral / OutwardNapoleonic / NotNapoleonic verdict
sample             draw seeded side parameters from the Napoleonic quadric
search             brute-force all eight sign vectors for equilateral results
verify-identities  run the exact polynomial identity checks

Inputs are JSON documents, either ``{"vertices": [[x,y,z], ...]}`` (three
vertices, normalised on ingestion) or ``{"d": [d0, d1, d2]}`` (side
parameters, realized as a canonical triangle).  Exit codes: 0 success,
1 malformed input, usage error or stdout closed by its reader before the
output was written, 2 geometric validation failure (the error kind is
printed as JSON).

See FORMATS.md for the exact output schemas.

At module level this imports only the standard library, :mod:`napsphere.errors`
and :mod:`napsphere.polynomials` (for the ``--tol`` default); each handler
imports the modules it runs, so no subcommand but ``verify-identities`` loads
the exact ring of :mod:`napsphere.algebra`, and only ``sample`` loads NumPy.
``json`` is imported where a document is read or written, which
``verify-identities`` never does.

``napoleonise``, ``classify`` and ``search`` take one triangle from the
document to stdout on Python floats.  :func:`_triangle_from_doc` returns the
triangle's frame unpacked (``triangle._frame``, or ``triangle._placed`` for a
``d`` document), and each handler runs the kernel that its public function runs
on the record's arrays: ``napoleon._construction``, ``verdict._report`` and
``oracle._search``, with ``core._barycentre`` and ``core.spherical_distance``.
So the output equals the public records' bit for bit, without building them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DegenerateError, NapsphereError
from .polynomials import CLASSIFY_TOL

__all__ = ["main"]

# Vertex-norm corrections larger than this are reported on stderr.
NORMALISE_WARN = 1e-6

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INVALID = 2


def _dump(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, round-trip floats."""
    import json

    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _read_input(path: str) -> dict:
    import json

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _BadInput(f"cannot read input: {exc}")
    try:
        doc = json.loads(text, parse_int=float, object_pairs_hook=_unique_keys)  # a huge integer becomes inf
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _BadInput(f"input is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _BadInput("input must be a JSON object")
    return doc


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise _BadInput("a key repeats within one JSON object")
    return doc


class _BadInput(Exception):
    """Malformed input (exit 1), as opposed to geometric rejection (exit 2)."""


def _triangle_from_doc(doc: dict) -> tuple:
    """The document's triangle as its frame, unpacked (``triangle._frame``): the vertices
    normalised and validated, or the side parameters realized."""
    from .triangle import _checked, _frame, _placed

    if ("vertices" in doc) == ("d" in doc):
        raise _BadInput('input must contain exactly one of "vertices" and "d"')
    if "d" in doc:
        return _placed(*_checked(_finite_triple(doc["d"], '"d"')))
    verts = doc["vertices"]
    if not (isinstance(verts, list) and len(verts) == 3):
        raise _BadInput('"vertices" must be a list of three [x, y, z] triples')
    normed = []
    for k, row in enumerate(verts):
        x, y, z = _finite_triple(row, f"vertex {k}")
        n = math.sqrt(x * x + y * y + z * z)
        scale = 1.0
        if n == math.inf:  # the squared norm overflows: divide by the largest component first
            scale = max(abs(x), abs(y), abs(z))
            x, y, z = x / scale, y / scale, z / scale
            n = math.sqrt(x * x + y * y + z * z)
        length = n * scale  # n itself unless scaled; inf beyond the double range
        if length < 1e-12:
            raise DegenerateError("cannot normalise a (near-)zero vector")
        if abs(length - 1.0) > NORMALISE_WARN:
            print(
                f"warning: vertex {k} renormalised (|v| deviated from 1 by {abs(length - 1.0):.3e})",
                file=sys.stderr,
            )
        normed.append((x / n, y / n, z / n))
    return _frame(*normed)


def _finite_triple(row, what: str) -> list[float]:
    """Three finite JSON numbers; booleans, strings, NaN and +-Infinity are malformed."""
    if not (isinstance(row, list) and len(row) == 3):
        raise _BadInput(f"{what} must be a list of three numbers")
    if not all(type(x) is float and math.isfinite(x) for x in row):
        raise _BadInput(f"{what} must hold three finite numbers")
    return row


def _napoleonisation_dict(frame: tuple, signs) -> dict:
    from .core import _barycentre, spherical_distance
    from .napoleon import _coincident, _construction

    p, c, w, d, _, swapped = frame
    q, r, rr01, rr12, rr20, residual, near = _construction(p, c, w, d, signs.oriented(swapped))
    return {
        "signs": list(signs),
        "orientation_swapped": swapped,
        "vertices": p,
        "apexes": q,
        "centroids": r,
        "centroid_inner_products": {
            "rr01": rr01,
            "rr12": rr12,
            "rr20": rr20,
        },
        "centroid_distances": [
            spherical_distance(r[0], r[1]),
            spherical_distance(r[1], r[2]),
            spherical_distance(r[2], r[0]),
        ],
        "equilateral_residual": residual,
        "coincident_centroids": _coincident(rr01, rr12, rr20),
        "near_boundary": near,
        "barycentre": _barycentre(*p),
        "napoleon_barycentre": _barycentre(*r),
    }


def _point_cloud_csv(doc: dict) -> str:
    """The points of a :func:`_napoleonisation_dict` as CSV rows."""
    groups = {"P": doc["vertices"], "Q": doc["apexes"], "R": doc["centroids"]}
    groups["barycentre"] = [doc["barycentre"], doc["napoleon_barycentre"]]
    rows = [f"{kind},{i},{x!r},{y!r},{z!r}" for kind, pts in groups.items() for i, (x, y, z) in enumerate(pts)]
    return "\n".join(["kind,index,x,y,z", *rows]) + "\n"


def cmd_napoleonise(args, frame: tuple) -> int:
    from .napoleon import SignVector

    try:
        signs = SignVector.parse(args.signs)
    except ValueError as exc:
        raise _BadInput(str(exc))
    doc = _napoleonisation_dict(frame, signs)
    if args.format == "csv":
        sys.stdout.write(_point_cloud_csv(doc))
    else:
        print(_dump(doc))
    return EXIT_OK


def cmd_classify(args, frame: tuple) -> int:
    from .verdict import _report

    report = _report(*frame[3], tol=args.tol)  # the side parameters
    doc = {
        **report._asdict(),
        "d": list(report.d),
        "verdict": str(report.verdict),
        "predicted_side": report.predicted_side,
    }
    print(_dump(doc))
    return EXIT_OK


def cmd_sample(args) -> int:
    from .ellipsoid import _realized, d_to_xyz, quadric_value, sample_napoleonic_d_with_attempts

    if args.count < 1 or args.seed < 0:
        raise _BadInput("--count must be >= 1 and --seed >= 0")
    d, attempts = sample_napoleonic_d_with_attempts(args.count, args.seed)
    xyz = d_to_xyz(d)
    if args.format == "csv":
        columns = [d.tolist(), xyz.tolist()]
        if args.realize:
            columns.append(_realized(*d.T)[0].reshape(-1, 9).tolist())
        print("d0,d1,d2,X,Y,Z" + (",p0x,p0y,p0z,p1x,p1y,p1z,p2x,p2y,p2z" if args.realize else ""))
        for row in zip(*columns):
            print(",".join(map(repr, sum(row, []))))
        return EXIT_OK
    columns = {"d": d.tolist(), "xyz": xyz.tolist(), "condition_value": quadric_value(xyz).tolist()}
    if args.realize:
        columns["vertices"] = _realized(*d.T)[0].tolist()
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    doc = {"count": args.count, "seed": args.seed, "attempts": attempts, "acceptance_rate": args.count / attempts}
    print(_dump({**doc, "samples": rows}))
    return EXIT_OK


def cmd_search(args, frame: tuple) -> int:
    from .oracle import _search

    hits = _search(*frame[:3], args.tol)  # the vertices, edge inner products and edge normals
    print(
        _dump(
            {
                "tolerance": args.tol,
                "matches": [
                    {"signs": list(s), "residual": r} for s, r in hits
                ],
            }
        )
    )
    return EXIT_OK


def cmd_verify_identities(args) -> int:
    from .algebra import verify_all

    checks = verify_all()
    ok = True
    for check in checks:
        status = "PASS" if check else "FAIL"
        print(f"{status}  {check.name}")
        if not check:
            ok = False
            print(f"      difference: {check.difference!r}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_BAD_INPUT


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input: exit 1 with an ``error:`` line, not
    argparse's exit 2, which is reserved for geometric rejection."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _BadInput(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="napsphere",
        description="Napoleonisations of spherical triangles: construction, "
        "classification, quadric sampling, and exact identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("napoleonise", help="construct apexes and centroids")
    p.add_argument("input", help="JSON file with 'vertices' or 'd' ('-' for stdin)")
    p.add_argument("--signs", default="out", help="'out', 'in', or e.g. '+-+' (default: out)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="csv emits a plot-ready point cloud")
    p.set_defaults(func=cmd_napoleonise)

    p = sub.add_parser("classify", help="classify a triangle")
    p.add_argument("input", help="JSON file with 'vertices' or 'd' ('-' for stdin)")
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL, help="classification tolerance (default 1e-9)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample", help="sample side parameters from the Napoleonic quadric")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realize", action="store_true", help="also emit canonical vertices per sample")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("search", help="brute-force all eight sign vectors")
    p.add_argument("input", help="JSON file with 'vertices' or 'd' ('-' for stdin)")
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL, help="equilaterality tolerance (default 1e-9)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-identities", help="run the exact polynomial identity checks")
    p.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at the
        # null device so that the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BAD_INPUT


def _dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol >= 0.0):  # classify and search
            raise _BadInput(f"tolerance must be finite and >= 0, got {args.tol!r}")
        if hasattr(args, "input"):  # napoleonise, classify and search
            return args.func(args, _triangle_from_doc(_read_input(args.input)))
        return args.func(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NapsphereError as exc:
        print(_dump({"error": {"kind": exc.kind, "message": str(exc)}}))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
