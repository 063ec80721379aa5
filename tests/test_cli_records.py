"""The CLI prints what the public records say.

The one-triangle subcommands run from the document to stdout on Python floats,
without building the records.  Each output here is assembled independently, as
FORMATS.md specifies it, from the public API: ``new_triangle`` or ``realize``,
then ``napoleonise``, ``classify`` or ``search_equilateral``, with the arrays'
``barycentre`` and ``spherical_distance``.  The CLI's stdout and exit code must
equal it byte for byte; a rejection must carry the kind and message of the
exception the public call raises.
"""

import io
import json
import math

import numpy as np

from napsphere import (
    NapsphereError,
    SignVector,
    barycentre,
    classify,
    napoleonise,
    new_triangle,
    realize,
    sample_napoleonic_d,
    search_equilateral,
    spherical_distance,
)
from napsphere.cli import main

# Every spelling of --signs that FORMATS.md lists, a padded and an upper-case one among them.
SIGN_SPELLINGS = ["out", "outward", "in", "inward", " OUT ", "In"] + [
    "".join(s) for s in ((a, b, c) for a in "+-" for b in "+-" for c in "+-")
]


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def _normalised(row):
    """A document's vertex divided by its Euclidean norm, as FORMATS.md's input rule states."""
    x, y, z = row
    n = math.sqrt(x * x + y * y + z * z)
    return np.array([x / n, y / n, z / n])


def _napoleonise_json(t, signs) -> str:
    res = napoleonise(t, SignVector.parse(signs))
    rs = res.centroids
    return _dump({
        "signs": list(res.signs),
        "orientation_swapped": t.orientation_swapped,
        "vertices": t.vertices.tolist(),
        "apexes": res.apexes.tolist(),
        "centroids": rs.tolist(),
        "centroid_inner_products": {"rr01": res.rr01, "rr12": res.rr12, "rr20": res.rr20},
        "centroid_distances": [spherical_distance(rs[i], rs[(i + 1) % 3]) for i in range(3)],
        "equilateral_residual": res.equilateral_residual,
        "coincident_centroids": res.centroids_coincident,
        "near_boundary": res.near_boundary,
        "barycentre": barycentre(*t.vertices).tolist(),
        "napoleon_barycentre": barycentre(*rs).tolist(),
    })


def _napoleonise_csv(t, signs) -> str:
    res = napoleonise(t, SignVector.parse(signs))
    groups = [("P", t.vertices), ("Q", res.apexes), ("R", res.centroids)]
    groups.append(("barycentre", [barycentre(*t.vertices), barycentre(*res.centroids)]))
    rows = [f"{kind},{i},{x!r},{y!r},{z!r}" for kind, pts in groups for i, (x, y, z) in enumerate(np.asarray(pts).tolist())]
    return "\n".join(["kind,index,x,y,z", *rows]) + "\n"


def _classify(t, tol) -> str:
    report = classify(t, tol)
    return _dump({
        **report._asdict(),
        "d": list(report.d),
        "verdict": str(report.verdict),
        "predicted_side": report.predicted_side,
    })


def _search(t, tol) -> str:
    hits = search_equilateral(t, tol)
    return _dump({"tolerance": tol, "matches": [{"signs": list(s), "residual": r} for s, r in hits]})


def _calls():
    """Each call as (argv after the input, the expected stdout of a triangle t)."""
    calls = [(["classify"], lambda t: _classify(t, 1e-9)), (["classify", "--tol", "1e-3"], lambda t: _classify(t, 1e-3))]
    calls += [(["search"], lambda t: _search(t, 1e-9)), (["search", "--tol", "0.5"], lambda t: _search(t, 0.5))]
    for s in SIGN_SPELLINGS:
        calls.append((["napoleonise", f"--signs={s}"], lambda t, s=s: _napoleonise_json(t, s)))
    calls.append((["napoleonise", "--format", "csv", "--signs=+-+"], lambda t: _napoleonise_csv(t, "+-+")))
    return calls


def _cli(capsys, monkeypatch, doc, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main([argv[0], "-", *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out


def _check(capsys, monkeypatch, doc, build):
    """The CLI on *doc* against the public records that *build* returns or the error it raises."""
    try:
        t = build()
    except NapsphereError as exc:
        expected = (2, _dump({"error": {"kind": exc.kind, "message": str(exc)}}))
        for argv, _ in _calls():
            assert _cli(capsys, monkeypatch, doc, argv) == expected, argv
        return exc.kind
    for argv, output in _calls():
        assert _cli(capsys, monkeypatch, doc, argv) == (0, output(t)), argv
    return "swapped" if t.orientation_swapped else "kept"


def test_vertex_documents_print_what_the_records_say(capsys, monkeypatch):
    rng = np.random.default_rng(2024)
    outcomes = []
    for v in rng.normal(size=(60, 3, 3)).tolist():
        doc = {"vertices": v}
        outcomes.append(_check(capsys, monkeypatch, doc, lambda: new_triangle(*map(_normalised, v))))
    # the seed gives kept, swapped and rejected triples
    assert {"kept", "swapped", "TooWide"} <= set(outcomes)


def test_side_parameter_documents_print_what_the_records_say(capsys, monkeypatch):
    samples = [list(d) for d in sample_napoleonic_d(20, seed=11)]
    rng = np.random.default_rng(12)
    raw = rng.uniform(1e-3, 1.73, size=(20, 3)).tolist()  # realizable or not
    edge = [[2.0, 1.0, 1.0], [0.5, 1.8, 0.5], [1e-300, 1.0, 1.0], [1.0, 1e-9, 1.0],
            [math.sqrt(2.0), math.sqrt(2.8), math.sqrt(0.4)], [math.sqrt(3.0), 1.0, 1.0]]
    outcomes = [_check(capsys, monkeypatch, {"d": d}, lambda: realize(d)) for d in samples + raw + edge]
    assert outcomes[:20] == ["kept"] * 20
    assert {"OutOfRange", "Unrealizable", "TooWide"} <= set(outcomes)
