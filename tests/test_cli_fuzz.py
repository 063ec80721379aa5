"""Hypothesis fuzz of the CLI, in process through ``napsphere.cli.main``.

Whatever the input document and flags, a call returns exit 0, 1 or 2 and
raises nothing; a document that repeats a key exits 1 from every subcommand
that reads one.  Stdout is empty on exit 1, the ``{"error": {"kind",
"message"}}`` document on exit 2, and on exit 0 strict JSON (no
``NaN``/``Infinity`` constants), the documented CSV, or the
``verify-identities`` report.

The examples are derandomized and few, so the suite stays repeatable and
fast; a longer campaign raises ``max_examples`` and drops ``derandomize``.
"""

import contextlib
import io
import json
import math
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from napsphere.cli import main


def _mostly(usual, rare):
    """Draw from *usual* three times in four, else from *rare*."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda strategy: strategy)


# Components: arbitrary floats (NaN and +-inf included), integers beyond the
# float range, and non-numbers.
scalars = st.one_of(
    st.floats(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
wrong_shapes = st.one_of(
    scalars, st.lists(scalars, max_size=5), st.dictionaries(st.text(max_size=2), scalars, max_size=2)
)
triples = st.lists(st.one_of(scalars, st.floats(-1.0, 1.8)), min_size=3, max_size=3)
vertices = _mostly(
    st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), min_size=3, max_size=3),
    st.one_of(st.lists(st.one_of(triples, wrong_shapes), max_size=4), wrong_shapes),
)
side_parameters = _mostly(st.lists(st.floats(0.01, 1.72), min_size=3, max_size=3), st.one_of(triples, wrong_shapes))
# Object members; a key may repeat, and "vertices" and "d" may both appear.
members = st.one_of(
    st.tuples(st.just("vertices"), vertices),
    st.tuples(st.just("d"), side_parameters),
    st.tuples(st.text(max_size=3), scalars),
)
# (document text, whether its top-level object repeats a key)
documents = _mostly(
    st.lists(members, min_size=1, max_size=2).map(
        lambda kv: (
            "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in kv) + "}",
            len({k for k, _ in kv}) < len(kv),
        )
    ),
    st.one_of(wrong_shapes.map(json.dumps), st.text(max_size=30)).map(lambda text: (text, False)),
)


def _flag(*usual: str):
    return _mostly(st.sampled_from(usual), st.one_of(st.text(max_size=5), st.floats().map(repr)))


tolerances = _flag("1e-9", "0", "1e-6", "100", "-1", "nan", "inf")
formats = _flag("json", "csv")
commands = st.one_of(
    st.tuples(
        st.just("napoleonise"),
        st.fixed_dictionaries({}, optional={"--signs": _flag("out", "in", "+-+", "-+-"), "--format": formats}),
    ),
    st.tuples(st.just("classify"), st.fixed_dictionaries({}, optional={"--tol": tolerances})),
    st.tuples(st.just("search"), st.fixed_dictionaries({}, optional={"--tol": tolerances})),
    st.tuples(
        st.just("sample"),
        st.fixed_dictionaries(
            {},
            optional={
                "--count": _flag("1", "3", "0", "-2"),
                "--seed": _mostly(st.integers(-2, 2**70).map(str), st.text(max_size=3)),
                "--format": formats,
                "--realize": st.just(None),
            },
        ),
    ),
    st.tuples(st.just("verify-identities"), st.just({})),
)


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _check_csv(text: str, header: str) -> None:
    lines = text.splitlines()
    assert lines[0].startswith(header)
    width = len(lines[0].split(","))
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == width
        numbers = cells[2:] if header.startswith("kind") else cells
        assert all(math.isfinite(float(c)) for c in numbers)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(command=commands, document=documents)
def test_cli_never_escapes_its_contract(command, document):
    name, flags = command
    doc, repeats_key = document
    reads_input = name in ("napoleonise", "classify", "search")
    argv = [name] + (["-"] if reads_input else [])
    argv += [f"{flag}={value}" if value is not None else flag for flag, value in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    text = out.getvalue()
    assert code in (0, 1, 2)
    if repeats_key and reads_input:
        assert code == 1
    if code == 1:
        assert text == ""
        assert "error: " in err.getvalue()
    elif code == 2:
        doc = _strict_json(text)
        assert list(doc) == ["error"] and sorted(doc["error"]) == ["kind", "message"]
    elif name == "verify-identities":
        assert text and all(line.startswith("PASS  ") for line in text.splitlines())
    elif flags.get("--format") == "csv":
        _check_csv(text, "kind,index,x,y,z" if name == "napoleonise" else "d0,d1,d2,X,Y,Z")
    else:
        _strict_json(text)
        assert text.count("\n") == 1
