"""Golden CLI corpus: every subcommand and output format, byte for byte.

Each case in ``golden/cases.json`` gives an argv, an optional stdin document
and the expected exit code; ``golden/<name>.out`` holds the expected stdout.
The one exception to byte equality is ``search``: its residuals are
noise-level values of the rotation oracle, so the tolerance and the signs
(in order) must match exactly and each residual within 1e-12.

After an intended output change, regenerate the expected files with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from napsphere.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _run(case) -> tuple[int, bytes]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(case["stdin"]) if "stdin" in case else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(case["argv"])
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def _check(case) -> None:
    code, got = _run(case)
    expected = (GOLDEN / f"{case['name']}.out").read_bytes()
    assert code == case["exit"]
    if case["argv"][0] != "search" or code != 0:
        assert got == expected
        return
    doc, ref = json.loads(got), json.loads(expected)
    assert doc["tolerance"] == ref["tolerance"]
    assert [m["signs"] for m in doc["matches"]] == [m["signs"] for m in ref["matches"]]
    for m, r in zip(doc["matches"], ref["matches"]):
        assert abs(m["residual"] - r["residual"]) <= 1e-12


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_stdout(case):
    _check(case)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_tolerance_env_read_only_by_classify_and_search(case, monkeypatch):
    # The CLI reads no environment variable: NAPOLEON_TOL, which classify and
    # search once read as their default tolerance, changes no case's output.
    for value in ("nan", "100"):
        monkeypatch.setenv("NAPOLEON_TOL", value)
        _check(case)


if __name__ == "__main__":
    for case in CASES:
        code, out = _run(case)
        assert code == case["exit"], (case["name"], code)
        (GOLDEN / f"{case['name']}.out").write_bytes(out)
