"""Golden CLI corpus: every subcommand and output format, byte for byte.

Each case in ``golden/cases.json`` gives an argv, an optional stdin document
and the expected exit code; ``golden/<name>.out`` holds the expected stdout,
compared as bytes.  ``search`` is no exception: its residuals are plain IEEE
arithmetic plus the platform libm's ``acos``, ``cos`` and ``sin`` (FORMATS.md,
"Floating point").

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
    assert got == expected


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
