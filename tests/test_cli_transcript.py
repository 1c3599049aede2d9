"""The CLI's bytes on the golden fixtures, pinned.

``tests/golden/cli_transcript.txt`` records, for every command in
:func:`commands`, the command line, its stdout, its stderr and its exit
code.  The test re-runs the commands in-process and compares the whole
text byte for byte.  Regenerate the file only when an output change is
intended::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from contred.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = GOLDEN / "fixtures.clt"
TRANSCRIPT = GOLDEN / "cli_transcript.txt"
MAPS = ("alt3", "blur2", "flip")
INTO_DISCRETE2 = ("alt3", "blur2")


def commands() -> list[list[str]]:
    """The pinned commands; ``FIXTURES`` stands for the fixture file."""
    fx = "FIXTURES"
    out = []
    for rel in ("le0", "le2", "lect"):
        for a in MAPS:
            for b in MAPS:
                out.append(["check", rel, a, b, fx, "--witness"])
    for rel, names in (("le0", INTO_DISCRETE2), ("le2", MAPS)):
        out.append(["poset", rel, *names, fx])
        out.append(["poset", rel, *names, fx, "--dot"])
    for m in MAPS:
        out.append(["invariants", m, fx])
        out.append(["decompose", m, fx, "--thresholds", "1,2"])
        out.append(["decompose", m, fx, "--thresholds", "0,1,2"])
        out.append(["admissible", m, fx])
    out.append(["sup", "le0", *INTO_DISCRETE2, fx])
    out.append(["sup", "le2", *MAPS, fx])
    out.append(["sup", "le2", *MAPS, fx, "--name", "J"])
    out.append(["inf", *INTO_DISCRETE2, fx])
    out.append(["search", "--lev", "2", "--bas", "2", "--max-points", "3"])
    out.append(["search", "--antichain", "2", "--relation", "le2", "--max-points", "5"])
    return out


def transcript() -> str:
    """Run every command in-process and lay out what it printed."""
    saved = os.environ.pop("CONTRED_BUDGET", None)
    parts = []
    try:
        for cmd in commands():
            argv = [str(FIXTURES) if a == "FIXTURES" else a for a in cmd]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            parts.append(f"$ contred {' '.join(cmd)}\n")
            parts.append(out.getvalue())
            parts.extend(f"stderr: {line}\n" for line in err.getvalue().splitlines())
            parts.append(f"exit {code}\n")
    finally:
        if saved is not None:
            os.environ["CONTRED_BUDGET"] = saved
    return "".join(parts)


def test_cli_transcript_is_byte_identical():
    want = TRANSCRIPT.read_text(encoding="utf-8")
    got = transcript()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        for k, (g, w) in enumerate(zip(got_lines, want_lines)):
            assert g == w, f"line {k + 1} differs"
        assert len(got_lines) == len(want_lines), "transcript length differs"
    assert got == want


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript(), encoding="utf-8")
