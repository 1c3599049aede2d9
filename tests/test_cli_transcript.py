"""The CLI's bytes on the golden fixtures, pinned.

``tests/golden/cli_transcript.txt`` records, for every command in
:func:`commands`, the command line, its stdout, its stderr and its exit
code.  The test re-runs the commands in-process and compares the whole
text byte for byte, in this process and in fresh interpreters under two
hash seeds.  Regenerate the file only when an output change is
intended::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from contred.cli import main

from conftest import run_python

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
    parts = []
    for cmd in commands():
        argv = [str(FIXTURES) if a == "FIXTURES" else a for a in cmd]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        parts.append(f"$ contred {' '.join(cmd)}\n")
        parts.append(out.getvalue())
        parts.extend(f"stderr: {line}\n" for line in err.getvalue().splitlines())
        parts.append(f"exit {code}\n")
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


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cli_transcript_does_not_depend_on_the_hash_seed(monkeypatch, seed):
    # one process sees one hash seed, so an order that leaked from a set or
    # a dict of strings would fail only now and then in the test above
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from test_cli_transcript import transcript; sys.stdout.write(transcript())"
    )
    done = run_python("-c", script, str(Path(__file__).parent))
    assert done.returncode == 0, done.stderr
    assert done.stdout == TRANSCRIPT.read_text(encoding="utf-8")


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript(), encoding="utf-8")
