"""Small CLI invocations give exactly their recorded transcripts: stdout,
stderr and exit code, byte for byte, from tests/golden/cli/<name>.txt.

A transcript is the command line, the exit code, then stdout and stderr
under marker lines. To record one, write ``transcript(argv)`` to its path.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from cycloseq.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

INVOCATIONS = [
    "generate --p 3 --q 5 --abc 100 --format json",
    "generate --p 3 --q 3 --abc 100",
    "autocorr --p 3 --q 7 --abc 100",
    "autocorr --p 3 --q 7 --abc 100 --empirical --aggregate",
    "autocorr --p 5 --q 7 --abc 011 --both",
    "autocorr --p 3 --q 7 --abc 100 --both --format json",
    "autocorr --p 3 --q 7 --abc 100 --empirical --format json",
    "adic --p 3 --q 13 --abc 010",
    "adic --p 3 --q 17 --abc 001 --format csv",
    "verify --p 3 --q 17 --check theorem2,lemma1",
    "sweep --max-n 60 --format json",
    "sweep --pairs 3,13 --pairs 5,7 --triples 100,011,100",
]


def golden_path(command: str) -> Path:
    return GOLDEN / (re.sub(r"\W+", "_", command.replace("--", "")) + ".txt")


def transcript(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"$ cycloseq {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def test_every_transcript_is_listed():
    assert sorted(GOLDEN.glob("*.txt")) == sorted(map(golden_path, INVOCATIONS))


@pytest.mark.parametrize("command", INVOCATIONS)
def test_cli_transcript(command):
    expected = golden_path(command).read_text(encoding="utf-8")
    assert transcript(command.split()) == expected
