"""Small CLI invocations give exactly their recorded transcripts: stdout,
stderr and exit code, byte for byte, from tests/golden/cli/<name>.txt, and
the help and usage-error transcripts in ``USAGE`` below.

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


# Help and usage-error transcripts, as the text after each one's command line.
# They pin that a subcommand whose arguments are added on its first parse
# prints the same help and usage. argparse wraps help to the terminal width,
# so the test pins COLUMNS.
USAGE = {
    "--help": """\
exit 0
--- stdout
usage: cycloseq [-h] {generate,autocorr,adic,verify,sweep} ...

Two-prime cyclotomic binary sequences: generation, autocorrelation, 2-adic
complexity.

positional arguments:
  {generate,autocorr,adic,verify,sweep}
    generate            emit one period of S(a, b, c)
    autocorr            autocorrelation values and distribution
    adic                exact 2-adic complexity report
    verify              run theorem checks for one prime pair
    sweep               batch table over pairs and fill bits

options:
  -h, --help            show this help message and exit
--- stderr
""",
    "generate --help": """\
exit 0
--- stdout
usage: cycloseq generate [-h] --p P --q Q [--abc ABC] [--a A] [--b B] [--c C]
                         [--format {bits,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --p P                 first odd prime
  --q Q                 second odd prime
  --abc ABC             fill bits as a compact string, e.g. 100
  --a A                 fill bit on nonzero multiples of p
  --b B                 fill bit on nonzero multiples of q
  --c C                 fill bit at position 0
  --format {bits,json}
  --out OUT             output path (default: stdout)
--- stderr
""",
    "autocorr --help": """\
exit 0
--- stdout
usage: cycloseq autocorr [-h] --p P --q Q [--abc ABC] [--a A] [--b B] [--c C]
                         [--empirical | --closed | --both]
                         [--format {csv,json}] [--aggregate] [--out OUT]

options:
  -h, --help           show this help message and exit
  --p P                first odd prime
  --q Q                second odd prime
  --abc ABC            fill bits as a compact string, e.g. 100
  --a A                fill bit on nonzero multiples of p
  --b B                fill bit on nonzero multiples of q
  --c C                fill bit at position 0
  --empirical          recompute every shift from the sequence
  --closed             evaluate the per-class closed form (default)
  --both               compute both routes and compare; mismatch exits 2
  --format {csv,json}
  --aggregate          CSV as (value, count) rows instead of per-shift rows
  --out OUT            output path (default: stdout)
--- stderr
""",
    "adic --help": """\
exit 0
--- stdout
usage: cycloseq adic [-h] --p P --q Q [--abc ABC] [--a A] [--b B] [--c C]
                     [--format {json,csv}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --p P                first odd prime
  --q Q                second odd prime
  --abc ABC            fill bits as a compact string, e.g. 100
  --a A                fill bit on nonzero multiples of p
  --b B                fill bit on nonzero multiples of q
  --c C                fill bit at position 0
  --format {json,csv}
  --out OUT            output path (default: stdout)
--- stderr
""",
    "verify --help": """\
exit 0
--- stdout
usage: cycloseq verify [-h] --p P --q Q [--all | --check CHECK]

options:
  -h, --help     show this help message and exit
  --p P          first odd prime
  --q Q          second odd prime
  --all          run every check (default)
  --check CHECK  check name (repeatable or comma-separated): theorem1, lemma1,
                 theorem2, correlation_identity
--- stderr
""",
    "sweep --help": """\
exit 0
--- stdout
usage: cycloseq sweep [-h] [--max-n MAX_N] [--pairs PAIRS] [--triples TRIPLES]
                      [--checks CHECKS] [--format {csv,json}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --max-n MAX_N        include all pairs with p*q <= this
  --pairs PAIRS        explicit pair 'p,q' (repeatable)
  --triples TRIPLES    comma-separated bit triples, or 'all' (default)
  --checks CHECKS      comma-separated subset of: theorem1, lemma1, theorem2,
                       correlation_identity (default all)
  --format {csv,json}
  --out OUT            output path (default: stdout; summary goes to the other
                       stream)
--- stderr
""",
    "": """\
exit 1
--- stdout
--- stderr
usage: cycloseq [-h] {generate,autocorr,adic,verify,sweep} ...
cycloseq: error: the following arguments are required: command
""",
    "frobnicate": """\
exit 1
--- stdout
--- stderr
usage: cycloseq [-h] {generate,autocorr,adic,verify,sweep} ...
cycloseq: error: argument command: invalid choice: 'frobnicate' (choose from 'generate', 'autocorr', 'adic', 'verify', 'sweep')
""",
    "generate --p 3": """\
exit 1
--- stdout
--- stderr
usage: cycloseq generate [-h] --p P --q Q [--abc ABC] [--a A] [--b B] [--c C]
                         [--format {bits,json}] [--out OUT]
cycloseq generate: error: the following arguments are required: --q
""",
    "autocorr --p 3 --q 7 --format xml": """\
exit 1
--- stdout
--- stderr
usage: cycloseq autocorr [-h] --p P --q Q [--abc ABC] [--a A] [--b B] [--c C]
                         [--empirical | --closed | --both]
                         [--format {csv,json}] [--aggregate] [--out OUT]
cycloseq autocorr: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')
""",
    "verify --p 3 --q 5 --all --check lemma1": """\
exit 1
--- stdout
--- stderr
usage: cycloseq verify [-h] --p P --q Q [--all | --check CHECK]
cycloseq verify: error: argument --check: not allowed with argument --all
""",
}


@pytest.mark.parametrize("command", USAGE)
def test_help_and_usage_transcript(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript(command.split()) == f"$ cycloseq {command}\n" + USAGE[command]
