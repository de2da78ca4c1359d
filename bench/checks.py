"""Output checks for the benchmark's CLI calls.

Every sample's stdout, stderr and exit code go through ``check_output``. It
returns a list of problems; an empty list means the sample is correct. Two
kinds of checks run:

* invariants that hold for any seed, computed here without calling the
  program (see each ``_check_*`` function);
* for the seeds in ``expected.json``, the exit code and the sha256 of stdout
  recorded when the benchmark was defined.
"""

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

from workloads import ALL_TRIPLES, Case, d_p_closed, known_deviation

EXPECTED_PATH = Path(__file__).with_name("expected.json")

SWEEP_COLUMNS = ["p", "q", "a", "b", "c", "n", "family", "ac_P", "ac_Q",
                 "ac_unit_plus", "ac_unit_minus", "max_abs", "d", "d_p", "d_q",
                 "d_star", "best_value", "checks_passed"]

CHECK_NAMES = ("theorem1", "lemma1", "theorem2", "correlation_identity")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(case: Case, stdout: str, stderr: str, rc, expected=None) -> list:
    """Problems with one sample's output; [] when it is correct."""
    if rc is None:
        return ["no exit code: the call raised or timed out"]
    problems = CHECKERS[case.workload](case, stdout, stderr, rc)
    record = (expected or {}).get(case.workload, {}).get(str(case.seed))
    if record is not None:
        if rc != record["rc"]:
            problems.append(f"exit code {rc}, recorded {record['rc']}")
        if digest(stdout) != record["sha256"]:
            problems.append("stdout digest differs from the recorded one")
    return problems


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_sweep(case: Case, stdout: str, stderr: str, rc: int) -> list:
    """Header, one row per (pair, triple) in order, and the exact failing set:
    failing rows are exactly the p = 3 rows with abc in {001, 110} and d_p > 1."""
    problems = []
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return ["sweep header differs from the known columns"]
    body = rows[1:]
    want_keys = [(p, q, *t) for p, q in case.pairs for t in ALL_TRIPLES]
    _expect(problems, len(body) == len(want_keys),
            f"{len(body)} rows for {len(case.pairs)} pairs x 8 triples")
    want_failing = {k for k in want_keys if known_deviation(*k)}
    failing = set()
    for want, row in zip(want_keys, body):
        if len(row) != len(SWEEP_COLUMNS):
            problems.append(f"row {want}: {len(row)} fields")
            continue
        got = dict(zip(SWEEP_COLUMNS, row))
        try:
            key = tuple(int(got[col]) for col in ("p", "q", "a", "b", "c"))
            n, d_p = int(got["n"]), int(got["d_p"])
        except ValueError:
            problems.append(f"row {want}: non-integer field")
            continue
        if key != want:
            problems.append(f"row {key} where {want} was due")
            continue
        _expect(problems, n == want[0] * want[1], f"row {key}: n = {n}")
        _expect(problems, d_p == d_p_closed(*key), f"row {key}: d_p = {d_p}")
        if got["checks_passed"] != "4/4":
            failing.add(key)
    for key in sorted(failing - want_failing):
        problems.append(f"row {key} fails checks; only the pinned p = 3 rows may")
    for key in sorted(want_failing - failing):
        problems.append(f"pinned p = 3 row {key} passes; it must fail theorem2")
    _expect(problems, rc == (2 if want_failing else 0), f"exit code {rc}")
    summary = (f"sweep: {len(want_keys)} rows ({len(case.pairs)} pairs x 8 triples), "
               f"{len(want_failing)} rows with failing checks\n")
    _expect(problems, stderr == summary, f"summary line {stderr!r}")
    return problems


def _check_verify(case: Case, stdout: str, stderr: str, rc: int) -> list:
    """Every check line PASS, except theorem2 on a pair that has the p = 3 case."""
    (p, q), = case.pairs
    failing = {"theorem2"} if any(known_deviation(p, q, *t) for t in ALL_TRIPLES) else set()
    lines = stdout.splitlines()
    problems = []
    if len(lines) != len(CHECK_NAMES) + 1:
        return [f"{len(lines)} lines of verify output"]
    for name, line in zip(CHECK_NAMES, lines):
        head = f"{name} (p={p}, q={q}): "
        if name in failing:
            _expect(problems, line.startswith(head + "FAIL ("), f"expected FAIL: {line!r}")
        else:
            _expect(problems, line == head + "PASS", f"expected PASS: {line!r}")
    passed = len(CHECK_NAMES) - len(failing)
    _expect(problems, lines[-1] == f"{passed}/{len(CHECK_NAMES)} checks pass",
            f"summary {lines[-1]!r}")
    _expect(problems, rc == (2 if failing else 0), f"exit code {rc}")
    return problems


def _residue_class(tau: int, p: int, q: int) -> str:
    if tau == 0:
        return "zero"
    if tau % p == 0:
        return "p"
    if tau % q == 0:
        return "q"
    return "unit"


def _check_autocorr(case: Case, stdout: str, stderr: str, rc: int) -> list:
    """One row per shift, class labels right, empirical == closed with match
    all true, and the distribution trailer equal to the tally of the rows."""
    (p, q), = case.pairs
    n = p * q
    lines = stdout.splitlines()
    problems = []
    if len(lines) != n + 5 or lines[0] != "tau,class,empirical,closed,match":
        return [f"{len(lines)} lines or wrong header in per-shift CSV"]
    tally = Counter()
    for tau, line in enumerate(lines[1:n + 1]):
        want_head = f"{tau},{_residue_class(tau, p, q)},"
        fields = line.split(",")
        if not line.startswith(want_head) or len(fields) != 5:
            problems.append(f"row {tau}: {line!r}")
        elif fields[2] != fields[3] or fields[4] != "true":
            problems.append(f"row {tau}: empirical and closed differ or match != true")
        else:
            tally[int(fields[2])] += 1
        if len(problems) > 5:
            return problems
    dist = " ".join(f"{v}:{c}" for v, c in sorted(tally.items()))
    _expect(problems, lines[n + 1] == f"# distribution: {dist}", "distribution trailer")
    _expect(problems, tally.get(n) == 1, "C(0) = n must occur exactly once")
    _expect(problems, lines[n + 4] == "# empirical_matches_closed: true", "match trailer")
    _expect(problems, rc == 0, f"exit code {rc}")
    return problems


def _check_adic(case: Case, stdout: str, stderr: str, rc: int) -> list:
    """d = d_p * d_q, d_star = 1, d divides 2^n - 1, d_p equals its closed form."""
    (p, q), = case.pairs
    (a, b, c), = case.triples
    try:
        obj = json.loads(stdout)
        d, d_p, d_q, d_star, n = (int(obj[k]) for k in ("d", "d_p", "d_q", "d_star", "n"))
        params = tuple(obj[k] for k in ("p", "q", "a", "b", "c"))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"adic output is not the expected JSON: {exc}"]
    problems = []
    _expect(problems, stdout.count("\n") == 1, "adic output must be one line")
    _expect(problems, params == (p, q, a, b, c) and n == p * q, f"parameters {params}")
    _expect(problems, d == d_p * d_q, f"d = {d} != d_p * d_q = {d_p * d_q}")
    _expect(problems, d_star == 1, f"d_star = {d_star}")
    _expect(problems, d >= 1 and pow(2, n, d) == 1 % d, "d does not divide 2^n - 1")
    _expect(problems, d_p == d_p_closed(p, q, a, b, c), f"d_p = {d_p}")
    _expect(problems, math.gcd(d_p, d_q) == 1, "d_p and d_q share a factor")
    _expect(problems, rc == 0, f"exit code {rc}")
    return problems


CHECKERS = {
    "sweep-small": _check_sweep,
    "verify-mid": _check_verify,
    "autocorr-large": _check_autocorr,
    "adic-large": _check_adic,
}
