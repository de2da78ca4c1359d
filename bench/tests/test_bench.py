"""Tests of the benchmark itself: toy runs, output checks, trace wrapping.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_output, digest  # noqa: E402
from run import END_TO_END, PER_LAYER, REFERENCE, SETUP_SCALE_S, SRC, Run, spawn  # noqa: E402
from workloads import SWEEP_PAIRS, WORKLOADS, known_deviation, make_case  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.fixture(scope="module")
def toy_outputs():
    """One checked plain sample per workload at toy size."""
    outputs = {}
    for workload in WORKLOADS:
        case = make_case(workload, 0, toy=True)
        result, error = spawn(case.argv)
        assert error is None, error
        outputs[workload] = (case, result["stdout"], result["stderr"], result["rc"])
    return outputs


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    names = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "0":
        assert "failed_frac                          0 ratio" in proc.stdout
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_reference_writes_the_programs_output():
    for workload in WORKLOADS:
        case = make_case(workload, 0, toy=True)
        (program, _), (reference, _) = (spawn(case.argv, src=src) for src in (SRC, REFERENCE))
        assert reference["stdout"] == program["stdout"], workload


def test_pairs_alternate_order_and_ratios_are_medians_over_pairs(monkeypatch):
    monkeypatch.setattr("run.MIN_SETUP", 3)
    run = Run(make_case("verify-mid", 0, toy=True), None, trace=False, seconds=0)
    order = []

    def fake_sample(kind, timeout):
        order.append(kind)
        wall = {0: 1.0, 1: 2.0, 2: 4.0}[len(run.pairs)]  # pair i: program takes 2**i s
        if kind == "reference":
            return {"wall_s": 2.0, "cpu_s": 1.0, "setup_s": 0.2}
        return {"wall_s": wall, "cpu_s": 1.0, "setup_s": 0.3, "peak_rss_kb": 1024}

    run.sample = fake_sample
    run.execute()
    assert order == ["plain", "reference", "reference", "plain", "plain", "reference"]
    metrics = run.end_to_end()
    assert metrics["wall_rel"] == 1.0 and metrics["cpu_rel"] == 1.0
    assert metrics["setup_s"] == pytest.approx(1.5 * SETUP_SCALE_S)


def test_good_toy_outputs_pass(toy_outputs):
    for case, stdout, stderr, rc in toy_outputs.values():
        assert check_output(case, stdout, stderr, rc) == [], case.workload


def _flip(text: str, index: int) -> str:
    return text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1:]


def _corruptions(workload, stdout):
    """(label, corrupted stdout) pairs that each check must reject."""
    lines = stdout.splitlines(keepends=True)
    if workload == "sweep-small":
        good = next(i for i, line in enumerate(lines) if line.endswith(",4/4\n"))
        pinned = next(i for i, line in enumerate(lines) if line.endswith(",3/4\n"))
        yield "passing row fails", "".join(
            lines[:good] + [lines[good].replace(",4/4", ",3/4")] + lines[good + 1:])
        yield "pinned row passes", "".join(
            lines[:pinned] + [lines[pinned].replace(",3/4", ",4/4")] + lines[pinned + 1:])
        yield "flipped bit in p", _flip(stdout, len(lines[0]))
        yield "row dropped", "".join(lines[:-1])
    elif workload == "verify-mid":
        yield "flipped bit in PASS", _flip(stdout, stdout.index("PASS"))
        yield "flipped bit in summary", _flip(stdout, len(stdout) - len("/4 checks pass\n") - 1)
    elif workload == "autocorr-large":
        row = len(lines[0]) + len(lines[1])
        yield "flipped bit in empirical", _flip(stdout, row + lines[2].index(",unit,") + 6)
        yield "flipped bit in match", _flip(stdout, stdout.index("true"))
        yield "flipped bit in distribution", _flip(stdout, stdout.index("# distribution: ") + 17)
    else:
        obj = json.loads(stdout)
        for key, value in (("d", obj["d"] * 3), ("d", obj["d"] + 1), ("d_star", 3)):
            yield f"{key} changed", json.dumps(dict(obj, **{key: value})) + "\n"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_check_rejects_corrupted_output(toy_outputs, workload):
    case, stdout, stderr, rc = toy_outputs[workload]
    labels = []
    for label, bad in _corruptions(workload, stdout):
        assert bad != stdout, label
        assert check_output(case, bad, stderr, rc), f"{workload}: {label} accepted"
        labels.append(label)
    assert labels


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_digest_and_exit_code_are_enforced(toy_outputs, workload):
    case, stdout, stderr, rc = toy_outputs[workload]
    expected = {workload: {str(case.seed): {"rc": rc, "sha256": digest(stdout)}}}
    assert check_output(case, stdout, stderr, rc, expected) == []
    problems = check_output(case, _flip(stdout, len(stdout) // 2), stderr, rc, expected)
    assert any("digest" in p for p in problems)
    assert any("exit code" in p for p in check_output(case, stdout, stderr, rc + 1, expected))


def test_toy_cases_cover_the_pinned_deviation():
    sweep = make_case("sweep-small", 0, toy=True)
    assert any(known_deviation(p, q, *t) for p, q in sweep.pairs for t in sweep.triples)
    assert make_case("verify-mid", 0, toy=True).pairs == ((3, 17),)


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert make_case(workload, 7) == make_case(workload, 7)
    draws = {make_case("sweep-small", seed).pairs for seed in range(5)}
    assert len(draws) == 5
    for seed in range(20):
        case = make_case("sweep-small", seed)
        assert len(case.pairs) == SWEEP_PAIRS and all(p * q <= 1000 for p, q in case.pairs)
        assert any(known_deviation(p, q, 0, 0, 1) for p, q in case.pairs)


TRACE_PROBE = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cycloseq.cli
from cycloseq import autocorr, groupring, numtheory, sequence, adic
from layertrace import LAYERS, LEAVES, UNTRACED, Tracer
originals = {}
for layer in LAYERS:
    mod = getattr(cycloseq, layer)
    for attr, obj in vars(mod).items():
        if (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                and not attr.startswith("_") and hasattr(obj, "__code__")
                and f"{layer}.{attr}" not in UNTRACED):
            originals[id(obj)] = f"{layer}.{attr}"
tracer = Tracer()
tracer.install()
left = [f"{layer}.{attr}" for layer in LAYERS
        for attr, obj in vars(getattr(cycloseq, layer)).items()
        if id(obj) in originals]
deltas = {}
def calls():
    return tracer.counts["numtheory.legendre.calls"]
for label, fn in (("sequence", lambda: sequence.residue_table(7)),
                  ("autocorr", lambda: autocorr.class_values(sequence.SequenceParams.of(3, 5, 1, 0, 0))),
                  ("groupring", lambda: groupring.gauss_gp(numtheory.OddPrimePair(3, 5)))):
    before = calls()
    fn()
    deltas[label] = calls() - before
u = groupring.gamma_p(numtheory.OddPrimePair(3, 5))
before = tracer.counts["groupring.mul.calls"]
u * u
op_calls = tracer.counts["groupring.mul.calls"] - before
report = adic.complexity_report(sequence.SequenceParams.of(3, 5, 1, 0, 0))
print(json.dumps({"left": left, "deltas": deltas, "op_calls": op_calls,
                  "gcd": tracer.counts["adic.gcd.calls"], "absent": tracer.summary()["absent"]}))
"""


def _trace_probe(extra=""):
    code = TRACE_PROBE.replace("tracer = Tracer()", extra + "\ntracer = Tracer()")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_trace_wraps_every_alias():
    out = _trace_probe()
    assert out["left"] == [], "unwrapped names: " + ", ".join(out["left"])
    assert all(out["deltas"][layer] > 0 for layer in ("sequence", "autocorr", "groupring"))
    assert out["op_calls"] == 1
    assert out["gcd"] > 0
    assert out["absent"] == []


def test_removed_function_is_reported_absent_not_a_crash():
    out = _trace_probe("del autocorr.closed_form_profile")
    assert out["absent"] == ["autocorr.closed_form_profile"]


def test_function_that_stops_being_plain_is_reported_absent():
    out = _trace_probe("import functools\n"
                       "sequence.residue_table = functools.lru_cache(sequence.residue_table)")
    assert out["absent"] == ["sequence.residue_table"]


BUSY_CLI = """
import subprocess, sys

GRANDCHILD = (
    "import time\\n"
    "block = b'x' * (96 << 20)\\n"
    "while time.process_time() < 0.6:\\n"
    "    pass\\n"
)


def main(argv):
    subprocess.run([sys.executable, "-c", GRANDCHILD], check=True)
    return 0
"""


def test_cpu_and_rss_include_processes_the_call_starts(tmp_path):
    package = tmp_path / "cycloseq"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(BUSY_CLI)
    request = json.dumps({"argv": [], "trace": False, "spans_out": None})
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(tmp_path), request],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0 and result["error"] is None
    assert result["cpu_s"] >= 0.55
    assert result["peak_rss_kb"] >= 96 << 10


def test_traced_counters_repeat_exactly():
    case = make_case("sweep-small", 1, toy=True)
    runs = [spawn(case.argv, trace=True) for _ in range(2)]
    assert all(error is None for _, error in runs)
    (first, _), (second, _) = runs
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["stdout"] == second["stdout"] == spawn(case.argv)[0]["stdout"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "adic-large", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
