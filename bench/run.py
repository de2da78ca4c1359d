"""cycloseq benchmark: four seeded CLI workloads, end-to-end metrics, layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 55 --trace 0

Each sample runs ``cycloseq.cli.main(argv)`` once in a fresh interpreter
(``bench/child.py``), one child at a time, because every CLI call a user makes
pays for a fresh process. Samples come in pairs of two kinds, back to back,
in the order AB, BA, AB, ...; pairs repeat until the next one would end after
``--seconds``, with a floor of a few pairs. Every sample's output is checked
(``bench/checks.py``); a failed check, an exception, a timeout or a wrong
exit code fails the sample.

``--trace 0`` pairs the program under ``src/`` with the reference, a frozen
copy of the program as it was when the benchmark was defined
(``bench/reference/``), on the same argv. The shared machine this runs on
changes speed by tens of percent over minutes, and both samples of a pair see
nearly the same machine, so timings are reported as the median over the pairs
of program / reference. ``--trace 1`` pairs untraced and traced samples of
the program and reports the per-layer metrics (``bench/layertrace.py``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give each
metric with its sample count and the environment record. The full record,
and the spans of the last traced sample, go to ``.bench_out/``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_output, digest, load_expected
from layertrace import LAYERS, PER_LAYER
from workloads import WORKLOADS, make_case

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"

MIN_PAIRS = 3            # pairs of samples in a run
MIN_SETUP = 7            # pairs of set-up measurements per run; probes top them up
SETUP_SCALE_S = 0.15     # the reference's median set-up on the 2-vCPU VM, quiet hour
LAUNCH_LIMIT_S = 120     # no sample starts later than this into the run
HARD_LIMIT_S = 165       # a sample still running then is killed and fails

END_TO_END = {           # name -> unit
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def spawn(argv, trace=False, timeout=HARD_LIMIT_S, spans_out=None, src=SRC):
    """Run one child on the package under ``src``; returns (result dict or
    None, error text or None)."""
    request = {"argv": None if argv is None else list(argv), "trace": trace,
               "spans_out": None if spans_out is None else str(spans_out)}
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.time()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(src), json.dumps(request)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result["setup_s"] = result["ready"] - start
    if result.get("error"):
        return result, result["error"].strip().splitlines()[-1]
    return result, None


PLAIN, TRACED, REFERENCE_KIND = "plain", "traced", "reference"
SOURCES = {PLAIN: SRC, TRACED: SRC, REFERENCE_KIND: REFERENCE}


class Run:
    """Samples of one workload run and the checks on them."""

    def __init__(self, case, expected, trace, seconds):
        self.case, self.expected, self.trace, self.seconds = case, expected, trace, seconds
        self.kinds = (PLAIN, TRACED) if trace else (PLAIN, REFERENCE_KIND)
        self.samples = {kind: [] for kind in self.kinds}  # samples that passed
        self.pairs = []  # {kind: sample} for each pair whose two samples passed
        self.setup = []  # pairs (and set-up probe pairs) for setup_s
        self.attempted = self.failed = 0
        self.problems = []
        self.spans_out = OUT / f"spans-{case.workload}-seed{case.seed}.json"

    def sample(self, kind, timeout):
        """Run and check one sample; returns its result if it passed, else None."""
        traced = kind == TRACED
        self.attempted += 1
        result, error = spawn(self.case.argv, traced, timeout,
                              self.spans_out if traced else None, SOURCES[kind])
        problems = [error] if error else []
        if result is not None and not error:
            problems += check_output(self.case, result["stdout"], result["stderr"],
                                     result["rc"], self.expected)
            problems += self._consistency(result, traced)
        if problems:
            self.failed += 1
            self.problems.append(f"{kind} sample {self.attempted}: " + "; ".join(problems[:5]))
            return None
        stdout = result.pop("stdout")
        result["kind"] = kind
        result["stdout_sha256"] = digest(stdout)
        result["output_bytes"] = len(stdout.encode("utf-8"))
        self.samples[kind].append(result)
        return result

    def _consistency(self, result, traced):
        """Every sample of a run, the reference's too, writes the same stdout
        byte for byte; traced counters repeat exactly."""
        problems = []
        done = [s for samples in self.samples.values() for s in samples]
        if done and digest(result["stdout"]) != done[0]["stdout_sha256"]:
            problems.append("stdout differs from an earlier sample of this run")
        earlier = self.samples.get(TRACED)
        if traced and earlier and result["trace"]["counts"] != earlier[0]["trace"]["counts"]:
            problems.append("trace counters differ between traced samples")
        return problems

    def execute(self):
        """Run pairs of samples, one of each kind back to back, in the order
        AB, BA, AB, ..., until the next pair would end after --seconds; then
        top up the set-up measurements."""
        clock0 = time.perf_counter()
        pair_s = []  # seconds each pair took
        while len(pair_s) < 200:
            elapsed = time.perf_counter() - clock0
            if len(pair_s) >= MIN_PAIRS and elapsed + _median(pair_s) > self.seconds:
                break
            if elapsed > LAUNCH_LIMIT_S and pair_s:
                break
            order = self.kinds if len(pair_s) % 2 == 0 else self.kinds[::-1]
            results = {kind: self.sample(kind, HARD_LIMIT_S - (time.perf_counter() - clock0))
                       for kind in order}
            pair_s.append(time.perf_counter() - clock0 - elapsed)
            if all(results.values()):
                self.pairs.append(results)
        if self.trace:
            return
        self.setup = list(self.pairs)
        while len(self.setup) < MIN_SETUP and time.perf_counter() - clock0 < LAUNCH_LIMIT_S:
            probe = {}
            for kind in self.kinds:
                probe[kind], error = spawn(None, src=SOURCES[kind])
                if error:
                    self.problems.append(f"set-up probe: {error}")
                    return
            self.setup.append(probe)

    def timings(self) -> dict:
        """Median seconds of each kind of sample."""
        return {f"{kind}.{name}": _median(s[name] for s in self.samples[kind])
                for kind in self.kinds for name in ("wall_s", "cpu_s", "setup_s")}

    def end_to_end(self):
        return {
            "wall_rel": _relative(self.pairs, "wall_s"),
            "cpu_rel": _relative(self.pairs, "cpu_s"),
            "setup_s": SETUP_SCALE_S * _relative(self.setup, "setup_s"),
            "peak_rss_mb": _median(s["peak_rss_kb"] / 1024 for s in self.samples[PLAIN]),
            "pass_frac": (self.attempted - self.failed) / max(self.attempted, 1),
        }

    def per_layer(self):
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        plain, traced = self.samples[PLAIN], self.samples[TRACED]
        if not traced:
            return metrics
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = _median(
                s["trace"]["layer_self_s"].get(layer, 0.0) for s in traced)
        for name, unit in PER_LAYER.items():
            if name.endswith(".self_s") and name.count(".") == 2:
                fn = name.rsplit(".", 1)[0]
                metrics[name] = _median(s["trace"]["self_s"].get(fn, 0.0) for s in traced)
            elif unit != "s":
                metrics[name] = traced[0]["trace"]["counts"].get(name, 0)
        metrics["cli.output_bytes"] = traced[0]["output_bytes"]
        metrics["trace.overhead_s"] = (_median(s["wall_s"] for s in traced)
                                       - _median(s["wall_s"] for s in plain))
        return metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _relative(pairs, name) -> float:
    """Median over the pairs of the program's value over the reference's."""
    return _median(pair[PLAIN][name] / pair[REFERENCE_KIND][name] for pair in pairs)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cycloseq").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(run: Run) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workload": run.case.workload,
        "seed": run.case.seed,
        "trace": int(run.trace),
        "seconds": run.seconds,
        "samples": {**{kind: len(run.samples[kind]) for kind in run.kinds},
                    "setup": len(run.setup), "attempted": run.attempted,
                    "failed": run.failed},
    }


def _describe(name, unit, value, count):
    return f"{name:36s} {value:.6g} {unit}  ({count})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny instances, no recorded digests (the benchmark's tests)")
    args = parser.parse_args(argv)

    if not (SRC / "cycloseq" / "cli.py").is_file():
        print(f"error: no cycloseq source under {SRC}", file=sys.stderr)
        return 2
    case = make_case(args.workload, args.seed, toy=args.toy)
    expected = None if args.toy else load_expected()
    for src in (SRC, REFERENCE):  # warm-up: byte-compile and fill the file cache
        _, error = spawn(None, src=src)
        if error:
            print(f"error: cycloseq.cli under {src} does not import: {error}", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)

    run = Run(case, expected, bool(args.trace), args.seconds)
    run.execute()
    env = environment(run)
    print(f"cycloseq benchmark: workload={case.workload} seed={case.seed} "
          f"trace={args.trace} argv={' '.join(case.argv)[:200]}")
    print("env: " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print("FAILED " + problem)

    n = {kind: len(samples) for kind, samples in run.samples.items()}
    for name, value in run.timings().items():
        print(_describe(name, "s", value, f"median of {n[name.split('.')[0]]} samples"))
    plain = f"median of {n[PLAIN]} samples"
    if args.trace:
        values = run.per_layer()
        units = PER_LAYER
        traced = f"median of {n[TRACED]} traced samples"
        counts = {name: (traced if units[name] == "s" else "exact count") for name in units}
        counts["trace.overhead_s"] = f"{traced} minus {plain}"
        absent = run.samples[TRACED][0]["trace"]["absent"] if n[TRACED] else []
        print("absent from this version of the program (reported as 0): "
              + (", ".join(absent) or "none"))
    else:
        values = run.end_to_end()
        units = END_TO_END
        counts = dict.fromkeys(units, plain)
        for name in ("wall_rel", "cpu_rel"):
            counts[name] = f"median over {len(run.pairs)} pairs of program / reference"
        counts["setup_s"] = (f"{SETUP_SCALE_S} s x median over {len(run.setup)} pairs "
                             "of program / reference set-up")
        counts["pass_frac"] = f"{run.failed} of {run.attempted} samples failed"
        print(_describe("failed_frac", "ratio", run.failed / max(run.attempted, 1),
                        counts["pass_frac"]))
    for name, unit in units.items():
        print(_describe(name, unit, values[name], counts[name]))

    record = {"env": env, "metrics": values, "problems": run.problems,
              "absent": absent if args.trace else [],
              "samples": [{k: v for k, v in s.items() if k not in ("stderr", "trace")}
                          for samples in run.samples.values() for s in samples]}
    with open(OUT / f"result-{case.workload}-seed{case.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
