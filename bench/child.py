"""One benchmark sample in a fresh interpreter.

Usage: python3 bench/child.py <src dir> '<request JSON>'

The request holds the CLI argv (null for a set-up probe), whether to trace,
and where to write spans. The child imports
``cycloseq.cli`` first and stamps the wall clock, so the parent can measure
set-up from its own stamp taken just before the spawn. It then calls
``cycloseq.cli.main(argv)`` once with stdout and stderr captured, and prints
one JSON object with the timings, the captured output and, when traced, the
layer summary.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import cycloseq.cli  # noqa: E402  (set-up ends here)

READY = time.time()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(request: dict) -> dict:
    result = {"ready": READY}
    if request["argv"] is None:
        return result
    tracer = None
    if request["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    main = cycloseq.cli.main
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc = error = None
    wall0, cpu0, kids0 = time.perf_counter(), time.process_time(), _children_cpu()
    try:
        rc = main(list(request["argv"]))
    except Exception:
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0 + _children_cpu() - kids0
        sys.stdout, sys.stderr = real_out, real_err
    # Processes the call started and waited for count too: their CPU time
    # adds to cpu_s, and the largest of their peaks competes for peak RSS.
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update(rc=rc, error=error, wall_s=wall, cpu_s=cpu, peak_rss_kb=peak_kb,
                  stdout=out.getvalue(), stderr=err.getvalue())
    if tracer is not None:
        result["trace"] = tracer.summary()
        if request.get("spans_out"):
            with open(request["spans_out"], "w", encoding="utf-8") as fh:
                json.dump(tracer.span_records(), fh)
    return result


if __name__ == "__main__":
    json.dump(run(json.loads(sys.argv[2])), sys.stdout)
