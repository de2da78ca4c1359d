"""
Batch sweeps over parameter ranges
==================================

The sweep facility evaluates every (pair, fill-bit) combination in a range,
runs the consistency checks, and renders a deterministic table. The same
machinery backs the `cycloseq sweep` command line; two runs over the same
selection are byte-identical, so the tables diff cleanly.
"""

import collections
import tempfile
from pathlib import Path

from cycloseq.cli import main, render_sweep, run_sweep
from cycloseq.cli import CHECK_NAMES, ALL_TRIPLES
from cycloseq.numtheory import odd_prime_pairs

# every pair with p*q <= 100, all 8 fill-bit triples, all four checks
rows, failing = run_sweep(odd_prime_pairs(100), ALL_TRIPLES, CHECK_NAMES)
print(f"{len(rows)} rows, {failing} with a failing check")
print(render_sweep(rows[:9], "csv"))

# how often does each autocorrelation family appear in a wider range?
rows, _ = run_sweep(odd_prime_pairs(500), ALL_TRIPLES, ("theorem1",))
families = collections.Counter(row["family"] for row in rows)
print("family counts over p*q <= 500:", dict(families))

# which rows carry d > 1, i.e. a 2-adic complexity below the maximum?
nontrivial = [(row["p"], row["q"], f"{row['a']}{row['b']}{row['c']}", row["d"])
              for row in rows if row["d"] > 1]
print("rows with d > 1:")
for p, q, abc, d in nontrivial:
    print(f"  p={p:2d} q={q:3d} abc={abc}  d={d}")

# the command-line front end writes the same table to a file; the summary
# line goes to stdout and the exit code reports failing checks (0 = none)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    code = main(["sweep", "--max-n", "100", "--out", str(out)])
    print("exit code:", code)
    print("first lines of the file:")
    for line in out.read_text().splitlines()[:4]:
        print(" ", line)
