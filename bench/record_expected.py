"""Record the exit code and stdout digest of every workload for the shipped seeds.

Usage (from the repository root): python3 bench/record_expected.py

Each output must first pass the seed-independent invariants in checks.py;
the script stops without writing if one does not. The digests pin the CLI
output as it was when the benchmark was defined, so later runs of those seeds
catch any byte that changes.
"""

import json
import sys

from checks import EXPECTED_PATH, check_output, digest
from run import spawn
from workloads import WORKLOADS, make_case

SEEDS = 32


def main() -> int:
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(SEEDS):
            case = make_case(workload, seed)
            result, error = spawn(case.argv)
            problems = [error] if error else check_output(
                case, result["stdout"], result["stderr"], result["rc"])
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = {"rc": result["rc"],
                                          "sha256": digest(result["stdout"])}
            print(f"{workload} seed {seed}: rc {result['rc']}", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
