"""Regenerate perfbench/reference.json from the current code.

    python3 perfbench/make_reference.py [--workloads NAME ...]

Run from the repository root, only when the program's output is meant to
change. For the default seed and each workload, at full and smoke size, it
records the output fields that `workloads.check_reference` compares and
the exact work counters of a traced op. The tolerance of a Monte-Carlo
field is four standard deviations of its sampling error: for a CI end, the
spread over CI seeds 0-5 of the same input; for coverage, the binomial
error of the requested level over the replicates.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from run import BENCH, run_workload
from tracing import EXACT_COUNTERS
from workloads import (DEFAULT_SEED, DETERMINISTIC, MONTE_CARLO, WORKLOADS,
                       field)

CI_SEEDS = range(1, 6)


def _only_op(record):
    op = record["ops"][0]
    if op["problems"]:
        raise SystemExit(f"{record['workload']}: {'; '.join(op['problems'])}")
    return op


def reference_for(root, workload, smoke):
    record = run_workload(root, workload, DEFAULT_SEED, 0, True, smoke,
                          use_reference=False)
    op = _only_op(record)
    argv = record["argv"]
    paths = DETERMINISTIC[workload.kind] + tuple(
        p for p in MONTE_CARLO[workload.kind]
        if "--ci-level" in argv or not p.startswith("ci."))
    entry = {
        "fields": {p: field(op["output"], p) for p in paths},
        "counters": {k: op["layers"][k] for k in EXACT_COUNTERS},
        "mc_tol": {},
    }
    if workload.kind == "coverage":
        level = float(argv[argv.index("--ci-level") + 1]) if "--ci-level" in argv else 0.95
        reps = int(argv[argv.index("--replicates") + 1])
        entry["mc_tol"]["coverage"] = 4 * math.sqrt(level * (1 - level) / reps)
    elif "--ci-level" in argv:
        ends = {"ci.lo": [entry["fields"]["ci.lo"]], "ci.hi": [entry["fields"]["ci.hi"]]}
        for ci_seed in CI_SEEDS:
            rec = run_workload(root, workload, DEFAULT_SEED, 0, False, smoke,
                               use_reference=False, extra_argv=("--seed", str(ci_seed)))
            out = _only_op(rec)["output"]
            for path in ends:
                ends[path].append(field(out, path))
        for path, values in ends.items():
            entry["mc_tol"][path] = 4 * statistics.stdev(values)
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    path = BENCH / "reference.json"
    ref = json.loads(path.read_text())
    ref["seed"] = DEFAULT_SEED
    for name in args.workloads:
        for smoke in (True, False):
            entry = reference_for(root, WORKLOADS[name], smoke)
            ref["workloads"].setdefault(name, {})["smoke" if smoke else "full"] = entry
            print(f"{name} {'smoke' if smoke else 'full'}: {json.dumps(entry)}", flush=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
