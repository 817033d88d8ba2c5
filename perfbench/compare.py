"""Compare two run records of one workload, flagging different machines.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files run.py writes with `--out`. Each metric is
printed with its change and, for an end-to-end metric, whether it got worse
by more than its bound in BENCHMARK.json. If the machine records differ
(CPU, core count, Python, numpy, scipy, BLAS or its threads), the numbers
measure the machines as much as the code: the differences are listed and no
change is reported. Exits 1 if the records are not comparable.
"""

import json
import sys
from pathlib import Path

SAME_RUN = ("workload", "seed", "seconds", "trace", "smoke")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    problems = [f"{k}: {base.get(k)!r} vs {new.get(k)!r}"
                for k in SAME_RUN if base.get(k) != new.get(k)]
    problems += [f"machine {k}: {base['machine'].get(k)!r} vs {new['machine'].get(k)!r}"
                 for k in sorted(set(base["machine"]) | set(new["machine"]))
                 if base["machine"].get(k) != new["machine"].get(k)]
    if problems:
        print("not comparable, no change reported:")
        for p in problems:
            print(f"  {p}")
        return 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{base['workload']} seed {base['seed']} trace {base['trace']}: "
          f"{base['attempted']} vs {new['attempted']} ops, "
          f"correct {base['correct']} vs {new['correct']}")
    for name, m in base["metrics"].items():
        b, n = m["value"], new["metrics"].get(name, {}).get("value")
        if n is None:
            print(f"  {name:40s} missing in NEW")
            continue
        change = (n - b) / b if b else 0.0
        verdict = ""
        spec_m = bounds.get(name, {})
        if "bound" in spec_m:
            worse = change if spec_m["better"] == "lower" else -change
            verdict = "WORSE than bound" if worse > spec_m["bound"] else "within bound"
        print(f"  {name:40s} {b:>14.6g} {n:>14.6g} {m['unit']:6s} {100 * change:+7.2f}% {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
