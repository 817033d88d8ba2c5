"""Every metric of every workload, with its unit, the output checks and the
tracing overhead, in one command.

    python3 perfbench/report.py [--workloads NAME ...] [--seed N]
                                [--seconds S] [--smoke]

Run from the repository root. Each workload runs twice through run.py:
untraced for the end-to-end metrics, traced for the per-layer ones. The
tracing overhead is the traced median op time minus the untraced one.
Exits non-zero if any op failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, self_time_shares
from workloads import DEFAULT_SEED, WORKLOADS


def run(root, name, seed, seconds, trace, smoke):
    out = BENCH / ".work" / "report" / f"{name}-t{trace}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--trace", str(trace), "--out", str(out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    all_ok = True
    machine = None
    for name in args.workloads:
        plain = run(root, name, args.seed, args.seconds, 0, args.smoke)
        traced = run(root, name, args.seed, args.seconds, 1, args.smoke)
        if machine is None:
            machine = plain["machine"]
            print(f"machine: {json.dumps(machine, sort_keys=True)}")
        print(f"\n== {name}: hyperalpha {' '.join(plain['argv'])}")
        for rec in (plain, traced):
            attempted, failed = rec["attempted"], rec["failed"]
            all_ok &= rec["correct"]
            print(f"  trace {rec['trace']}: {attempted} ops, failed_frac "
                  f"{failed / attempted:.4f}, output checks "
                  f"{'passed' if rec['correct'] else 'FAILED'}, reference "
                  f"{'checked' if rec['reference_checked'] else 'not checked (other seed)'}")
            for op in rec["ops"]:
                for problem in op["problems"]:
                    print(f"    FAILED: {problem}")
            for metric, m in rec["metrics"].items():
                print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
        base = plain["metrics"]["op_s_p50"]["value"]
        extra = traced["metrics"]["trace.op_s_p50"]["value"] - base
        print(f"  tracing overhead: {extra:+.4f} s per op ({100 * extra / base:+.2f}% of "
              f"op_s_p50 {base:.4f} s)")
        print("  dominant self time: " + ", ".join(
            f"{k} {100 * f:.0f}%" for k, _, f in self_time_shares(traced)[:4]))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
