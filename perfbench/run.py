"""Benchmark of the hyperalpha CLI: one workload, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out PATH]

Run from the repository root; the program is imported from ./src.

Set-up writes the workload's input with `hyperalpha simulate` in this
process; `setup_s` is the median time of repetitions made before the first
op and after each op. Ops run in a closed loop with one client: each op is
`hyperalpha.cli.main(argv)` in a fresh worker process (`worker.py`),
started after the previous one ended and only if it should end within
`--seconds`, going by the median op so far (at least one op; exactly one
with `--smoke`, which also shrinks every input). CLI users always start
cold, so each op pays interpreter start, import and empty caches.

With `--trace 0` the run reports the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` the workers trace each layer and the run
reports the per-layer metrics instead. Every op's output is checked (see
workloads.py); an op fails if it exits non-zero, raises, times out or fails
a check. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; lines before it, starting with `#`,
give the per-op figures and the machine record. The full record, spans
included, is written to `--out` (default perfbench/.work/results/).

A run holds a handful of ops, so no tail percentile has ten samples beyond
it and none is reported. The program has no queues or threads of its own,
so no layer waits on another and no waiting time is reported.
"""

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from tracing import EXACT_COUNTERS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, check_output, check_reference

BENCH = Path(__file__).resolve().parent
RUN_DEADLINE_S = 170.0
# set-up repetitions (count, seconds) before the first op and after each op
SETUP_FIRST = (4, 0.3)
SETUP_BETWEEN = (2, 0.15)
SETUP_MAX_REPS = 50
TIMED_UNITS = ("s", "1/s")


class SetupError(Exception):
    pass


def machine_record():
    """What a timing depends on besides the code; results that differ here
    are not comparable."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Setup:
    """Writes the workload's input with `hyperalpha simulate` and times it.

    `repeat` runs simulate again into a scratch file, which must hold the
    same bytes as the input: the seed fixes the input. The run calls it
    before the first op and after every op, so the repetitions behind
    `setup_s` sample the machine across the whole run, not one moment.
    """

    def __init__(self, cli_main, size, seed, workdir):
        self.cli_main = cli_main
        self.argv = ["simulate", *size.simulate, "--seed", str(seed), "--output"]
        self.input = workdir / "input.csv"
        self.scratch = workdir / "again.csv"
        self.times = []
        self.meta = self._once(self.input)
        self.expected = self.input.read_bytes()

    def _once(self, path):
        argv = self.argv + [str(path)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            rc = self.cli_main(argv)
        self.times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SetupError(f"hyperalpha {' '.join(argv)} exited with {rc}")
        return json.loads(buf.getvalue())

    def repeat(self, min_reps, min_s):
        t0 = time.perf_counter()
        for k in range(SETUP_MAX_REPS):
            if k >= min_reps and time.perf_counter() - t0 >= min_s:
                break
            self._once(self.scratch)
            if self.scratch.read_bytes() != self.expected:
                raise SetupError("simulate wrote different inputs for the same seed")


def run_op(root, argv, trace, workdir, k, timeout):
    """One op in a fresh worker; returns its record (worker fields + cli_s)."""
    result_path = workdir / f"op{k}.json"
    spec = {"src": str(root / "src"), "argv": argv, "trace": bool(trace),
            "result": str(result_path)}
    with open(workdir / f"op{k}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                cwd=root, stdout=log, stderr=subprocess.STDOUT)
        timed_out = False
        try:
            proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        cli_s = time.perf_counter() - t0
    record = {"cli_s": cli_s, "exit_code": proc.returncode, "problems": []}
    if timed_out:
        record["problems"].append(f"timed out after {timeout:.0f} s")
    elif result_path.exists():
        record.update(json.loads(result_path.read_text()))
        if record["error"]:
            record["problems"].append("raised: " + record["error"].strip().splitlines()[-1])
        elif record["rc"] != 0:
            record["problems"].append(f"CLI exited with {record['rc']}")
    else:
        tail = (workdir / f"op{k}.log").read_text(errors="replace").strip()[-300:]
        record["problems"].append(f"worker exited with {proc.returncode}: {tail}")
    return record


def load_reference(workload, seed, smoke):
    ref = json.loads((BENCH / "reference.json").read_text())
    if seed != ref["seed"]:
        return None
    return ref["workloads"].get(workload.name, {}).get("smoke" if smoke else "full")


def run_workload(root, workload, seed, seconds, trace, smoke, use_reference=True,
                 extra_argv=(), started=None):
    """Set up and run one workload; returns the full record of the run."""
    started = time.perf_counter() if started is None else started
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import hyperalpha.cli
    if not hyperalpha.cli.__file__.startswith(src + os.sep):
        raise SetupError(f"hyperalpha was imported from {hyperalpha.cli.__file__}, not {src}")

    size = workload.size(smoke)
    ref = load_reference(workload, seed, smoke) if use_reference else None
    workdir = BENCH / ".work" / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = Setup(hyperalpha.cli.main, size, seed, workdir)
        setup.repeat(*SETUP_FIRST)
        output_path = workdir / "output.json"
        fill = {"input": str(setup.input), "output": str(output_path), "seed": str(seed)}
        argv = [a.format(**fill) for a in size.op] + list(extra_argv)
        ops, first_bytes, first_counts = [], None, None
        measure_start = time.perf_counter()
        while True:
            timeout = RUN_DEADLINE_S - (time.perf_counter() - started)
            output_path.unlink(missing_ok=True)
            op = run_op(root, argv, trace, workdir, len(ops), timeout)
            ops.append(op)
            if not op["problems"]:
                out = output_path.read_bytes()
                output_path.unlink()
                op["output"] = json.loads(out)
                op["problems"] += check_output(workload, argv, op["output"],
                                               setup.meta["n_points"])
                if first_bytes is None:
                    first_bytes = out
                elif out != first_bytes:
                    op["problems"].append("output bytes differ from the first op's")
                if ref is not None:
                    op["problems"] += check_reference(workload, op["output"], ref)
            if trace and "spans" in op:
                op["layers"] = layer_metrics(op["spans"], op["counts"])
                counts = {k: v for k, v in op["layers"].items() if not k.endswith("_s")}
                first_counts = counts if first_counts is None else first_counts
                for key in sorted(counts):
                    if counts[key] != first_counts[key]:
                        op["problems"].append(f"{key} = {counts[key]!r}, "
                                              f"first op {first_counts[key]!r}")
                for key in EXACT_COUNTERS if ref is not None else ():
                    if counts[key] != ref["counters"][key]:
                        op["problems"].append(f"{key} = {counts[key]!r}, "
                                              f"reference {ref['counters'][key]!r}")
            setup.repeat(*SETUP_BETWEEN)
            # start another op only if it should end within the window
            expected_end = (time.perf_counter() - measure_start
                            + statistics.median(op["cli_s"] for op in ops))
            if (smoke or expected_end > seconds
                    or time.perf_counter() - started >= RUN_DEADLINE_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "argv": argv,
        "reference_checked": ref is not None,
        "setup_times": setup.times, "ops": ops,
    }


def summarize(record, spec):
    """The metrics named in BENCHMARK.json from a run's ops."""
    ops = record["ops"]
    good = [op for op in ops if "op_s" in op] or ops
    names = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for m in names:
        name, unit = m["name"], m["unit"]
        if name == "setup_s":
            value = statistics.median(record["setup_times"])
        elif name == "op_s_p50" or name == "trace.op_s_p50":
            value = statistics.median(op.get("op_s", op["cli_s"]) for op in good)
        elif name == "cli_s_p50":
            value = statistics.median(op["cli_s"] for op in good)
        elif name == "peak_rss_mb":
            value = max(op.get("peak_rss_mb", 0.0) for op in good)
        elif name == "worker.import_s":
            value = statistics.median(op.get("import_s", 0.0) for op in good)
        elif name == "worker.cpu_s":
            value = statistics.median(op.get("cpu_s", 0.0) for op in good)
        else:
            traced = [op for op in good if "layers" in op]
            if not traced:
                value = 0.0
            elif name.endswith(".self_pct"):
                self_s = name[:-len("pct")] + "s"
                value = statistics.median(100 * op["layers"][self_s] / op["op_s"]
                                          for op in traced)
            elif unit in TIMED_UNITS:
                value = statistics.median(op["layers"][name] for op in traced)
            else:
                value = traced[0]["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def self_time_shares(record):
    """(layer, median self seconds, share of all self time), largest first."""
    layers = [op["layers"] for op in record["ops"] if "layers" in op]
    if not layers:
        return []
    selfs = {k[:-len(".self_s")]: statistics.median(layer[k] for layer in layers)
             for k in layers[0] if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    return sorted(((k, v, v / total) for k, v in selfs.items()), key=lambda t: -t[1])


def _print_report(record):
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}"
          f"{' smoke' if record['smoke'] else ''}: hyperalpha {' '.join(record['argv'])}")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    setup = record["setup_times"]
    print(f"# set-up: {len(setup)} x simulate, median {statistics.median(setup):.4f} s")
    for k, op in enumerate(record["ops"]):
        line = f"# op {k}: cli_s {op['cli_s']:.4f}"
        if "op_s" in op:
            line += (f" op_s {op['op_s']:.4f} import_s {op['import_s']:.4f}"
                     f" peak_rss_mb {op['peak_rss_mb']:.1f}")
        print(line + (" FAILED: " + "; ".join(op["problems"]) if op["problems"] else " ok"))
    print(f"# failed_frac {record['failed'] / record['attempted']:.4f} ({record['failed']} of "
          f"{record['attempted']} ops); reference checked: {record['reference_checked']}")
    for name, m in record["metrics"].items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    shares = self_time_shares(record)
    if shares:
        print("# largest self time: " + ", ".join(
            f"{k} {v:.3f} s ({100 * f:.0f}%)" for k, v, f in shares[:5]))
        missing = record["ops"][0].get("missing")
        if missing:
            print(f"# not found, so not traced: {', '.join(missing)}")
    print(f"# {record['attempted']} ops, closed loop, one client: medians only, "
          "no tail percentile; no queues, so no waiting time")


def main(argv=None):
    started = time.perf_counter()
    # on SIGTERM, unwind so that run_op kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per run on a tiny input")
    parser.add_argument("--out", default=None, help="write the full record here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hyperalpha" / "cli.py").is_file():
        print(f"error: {root} has no src/hyperalpha/cli.py; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    try:
        record = run_workload(root, workload, args.seed, seconds, bool(args.trace),
                              args.smoke, started=started)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    failed = sum(bool(op["problems"]) for op in record["ops"])
    record.update(machine=machine_record(), metrics=summarize(record, spec),
                  attempted=len(record["ops"]), failed=failed, correct=failed == 0)
    out = Path(args.out) if args.out else (
        BENCH / ".work" / "results" / f"{workload.name}-s{args.seed}-t{args.trace}"
        f"{'-smoke' if args.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_report(record)
    print(f"# full record: {out}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
