"""Run one hyperalpha CLI operation in a fresh interpreter and record it.

    python3 perfbench/worker.py SPEC

SPEC is a JSON object: {"src": <dir holding the hyperalpha package>,
"argv": [<CLI arguments>], "trace": <bool>, "result": <path>}. The worker
imports `hyperalpha.cli` from `src`, optionally installs the tracer, calls
`hyperalpha.cli.main(argv)` and writes its timings, peak RSS, CPU time and
(when traced) spans and counts to `result` as JSON before it exits.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hyperalpha.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"hyperalpha was imported from {cli.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    rc, error = None, None
    t1 = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    op_s = time.perf_counter() - t1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "error": error,
        "op_s": op_s,
        "import_s": import_s,
        "worker_s": time.perf_counter() - _START,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts,
                      missing=tracer.missing)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 and error is None else 1


if __name__ == "__main__":
    sys.exit(main())
