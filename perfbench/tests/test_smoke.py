"""Smoke tests of the benchmark harness: every workload once at tiny size.

    python3 -m pytest perfbench/tests

Each workload runs through run.py with `--smoke`, untraced and traced,
which exercises set-up, the worker, the output and reference checks, the
exact-counter checks and the trace writer in a few seconds per workload.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import EXACT_COUNTERS, layer_metrics  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, check_output,  # noqa: E402
                       check_reference)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, str(Path("perfbench") / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _smoke(workload, trace, seed=DEFAULT_SEED, tmp_path=None):
    out = tmp_path / f"{workload}-{trace}-{seed}.json"
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    result, record = _smoke(workload, trace, tmp_path=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert record["reference_checked"]
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert set(record["machine"]) >= {"nproc", "cpu_model", "python", "numpy", "scipy",
                                      "blas", "blas_threads"}
    if trace:
        spans = record["ops"][0]["spans"]
        assert spans and spans[0][0] == "cli.main" and spans[0][3] == -1


def test_counters_repeat_on_another_seed(tmp_path):
    first = _smoke("interval", 1, seed=DEFAULT_SEED + 1, tmp_path=tmp_path)[0]["metrics"]
    second = _smoke("interval", 1, seed=DEFAULT_SEED + 1, tmp_path=tmp_path)[0]["metrics"]
    assert {k: first[k] for k in EXACT_COUNTERS} == {k: second[k] for k in EXACT_COUNTERS}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "estimate", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _estimate_output():
    return {"alpha_hat": 1.0, "j_min": 0.3, "j_max": 0.9, "n_points": 10, "R": 5.0,
            "ci": {"lo": 0.5, "hi": 1.5, "level": 0.95}}


def test_output_checks_catch_bad_outputs():
    w = WORKLOADS["interval"]
    argv = [a.format(input="in.csv", output="out.json", seed=1) for a in w.full.op]
    assert check_output(w, argv, _estimate_output(), 10) == []
    bad = _estimate_output()
    bad["ci"]["lo"] = 2.0
    assert check_output(w, argv, bad, 10)
    bad = _estimate_output()
    bad["alpha_hat"] = float("nan")
    assert check_output(w, argv, bad, 10)
    assert check_output(w, argv, _estimate_output(), 11)


def test_reference_check_tolerances():
    w = WORKLOADS["interval"]
    ref = {"fields": {"alpha_hat": 1.0, "j_min": 0.3, "j_max": 0.9, "n_points": 10,
                      "R": 5.0, "ci.lo": 0.5, "ci.hi": 1.5},
           "mc_tol": {"ci.lo": 0.1, "ci.hi": 0.1}}
    out = _estimate_output()
    out["ci"]["lo"] = 0.55
    assert check_reference(w, out, ref) == []
    out["ci"]["lo"] = 0.65
    assert check_reference(w, out, ref)
    out = _estimate_output()
    out["alpha_hat"] = 1.0 + 1e-6
    assert check_reference(w, out, ref)


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["transforms.curve_C", 1.0, 5.0, 0],
             ["transforms.transform_grid", 1.5, 4.5, 1],
             ["transforms.transform_grid", 6.0, 7.0, 0]]
    counts = {"transforms.evals": 8, "covariance.stored": 0, "covariance.useful": 0,
              "covariance.matrix_dim": 0, "covariance.matrix_mb": 0.0,
              "inference.sample_Z.draws": 0}
    m = layer_metrics(spans, counts)
    assert m["cli.main.self_s"] == pytest.approx(5.0)
    assert m["transforms.curve_C.self_s"] == pytest.approx(1.0)
    assert m["transforms.transform_grid.self_s"] == pytest.approx(4.0)
    assert m["transforms.transform_grid.calls"] == 2
    assert m["transforms.evals_per_s"] == pytest.approx(2.0)


def test_compare_flags_different_machines(tmp_path, capsys):
    import compare

    record = {"workload": "estimate", "seed": 1, "seconds": 22, "trace": 0, "smoke": False,
              "attempted": 5, "correct": True,
              "machine": {"nproc": 2, "cpu_model": "x"},
              "metrics": {"op_s_p50": {"value": 3.0, "unit": "s"}}}
    paths = []
    for k, nproc in enumerate((2, 2, 8)):
        rec = json.loads(json.dumps(record))
        rec["machine"]["nproc"] = nproc
        rec["metrics"]["op_s_p50"]["value"] = 3.0 + k
        paths.append(tmp_path / f"r{k}.json")
        paths[-1].write_text(json.dumps(rec))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert "WORSE than bound" in capsys.readouterr().out
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    out = capsys.readouterr().out
    assert "not comparable" in out and "machine nproc: 2 vs 8" in out
