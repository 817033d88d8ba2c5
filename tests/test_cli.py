import json
import subprocess
import sys
import time

import numpy as np
import pytest

from hyperalpha.cli import (_read_rows, main, read_pattern_csv, run_pipeline,
                           write_pattern_csv)
from hyperalpha.estimator import DIAGNOSTIC_GRID
from hyperalpha.geometry import normalize_intensity
from hyperalpha.simulate import cloaked_lattice, poisson
from hyperalpha.tapers import build_taper_set
from hyperalpha.transforms import curve_C


@pytest.fixture(scope="module")
def pattern_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pattern.csv"
    p = poisson(1.0, 12.0, seed=77)
    write_pattern_csv(path, p.points)
    return str(path), p


class TestReadWriteCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        pts = np.array([[0.125, -3.5], [1e-17, 2.0]])
        write_pattern_csv(path, pts, comments=["header note"])
        got = read_pattern_csv(path)
        np.testing.assert_array_equal(got, pts)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# leading\n\n1.0,2.0\n3.0,4.0  # trailing\n")
        got = read_pattern_csv(path)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_one_row(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.5,-2.0\n")
        got = read_pattern_csv(path)
        assert got.shape == (1, 2)
        np.testing.assert_array_equal(got, [[1.5, -2.0]])

    def test_surrounding_spaces(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("  1.0 ,\t2.5\n   \n-3.0,  4.0  \n")
        got = read_pattern_csv(path)
        np.testing.assert_array_equal(got, [[1.0, 2.5], [-3.0, 4.0]])

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n", " \n\t\n"])
    def test_no_rows_is_empty(self, tmp_path, recwarn, text):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        got = read_pattern_csv(path)
        assert got.shape == (0, 0)
        assert len(recwarn) == 0

    def test_bit_equal_to_line_loop(self, tmp_path):
        # the reference is the line loop that reports parse errors, which
        # applies Python's float() to every field
        path = tmp_path / "pts.csv"
        p = poisson(1.0, 30.0, seed=5)
        write_pattern_csv(path, p.points, comments=["simulated"])
        with open(path) as fh:
            want = _read_rows(fh, path)
        got = read_pattern_csv(path)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == p.points.tobytes()


class TestExitCodes:
    def test_malformed_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\noops,3.0\n")
        rc = main(["estimate", "--input", str(path), "--half-width", "10"])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_inconsistent_columns(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        assert main(["estimate", "--input", str(path),
                     "--half-width", "10"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                   "--half-width", "10"])
        assert rc == 2

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("# no points\n")
        rc = main(["estimate", "--input", str(path), "--half-width", "10"])
        assert rc == 3

    def test_numerical_failure(self, tmp_path, capsys):
        # three points normalize to a window of half-width sqrt(3)/2 < 1,
        # too small for any scale calibration; both commands that normalize
        # a pattern say so
        path = tmp_path / "tiny.csv"
        path.write_text("0.5,0.5\n-0.5,-0.5\n0.1,-0.3\n")
        for command in (["estimate"],
                        ["curve", "--output", str(tmp_path / "curve.csv")]):
            rc = main(command + ["--input", str(path), "--half-width", "1.0"])
            assert rc == 4
            err = capsys.readouterr().err
            assert "error" in err
            assert "too few points" in err
            assert "3 points in 2-D" in err
            assert "normalized window half-width of 0.866" in err


class TestEstimate:
    def test_json_output_shape(self, pattern_csv, capsys):
        path, p = pattern_csv
        rc = main(["estimate", "--input", path, "--half-width", "12"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["schema_version"] == 1
        assert np.isfinite(out["alpha_hat"])
        assert out["ci"] is None
        assert out["n_points"] == len(p.points)
        # R is reported in the unit-intensity frame
        assert out["R"] == pytest.approx(
            12.0 * np.sqrt(len(p.points) / 24.0 ** 2))
        assert 0.1 < out["j_min"] < out["j_max"] <= 1.0
        assert out["frames"][0]["path"] == path
        assert out["config_echo"]["command"] == "estimate"

    def test_rerun_byte_identical(self, pattern_csv, tmp_path):
        path, _ = pattern_csv
        out = tmp_path / "report.json"
        argv = ["estimate", "--input", path, "--half-width", "12",
                "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_rescale_invariance(self, pattern_csv, tmp_path, capsys):
        # the pipeline normalizes to unit intensity, so measuring the same
        # pattern in different units must not move the estimate
        path, p = pattern_csv
        scaled = tmp_path / "scaled.csv"
        write_pattern_csv(scaled, 3.0 * p.points)
        rc = main(["estimate", "--input", path, "--half-width", "12"])
        assert rc == 0
        a = json.loads(capsys.readouterr().out)["alpha_hat"]
        rc = main(["estimate", "--input", str(scaled), "--half-width", "36"])
        assert rc == 0
        b = json.loads(capsys.readouterr().out)["alpha_hat"]
        assert abs(a - b) < 1e-8

    def test_half_width_inferred(self, pattern_csv, capsys):
        path, _ = pattern_csv
        rc = main(["estimate", "--input", path])
        assert rc == 0
        err = capsys.readouterr().err
        assert "half-width not given" in err

    def test_ci_requested(self, pattern_csv, capsys):
        path, _ = pattern_csv
        rc = main(["estimate", "--input", path, "--half-width", "12",
                   "--ci-level", "0.9", "--ci-draws", "2000"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        ci = out["ci"]
        assert ci["level"] == 0.9
        assert ci["lo"] < out["alpha_hat"] < ci["hi"]

    def test_d1_ci_default_scales(self, tmp_path):
        # the d = 1 covariance is closed form, so a CI at the default
        # --nscales takes well under a second; 20 s leaves room for slow
        # machines but not for per-entry quadrature (minutes)
        path = tmp_path / "line.csv"
        write_pattern_csv(path, poisson(1.0, 200.0, seed=3, d=1).points)
        out = tmp_path / "report.json"
        argv = ["estimate", "--input", str(path), "--dim", "1",
                "--half-width", "200", "--ci-level", "0.95",
                "--output", str(out)]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 20.0
        first = out.read_bytes()
        ci = json.loads(first)["ci"]
        assert np.isfinite(ci["lo"]) and np.isfinite(ci["hi"])
        assert ci["lo"] <= ci["hi"]
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_glob_pools_frames(self, tmp_path, capsys):
        for k in (0, 1):
            p = poisson(1.0, 10.0, seed=50 + k)
            write_pattern_csv(tmp_path / f"frame{k}.csv", p.points)
        rc = main(["estimate", "--input", str(tmp_path / "frame*.csv"),
                   "--half-width", "10"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["frames"]) == 2
        assert out["alpha_hat"] == pytest.approx(
            np.mean([f["alpha_hat"] for f in out["frames"]]))

    def test_curve_output(self, pattern_csv, tmp_path, capsys):
        path, _ = pattern_csv
        curve_path = tmp_path / "curve.csv"
        rc = main(["estimate", "--input", path, "--half-width", "12",
                   "--curve-output", str(curve_path)])
        assert rc == 0
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "j,C"
        assert len(lines) == 1 + 120


class TestCurveCommand:
    def test_with_poisson_reference(self, pattern_csv, tmp_path, capsys):
        path, _ = pattern_csv
        out = tmp_path / "curve.csv"
        rc = main(["curve", "--input", path, "--half-width", "12",
                   "--imax", "4", "--output", str(out),
                   "--poisson-reference", "2"])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "j,C,C_poisson"
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 120
        # every cell must be a plain parseable number, not a repr wrapper
        parsed = [[float(cell) for cell in row.split(",")] for row in data]
        assert all(len(row) == 3 for row in parsed)
        assert parsed[0][0] == pytest.approx(0.11)
        # the reference is the mean curve of Poisson replicates drawn at the
        # pattern's normalized R with seeds seed + 10000 + k (--seed is 0)
        R = float(lines[1].split()[1].removeprefix("R="))
        set4 = build_taper_set(2, 4)
        want = np.mean([curve_C(poisson(1.0, R, seed=10_000 + k), set4,
                                DIAGNOSTIC_GRID).values for k in range(2)],
                       axis=0)
        np.testing.assert_array_equal([row[2] for row in parsed], want)


class TestSimulateCommand:
    def test_reproducible_file(self, tmp_path, capsys):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        for f in (f1, f2):
            rc = main(["simulate", "--model", "rsa", "--half-width", "15",
                       "--seed", "4", "--lambda-prop", "2.0",
                       "--radius", "0.8", "--output", str(f)])
            assert rc == 0
        assert f1.read_bytes() == f2.read_bytes()
        meta = json.loads(capsys.readouterr().out.split("}\n{")[0] + "}")
        assert meta["model"] == "rsa"
        rows = read_pattern_csv(f1)
        assert len(rows) == meta["n_points"]

    def test_roundtrip_into_estimate(self, tmp_path, capsys):
        f = tmp_path / "cloaked.csv"
        rc = main(["simulate", "--model", "cloaked", "--alpha", "1.0",
                   "--sigma", "0.25", "--half-width", "12", "--seed", "9",
                   "--output", str(f)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["estimate", "--input", str(f), "--half-width", "12"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert np.isfinite(out["alpha_hat"])


class TestCoverageCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "cov.json"
        rc = main(["coverage", "--alpha", "1.0", "--half-width", "12",
                   "--replicates", "3", "--ci-draws", "1500",
                   "--seed", "2", "--output", str(out)])
        assert rc == 0
        got = json.loads(out.read_text())
        assert got["replicates"] == 3
        assert 0.0 <= got["coverage"] <= 1.0
        assert got["covered"] <= 3

    def test_calibration_matches_run_pipeline(self, capsys):
        # coverage calibrates j_min and j_max on its pilot replicate (seed
        # --seed) the way estimate calibrates that pattern
        rc = main(["coverage", "--alpha", "0.5", "--half-width", "12",
                   "--replicates", "2", "--ci-draws", "256", "--seed", "2"])
        assert rc == 0
        got = json.loads(capsys.readouterr().out)
        report, _ = run_pipeline(cloaked_lattice(0.5, 0.25, 12.0, 2),
                                 ci_level=0.95, ci_draws=256)
        assert got["j_min"] == report.diagnostics["j_min"]
        assert got["j_max"] == report.diagnostics["j_max"]

    def test_quantiles_use_normalized_half_width(self, monkeypatch, capsys):
        # the shared pivot quantiles are taken at the normalized R that
        # each replicate's pivot uses, not at the raw --half-width
        import hyperalpha.cli as cli
        real, seen = cli.pivot_quantiles, []

        def recording(set_, plan, beta, R, *args, **kwargs):
            seen.append(R)
            return real(set_, plan, beta, R, *args, **kwargs)

        monkeypatch.setattr(cli, "pivot_quantiles", recording)
        rc = main(["coverage", "--alpha", "0.5", "--half-width", "12",
                   "--replicates", "2", "--ci-draws", "64", "--seed", "2"])
        assert rc == 0
        pilot, _ = normalize_intensity(cloaked_lattice(0.5, 0.25, 12, 2))
        assert seen == [pilot.half_width]


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "hyperalpha.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
