import json
import logging
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalpha import inference
from hyperalpha.cli import (_read_rows, main, read_pattern_csv, run_pipeline,
                           write_csv)
from hyperalpha.estimator import DIAGNOSTIC_GRID
from hyperalpha.geometry import PointPattern, Window, normalize_intensity
from hyperalpha.numerics import psd_factor
from hyperalpha.simulate import cloaked_lattice, poisson
from hyperalpha.tapers import build_taper_set
from hyperalpha.transforms import curve_C


@pytest.fixture(scope="module")
def pattern_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pattern.csv"
    p = poisson(1.0, 12.0, seed=77)
    write_csv(path, p.points)
    return str(path), p


class TestReadWriteCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        pts = np.array([[0.125, -3.5], [1e-17, 2.0]])
        write_csv(path, pts, comments=["header note"])
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
        write_csv(path, p.points, comments=["simulated"])
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

    @pytest.mark.parametrize("window", [[], ["--half-width", "12"]],
                             ids=["inferred", "given"])
    def test_empty_frame_in_glob_is_named(self, pattern_csv, tmp_path, capsys,
                                          window):
        # one pooled frame without points refuses the whole call as empty
        # input, naming that frame, whether or not the window is given
        _, p = pattern_csv
        write_csv(tmp_path / "a.csv", p.points)
        (tmp_path / "b.csv").write_text("# no points\n")
        for command in (["estimate"],
                        ["curve", "--output", str(tmp_path / "curve.csv")]):
            rc = main(command + ["--input", str(tmp_path / "*.csv")] + window)
            assert rc == 3
            assert f"{tmp_path / 'b.csv'}: no points" in capsys.readouterr().err

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

    @pytest.mark.parametrize("half_width", ["0", "-5", "nan", "inf"])
    def test_bad_half_width_is_a_domain_error(self, pattern_csv, tmp_path,
                                              capsys, half_width):
        # a bad window is a parameter outside its domain, not unparseable
        # input; a point outside a valid window still is
        path, _ = pattern_csv
        for command in (["estimate"],
                        ["curve", "--output", str(tmp_path / "curve.csv")]):
            rc = main(command + ["--input", path, f"--half-width={half_width}"])
            assert rc == 4
            assert "--half-width must be positive and finite" \
                in capsys.readouterr().err
            assert main(command + ["--input", path, "--half-width", "1"]) == 2
            assert "outside the window" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--model", "rsa", "--radius", "nan"], "hard-core distance r"),
        (["simulate", "--model", "rsa", "--half-width", "nan"], "half-width"),
        (["simulate", "--model", "rsa", "--lambda-prop", "nan"], "lambda_prop"),
        (["simulate", "--model", "poisson", "--intensity", "nan"], "intensity"),
        (["simulate", "--model", "poisson", "--intensity", "inf"], "intensity"),
        (["simulate", "--model", "poisson", "--half-width", "inf"], "half-width"),
        (["simulate", "--model", "cloaked", "--sigma", "nan"], "sigma"),
        (["simulate", "--model", "matched", "--lambda-p", "nan"], "lambda_p"),
        (["simulate", "--model", "matched", "--lambda-p", "inf"], "lambda_p"),
        (["coverage", "--alpha", "0.5", "--half-width", "nan"], "half-width"),
        (["coverage", "--alpha", "0.5", "--sigma", "nan"], "sigma"),
        # finite, but the expected point count is above the simulators' cap
        (["simulate", "--model", "poisson", "--intensity", "1e300"], "intensity"),
        (["simulate", "--model", "poisson", "--half-width", "1e200"], "half-width"),
        (["simulate", "--model", "poisson", "--dim", "1", "--half-width",
          "1e200"], "half-width"),
        (["simulate", "--model", "rsa", "--lambda-prop", "1e300"], "intensity"),
        (["simulate", "--model", "matched", "--lambda-p", "1e300"], "intensity"),
        # the cloaked lattice's sites: inf of them, and 10001^2 just past 1e8
        (["simulate", "--model", "cloaked", "--half-width", "1e200"], "half-width"),
        (["simulate", "--model", "cloaked", "--alpha", "2", "--half-width",
          "4998"], "half-width"),
    ])
    def test_nan_or_infinite_parameter_is_a_domain_error(self, argv, name,
                                                          tmp_path, capsys):
        # NaN fails no comparison, and an infinite or huge intensity or
        # window reaches the Poisson count draw; all are refused by name
        base = {"simulate": ["--half-width", "10",
                             "--output", str(tmp_path / "x.csv")],
                "coverage": ["--half-width", "10", "--replicates", "2"]}
        assert main(argv[:1] + base[argv[0]] + argv[1:]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("scale", ["inf", "1e-300"])
    def test_unusable_taper_scale_is_a_domain_error(self, pattern_csv,
                                                    tmp_path, capsys, scale):
        # an infinite scale, or one whose support grid is too large to
        # build (its length grows as 1/c), is refused by name
        path, _ = pattern_csv
        for command in (["estimate"],
                        ["curve", "--output", str(tmp_path / "curve.csv")]):
            assert main(command + ["--input", path, "--half-width", "12",
                                   "--taper-scale", scale]) == 4
            assert "--taper-scale" in capsys.readouterr().err

    def test_column_count_must_match_dim(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("1.0,2.0,3.0\n-1.0,0.5,2.0\n")
        assert main(["estimate", "--input", str(path),
                     "--half-width", "10"]) == 2
        assert "input has 3 columns but --dim is 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--ci-level", "1.5"],
                                     ["--ci-draws", "0"],
                                     ["--ci-draws", "100000001"]])
    def test_bad_ci_request_refused_before_work(self, pattern_csv, bad,
                                                monkeypatch, capsys):
        import hyperalpha.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the curve ran before the CI was checked")

        monkeypatch.setattr(cli, "curve_C", unreachable)
        path, _ = pattern_csv
        rc = main(["estimate", "--input", path, "--half-width", "12",
                   "--ci-level", "0.95", *bad])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--model", "poisson", "--half-width", "5",
         "--output", "{tmp}/x.csv"],
        ["estimate", "--input", "{input}", "--half-width", "12",
         "--ci-level", "0.95"],
        ["estimate", "--input", "{input}", "--half-width", "12",
         "--poisson-reference"],
        ["curve", "--input", "{input}", "--half-width", "12",
         "--poisson-reference", "1", "--output", "{tmp}/c.csv"],
        ["coverage", "--alpha", "0.5", "--half-width", "10",
         "--replicates", "2"],
    ], ids=["simulate", "estimate-ci", "estimate-poisson", "curve", "coverage"])
    def test_negative_seed_refused_before_work(self, command, pattern_csv,
                                               tmp_path, monkeypatch, capsys):
        # numpy's SeedSequence refused it with a ValueError traceback,
        # after the estimate had run when an interval was asked for
        import hyperalpha.cli as cli
        path, _ = pattern_csv
        argv = [a.format(tmp=tmp_path, input=path) for a in command]
        monkeypatch.setattr(cli, "_normalize", lambda *a: pytest.fail("ran"))
        monkeypatch.setattr(cli, "cloaked_lattice", lambda *a: pytest.fail("ran"))
        assert main(argv + ["--seed", "-1"]) == 4
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_taper_order_limit_with_full_ci(self, pattern_csv, capsys):
        # orders up to i_max - 1; above 12 the closed-form covariance loses
        # precision, so a full-preset interval is refused there
        path, _ = pattern_csv
        base = ["estimate", "--input", path, "--half-width", "12",
                "--nscales", "6", "--ci-draws", "256"]
        ci = ["--ci-level", "0.95", "--ci-full"]
        assert main(base + ["--imax", "14"] + ci) == 4
        err = capsys.readouterr().err
        assert "taper orders above 12" in err and "i_max above 13" in err
        assert main(base + ["--imax", "13"] + ci) == 0
        assert main(base + ["--imax", "14"]) == 0
        # the reduced preset caps the interval's taper set at i_max 4
        assert main(base + ["--imax", "14", "--ci-level", "0.95"]) == 0

    def test_imax_one_is_a_domain_error(self, pattern_csv, tmp_path, capsys):
        # i_max 1 leaves only all-even indices, so no taper survives
        path, _ = pattern_csv
        for command in (
                ["estimate", "--input", path, "--half-width", "12"],
                ["curve", "--input", path, "--half-width", "12",
                 "--output", str(tmp_path / "curve.csv")],
                ["coverage", "--alpha", "0.5", "--half-width", "10",
                 "--replicates", "2", "--ci-draws", "64"]):
            assert main(command + ["--imax", "1"]) == 4
            assert "all-even" in capsys.readouterr().err

    @pytest.mark.parametrize("i_max", ["66", "100000"])
    def test_imax_above_hermite_orders_is_a_domain_error(
            self, i_max, pattern_csv, tmp_path, capsys):
        # 100000 in 2-D asked np.indices for 149 GiB and exited 1 with a
        # traceback
        path, _ = pattern_csv
        for command in (
                ["estimate", "--input", path, "--half-width", "12"],
                ["curve", "--input", path, "--half-width", "12",
                 "--output", str(tmp_path / "curve.csv")],
                ["coverage", "--alpha", "0.5", "--half-width", "10",
                 "--replicates", "2", "--ci-draws", "64"]):
            assert main(command + ["--imax", i_max]) == 4
            assert "--imax" in capsys.readouterr().err

    @pytest.mark.parametrize("n_scales", ["-1", "0", "1"])
    def test_too_few_scales_refused_before_work(self, n_scales, pattern_csv,
                                                monkeypatch, capsys):
        # -1 exited 1 with np.linspace's ValueError traceback; 0 and 1
        # exited 4 only after the curve or the coverage pilot had run
        import hyperalpha.cli as cli
        monkeypatch.setattr(cli, "curve_C", lambda *a: pytest.fail("ran"))
        monkeypatch.setattr(cli, "cloaked_lattice", lambda *a: pytest.fail("ran"))
        path, _ = pattern_csv
        for command in (
                ["estimate", "--input", path, "--half-width", "12"],
                ["estimate", "--input", path, "--half-width", "12",
                 "--ci-level", "0.95"],
                ["coverage", "--alpha", "0.5", "--half-width", "10",
                 "--replicates", "2", "--ci-draws", "64"]):
            assert main(command + ["--nscales", n_scales]) == 4
            assert (f"(--nscales) must be at least 2, got {n_scales}"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("bad, names", [
        (["--jmin", "2"], ["--jmin", "2.0"]),
        (["--jmax", "5"], ["--jmax", "5.0"]),
        (["--jmin", "0"], ["--jmin", "0.0"]),
        (["--jmin", "nan"], ["--jmin", "nan"]),
        (["--jmin", "0.9", "--jmax", "0.5"], ["--jmin", "0.9", "--jmax", "0.5"]),
        # above the calibrated j_max (0.95 at R = 12), checked before the curve
        (["--jmin", "0.99"], ["--jmin", "0.99", "calibrated j_max"]),
    ], ids=["jmin-above", "jmax-above", "jmin-zero", "jmin-nan", "order",
            "above-calibrated"])
    def test_bad_scale_range_refused_before_the_curve(self, bad, names, pattern_csv,
                                                      monkeypatch, capsys):
        # each exited 4 only after the diagnostic curve had been computed,
        # with a message that named neither the flag nor the value
        import hyperalpha.cli as cli
        monkeypatch.setattr(cli, "curve_C", lambda *a: pytest.fail("ran"))
        path, _ = pattern_csv
        assert main(["estimate", "--input", path, "--half-width", "12", *bad]) == 4
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("calibrated", [False, True],
                             ids=["given", "calibrated"])
    def test_jmax_too_small_for_the_knee_refused_before_the_curve(
            self, calibrated, tmp_path, pattern_csv, monkeypatch, capsys):
        # the knee needs 10 grid points at or below j_max, the 10th being
        # 0.2; below that estimate exited 4 only after the diagnostic curve,
        # with a message that named neither the flag nor the value. At
        # --taper-scale 1 the taper support is 5.58, so a window of
        # normalized half-width 8 calibrates j_max near 0.17
        import hyperalpha.cli as cli
        monkeypatch.setattr(cli, "curve_C", lambda *a: pytest.fail("ran"))
        if calibrated:
            path = tmp_path / "small.csv"
            write_csv(path, np.mgrid[-7.5:8:1, -7.5:8:1].reshape(2, -1).T)
            argv, names = (["--input", str(path), "--half-width", "8",
                            "--taper-scale", "1"], ["calibrated j_max 0.17"])
        else:
            argv, names = (["--input", pattern_csv[0], "--half-width", "12",
                            "--jmax", "0.15"], ["--jmax", "0.15", "leaves 5"])
        assert main(["estimate", *argv]) == 4
        err = capsys.readouterr().err
        assert all(name in err for name in names + ["at least 0.2"]), err
        # a given j_min needs no knee, so the same j_max is admitted
        monkeypatch.undo()
        assert main(["estimate", *argv, "--jmin", "0.11", "--nscales", "5"]) == 0

    @pytest.mark.parametrize("argv, what", [
        (["--ci-level", "0.95", "--ci-full", "--nscales", "300"],
         "covariance of 168750000 floats"),
        (["--ci-level", "0.95", "--ci-full", "--nscales", "231"],
         "covariance of 100051875 floats"),
        (["--nscales", "1333334"], "transform table of 100000050 floats"),
        (["--nscales", str(10**30)], "transform table of"),
    ], ids=["ci-300", "ci-231", "estimate", "estimate-huge"])
    def test_scale_count_over_budget_refused_before_work(self, argv, what,
                                                         pattern_csv, monkeypatch,
                                                         capsys):
        # the covariance's parity blocks, 1875 |J|^2 floats at --imax 10 in
        # 2-D, or the |J| x 75 transform table, would be allocated unchecked
        import hyperalpha.cli as cli
        monkeypatch.setattr(cli, "_normalize", lambda *a: pytest.fail("ran"))
        monkeypatch.setattr(cli, "curve_C", lambda *a: pytest.fail("ran"))
        path, _ = pattern_csv
        assert main(["estimate", "--input", path, "--half-width", "12", *argv]) == 4
        err = capsys.readouterr().err
        assert "--nscales" in err and "--imax 10" in err and what in err

    @pytest.mark.parametrize("argv", [
        ["--ci-level", "0.95", "--ci-full"],
        ["--ci-level", "0.95", "--ci-full", "--nscales", "230"],
        ["--ci-level", "0.95", "--nscales", str(10**30)],
        ["--nscales", "1333333"],
    ], ids=["full-preset", "ci-230", "reduced-capped", "estimate"])
    def test_scale_count_within_budget_admitted(self, argv, pattern_csv,
                                                monkeypatch):
        import hyperalpha.cli as cli

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(cli, "_normalize", admitted)
        path, _ = pattern_csv
        with pytest.raises(Admitted):
            main(["estimate", "--input", path, "--half-width", "12", *argv])

    def test_warnings_follow_the_callers_filters(self, pattern_csv,
                                                 monkeypatch):
        # main installs no warning filter of its own, so a warning inside a
        # command is an error wherever the caller made it one
        import hyperalpha.cli as cli
        real = cli.estimate_alpha

        def warning(*args, **kwargs):
            warnings.warn("stub warning", RuntimeWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_alpha", warning)
        path, _ = pattern_csv
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="stub warning"):
                main(["estimate", "--input", path, "--half-width", "12"])


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

    def test_fallback_ci_rerun_byte_identical(self, pattern_csv, tmp_path,
                                              monkeypatch):
        # the interval comes from psd_factor's root
        calls = []

        def recorded(blocks):
            calls.append(len(blocks))
            return psd_factor(blocks)

        monkeypatch.setattr(inference, "psd_factor", recorded)
        path, _ = pattern_csv
        out = tmp_path / "report.json"
        argv = ["estimate", "--input", path, "--half-width", "12",
                "--ci-level", "0.95", "--ci-draws", "2000", "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert len(calls) == 2
        ci = json.loads(first)["ci"]
        assert ci["lo"] < ci["hi"]

    def test_rescale_invariance(self, pattern_csv, tmp_path, capsys):
        # the pipeline normalizes to unit intensity, so measuring the same
        # pattern in different units must not move the estimate
        path, p = pattern_csv
        scaled = tmp_path / "scaled.csv"
        write_csv(scaled, 3.0 * p.points)
        rc = main(["estimate", "--input", path, "--half-width", "12"])
        assert rc == 0
        a = json.loads(capsys.readouterr().out)["alpha_hat"]
        rc = main(["estimate", "--input", str(scaled), "--half-width", "36"])
        assert rc == 0
        b = json.loads(capsys.readouterr().out)["alpha_hat"]
        assert abs(a - b) < 1e-8

    def test_half_width_inferred(self, pattern_csv, caplog):
        path, p = pattern_csv
        with caplog.at_level(logging.WARNING, logger="hyperalpha"):
            rc = main(["estimate", "--input", path])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records] == [
            "window half-width not given; using max |coordinate| = "
            f"{float(np.max(np.abs(p.points)))!r}"]

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
        write_csv(path, poisson(1.0, 200.0, seed=3, d=1).points)
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
            write_csv(tmp_path / f"frame{k}.csv", p.points)
        rc = main(["estimate", "--input", str(tmp_path / "frame*.csv"),
                   "--half-width", "10"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["frames"]) == 2
        assert out["alpha_hat"] == pytest.approx(
            np.mean([f["alpha_hat"] for f in out["frames"]]))

    def test_pooled_frames_skip_ci(self, tmp_path, capsys, caplog):
        for k in (0, 1):
            p = poisson(1.0, 10.0, seed=50 + k)
            write_csv(tmp_path / f"frame{k}.csv", p.points)
        with caplog.at_level(logging.WARNING, logger="hyperalpha"):
            rc = main(["estimate", "--input", str(tmp_path / "frame*.csv"),
                       "--half-width", "10", "--ci-level", "0.95"])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records] == [
            "intervals are per-pattern; skipping CI for pooled frames"]
        assert json.loads(capsys.readouterr().out)["ci"] is None

    def test_poisson_reference(self, pattern_csv, capsys):
        path, _ = pattern_csv
        rc = main(["estimate", "--input", path, "--half-width", "12",
                   "--imax", "4", "--poisson-reference"])
        assert rc == 0
        j_max = json.loads(capsys.readouterr().out)["j_max_poisson"]
        assert np.isfinite(j_max) and 0 < j_max <= 1.3

    def test_curve_output(self, pattern_csv, tmp_path, capsys):
        # the written curve covers the whole grid, though without the flag
        # only the grid up to j_max is evaluated; the estimate is the same
        path, _ = pattern_csv
        curve_path = tmp_path / "curve.csv"
        rc = main(["estimate", "--input", path, "--half-width", "12",
                   "--curve-output", str(curve_path)])
        assert rc == 0
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "j,C"
        assert len(lines) == 1 + 120
        with_curve = json.loads(capsys.readouterr().out)
        assert main(["estimate", "--input", path, "--half-width", "12"]) == 0
        without = json.loads(capsys.readouterr().out)
        assert with_curve.pop("curve_path") == str(curve_path)
        assert without.pop("curve_path") is None
        with_curve["config_echo"].pop("curve_output")
        without["config_echo"].pop("curve_output")
        assert with_curve == without

    def test_curve_covers_what_is_read(self, pattern_csv):
        _, p = pattern_csv
        report, _ = run_pipeline(p)
        j_max = report.diagnostics["j_max"]
        np.testing.assert_array_equal(report.curve.grid,
                                      DIAGNOSTIC_GRID[DIAGNOSTIC_GRID <= j_max])
        whole, _ = run_pipeline(p, whole_curve=True)
        np.testing.assert_array_equal(whole.curve.grid, DIAGNOSTIC_GRID)
        # each scale's value is the same whatever else the grid holds
        np.testing.assert_array_equal(
            whole.curve.values[:len(report.curve.grid)], report.curve.values)
        assert whole.alpha_hat == report.alpha_hat
        assert run_pipeline(p, j_min=0.3)[0].curve is None


class TestRescaleInvariance:
    @given(st.sampled_from(["cloaked", "poisson", "poisson-1d"]),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=8, deadline=None)
    def test_pipeline_ignores_units(self, model, seed, s):
        # measuring a pattern and its window in other units must not move
        # the estimate or the scale range: the pipeline normalizes to unit
        # intensity first
        if model == "cloaked":
            p = cloaked_lattice(1.0, 0.25, 12.0, seed)
        else:
            p = poisson(1.0, 15.0, seed, d=1 if model == "poisson-1d" else 2)
        scaled = PointPattern(s * p.points, Window(s * p.half_width), dim=p.dim)
        a, _ = run_pipeline(p)
        b, _ = run_pipeline(scaled)
        assert abs(a.alpha_hat - b.alpha_hat) <= 1e-8
        assert abs(a.diagnostics["j_min"] - b.diagnostics["j_min"]) <= 1e-8
        assert abs(a.diagnostics["j_max"] - b.diagnostics["j_max"]) <= 1e-8


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

    def test_negative_poisson_reference_refused(self, pattern_csv, tmp_path,
                                                monkeypatch, capsys):
        import hyperalpha.cli as cli
        calls = []
        monkeypatch.setattr(cli, "curve_C", lambda *args: calls.append(args))
        rc = main(["curve", "--input", pattern_csv[0], "--half-width", "12",
                   "--output", str(tmp_path / "curve.csv"),
                   "--poisson-reference", "-1"])
        assert rc == 4
        assert "--poisson-reference" in capsys.readouterr().err
        assert calls == []


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

    @pytest.mark.parametrize("model", ["cloaked", "matched", "rsa"])
    def test_dim_one_needs_poisson(self, model, tmp_path, capsys):
        # these simulators draw 2-D patterns only
        f = tmp_path / "p.csv"
        rc = main(["simulate", "--model", model, "--dim", "1",
                   "--half-width", "10", "--output", str(f)])
        assert rc == 4
        assert "2-D" in capsys.readouterr().err
        assert not f.exists()

    def test_matched_params(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        rc = main(["simulate", "--model", "matched", "--half-width", "5",
                   "--seed", "1", "--output", str(f)])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["params"] == {"lambda_p": 2.0}
        assert meta["n_points"] == 100 == len(read_pattern_csv(f))

    def test_dim_one_poisson(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        rc = main(["simulate", "--model", "poisson", "--dim", "1",
                   "--half-width", "10", "--output", str(f)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 1
        assert read_pattern_csv(f).shape[1] == 1


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

    def test_zero_replicates_refused_before_simulating(self, monkeypatch,
                                                       capsys):
        import hyperalpha.cli as cli
        calls = []
        monkeypatch.setattr(cli, "cloaked_lattice",
                            lambda *args: calls.append(args))
        rc = main(["coverage", "--alpha", "0.5", "--half-width", "12",
                   "--replicates", "0", "--ci-draws", "64"])
        assert rc == 4
        assert "--replicates" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("bad", [["--ci-level", "0"],
                                     ["--ci-draws", "0"],
                                     ["--ci-draws", "100000001"]])
    def test_bad_ci_request_refused_before_simulating(self, bad, monkeypatch,
                                                      capsys):
        import hyperalpha.cli as cli
        calls = []
        monkeypatch.setattr(cli, "cloaked_lattice",
                            lambda *args: calls.append(args))
        rc = main(["coverage", "--alpha", "0.5", "--half-width", "12",
                   "--replicates", "2", "--ci-draws", "64", *bad])
        assert rc == 4
        assert "error:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("i_max", ["1", "66"])
    def test_bad_imax_refused_before_simulating(self, i_max, monkeypatch,
                                                capsys):
        # the taper sets are built before the pilot replicate is drawn
        import hyperalpha.cli as cli
        monkeypatch.setattr(cli, "cloaked_lattice", lambda *a: pytest.fail("ran"))
        rc = main(["coverage", "--alpha", "0.5", "--half-width", "300",
                   "--replicates", "2", "--ci-draws", "64", "--imax", i_max])
        assert rc == 4
        assert "i_max" in capsys.readouterr().err

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


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, os, sys
import hyperalpha.cli as cli
imported = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.modules["scipy"] = None  # any scipy import from here on fails
tmp = sys.argv[1]
p2, p1 = os.path.join(tmp, "p2.csv"), os.path.join(tmp, "p1.csv")
small = ["--imax", "4", "--nscales", "8"]
ci = ["--ci-level", "0.95", "--ci-draws", "64"]
calls = [
    ["simulate", "--model", "cloaked", "--half-width", "10", "--seed", "1",
     "--output", p2],
    ["simulate", "--model", "poisson", "--dim", "1", "--half-width", "50",
     "--seed", "1", "--output", p1],
    ["estimate", "--input", p2, "--half-width", "10", *small],
    ["estimate", "--input", p2, "--half-width", "10", *small, *ci],
    ["estimate", "--input", p1, "--dim", "1", "--half-width", "50",
     "--nscales", "8", *ci],
    ["curve", "--input", p2, "--half-width", "10", "--imax", "4",
     "--output", os.path.join(tmp, "curve.csv")],
    ["coverage", "--alpha", "1.0", "--half-width", "10", "--replicates", "2",
     *small, "--ci-draws", "64"],
]
runs = []
for argv in calls:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    loaded = sorted(set(sys.modules) - before)
    runs.append([argv[0], rc, loaded])
print(json.dumps({"imported": imported, "runs": runs}))
"""


def test_cli_import_skips_scipy_linalg_and_spatial(tmp_path):
    # importing the CLI loads no scipy module at all, and every command but
    # simulate --model matched (a k-d tree) runs with scipy unimportable;
    # no command loads a module of its own, so import time stays out of
    # main(): the package import loads what numpy 2 and argparse load
    # lazily (numpy.random, numpy.ma, locale)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT,
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["imported"] == []
    assert [run[1:] for run in got["runs"]] == [[0, []]] * 7, got["runs"]
