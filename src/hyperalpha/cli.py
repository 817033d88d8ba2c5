"""Command line interface: estimate, simulate, curve, coverage.

Exit codes: 0 success, 2 input that cannot be parsed, 3 empty input,
4 numerical failure. Output is deterministic for a fixed config: JSON keys
are sorted and floats serialized by repr, so reruns are byte-identical.
"""

import argparse
import glob
import json
import sys
import warnings

import numpy as np

from . import __version__
from .errors import EmptyInput, EmptyPattern, HyperalphaError, WindowTooSmall
from .estimator import (DIAGNOSTIC_GRID, calibrate_jmax,
                        calibrate_jmax_poisson, default_scale_plan,
                        estimate_alpha, poisson_curves, pooled_estimate,
                        select_jmin)
from .geometry import PointPattern, Window, normalize_intensity
from .inference import (DEFAULT_CI_DRAWS, REDUCED_CI_IMAX, REDUCED_CI_NSCALES,
                        confidence_interval, pivot_quantiles)
from .simulate import cloaked_lattice, matched_process, poisson, rsa
from .tapers import DEFAULT_SPATIAL_SCALE, build_taper_set
from .transforms import curve_C

SCHEMA_VERSION = 1


class _ParseFailure(Exception):
    pass


def read_pattern_csv(path):
    """Comma-separated coordinates, one point per row; '#' starts a comment."""
    try:
        fh = open(path)
    except OSError as exc:
        raise _ParseFailure(f"{path}: {exc.strerror}") from exc
    with fh, warnings.catch_warnings():
        # loadtxt warns on a file without rows; here that is an empty result
        warnings.simplefilter("ignore", UserWarning)
        try:
            coords = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            # the line loop names the offending line or the column mismatch
            fh.seek(0)
            coords = _read_rows(fh, path)
    return coords if coords.size else np.empty((0, 0))


def _read_rows(fh, path):
    rows = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise _ParseFailure(
                f"{path}:{lineno}: cannot parse '{line}' as coordinates"
            ) from None
    if len({len(r) for r in rows}) > 1:
        raise _ParseFailure(f"{path}: rows have inconsistent column counts")
    return np.array(rows, dtype=np.float64, ndmin=2)


def write_pattern_csv(path, points, comments=()):
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        for row in np.atleast_2d(points):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _resolve_inputs(spec):
    matches = sorted(glob.glob(spec, recursive=True))
    return matches if matches else [spec]


def _build_pattern(coords, dim, half_width):
    if coords.size and coords.shape[1] != dim:
        raise _ParseFailure(
            f"input has {coords.shape[1]} columns but --dim is {dim}"
        )
    if half_width is None:
        if coords.size == 0:
            raise _ParseFailure("--half-width is required for empty input")
        half_width = float(np.max(np.abs(coords)))
        print(f"# window half-width not given; using max |coordinate| = "
              f"{half_width!r}", file=sys.stderr)
    try:
        return PointPattern(coords, Window(half_width=float(half_width)), dim=dim)
    except HyperalphaError as exc:
        raise _ParseFailure(str(exc)) from exc


def _normalize(pattern):
    """normalize_intensity, rejecting a window too small for any scale."""
    normalized, record = normalize_intensity(pattern)
    if not normalized.half_width > 1:
        # at unit intensity (2R)^d = n, so R > 1 needs more than 2^d points
        n, d = len(normalized), normalized.dim
        raise WindowTooSmall(
            f"the pattern has too few points: {n} point{'s' * (n != 1)} in {d}-D "
            f"give a normalized window half-width of {normalized.half_width:.3g}, "
            f"which must be above 1; more than {2 ** d} points are needed")
    return normalized, record


def _calibrate(normalized, i_max, taper_scale, j_min, j_max, n_scales, reduced):
    """Estimation taper set, plan, curve, j_min and j_max of a normalized pattern.

    j_max and j_min are calibrated unless given; the reduced preset caps the
    estimation set and the number of scales, never the curve's taper set.
    """
    d = normalized.dim
    full_set = build_taper_set(d, i_max, c=taper_scale)
    j_max = calibrate_jmax(full_set, normalized.half_width) \
        if j_max is None else float(j_max)
    curve = curve_C(normalized, full_set, DIAGNOSTIC_GRID)
    j_min = select_jmin(curve, j_max) if j_min is None else float(j_min)
    est_set = full_set
    if reduced:
        est_set = build_taper_set(d, min(i_max, REDUCED_CI_IMAX), c=taper_scale)
        n_scales = min(n_scales, REDUCED_CI_NSCALES)
    plan = default_scale_plan(j_min, j_max, n_scales)
    return est_set, plan, curve, j_min, j_max


def run_pipeline(pattern, i_max=10, taper_scale=DEFAULT_SPATIAL_SCALE,
                 j_min=None, j_max=None, n_scales=50, ci_level=None,
                 ci_draws=DEFAULT_CI_DRAWS, ci_full=False, seed=0):
    """Normalize, calibrate scales, pick the knee, estimate, optionally CI.

    When an interval is requested the reduced preset drives both the point
    estimate and the interval (so the interval is centered correctly);
    ci_full opts into full-size covariance sampling instead.
    """
    normalized, record = _normalize(pattern)
    reduced = ci_level is not None and not ci_full
    est_set, plan, curve, j_min, j_max = _calibrate(
        normalized, i_max, taper_scale, j_min, j_max, n_scales, reduced)
    report = estimate_alpha(normalized, est_set, plan, curve=curve)
    report.diagnostics["j_min"] = j_min
    report.diagnostics["j_max"] = j_max
    report.diagnostics["lambda_hat_raw"] = record.lambda_hat
    report.diagnostics["preset"] = "reduced" if reduced else "full"
    ci = None
    if ci_level is not None:
        ci = confidence_interval(report, est_set, level=ci_level,
                                 draws=ci_draws, seed=seed)
    return report, ci


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_estimate_args(sub):
    sub.add_argument("--input", required=True,
                     help="CSV of coordinates; glob patterns pool frames")
    sub.add_argument("--dim", type=int, default=2, choices=(1, 2))
    sub.add_argument("--half-width", type=float, default=None)
    sub.add_argument("--imax", type=int, default=10)
    sub.add_argument("--taper-scale", type=float, default=DEFAULT_SPATIAL_SCALE)
    sub.add_argument("--jmin", type=float, default=None)
    sub.add_argument("--jmax", type=float, default=None)
    sub.add_argument("--nscales", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", default=None, help="write JSON here (default stdout)")


def _load_patterns(args):
    """Paths matched by --input and one pattern per path; EmptyInput if no points."""
    paths = _resolve_inputs(args.input)
    frames = [read_pattern_csv(p) for p in paths]
    if sum(len(f) for f in frames) == 0:
        raise EmptyInput("no points in input")
    return paths, [_build_pattern(f, args.dim, args.half_width) for f in frames]


def _cmd_estimate(args):
    paths, patterns = _load_patterns(args)
    reports = []
    for pattern in patterns:
        report, ci = run_pipeline(
            pattern, i_max=args.imax, taper_scale=args.taper_scale,
            j_min=args.jmin, j_max=args.jmax, n_scales=args.nscales,
            ci_level=args.ci_level if len(patterns) == 1 else None,
            ci_draws=args.ci_draws, ci_full=args.ci_full, seed=args.seed,
        )
        reports.append(report)
    if len(patterns) > 1 and args.ci_level is not None:
        print("# intervals are per-pattern; skipping CI for pooled frames",
              file=sys.stderr)
    alpha = pooled_estimate(reports)
    lead = reports[0]
    curve_path = None
    if args.curve_output:
        lead.curve.to_csv(args.curve_output)
        curve_path = args.curve_output
    out = {
        "schema_version": SCHEMA_VERSION,
        "alpha_hat": alpha,
        "ci": None if ci is None else {"lo": ci.lo, "hi": ci.hi, "level": ci.level},
        "lambda_hat": lead.diagnostics["lambda_hat_raw"],
        "R": lead.R,
        "j_min": lead.diagnostics["j_min"],
        "j_max": lead.diagnostics["j_max"],
        "n_points": int(sum(r.n_points for r in reports)),
        "curve_path": curve_path,
        "frames": [
            {"path": p, "alpha_hat": r.alpha_hat, "n_points": r.n_points}
            for p, r in zip(paths, reports)
        ],
        "config_echo": _echo(args, command="estimate"),
    }
    if args.poisson_reference:
        full_set = build_taper_set(args.dim, args.imax, c=args.taper_scale)
        out["j_max_poisson"] = calibrate_jmax_poisson(
            full_set, lead.R, seed=args.seed + 1)
    _emit(out, args.output)
    return 0


def _cmd_curve(args):
    _, patterns = _load_patterns(args)
    set_ = build_taper_set(args.dim, args.imax, c=args.taper_scale)
    curves = [curve_C(_normalize(p)[0], set_, DIAGNOSTIC_GRID) for p in patterns]
    mean_vals = np.mean([c.values for c in curves], axis=0)
    reference = None
    if args.poisson_reference:
        reference = poisson_curves(set_, curves[0].R, args.poisson_reference,
                                   seed=args.seed + 10_000).mean(axis=0)
    with open(args.output, "w") as fh:
        fh.write(f"# diagnostic curve, schema_version={SCHEMA_VERSION}\n")
        fh.write(f"# R={float(curves[0].R)!r} frames={len(curves)}\n")
        header = "j,C" + (",C_poisson" if reference is not None else "")
        fh.write(header + "\n")
        for k, j in enumerate(DIAGNOSTIC_GRID):
            row = f"{float(j)!r},{float(mean_vals[k])!r}"
            if reference is not None:
                row += f",{float(reference[k])!r}"
            fh.write(row + "\n")
    return 0


def _cmd_simulate(args):
    R = args.half_width
    if args.model == "poisson":
        pattern = poisson(args.intensity, R, args.seed, d=args.dim)
        params = {"intensity": args.intensity}
    elif args.model == "cloaked":
        pattern = cloaked_lattice(args.alpha, args.sigma, R, args.seed)
        params = {"alpha": args.alpha, "sigma": args.sigma}
    elif args.model == "matched":
        pattern = matched_process(args.lambda_p, R, args.seed)
        params = {"lambda_p": args.lambda_p}
    else:
        pattern = rsa(args.lambda_prop, args.radius, R, args.seed)
        params = {"lambda_prop": args.lambda_prop, "radius": args.radius}
    meta = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "params": params,
        "half_width": R,
        "dim": pattern.dim,
        "seed": args.seed,
        "n_points": len(pattern),
        "output": args.output,
    }
    comments = [f"model={args.model} seed={args.seed} half_width={R!r}"]
    write_pattern_csv(args.output, pattern.points, comments)
    _emit(meta, None)
    return 0


def _cmd_coverage(args):
    level = args.ci_level
    true_alpha = args.alpha
    R = args.half_width

    def simulate_one(rep):
        return cloaked_lattice(true_alpha, args.sigma, R, args.seed + rep)

    pilot, _ = normalize_intensity(simulate_one(0))
    est_set, plan, _, j_min, j_max = _calibrate(
        pilot, args.imax, DEFAULT_SPATIAL_SCALE, j_min=None, j_max=None,
        n_scales=args.nscales, reduced=True)
    # quantiles of the pivot at the true exponent, shared by all replicates,
    # at the pilot's normalized R, the window each pivot is measured in
    q_lo, q_hi = pivot_quantiles(est_set, plan, max(true_alpha, 0.0),
                                 pilot.half_width, level,
                                 draws=args.ci_draws, seed=args.seed)
    covered = 0
    alphas = []
    for rep in range(args.replicates):
        norm, _ = normalize_intensity(simulate_one(rep))
        report = estimate_alpha(norm, est_set, plan)
        pivot = np.log(report.R) * (report.alpha_hat - true_alpha)
        covered += bool(q_lo <= pivot <= q_hi)
        alphas.append(report.alpha_hat)
    out = {
        "schema_version": SCHEMA_VERSION,
        "model": "cloaked",
        "true_alpha": true_alpha,
        "sigma": args.sigma,
        "replicates": args.replicates,
        "level": level,
        "covered": covered,
        "coverage": covered / args.replicates,
        "mean_alpha_hat": float(np.mean(alphas)),
        "sd_alpha_hat": float(np.std(alphas, ddof=1)) if len(alphas) > 1 else 0.0,
        "j_min": j_min,
        "j_max": j_max,
        "R": R,
        "config_echo": _echo(args, command="coverage"),
    }
    _emit(out, args.output)
    return 0


def _echo(args, command):
    echo = {"command": command, "version": __version__}
    for key, val in sorted(vars(args).items()):
        if key == "func":
            continue
        echo[key] = val
    return echo


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperalpha",
        description="Hyperuniformity exponent estimation from point patterns",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the exponent from a CSV pattern")
    _common_estimate_args(est)
    est.add_argument("--ci-level", type=float, default=None,
                     help="confidence level, e.g. 0.95; omitting skips the CI")
    est.add_argument("--ci-draws", type=int, default=DEFAULT_CI_DRAWS)
    est.add_argument("--ci-full", action="store_true",
                     help="use the full preset for the CI (slow)")
    est.add_argument("--curve-output", default=None,
                     help="also write the diagnostic curve CSV here")
    est.add_argument("--poisson-reference", action="store_true",
                     help="cross-check j_max against simulated Poisson curves")
    est.set_defaults(func=_cmd_estimate)

    cur = sub.add_parser("curve", help="write the diagnostic curve C(j) as CSV")
    cur.add_argument("--input", required=True)
    cur.add_argument("--dim", type=int, default=2, choices=(1, 2))
    cur.add_argument("--half-width", type=float, default=None)
    cur.add_argument("--imax", type=int, default=10)
    cur.add_argument("--taper-scale", type=float, default=DEFAULT_SPATIAL_SCALE)
    cur.add_argument("--seed", type=int, default=0)
    cur.add_argument("--output", required=True)
    cur.add_argument("--poisson-reference", type=int, default=0, metavar="N",
                     help="append the mean curve of N Poisson replicates")
    cur.set_defaults(func=_cmd_curve)

    sim = sub.add_parser("simulate", help="sample a benchmark point process")
    sim.add_argument("--model", required=True,
                     choices=("poisson", "cloaked", "matched", "rsa"))
    sim.add_argument("--dim", type=int, default=2, choices=(1, 2))
    sim.add_argument("--half-width", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=True, help="CSV path for the pattern")
    sim.add_argument("--intensity", type=float, default=1.0)
    sim.add_argument("--alpha", type=float, default=1.0)
    sim.add_argument("--sigma", type=float, default=0.25)
    sim.add_argument("--lambda-p", type=float, default=2.0, dest="lambda_p")
    sim.add_argument("--lambda-prop", type=float, default=3.0, dest="lambda_prop")
    sim.add_argument("--radius", type=float, default=1.0,
                     help="rsa hard-core distance between accepted points "
                          "(not a disk radius)")
    sim.set_defaults(func=_cmd_simulate)

    cov = sub.add_parser("coverage", help="empirical CI coverage on a simulator")
    cov.add_argument("--alpha", type=float, required=True)
    cov.add_argument("--sigma", type=float, default=0.25)
    cov.add_argument("--half-width", type=float, required=True)
    cov.add_argument("--replicates", type=int, default=100)
    cov.add_argument("--imax", type=int, default=10)
    cov.add_argument("--nscales", type=int, default=50)
    cov.add_argument("--ci-level", type=float, default=0.95)
    cov.add_argument("--ci-draws", type=int, default=DEFAULT_CI_DRAWS)
    cov.add_argument("--seed", type=int, default=0)
    cov.add_argument("--output", default=None)
    cov.set_defaults(func=_cmd_coverage)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyPattern, EmptyInput) as exc:
        print(f"error: empty input: {exc}", file=sys.stderr)
        return 3
    except HyperalphaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
