"""Command line interface: estimate, simulate, curve, coverage.

Exit codes: 0 success, 2 input that cannot be parsed, 3 an input frame
without points (the message names it), 4 numerical failure or a parameter
outside its domain. Output is deterministic for a fixed config: JSON keys
are sorted and floats serialized by repr, so reruns are byte-identical.
"""

import argparse
import glob
import json
# argparse's gettext imports locale when main() builds the first parser;
# imported here, that load is part of the import, as numpy's are
import locale  # noqa: F401
import logging
import sys
import warnings

import numpy as np

from . import __version__
from .errors import (DomainError, EmptyInput, EmptyPattern, HyperalphaError,
                     WindowTooSmall)
from .estimator import (DEFAULT_N_SCALES, DIAGNOSTIC_GRID, KNEE_MIN_POINTS,
                        calibrate_jmax, calibrate_jmax_poisson, check_n_scales,
                        default_scale_plan, estimate_alpha, poisson_curves,
                        pooled_estimate, select_jmin)
from .geometry import PointPattern, Window, normalize_intensity
from .inference import (DEFAULT_CI_DRAWS, MAX_CI_DRAWS, check_ci_request,
                        confidence_interval, pivot_quantiles)
from .simulate import cloaked_lattice, matched_process, poisson, rsa
from .tapers import DEFAULT_SPATIAL_SCALE, build_taper_set
from .transforms import curve_C

SCHEMA_VERSION = 1
DEFAULT_IMAX = 10


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


def write_csv(path, rows, comments=(), header=None):
    """'# ' comment lines, an optional header, then rows of repr(float) values."""
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        if header is not None:
            fh.write(header + "\n")
        for row in np.atleast_2d(rows):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _resolve_inputs(spec):
    matches = sorted(glob.glob(spec, recursive=True))
    return matches if matches else [spec]


def _build_pattern(coords, dim, half_width):
    if coords.shape[1] != dim:
        raise _ParseFailure(
            f"input has {coords.shape[1]} columns but --dim is {dim}"
        )
    if half_width is None:
        half_width = float(np.max(np.abs(coords)))
        logging.getLogger("hyperalpha").warning(
            "window half-width not given; using max |coordinate| = %r", half_width)
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


# The reduced preset for intervals: the estimate and the covariance at
# i_max 4 (12 tapers) over at most 25 scales, so the interval is centered on
# its own estimate. Full size is opt-in; dropping the reduced preset would
# move every reduced-preset estimate, coverage's included.
REDUCED_CI_IMAX = 4
REDUCED_CI_NSCALES = 25


def _preset(d, i_max, taper_scale, n_scales, ci, reduced):
    """The curve's taper set, the estimate's and the scale count, checked and
    built before any pattern work; the reduced preset caps the latter two.
    Like the sampler's draws and the simulators' points, the largest arrays
    are capped at MAX_CI_DRAWS floats: the |J| x |I| transform table, or with
    an interval (n_c |J|)^2 floats summed over the parity classes c, which
    bounds the blocks the sampled path gathers and so the largest piece of
    the cumulant path's third cumulant."""
    check_n_scales(n_scales)
    full_set = build_taper_set(d, i_max, c=taper_scale)
    est_set = full_set
    if reduced:
        if i_max > REDUCED_CI_IMAX:
            est_set = build_taper_set(d, REDUCED_CI_IMAX, c=taper_scale)
        n_scales = min(n_scales, REDUCED_CI_NSCALES)
    if ci:
        n_c = np.unique(np.asarray(est_set.indices) % 2, axis=0, return_counts=True)[1]
        floats, what = sum(int(n) ** 2 for n in n_c) * n_scales**2, "covariance"
    else:
        floats, what = n_scales * len(est_set.indices), "transform table"
    if floats > MAX_CI_DRAWS:
        raise DomainError(f"--nscales {n_scales} at --imax {i_max} needs a {what} "
                          f"of {floats} floats, more than the {MAX_CI_DRAWS:.0e} allowed")
    return full_set, est_set, n_scales


def _check_knee_room(j_max, name):
    """Refuse a j_max that leaves the knee fewer than KNEE_MIN_POINTS points
    of DIAGNOSTIC_GRID at or below it."""
    count = int(np.count_nonzero(DIAGNOSTIC_GRID <= j_max))
    if count < KNEE_MIN_POINTS:
        least = float(DIAGNOSTIC_GRID[KNEE_MIN_POINTS - 1])
        raise DomainError(f"{name} {j_max!r} leaves {count} diagnostic grid points "
                          f"at or below it and the knee needs {KNEE_MIN_POINTS}: "
                          f"j_max must be at least {least!r} unless --jmin is given")


def _check_scale_range(j_min, j_max):
    """Refuse a given j_min or j_max outside (0, 1.3], the two out of order, or
    a given j_max too small for the knee that picks j_min."""
    for name, j in (("j_min (--jmin)", j_min), ("j_max (--jmax)", j_max)):
        if j is not None and not 0 < j <= 1.3:
            raise DomainError(f"{name} must lie in (0, 1.3], got {j!r}")
    if j_min is not None and j_max is not None and not j_min < j_max:
        raise DomainError(f"j_min (--jmin) {j_min!r} must be below "
                          f"j_max (--jmax) {j_max!r}")
    if j_min is None and j_max is not None:
        _check_knee_room(j_max, "j_max (--jmax)")


def _calibrate(normalized, full_set, j_min, j_max, n_scales, whole_curve=False):
    """Plan, curve, j_min and j_max; j_max and j_min are calibrated unless given.

    The curve covers what is read: the knee reads DIAGNOSTIC_GRID up to j_max,
    a given j_min reads none of it (curve None), and whole_curve asks for the
    whole grid. Each row of a transform grid is the same whatever other scales
    it holds, so the knee sees the same values either way.
    """
    if j_max is None:
        j_max = calibrate_jmax(full_set, normalized.half_width)
        if j_min is not None and not j_min < j_max:
            raise DomainError(f"j_min (--jmin) {j_min!r} must be below the "
                              f"calibrated j_max {j_max!r}")
        if j_min is None:
            _check_knee_room(j_max, "calibrated j_max")
    j_max = float(j_max)
    grid = DIAGNOSTIC_GRID if whole_curve else DIAGNOSTIC_GRID[DIAGNOSTIC_GRID <= j_max]
    curve = curve_C(normalized, full_set, grid) if whole_curve or j_min is None else None
    j_min = select_jmin(curve, j_max) if j_min is None else float(j_min)
    return default_scale_plan(j_min, j_max, n_scales), curve, j_min, j_max


def run_pipeline(pattern, i_max=DEFAULT_IMAX, taper_scale=DEFAULT_SPATIAL_SCALE,
                 j_min=None, j_max=None, n_scales=DEFAULT_N_SCALES, ci_level=None,
                 ci_draws=DEFAULT_CI_DRAWS, ci_full=False, seed=0,
                 whole_curve=False):
    """Normalize, calibrate scales, pick the knee, estimate, optionally CI.

    When an interval is requested the reduced preset drives both the point
    estimate and the interval (so the interval is centered correctly);
    ci_full opts into the full preset, where a 2-D interval takes no draws
    at the default i_max. Level, draws, given scales, scale count and taper
    sets are checked first, a given j_max against the knee's grid among
    them; a calibrated j_max against a given j_min or the knee's grid before
    the curve.
    The report's curve holds the DIAGNOSTIC_GRID points the knee read, those
    at or below j_max, and is None when j_min is given; whole_curve (which
    estimate --curve-output sets) evaluates all 120 points. The estimate is
    the same either way.
    """
    if ci_level is not None:
        check_ci_request(ci_level, ci_draws)
    _check_scale_range(j_min, j_max)
    reduced = ci_level is not None and not ci_full
    full_set, est_set, n_scales = _preset(pattern.dim, i_max, taper_scale,
                                          n_scales, ci_level is not None, reduced)
    normalized, record = _normalize(pattern)
    plan, curve, j_min, j_max = _calibrate(normalized, full_set, j_min, j_max,
                                           n_scales, whole_curve)
    report = estimate_alpha(normalized, est_set, plan)
    report.curve = curve
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


def _pattern_args(sub):
    """The arguments of estimate and curve, the commands that read a pattern."""
    sub.add_argument("--input", required=True,
                     help="CSV of coordinates; glob patterns pool frames")
    sub.add_argument("--dim", type=int, default=2, choices=(1, 2))
    sub.add_argument("--half-width", type=float, default=None)
    sub.add_argument("--imax", type=int, default=DEFAULT_IMAX)
    sub.add_argument("--taper-scale", type=float, default=DEFAULT_SPATIAL_SCALE)
    sub.add_argument("--seed", type=int, default=0)


def _load_patterns(args):
    """Paths matched by --input and one pattern per path; EmptyInput names
    the first path without points, which has no estimate."""
    if args.half_width is not None and not 0 < args.half_width < np.inf:
        raise DomainError("--half-width must be positive and finite, "
                          f"got {args.half_width!r}")
    paths = _resolve_inputs(args.input)
    frames = [read_pattern_csv(p) for p in paths]
    for path, frame in zip(paths, frames):
        if frame.size == 0:
            raise EmptyInput(f"{path}: no points")
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
            # only the lead frame's curve is written
            whole_curve=bool(args.curve_output) and not reports,
        )
        reports.append(report)
    if len(patterns) > 1 and args.ci_level is not None:
        logging.getLogger("hyperalpha").warning(
            "intervals are per-pattern; skipping CI for pooled frames")
    alpha = pooled_estimate(reports)
    lead = reports[0]
    curve_path = None
    if args.curve_output:
        write_csv(args.curve_output, np.column_stack(
            [lead.curve.grid, lead.curve.values]), header="j,C")
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
    if args.poisson_reference < 0:
        raise DomainError("--poisson-reference must be at least 0")
    _, patterns = _load_patterns(args)
    set_ = build_taper_set(args.dim, args.imax, c=args.taper_scale)
    curves = [curve_C(_normalize(p)[0], set_, DIAGNOSTIC_GRID) for p in patterns]
    columns = [DIAGNOSTIC_GRID, np.mean([c.values for c in curves], axis=0)]
    header = "j,C"
    if args.poisson_reference:
        columns.append(poisson_curves(set_, curves[0].R, args.poisson_reference,
                                      seed=args.seed + 10_000).mean(axis=0))
        header += ",C_poisson"
    write_csv(args.output, np.column_stack(columns),
              comments=[f"diagnostic curve, schema_version={SCHEMA_VERSION}",
                        f"R={float(curves[0].R)!r} frames={len(curves)}"],
              header=header)
    return 0


def _cmd_simulate(args):
    R = args.half_width
    if args.dim != 2 and args.model != "poisson":
        raise DomainError(f"--model {args.model} simulates 2-D patterns only; "
                          "--dim 1 needs --model poisson")
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
    write_csv(args.output, pattern.points, comments)
    _emit(meta, None)
    return 0


def _cmd_coverage(args):
    level = args.ci_level
    true_alpha = args.alpha
    R = args.half_width
    if args.replicates < 1:
        raise DomainError("--replicates must be at least 1")
    check_ci_request(level, args.ci_draws)

    def simulate_one(rep):
        return cloaked_lattice(true_alpha, args.sigma, R, args.seed + rep)

    full_set, est_set, n_scales = _preset(2, args.imax, DEFAULT_SPATIAL_SCALE,
                                          args.nscales, ci=True, reduced=True)
    pilot, _ = _normalize(simulate_one(0))
    plan, _, j_min, j_max = _calibrate(pilot, full_set, None, None, n_scales)
    # quantiles of the pivot at the true exponent, shared by all replicates,
    # at the pilot's normalized R, the window each pivot is measured in
    q_lo, q_hi = pivot_quantiles(est_set, plan, true_alpha, pilot.half_width,
                                 level, draws=args.ci_draws, seed=args.seed)
    covered = 0
    alphas = []
    for rep in range(args.replicates):
        norm = _normalize(simulate_one(rep))[0] if rep else pilot
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
    _pattern_args(est)
    est.add_argument("--jmin", type=float, default=None)
    est.add_argument("--jmax", type=float, default=None)
    est.add_argument("--nscales", type=int, default=DEFAULT_N_SCALES)
    est.add_argument("--output", default=None, help="write JSON here (default stdout)")
    est.add_argument("--ci-level", type=float, default=None,
                     help="confidence level, e.g. 0.95; omitting skips the CI")
    est.add_argument("--ci-draws", type=int, default=DEFAULT_CI_DRAWS,
                     help="pivot draws, at --seed, where the CI is Monte Carlo")
    est.add_argument("--ci-full", action="store_true",
                     help="use the full preset (--imax, --nscales) for the estimate "
                          "and the CI; at the default --imax a 2-D CI takes no draws")
    est.add_argument("--curve-output", default=None,
                     help="also write the diagnostic curve CSV here")
    est.add_argument("--poisson-reference", action="store_true",
                     help="cross-check j_max against simulated Poisson curves")
    est.set_defaults(func=_cmd_estimate)

    cur = sub.add_parser("curve", help="write the diagnostic curve C(j) as CSV")
    _pattern_args(cur)
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
    cov.add_argument("--imax", type=int, default=DEFAULT_IMAX)
    cov.add_argument("--nscales", type=int, default=DEFAULT_N_SCALES)
    cov.add_argument("--ci-level", type=float, default=0.95)
    cov.add_argument("--ci-draws", type=int, default=DEFAULT_CI_DRAWS)
    cov.add_argument("--seed", type=int, default=0)
    cov.add_argument("--output", default=None)
    cov.set_defaults(func=_cmd_coverage)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise DomainError(f"--seed must be at least 0, got {args.seed}")
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
