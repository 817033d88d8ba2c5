"""Scale selection, regression weights, and the exponent estimate itself.

The estimate is a weighted linear fit, in log scale, of the squared-transform
sums against j. Weights satisfy sum w = 0 and sum j w = 1, so the fit reads
off the slope directly and the taper-count factor cancels without being
computed.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateScales, DomainError, EmptyInput, EmptyPattern,
                     WindowTooSmall)
from .geometry import estimate_intensity
from .simulate import poisson
from .transforms import CurveC, curve_C, transform_grid

DEFAULT_N_SCALES = 50

# Diagnostic grid: 120 scales, step 0.01, on (0.1, 1.3].
DIAGNOSTIC_GRID = np.round(np.linspace(0.11, 1.30, 120), 10)

INTENSITY_WARN_TOL = 0.05

# curve points at or below j_max that the knee fit needs
KNEE_MIN_POINTS = 10


@dataclass(frozen=True)
class ScalePlan:
    """Strictly increasing scales with their regression weights."""

    scales: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", weights)
        if scales.ndim != 1 or len(scales) < 2:
            raise DomainError("a scale plan needs at least two scales")
        if np.any(np.diff(scales) <= 0):
            raise DomainError("scales must be strictly increasing")
        if not (np.all(scales > 0) and np.all(scales <= 1.3)):
            raise DomainError("scales must lie in (0, 1.3]")
        if len(weights) != len(scales):
            raise DomainError("one weight per scale required")
        if abs(weights.sum()) > 1e-12:
            raise DomainError("weights must sum to 0")
        if abs(float(weights @ scales) - 1.0) > 1e-12:
            raise DomainError("weights must satisfy sum j*w = 1")

    def __len__(self):
        return len(self.scales)


def least_squares_weights(J):
    """Slope-reading weights w_j = (j - jbar) / sum (j' - jbar)^2."""
    J = np.asarray(J, dtype=np.float64)
    if len(J) < 2:
        raise DomainError("need at least two scales")
    centered = J - J.mean()
    denom = float(centered @ centered)
    if denom <= 0 or not np.isfinite(denom):
        raise DegenerateScales("scales have zero variance")
    w = centered / denom
    # exact identities can drift at the last ulp; re-center
    w = w - w.mean()
    return ScalePlan(scales=J, weights=w)


def check_n_scales(n_scales):
    """Refuse fewer than two scales: the slope needs two."""
    if n_scales < 2:
        raise DomainError(f"n_scales (--nscales) must be at least 2, got {n_scales}")


def default_scale_plan(j_min, j_max, n_scales=DEFAULT_N_SCALES):
    """Uniform scales on [j_min, j_max], endpoints included."""
    check_n_scales(n_scales)
    if not 0 < j_min < j_max:
        raise DomainError("need 0 < j_min < j_max")
    return least_squares_weights(np.linspace(j_min, j_max, n_scales))


@dataclass
class EstimateReport:
    """One nonempty pattern's estimate; run_pipeline attaches the raw
    intensity (diagnostics["lambda_hat_raw"]) and the diagnostic curve the
    knee read: DIAGNOSTIC_GRID up to j_max, the whole grid when asked for,
    None when j_min was given."""

    alpha_hat: float
    R: float
    plan: ScalePlan | None
    curve: CurveC | None
    n_points: int
    diagnostics: dict = field(default_factory=dict)


def estimate_alpha(p, set_, plan):
    """Point estimate of the hyperuniformity exponent from one pattern.

    An empty pattern has no estimate and raises EmptyPattern, as
    normalize_intensity does; a pattern far from unit intensity warns.
    """
    if len(p) == 0:
        raise EmptyPattern("cannot estimate from an empty pattern")
    R = p.half_width
    if not R > 1:
        raise WindowTooSmall(f"window half-width must exceed 1, got {R}")
    lam = estimate_intensity(p)
    if abs(lam - 1.0) > INTENSITY_WARN_TOL:
        warnings.warn(
            f"pattern intensity {lam:.3f} is far from 1; normalize first",
            stacklevel=2,
        )
    log_sq = transform_grid(p, set_, plan.scales).log_square_sums()
    alpha = p.dim - float(plan.weights @ log_sq) / np.log(R)
    return EstimateReport(alpha_hat=alpha, R=R, plan=plan, curve=None,
                          n_points=len(p))


def calibrate_jmax(set_, R):
    """Largest usable scale: tapers at scale j must fit inside the window.

    The limit is 1 - log(set_.max_support) / log R, clamped to 1.
    """
    if not R > 1:
        raise WindowTooSmall(f"need R > 1, got {R}")
    sigma = set_.max_support
    if not R > sigma:
        raise WindowTooSmall(f"window half-width {R} below taper support {sigma:.3g}")
    j_max = 1.0 - np.log(sigma) / np.log(R)
    j_max = min(j_max, 1.0)
    if j_max <= 0.1:
        raise WindowTooSmall(
            f"usable scale range collapsed (j_max = {j_max:.3f}) at R = {R}"
        )
    return float(j_max)


# Poisson reference knee: constants fixed once against the analytic rule.
_ANCHOR = (0.3, 0.6)
_BAND_FLOOR = 0.008
_BAND_Z = 2.0


def poisson_curves(set_, R, replicates, seed):
    """C-values of unit-intensity Poisson patterns, one row per replicate k
    (drawn with seed + k) and one column per scale of DIAGNOSTIC_GRID."""
    return np.array([
        curve_C(poisson(1.0, R, seed=seed + k, d=set_.dim), set_,
                DIAGNOSTIC_GRID).values
        for k in range(replicates)])


def calibrate_jmax_poisson(set_, R, replicates=60, seed=1234):
    """Empirical j_max: where the mean Poisson curve leaves its slope-d line.

    For Poisson input C(j) is a straight line of slope d until window
    truncation bites, which pulls the curve strictly downward and keeps it
    down. The mean curve over replicates is fit on the anchor interval;
    the knee is the last scale before the residual drops below a scatter
    band and stays below it for good (one-sided and persistent, so smooth
    replicate-noise wiggles near the anchor cannot fake a knee).
    """
    if replicates < 5:
        raise DomainError("need at least 5 replicates")
    d = set_.dim
    grid = DIAGNOSTIC_GRID
    curves = poisson_curves(set_, R, replicates, seed)
    mean = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1) / np.sqrt(replicates)
    anchor = (grid >= _ANCHOR[0]) & (grid <= _ANCHOR[1])
    intercept = float(np.mean(mean[anchor] - d * grid[anchor]))
    resid = mean - (d * grid + intercept)
    band = np.maximum(_BAND_FLOOR, _BAND_Z * se)
    departed = resid < -band
    start = int(np.argmax(grid > _ANCHOR[1]))
    # the first k >= start with every scale from k on departed
    stayed = np.flatnonzero(~departed)
    k = max(start, stayed[-1] + 1 if len(stayed) else 0)
    return float(grid[k - 1])


def select_jmin(curve, j_max):
    """Smallest trustworthy scale, from the knee of the diagnostic curve.

    Fits a continuous two-segment (hinge) line over every interior
    breakpoint on the grid; if the two-segment fit does not beat one
    straight line by at least 5% RSS there is no visible knee and the
    fallback is j_max / 2.  On noisy curves the RSS profile plateaus, so
    among breakpoints within 5% of the optimum the earliest wins: it keeps
    the longest usable scale range and a sharp genuine knee is unaffected.
    Every hinge fit shares the line [1, j], so one least-squares solve
    residualizes the curve and all hinge columns on it (Frisch-Waugh-Lovell);
    each breakpoint's RSS is then a one-column fit of the residuals.
    """
    mask = curve.grid <= j_max
    grid = curve.grid[mask]
    vals = curve.values[mask]
    if len(grid) < KNEE_MIN_POINTS:
        raise DomainError(f"need at least {KNEE_MIN_POINTS} curve points "
                          "at or below j_max")
    breaks = grid[2:-2]
    line = np.column_stack([np.ones_like(grid), grid])
    y = np.column_stack([vals, np.maximum(grid[:, None] - breaks, 0.0)])
    resid = y - line @ np.linalg.lstsq(line, y, rcond=None)[0]
    e, hinge = resid[:, 0], resid[:, 1:]
    rss1 = float(e @ e)
    # each breakpoint's slope change; its RSS from the residual itself, since
    # rss1 - (e.h)^2 / h.h would cancel on sharp knees
    kink = (e @ hinge) / np.sum(hinge**2, axis=0)
    rss2 = np.sum((e[:, None] - kink * hinge) ** 2, axis=0)
    # an exactly linear curve leaves only rounding noise in rss1; any
    # "improvement" below that floor is meaningless
    floor = 1e-14 * max(1.0, float(vals @ vals))
    if rss1 <= floor or rss2.min() > 0.95 * rss1:
        return j_max / 2.0
    return float(breaks[np.argmax(rss2 <= 1.05 * rss2.min())])


def pooled_estimate(reports):
    """Mean alpha_hat over per-frame reports of comparable patterns."""
    if not reports:
        raise EmptyInput("no reports to pool")
    return float(np.mean([r.alpha_hat for r in reports]))
