"""Asymptotic confidence intervals via Monte Carlo quantiles of the pivot.

The pivot Z is the weighted log of per-scale chi-square sums of a Gaussian
vector with the transform covariance. Z is invariant under any common
scaling of that covariance (the weights sum to zero), which is what lets
the matrix drop overall constants.
"""

from dataclasses import dataclass

import numpy as np

from .covariance import sigma_transient
from .errors import DomainError, ZeroTransformSum
from .numerics import psd_factor, spawn_seed_sequences

_BLOCK_DRAWS = 4096

DEFAULT_CI_DRAWS = 20000

# Reduced preset for interval construction: the covariance is assembled and
# sampled at i_max = 4 (12 tapers) over 25 scales, and the point estimate is
# taken on the same preset so the interval is centered on it. Full size is
# opt-in; dropping the reduced preset would move every reduced-preset
# estimate, coverage's included.
REDUCED_CI_IMAX = 4
REDUCED_CI_NSCALES = 25


@dataclass(frozen=True)
class ZSample:
    """Monte Carlo draws of the pivot statistic."""

    values: np.ndarray
    beta: float
    R: float
    seed: int


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    level: float
    alpha_hat: float
    degenerate: bool = False

    def covers(self, alpha):
        return self.lo <= alpha <= self.hi


def sample_Z(cov, plan, count, seed):
    """Draw the pivot Z = sum_j w_j log(sum_i N(i,j)^2), N ~ N(0, cov).

    Draws happen in fixed blocks of 4096 with independently spawned child
    seeds, so results for a given (seed, count) are reproducible and a
    longer run extends a shorter one. Every draw takes cov.dim standard
    normals z.

    N = L z with the Cholesky factor L whenever the matrix is positive
    definite: Cholesky commutes with scalar rescaling up to rounding, which
    is what makes Z draws invariant under a common factor on the
    covariance. A matrix that fails it (round-off negatives at the full
    preset) falls back to psd_factor: N = L (Q^T z), the symmetric square
    root of the clipped matrix applied to z. An eigen or pivoted factor
    alone rotates or reorders with round-off in the matrix, and every draw
    with it; the square root is continuous in the matrix, so a one-ulp
    change of the exponent moves the quantiles by about 1e-7 instead of
    by Monte Carlo noise. The Cholesky attempt stays although psd_factor
    handles every matrix: it costs about 0.4 s at dimension 3750, but it
    keeps the draws of a positive-definite covariance, and the number of
    psd_factor calls the benchmark records, unchanged.
    """
    if count < 1:
        raise DomainError("need at least one draw")
    nJ = len(plan)
    nI = cov.dim // nJ
    if nI * nJ != cov.dim:
        raise DomainError("plan length does not divide the covariance dimension")
    try:
        L, basis = np.linalg.cholesky(cov.matrix), None
    except np.linalg.LinAlgError:
        fallback = psd_factor(cov.matrix)
        L, basis = fallback.factor, fallback.basis
    w = plan.weights
    n_blocks = -(-count // _BLOCK_DRAWS)
    children = spawn_seed_sequences(seed, n_blocks)
    out = np.empty(count)
    done = 0
    for child in children:
        take = min(_BLOCK_DRAWS, count - done)
        rng = np.random.Generator(np.random.Philox(child))
        z = rng.standard_normal((_BLOCK_DRAWS, cov.dim))
        if basis is not None:
            z = z @ basis
        x = z @ L.T
        chi = np.sum(x.reshape(_BLOCK_DRAWS, nJ, nI) ** 2, axis=2)
        if np.any(chi == 0.0):
            raise ZeroTransformSum("a chi-square block vanished (degenerate covariance)")
        out[done:done + take] = (np.log(chi) @ w)[:take]
        done += take
    return ZSample(values=out, beta=cov.beta, R=cov.R, seed=int(seed))


def quantile(sample, q):
    """Linearly interpolated empirical quantile of a Z sample."""
    if not 0 <= q <= 1:
        raise DomainError("quantile level must be in [0, 1]")
    return float(np.quantile(sample.values, q))


def pivot_quantiles(set_, plan, beta, R, level, draws=DEFAULT_CI_DRAWS, seed=0):
    """(lower, upper) pivot quantiles at the given confidence level."""
    if not 0 < level < 1:
        raise DomainError("confidence level must be in (0, 1)")
    cov = sigma_transient(set_, plan.scales, beta, R)
    zs = sample_Z(cov, plan, draws, seed)
    a = 1.0 - level
    return quantile(zs, a / 2.0), quantile(zs, 1.0 - a / 2.0)


def confidence_interval(report, set_, level=0.95, draws=DEFAULT_CI_DRAWS,
                        seed=0, beta=None, plan=None):
    """Asymptotic interval for the exponent around a point estimate.

    The covariance is evaluated at beta = max(alpha_hat, 0) unless a value
    is supplied (simulation studies with known truth pass it directly).
    An empty-pattern report yields a degenerate [0, 0] interval.
    """
    if not report.nonempty:
        return ConfidenceInterval(0.0, 0.0, level, 0.0, degenerate=True)
    plan = report.plan if plan is None else plan
    if plan is None:
        raise DomainError("no scale plan available for interval construction")
    if beta is None:
        beta = max(report.alpha_hat, 0.0)
    q_lo, q_hi = pivot_quantiles(set_, plan, beta, report.R, level, draws, seed)
    log_R = np.log(report.R)
    return ConfidenceInterval(
        lo=report.alpha_hat - q_hi / log_R,
        hi=report.alpha_hat - q_lo / log_R,
        level=level,
        alpha_hat=report.alpha_hat,
    )
