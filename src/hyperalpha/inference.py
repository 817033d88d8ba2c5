"""Asymptotic confidence intervals via Monte Carlo quantiles of the pivot.

The pivot Z is the weighted log of per-scale chi-square sums of a Gaussian
vector with the transform covariance. Z is invariant under any common
scaling of that covariance (the weights sum to zero), which is what lets
the matrix drop overall constants.
"""

from dataclasses import dataclass

import numpy as np
# np.quantile loads numpy.ma on its first call; imported here, that load
# stays in the package import, not in the first interval
import numpy.ma  # noqa: F401
from numpy.random import Generator, Philox, SeedSequence

from .covariance import sigma_transient
from .errors import DomainError, ZeroTransformSum
from .numerics import psd_factor

_BLOCK_DRAWS = 4096
# a chunk of normals holds at most this many (16 MiB), or a single row
_CHUNK_NORMALS = 2**21

DEFAULT_CI_DRAWS = 20000
# the most draws, 800 MB of pivot values; the simulators cap points at 1e8 too
MAX_CI_DRAWS = 10**8


@dataclass(frozen=True)
class ZSample:
    """Monte Carlo draws of the pivot statistic."""

    values: np.ndarray


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    level: float
    alpha_hat: float

    def covers(self, alpha):
        return self.lo <= alpha <= self.hi


def sample_Z(cov, plan, count, seed):
    """Draw the pivot Z = sum_j w_j log(sum_i N(i,j)^2), N ~ N(0, cov).

    Draws happen in fixed blocks of 4096 with independently spawned child
    seeds, so results for a given (seed, count) are reproducible and a
    longer run extends a shorter one. Every draw takes cov.dim standard
    normals z, in the matrix's coordinate order. Each 4096-draw run of
    normals is generated in chunks of 4096 rows, halved while a chunk
    holds more than 2^21 normals (512 rows at dimension 3750); the
    generator fills row by row, so chunking does not change them.

    The covariance is stored as its taper parity blocks (cov.blocks),
    and each draw is mapped one block at a time through psd_factor's
    root of the block:
    N_b = F_b (V_b^T z_b), the eigen-truncated symmetric square root
    applied to the block's normals z_b, their squares added to the
    per-scale chi-square sums. Any square root of the covariance gives
    the same law of N; this one serves every covariance, positive definite
    or not. psd_factor gets the covariance's axis swap (cov.swap), so in
    d = 2 it decomposes one of the two swapped parity blocks and uses it
    for both, and splits the self-mapped one into swap-even and swap-odd
    halves; the root is the same up to round-off. An eigenvector basis
    alone rotates with round-off in the matrix, and every draw with it;
    the square root moves only as much as the matrix does while no
    eigenvalue crosses the clipping level. A common factor c on the
    covariance scales the root by sqrt(c) and every chi-square sum by c,
    which the zero-sum weights cancel, so it moves the draws by round-off,
    as does a one-ulp change of the exponent.
    """
    if not 1 <= count <= MAX_CI_DRAWS:
        raise DomainError(f"need 1 to {MAX_CI_DRAWS:.0e} draws, got {count}")
    if seed < 0:
        raise DomainError(f"the seed must be at least 0, got {seed}")
    if not np.array_equal(plan.scales, cov.scales):
        raise DomainError("the plan's scales are not the covariance's")
    nI, nJ = len(cov.indices), len(plan)
    maps = []
    for rows, factor, basis in psd_factor(cov.blocks, cov.swap).blocks:
        to_scale = np.zeros((len(rows), nJ))
        to_scale[np.arange(len(rows)), rows // nI] = 1.0
        maps.append((rows, factor, basis, to_scale))
    chunk = _BLOCK_DRAWS
    while chunk > 1 and chunk * cov.dim > _CHUNK_NORMALS:
        chunk //= 2
    w = plan.weights
    children = SeedSequence(seed).spawn(-(-count // _BLOCK_DRAWS))
    out = np.empty(count)
    done = 0
    for child in children:
        rng = Generator(Philox(child))
        stop = min(done + _BLOCK_DRAWS, count)
        while done < stop:
            take = min(chunk, stop - done)
            z = rng.standard_normal((take, cov.dim))
            chi = np.zeros((take, nJ))
            for rows, factor, basis, to_scale in maps:
                x = (np.take(z, rows, axis=1) @ basis) @ factor.T
                chi += (x * x) @ to_scale
            if np.any(chi == 0.0):
                raise ZeroTransformSum("a chi-square block vanished (degenerate covariance)")
            out[done:done + take] = np.log(chi) @ w
            done += take
    return ZSample(values=out)


def quantile(sample, q):
    """Linearly interpolated empirical quantile of a Z sample."""
    if not 0 <= q <= 1:
        raise DomainError("quantile level must be in [0, 1]")
    return float(np.quantile(sample.values, q))


def check_ci_request(level, draws):
    """Refuse a confidence level outside (0, 1) or draws outside 1..MAX_CI_DRAWS."""
    if not 0 < level < 1:
        raise DomainError("confidence level must be in (0, 1)")
    if not 1 <= draws <= MAX_CI_DRAWS:
        raise DomainError(f"--ci-draws must be 1 to {MAX_CI_DRAWS:.0e}, got {draws}")


def pivot_quantiles(set_, plan, beta, R, level, draws=DEFAULT_CI_DRAWS, seed=0):
    """(lower, upper) pivot quantiles at the given confidence level."""
    check_ci_request(level, draws)
    cov = sigma_transient(set_, plan.scales, beta, R)
    zs = sample_Z(cov, plan, draws, seed)
    a = 1.0 - level
    return quantile(zs, a / 2.0), quantile(zs, 1.0 - a / 2.0)


def confidence_interval(report, set_, level=0.95, draws=DEFAULT_CI_DRAWS,
                        seed=0, beta=None):
    """Asymptotic interval for the exponent around a point estimate.

    The covariance is evaluated at beta = max(alpha_hat, 0) unless a value
    is supplied (simulation studies with known truth pass it directly).
    The report must carry its scale plan, as estimate_alpha's does.
    """
    plan = report.plan
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
