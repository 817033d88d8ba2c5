"""Asymptotic confidence intervals from quantiles of the pivot.

The pivot Z is the weighted log of per-scale chi-square sums of a Gaussian
vector with the transform covariance. Z is invariant under any common
scaling of that covariance (the weights sum to zero), which is what lets
the matrix drop overall constants. Its quantiles come from cumulants or draws.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
# np.quantile loads numpy.ma on its first call; imported here, that load
# stays in the package import, not in the first interval
import numpy.ma  # noqa: F401
from numpy.random import Generator, Philox, SeedSequence

from .covariance import gather_block, sigma_transient
from .errors import DomainError, ZeroTransformSum
from .numerics import psd_factor

_BLOCK_DRAWS = 4096
# a chunk of normals holds at most this many (16 MiB), or a single row
_CHUNK_NORMALS = 2**21

DEFAULT_CI_DRAWS = 20000
# the most draws, 800 MB of pivot values; the simulators cap points at 1e8 too
MAX_CI_DRAWS = 10**8
# rows of (AB)^2 formed at once for tr((AB)^3): 2.5 MB at 1250 columns
_CUBE_TILE = 256
# least nu_j for Cornish-Fisher quantiles: the full d = 2 preset (56-72) is within
# 1.8 Monte Carlo standard errors; i_max 8 (43-46) missed by 3.3, nu <= 11 by 3-15
_CF_MIN_DOF = 50


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

    The covariance's taper parity blocks (cov.blocks, gathered once from
    its tables) are factored, and each draw is mapped one block at a time
    through psd_factor's root of the block:
    N_b = F_b (V_b^T z_b), the eigen-truncated symmetric square root
    applied to the block's normals z_b, their squares added to the
    per-scale chi-square sums. Any square root of the covariance gives
    the same law of N; this one serves every covariance, positive definite
    or not. An eigenvector basis alone rotates with round-off in the
    matrix, and every draw with it; the square root moves only as much as
    the matrix does while no eigenvalue crosses the clipping level. A
    common factor c on the covariance scales the root by sqrt(c) and every
    chi-square sum by c, which the zero-sum weights cancel, so it moves the
    draws by round-off, as does a one-ulp change of the exponent.
    """
    if not 1 <= count <= MAX_CI_DRAWS:
        raise DomainError(f"need 1 to {MAX_CI_DRAWS:.0e} draws, got {count}")
    if seed < 0:
        raise DomainError(f"the seed must be at least 0, got {seed}")
    if not np.array_equal(plan.scales, cov.scales):
        raise DomainError("the plan's scales are not the covariance's")
    nI, nJ = len(cov.indices), len(plan)
    maps = []
    for rows, factor, basis in psd_factor(cov.blocks).blocks:
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


def _trace_cube(a, X):
    """tr((A X)^3) with A = diag(a) and X symmetric, from the row tiles of
    Z = (A X)^2 on and above the diagonal. X is consumed: it is scaled to
    A X in place.

    tr((AX)^3) sums Z * (AX)^T, whose (i, j) term a_i a_j (XAX)_ij X_ij is
    symmetric in i and j. Row tile t multiplies (AX)[t] by the columns from
    t on only, and its terms right of the diagonal tile count twice: about
    half the product, with no larger temporary. A piece within one tile
    takes the one whole product.
    """
    X *= a[:, None]
    AX = X
    total = 0.0
    for t in range(0, len(AX), _CUBE_TILE):
        tile, end = slice(t, t + _CUBE_TILE), t + _CUBE_TILE
        Z = AX[tile] @ AX[:, t:]
        total += np.einsum("ij,ji->", Z[:, :_CUBE_TILE], AX[t:end, tile])
        total += 2.0 * np.einsum("ij,ji->", Z[:, _CUBE_TILE:], AX[end:, tile])
    return total


def _cube_pieces(cov):
    """(rows, X, count) whose count * tr((A X)^3) add up to the blocks' tr((A B)^3).

    Each X is gathered from its class's table when it is asked for, and
    the caller holds no other piece by then. Every X is symmetric, as
    _trace_cube needs. A is constant on each scale's rows, so it commutes
    with the axis swap, which maps each scale's rows onto themselves.
    Without cov.swap every block is one piece. With it, a block that the
    swap maps onto another is that block's image and counts twice; the
    image is never gathered. A block mapped onto itself is split along the
    swap's row involution P, with fixed rows f and pairs l < h = P(l): it
    is similar to the direct sum of [[B_ff, sqrt2 B_fl], [sqrt2 B_lf,
    B_ll + B_lh]] (its even part, symmetric) and B_ll - B_lh (its odd part,
    symmetric because B is exactly symmetric and swap-invariant). Each part
    is gathered from the table with those sums and products taken entry by
    entry, so it holds the same floats as when cut from the block.
    """
    classes = list(zip(cov.class_rows, cov.tables))
    if cov.swap is None:
        for rows, (table, slot) in classes:
            yield rows, gather_block(table, slot), 1
        return
    class_of = np.empty(cov.dim, dtype=np.int64)
    for k, (rows, _) in enumerate(classes):
        class_of[rows] = k
    for k, (rows, (T, slot)) in enumerate(classes):
        # the swap maps each scale's rows onto themselves: P is read at scale 0
        n = len(T)
        image = cov.swap[rows[:n]]
        partner = class_of[image[0]]
        if partner != k:
            if partner > k:
                yield rows, gather_block(T, slot), 2
            continue
        P, own = np.searchsorted(rows, image), np.arange(n)
        f, low = own[P == own], own[P > own]
        T_lh = T[low][:, :, P[low]]
        by_scale = rows.reshape(len(slot), n)
        even = np.concatenate([by_scale[:, f].ravel(), by_scale[:, low].ravel()])
        r2 = math.sqrt(2.0)
        yield even, np.block([[gather_block(T[f][:, :, f], slot),
                               gather_block(T[f][:, :, low] * r2, slot)],
                              [gather_block(T[low][:, :, f] * r2, slot),
                               gather_block(T[low][:, :, low] + T_lh, slot)]]), 1
        yield by_scale[:, low].ravel(), gather_block(T[low][:, :, low] - T_lh, slot), 1


def cumulant_quantiles(cov, plan, level):
    """Pivot quantiles (lower, upper), min nu_j and skew from cov.tables.

    Scale j's chi-square sum has mean mu_j = tr C_jj; the sums over their
    means have covariance V_jk = 2 ||C_jk||_F^2 / (mu_j mu_k), exact for
    Gaussian quadratic forms, and nu_j = 2 / V_jj. A class's block C_jk is
    its table at slot[j, k], so the traces and Frobenius norms are taken
    once per slot. The delta method gives the mean m = sum w_j (log mu_j -
    V_jj / 2) and variance s^2 = w'Vw; the linear part N'AN, A = diag(w_j /
    mu_j) on scale j's rows, has third cumulant 8 tr((AC)^3) over blocks.
    Cornish-Fisher: m + s (z + skew (z^2 - 1) / 6).
    The cube is summed over the row tiles of (AB)^2 on and above the
    diagonal, one piece at a time (_cube_pieces), so no second full block
    is held and cov.blocks is never built; a covariance that carries its
    axis swap (cov.swap, d = 2) takes it once per swap image and splits a
    self-mapped block into its even and odd parts, which moves the skew by
    round-off only.
    """
    if not 0 < level < 1:
        raise DomainError("confidence level must be in (0, 1)")
    if not np.array_equal(plan.scales, cov.scales):
        raise DomainError("the plan's scales are not the covariance's")
    nJ, w = len(plan), plan.weights
    mu, frob = np.zeros(nJ), np.zeros((nJ, nJ))
    for table, slot in cov.tables:
        mu += np.einsum("isi->s", table)[np.diagonal(slot)]
        frob += np.einsum("asb,asb->s", table, table)[slot]
    if np.any(mu <= 0.0):
        raise ZeroTransformSum("a scale has a zero-trace covariance block")
    V = 2.0 * frob / np.outer(mu, mu)
    m, s = w @ (np.log(mu) - np.diag(V) / 2.0), np.sqrt(w @ V @ w)
    a, nI = w / mu, len(cov.indices)
    cube = 0.0  # kappa3 / 8
    for rows, X, count in _cube_pieces(cov):
        cube += count * _trace_cube(a[rows // nI], X)
        del X  # before the next piece is gathered
    skew = 8.0 * cube / s**3
    z = 0.0  # the normal quantile at (1 + level) / 2, by Newton on the convex tail
    for _ in range(50):
        z += ((math.erfc(z / math.sqrt(2.0)) - (1.0 - level))
              * math.sqrt(math.pi / 2.0) * math.exp(z * z / 2.0))
    shift = skew * (z * z - 1.0) / 6.0
    return (float(m + s * (shift - z)), float(m + s * (shift + z)),
            float(np.min(2.0 / np.diag(V))), float(skew))


def pivot_quantiles(set_, plan, beta, R, level, draws=DEFAULT_CI_DRAWS, seed=0):
    """(lower, upper) pivot quantiles at `level`, with the covariance at beta
    and R: cumulant_quantiles' if min nu_j >= _CF_MIN_DOF, else those of
    sample_Z's `draws` draws at `seed`."""
    check_ci_request(level, draws)
    cov = sigma_transient(set_, plan.scales, beta, R)
    q_lo, q_hi, nu_min, _ = cumulant_quantiles(cov, plan, level)
    if nu_min >= _CF_MIN_DOF:
        return q_lo, q_hi
    zs = sample_Z(cov, plan, draws, seed)
    a = 1.0 - level
    return quantile(zs, a / 2.0), quantile(zs, 1.0 - a / 2.0)


def confidence_interval(report, set_, level=0.95, draws=DEFAULT_CI_DRAWS, seed=0):
    """Asymptotic interval around a point estimate: alpha_hat minus the
    pivot_quantiles at beta = max(alpha_hat, 0) over log R. The report must
    carry its scale plan; a clipped alpha_hat < 0, or one >= d, logs a warning."""
    plan = report.plan
    if plan is None:
        raise DomainError("no scale plan available for interval construction")
    alpha = report.alpha_hat
    q_lo, q_hi = pivot_quantiles(set_, plan, max(alpha, 0.0), report.R, level,
                                 draws, seed)
    if not 0 <= alpha < set_.dim:
        logging.getLogger("hyperalpha").warning(
            "the interval assumes 0 <= alpha < d = %d, but alpha_hat = %.4g%s",
            set_.dim, alpha, " (clipped to beta = 0)" if alpha < 0 else "")
    log_R = np.log(report.R)
    return ConfidenceInterval(lo=alpha - q_hi / log_R, hi=alpha - q_lo / log_R,
                              level=level, alpha_hat=alpha)
