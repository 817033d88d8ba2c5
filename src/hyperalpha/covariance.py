"""Gaussian-limit covariance of the transform vector, exact in log space.

One closed form serves d = 1 and d = 2. Each entry reduces to a finite sum
over Hermite coefficient degrees: a radial Gamma factor times a moment of
the unit sphere S^(d-1), weighted by powers of R. Terms span hundreds of
orders of magnitude, so the sum is grouped by total degree and accumulated
with signed log-sum-exp; no intermediate is ever exponentiated before the
final, O(1)-sized result.

Entries are for unscaled tapers. The physical taper scale c contributes a
common factor c^(beta-d), kept as log metadata on the matrix; a common
factor scales every chi-square block equally and cancels in the pivot
statistic, so it never enters the confidence interval.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag

from .errors import DomainError, Overflow
from .numerics import (angular_moment, hermite_coeff_arrays, log_gamma,
                       signed_logsumexp)

_MAX_ORDER = 32
_LOG_B_SIZE = 2 * _MAX_ORDER + 1


@lru_cache(maxsize=2)
def _log_sphere_table(d):
    """log moments of the unit sphere S^(d-1) by axis powers, -inf if any is odd.

    d = 2: the angular moments B(p, q); d = 1: 2 for even p, as S^0 = {-1, 1}.
    """
    logs = np.full((_LOG_B_SIZE,) * d, -np.inf)
    if d == 1:
        logs[::2] = np.log(2.0)
        return logs
    for p in range(0, _LOG_B_SIZE, 2):
        for q in range(0, _LOG_B_SIZE, 2):
            logs[p, q] = np.log(angular_moment(p, q))
    return logs


def _parity_zero(i1, i2):
    return any((a - b) % 2 for a, b in zip(i1, i2))


def _prefactor(i1, i2):
    """i^|i2| (-i)^|i1| for parity-matched indices; real by construction."""
    return -1.0 if ((sum(i2) - sum(i1)) // 2) % 2 else 1.0


@lru_cache(maxsize=None)
def _degree_table(i1, i2):
    """Coefficient sum grouped by total degree per taper, d = len(i1).

    Returns (L1, L2, sign, logmag) arrays: for each pair of total degrees
    (L1 from taper 1, L2 from taper 2), the signed log of

        sum over splits  prod_k c_{l1k} c_{l2k} * S(l11+l21, ..., l1d+l2d)

    with S the sphere moment of _log_sphere_table. All R- and
    beta-dependence is outside this table, so it is computed once per taper
    pair and reused for every scale pair and every beta.
    """
    d = len(i1)
    logS = _log_sphere_table(d)
    coefs = [hermite_coeff_arrays(n) for n in (*i1, *i2)]
    degs = [np.nonzero(s)[0] for s, _ in coefs]
    grid = np.meshgrid(*degs, indexing="ij", sparse=False)
    sgn = np.ones(grid[0].shape)
    logm = np.zeros(grid[0].shape)
    for (s, lm), dd in zip(coefs, grid):
        sgn = sgn * s[dd]
        logm = logm + lm[dd]
    logs_split = logS[tuple(grid[k] + grid[d + k] for k in range(d))]
    keep = np.isfinite(logs_split) & (sgn != 0)
    L1 = sum(grid[:d])[keep]
    L2 = sum(grid[d:])[keep]
    sgn = sgn[keep]
    logm = logm[keep] + logs_split[keep]
    key = L1 * (2 * _LOG_B_SIZE) + L2
    uniq, inv = np.unique(key, return_inverse=True)
    out_sgn, out_log = np.array([
        signed_logsumexp(sgn[inv == g], logm[inv == g]) for g in range(len(uniq))
    ]).T
    live = out_sgn != 0
    out_L1, out_L2 = np.divmod(uniq[live], 2 * _LOG_B_SIZE)
    return (out_L1.astype(np.float64), out_L2.astype(np.float64),
            out_sgn[live], out_log[live])


def _entries(i1, i2, beta, R, j1, j2):
    """Entries for taper pair (i1, i2), d = len(i1), over paired scale arrays."""
    j1 = np.asarray(j1, dtype=np.float64)
    j2 = np.asarray(j2, dtype=np.float64)
    if _parity_zero(i1, i2):
        return np.zeros(j1.shape)
    d = len(i1)
    L1, L2, sgn, logD = _degree_table(tuple(i1), tuple(i2))
    log_R = np.log(R)
    g = (d + beta + L1 + L2) / 2.0
    log_gam = np.array([log_gamma(x) for x in g])
    # log of (R^{2 j1} + R^{2 j2}) / 2, the shared Gaussian width
    log_mean = np.logaddexp(2 * j1 * log_R, 2 * j2 * log_R) - np.log(2.0)
    terms = (
        logD[:, None]
        + log_gam[:, None]
        + log_R * ((beta + d) / 2.0 * (j1 + j2)[None, :]
                   + np.outer(L1, j1) + np.outer(L2, j2))
        - np.outer(g, log_mean)
    )
    s, lv = signed_logsumexp(np.broadcast_to(sgn[:, None], terms.shape), terms, axis=0)
    return _prefactor(i1, i2) * 0.5 * s * np.exp(lv)


def sigma_entry_d2(i1, i2, j1, j2, beta, R):
    """One covariance entry in dimension 2, unscaled tapers.

    Closed form: prefactor * R^{(beta+2)(j1+j2)/2} * (1/2) * sum over
    degree splits of coefficient products, an angular moment
    B(l11+l21, l12+l22), Gamma((2+beta+L1+L2)/2), R^{j1 L1 + j2 L2}, and
    ((R^{2 j1}+R^{2 j2})/2)^{-(2+beta+L1+L2)/2} with L1, L2 the per-taper
    total degrees. A differently indexed rendering of the same sum attaches
    complex unit powers per split; the grouped form above is the one whose
    terms are individually real, and the quadrature oracle pins it down.
    In d = 1 the sum has one coefficient per taper, beta+2 becomes beta+1
    (in the power of R, the Gamma argument and the exponent), and the S^0
    moment, 2 for an even power, replaces B; the 1/2 stays.
    """
    i1 = tuple(int(v) for v in i1)
    i2 = tuple(int(v) for v in i2)
    if len(i1) != 2 or len(i2) != 2:
        raise DomainError("sigma_entry_d2 needs two-component indices")
    if max(*i1, *i2) > _MAX_ORDER:
        raise Overflow(f"taper orders above {_MAX_ORDER} not supported")
    if not R >= 1:
        raise DomainError("need R >= 1")
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    if not (j1 > 0 and j2 > 0):
        raise DomainError("scales must be positive")
    return float(_entries(i1, i2, beta, R, [j1], [j2])[0])


@dataclass(frozen=True)
class CovBlockMatrix:
    """Dense symmetric covariance with scale-major row layout.

    Row convention: row = scale_index * |I| + taper_index, matching how
    transform vectors are flattened for sampling. structural_zero marks
    entries that vanish identically by parity.
    """

    index_map: tuple
    matrix: np.ndarray
    beta: float
    R: float
    structural_zero: np.ndarray
    log_scale_factor: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def _layout(indices, J):
    return tuple((i, float(j)) for j in J for i in indices)


def _assemble(indices, J, beta, R):
    """Matrix and structural-zero mask in the CovBlockMatrix row layout.

    Parity makes at least half the entries exact zeros; they are marked and
    skipped, never computed. Each taper pair is filled across all scale
    pairs at once, so the matrix is exactly symmetric by construction.
    """
    nI, nJ = len(indices), len(J)
    n = nI * nJ
    matrix = np.zeros((n, n))
    zero = np.ones((n, n), dtype=bool)
    jx, jy = np.meshgrid(np.arange(nJ), np.arange(nJ), indexing="ij")
    jx, jy = jx.ravel(), jy.ravel()
    j1s, j2s = J[jx], J[jy]
    for a in range(nI):
        for b in range(a, nI):
            ia, ib = indices[a], indices[b]
            if _parity_zero(ia, ib):
                continue
            vals = _entries(ia, ib, beta, R, j1s, j2s)
            if a == b:
                # same-taper block: mirror the upper scale triangle so the
                # matrix is symmetric to the last bit, not just to round-off
                vm = vals.reshape(nJ, nJ)
                iu = np.triu_indices(nJ, 1)
                vm[iu[1], iu[0]] = vm[iu]
                vals = vm.ravel()
            rows = jx * nI + a
            cols = jy * nI + b
            matrix[rows, cols] = vals
            zero[rows, cols] = False
            if a != b:
                # swapped tapers = swapped scales, from the same table
                matrix[jx * nI + b, jy * nI + a] = vals.reshape(nJ, nJ).T.ravel()
                zero[jx * nI + b, jy * nI + a] = False
    return matrix, zero


def sigma_transient(set_, J, beta, R):
    """Covariance of the transform vector at finite R, beta = max(alpha,0)."""
    J = np.asarray(J, dtype=np.float64)
    if np.any(J <= 0):
        raise DomainError("scales must be positive")
    if not R > 1:
        raise DomainError("need R > 1")
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    matrix, zero = _assemble(set_.indices, J, beta, R)
    return CovBlockMatrix(
        index_map=_layout(set_.indices, J),
        matrix=matrix,
        beta=float(beta),
        R=float(R),
        structural_zero=zero,
        log_scale_factor=(beta - set_.dim) * np.log(set_.spatial_scale),
    )


def sigma_asymptotic(set_, J, alpha):
    """R -> infinity limit: block diagonal, one identical block per scale.

    A single block is the degenerate R = 1 evaluation (every power of R
    collapses), replicated across scales; cross-scale blocks vanish.
    """
    J = np.asarray(J, dtype=np.float64)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    block, _ = _assemble(set_.indices, np.ones(1), alpha, 1.0)
    matrix = block_diag(*[block] * len(J))
    return CovBlockMatrix(
        index_map=_layout(set_.indices, J),
        matrix=matrix,
        beta=float(alpha),
        R=np.inf,
        structural_zero=matrix == 0.0,
        log_scale_factor=(alpha - set_.dim) * np.log(set_.spatial_scale),
    )
