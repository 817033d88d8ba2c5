"""Gaussian-limit covariance of the transform vector, as one matrix product.

One closed form serves d = 1 and d = 2. Each entry is a finite sum over
the total Hermite degrees L1, L2 of its two tapers,

    entry = 1/2 * sum over (L1, L2) of D_pair(L1, L2) * K_{L1,L2}(j1, j2),

so a whole matrix is 0.5 * D @ K. The degree table D is indexed by taper
pair and (L1, L2) and depends on neither beta, R nor the scales; the scale
kernel K is indexed by (L1, L2) and scale pair and is shared by every
taper pair.

D comes from per-axis tables. The moment of the unit sphere S^(d-1)
splits into per-axis factors and a factor of the total degree,
S(p) = 2 prod_k Gamma((p_k+1)/2) / Gamma((|p|+d)/2), so D is the
convolution over axes of T[a, b] = c_n1(a) c_n2(b) Gamma((a+b+1)/2) (zero
for odd a+b), times 2 / Gamma((L1+L2+d)/2) and the pair's phase; c_n are
the monomial coefficients of the normalized Hermite polynomials.

K = Gamma(g) R^((L2-L1)(j2-j1)/2) / cosh(x)^g with x = (j2-j1) log R and
g = (d+beta+L1+L2)/2: writing the shared Gaussian width
(R^(2 j1) + R^(2 j2))/2 as R^(j1+j2) cosh(x) cancels the powers R^(j1+j2)
exactly. K is evaluated as Gamma(g) exp((L2-L1) x/2 - g log cosh x), whose
exponent is at most g log 2, so K <= Gamma(g) 2^g for every R and scale
pair and only Gamma(g) itself can overflow (beta in the hundreds).

Entries are for unscaled tapers. The physical taper scale c contributes a
common factor c^(beta-d), kept as log metadata on the matrix; a common
factor scales every chi-square block equally and cancels in the pivot
statistic, so it never enters the confidence interval.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.special import gamma

from .errors import DomainError, Overflow
from .numerics import hermite_coeff_arrays

_MAX_ORDER = 32


def _convolve(A, B):
    """Full 2-D convolution of (P, m, m) and (P, n, n) tables, pair by pair."""
    m, n = A.shape[1], B.shape[1]
    out = np.zeros((len(A), m + n - 1, m + n - 1))
    for a, b in np.ndindex(m, m):
        out[:, a:a + n, b:b + n] += A[:, a, b, None, None] * B
    return out


def _degree_tables(i1s, i2s):
    """D for the taper pairs (i1s[p], i2s[p]), shape (P, nL, nL).

    nL = d * n_max + 1 total degrees per taper. Pairs that differ in
    parity on some axis get an all-zero table.
    """
    P, d = i1s.shape
    N = int(max(i1s.max(), i2s.max())) + 1
    coef = np.zeros((N, N))
    for n in range(N):
        s, lm = hermite_coeff_arrays(n)
        coef[n, :n + 1] = s * np.exp(lm)
    ab = np.add.outer(np.arange(N), np.arange(N))
    axis_gamma = np.where(ab % 2 == 0, gamma((ab + 1) / 2.0), 0.0)
    D = np.ones((P, 1, 1))
    for k in range(d):
        D = _convolve(D, coef[i1s[:, k], :, None] * coef[i2s[:, k], None, :]
                      * axis_gamma)
    L = np.add.outer(np.arange(D.shape[1]), np.arange(D.shape[1]))
    # i^|i2| (-i)^|i1|, real for parity-matched pairs
    phase = 1.0 - 2.0 * (((i2s.sum(1) - i1s.sum(1)) // 2) % 2)
    return D * (2.0 / gamma((L + d) / 2.0)) * phase[:, None, None]


def _scale_kernel(nL, d, beta, R, j1, j2):
    """K over (L1, L2) and the paired scales, shape (nL, nL, len(j1))."""
    L = np.arange(nL, dtype=np.float64)
    g = (d + beta + np.add.outer(L, L))[..., None] / 2.0
    gam = gamma(g)
    if not np.all(np.isfinite(gam)):
        raise Overflow("beta too large: Gamma((d+beta+L1+L2)/2) overflows")
    dL = np.subtract.outer(L, L)[..., None]  # L1 - L2
    x = (j2 - j1) * np.log(R)
    return gam * np.exp(-dL * x / 2.0 - g * (np.logaddexp(x, -x) - np.log(2.0)))


def _entries(i1s, i2s, beta, R, j1, j2):
    """Entries for taper pairs (i1s[p], i2s[p]) over paired scale arrays.

    Returns a (pairs, scales) array; every covariance value is computed here.
    """
    i1s = np.asarray(i1s, dtype=np.int64)
    i2s = np.asarray(i2s, dtype=np.int64)
    j1 = np.asarray(j1, dtype=np.float64)
    j2 = np.asarray(j2, dtype=np.float64)
    D = _degree_tables(i1s, i2s)
    K = _scale_kernel(D.shape[1], i1s.shape[1], beta, R, j1, j2)
    return 0.5 * (D.reshape(len(D), -1) @ K.reshape(-1, len(j1)))


def sigma_entry_d2(i1, i2, j1, j2, beta, R):
    """One covariance entry in dimension 2, unscaled tapers.

    Closed form: prefactor * (1/2) * sum over the per-taper total degrees
    L1, L2 of D(L1, L2) * Gamma(g) * R^((L2-L1)(j2-j1)/2)
    / cosh((j2-j1) log R)^g, with g = (2+beta+L1+L2)/2. D(L1, L2) sums,
    over degree splits, the coefficient products times the angular moment
    B(l11+l21, l12+l22); B is 2 Gamma((p+1)/2) Gamma((q+1)/2) /
    Gamma((p+q+2)/2), so D is a convolution of per-axis tables. A
    differently indexed rendering of the same sum attaches complex unit
    powers per split; the grouped form above is the one whose terms are
    individually real, and the quadrature oracle pins it down. In d = 1 the
    sum has one coefficient per taper, 2+beta becomes 1+beta in g, and the
    S^0 moment, 2 for an even power, replaces B; the 1/2 stays.
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
    return float(_entries([i1], [i2], beta, R, [j1], [j2])[0, 0])


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
    skipped, never computed. Each parity-matched taper pair a <= b is
    filled across all scale pairs at once and mirrored into (b, a), so the
    matrix is exactly symmetric by construction.
    """
    idx = np.asarray(indices)
    nI, nJ = len(idx), len(J)
    parity = idx % 2
    zero_pair = (parity[:, None, :] != parity[None, :, :]).any(axis=-1)
    A, B = np.nonzero(np.triu(~zero_pair))
    j1, j2 = np.meshgrid(J, J, indexing="ij")
    vals = _entries(idx[A], idx[B], beta, R, j1.ravel(), j2.ravel())
    vals = vals.reshape(-1, nJ, nJ)
    # same-taper blocks: mirror the upper scale triangle so the matrix is
    # symmetric to the last bit, not just to round-off
    same = A == B
    vals[same] = np.triu(vals[same]) + np.triu(vals[same], 1).transpose(0, 2, 1)
    matrix = np.zeros((nJ, nI, nJ, nI))
    matrix[:, A, :, B] = vals
    # swapped tapers = swapped scales, from the same values
    matrix[:, B, :, A] = vals.transpose(0, 2, 1)
    return matrix.reshape(nI * nJ, -1), np.tile(zero_pair, (nJ, nJ))


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
