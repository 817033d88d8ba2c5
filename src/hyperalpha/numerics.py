"""Special functions, signed log-space arithmetic, quadrature, PSD factors, RNG.

Everything here is deterministic and pure. Hermite coefficients are
built and stored as signed logs (sign, log magnitude).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import dpotrf, dpstrf
from scipy.special import polygamma

from .errors import DomainError, NoConvergence, NotPsd, Overflow

_MACHINE_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign and log magnitude.

    sign is -1, 0, or +1; sign 0 means the value is exactly zero and
    log_magnitude is ignored.
    """

    sign: int
    log_magnitude: float

    @classmethod
    def from_float(cls, x):
        x = float(x)
        if x == 0.0:
            return cls(0, -np.inf)
        return cls(1 if x > 0 else -1, float(np.log(abs(x))))

    def __float__(self):
        if self.sign == 0:
            return 0.0
        return self.sign * float(np.exp(self.log_magnitude))


def signed_logsumexp(signs, logmags, axis=None):
    """Signed log-sum-exp: returns (sign, log|sum|) of sum(signs * exp(logmags)).

    Works on arrays; reduces over `axis` (all elements when None). Entries
    with sign 0 are ignored regardless of their log magnitude.
    """
    signs = np.asarray(signs, dtype=np.float64)
    logmags = np.where(signs == 0, -np.inf, np.asarray(logmags, dtype=np.float64))
    m = np.max(logmags, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    total = np.sum(signs * np.exp(logmags - m_safe), axis=axis)
    m_red = np.squeeze(m_safe, axis=axis) if axis is not None else m_safe.item()
    with np.errstate(divide="ignore"):
        out_log = np.where(total != 0.0, np.log(np.abs(np.where(total != 0.0, total, 1.0))) + m_red, -np.inf)
    out_sign = np.sign(total)
    if np.ndim(out_sign) == 0:
        return float(out_sign), float(out_log)
    return out_sign, out_log


def trigamma(m):
    """Trigamma psi1(m) for real m >= 1."""
    if m < 1:
        raise DomainError(f"trigamma requires m >= 1, got {m}")
    return float(polygamma(1, m))


def angular_moment(p, q):
    """B(p, q) = integral over [0, 2pi) of cos(t)^p sin(t)^q dt.

    Zero when p or q is odd. For even orders, reduced by
    B(p, q) = (p-1)(q-1) / ((p+q)(p+q-2)) * B(p-2, q-2) down to an axis
    case B(p, 0) = 2pi (p-1)!!/p!!.
    """
    p, q = int(p), int(q)
    if p < 0 or q < 0:
        raise DomainError("angular_moment requires p, q >= 0")
    if p % 2 == 1 or q % 2 == 1:
        return 0.0
    val = 2.0 * np.pi
    # descend the paired recursion while both exponents are positive
    while p >= 2 and q >= 2:
        val *= (p - 1) * (q - 1) / ((p + q) * (p + q - 2))
        p -= 2
        q -= 2
    # one exponent is now 0; fold the remaining axis moment
    rest = max(p, q)
    for k in range(2, rest + 2, 2):
        val *= (k - 1) / k
    return float(val)


_HERMITE_MAX_ORDER = 64


@lru_cache(maxsize=None)
def _hermite_coeff_table(n):
    """(signs, logmags) arrays of monomial coefficients of normalized H_n."""
    if n == 0:
        signs = np.array([1], dtype=np.int8)
        logs = np.array([-0.25 * np.log(np.pi)])
        return signs, logs
    if n == 1:
        signs = np.array([0, 1], dtype=np.int8)
        logs = np.array([-np.inf, 0.5 * np.log(2.0) - 0.25 * np.log(np.pi)])
        return signs, logs
    sp, lp = _hermite_coeff_table(n - 1)
    spp, lpp = _hermite_coeff_table(n - 2)
    signs = np.zeros(n + 1, dtype=np.int8)
    logs = np.full(n + 1, -np.inf)
    la = 0.5 * (np.log(2.0) - np.log(n))  # log sqrt(2/n)
    lb = 0.5 * (np.log(n - 1) - np.log(n))  # log sqrt((n-1)/n)
    for m in range(n + 1):
        # contribution sqrt(2/n) * c_{n-1, m-1}  minus  sqrt((n-1)/n) * c_{n-2, m}
        terms_s = []
        terms_l = []
        if m >= 1 and sp[m - 1] != 0:
            terms_s.append(int(sp[m - 1]))
            terms_l.append(la + lp[m - 1])
        if m <= n - 2 and spp[m] != 0:
            terms_s.append(-int(spp[m]))
            terms_l.append(lb + lpp[m])
        if not terms_s:
            continue
        if len(terms_s) == 1:
            signs[m] = terms_s[0]
            logs[m] = terms_l[0]
        else:
            # same-parity contributions always share a sign, so this
            # addition never cancels
            s, lm = signed_logsumexp(np.array(terms_s, float), np.array(terms_l))
            signs[m] = int(s)
            logs[m] = lm
    return signs, logs


def hermite_coeffs(n):
    """Monomial coefficients of the L2-normalized Hermite polynomial H_n.

    Returns a list of n+1 SignedLogValue, degree 0 to n. Coefficients of
    degree m with m and n of opposite parity are exactly zero.
    """
    if n < 0:
        raise DomainError("hermite_coeffs requires n >= 0")
    if n > _HERMITE_MAX_ORDER:
        raise Overflow(f"hermite_coeffs supports orders <= {_HERMITE_MAX_ORDER}")
    signs, logs = _hermite_coeff_table(int(n))
    return [SignedLogValue(int(s), float(l)) for s, l in zip(signs, logs)]


def hermite_coeff_arrays(n):
    """(signs, logmags) numpy view of hermite_coeffs, for vectorized assembly."""
    if n > _HERMITE_MAX_ORDER:
        raise Overflow(f"hermite_coeffs supports orders <= {_HERMITE_MAX_ORDER}")
    signs, logs = _hermite_coeff_table(int(n))
    return signs.copy(), logs.copy()


def _probe_extent(f, d, directions, r_lo=1e-3, r_hi=200.0, n=240):
    """Largest radius at which the integrand is still non-negligible."""
    radii = np.geomspace(r_lo, r_hi, n)
    best = np.zeros(n)
    for u in directions:
        pts = radii[:, None] * np.asarray(u)[None, :]
        vals = np.abs(np.asarray(f(pts), dtype=float)) * radii ** (d - 1)
        best = np.maximum(best, vals)
    peak = best.max()
    if peak == 0.0:
        return 1.0
    alive = np.nonzero(best > peak * 1e-15)[0]
    return float(radii[alive[-1]] * 1.6) if len(alive) else 1.0


# leggauss(n) holds two n x n float64 arrays for its companion eigensolve,
# 1.1 GB at 8192 nodes and 4.3 GB at 16384; d = 1 refinement stops here.
_GL_MAX_NODES = 8192

# Each d = 2 round multiplies the polar grid by 3.2, so round 9 would hold
# 357 million points, 5.3 GiB for the points alone; refinement stops before
# a level above this many (64 MiB).
_POLAR_MAX_POINTS = 2**22


@lru_cache(maxsize=16)
def _gauss_legendre(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], memoized per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quad_radial(integrand, d, tol=1e-9, max_rounds=9):
    """Integral of `integrand` over R^d for d in {1, 2}.

    The integrand must accept an (m, d) array of points and return m values,
    and must decay like a Gaussian times a polynomial. d=2 uses a polar
    scheme: Gauss-Legendre radially, periodic trapezoid in angle. d=1 uses
    Gauss-Legendre on an adaptively chosen symmetric interval.

    Refines until two consecutive levels differ by less than tol (absolute);
    raises NoConvergence when the refinement budget runs out, and before a
    level would need more than _GL_MAX_NODES nodes (d=1) or
    _POLAR_MAX_POINTS points (d=2).
    """
    if d not in (1, 2):
        raise DomainError("quad_radial supports d in {1, 2}")
    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
        L = _probe_extent(integrand, 1, dirs)
        prev = None
        n = 256
        for _ in range(max_rounds):
            if n > _GL_MAX_NODES:
                break
            x, w = _gauss_legendre(n)
            pts = (0.5 * L * (x + 1.0))[:, None]
            val = 0.5 * L * np.sum(w * np.asarray(integrand(pts), dtype=float))
            pts_neg = -pts
            val += 0.5 * L * np.sum(w * np.asarray(integrand(pts_neg), dtype=float))
            if prev is not None and abs(val - prev) < tol:
                return float(val)
            prev = val
            n *= 2
        raise NoConvergence("quad_radial (d=1) did not reach tol")

    angles = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    dirs = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    r_max = _probe_extent(integrand, 2, dirs)
    prev = None
    n_r, n_t = 128, 256
    for _ in range(max_rounds):
        if n_r * n_t > _POLAR_MAX_POINTS:
            break
        x, w = _gauss_legendre(n_r)
        r = 0.5 * r_max * (x + 1.0)
        wr = 0.5 * r_max * w * r
        theta = np.arange(n_t) * (2 * np.pi / n_t)
        ct, st = np.cos(theta), np.sin(theta)
        pts = np.empty((n_r * n_t, 2))
        pts[:, 0] = np.outer(r, ct).ravel()
        pts[:, 1] = np.outer(r, st).ravel()
        vals = np.asarray(integrand(pts), dtype=float).reshape(n_r, n_t)
        angular = vals.sum(axis=1) * (2 * np.pi / n_t)
        val = float(np.sum(wr * angular))
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n_r = int(n_r * 1.6)
        n_t *= 2
    raise NoConvergence("quad_radial (d=2) did not reach tol")


@dataclass(frozen=True)
class PsdFactor:
    """Rank-revealing factor of a clipped symmetric matrix, one block at a time.

    blocks holds one (rows, factor, basis) triple per connected component
    of the matrix's exact-nonzero pattern, rows being the component's
    indices into the matrix. factor is a len(rows) x r matrix L with
    M_clipped[rows][:, rows] = L @ L.T, r the block's numerical rank.
    basis is a len(rows) x r matrix Q with orthonormal columns spanning the
    same range, chosen so that L @ Q.T is the symmetric square root of that
    block. Every entry of M_clipped outside the blocks is zero.
    """

    dimension: int
    blocks: tuple


_PSD_CLIP_REL = 1e-8


def _blocks(nonzero):
    """Index arrays of the connected components of a symmetric boolean pattern.

    A dense frontier search: each step adds every index that a frontier row
    reaches and that is not yet a member.
    """
    n = len(nonzero)
    seen = np.zeros(n, dtype=bool)
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = nonzero[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks


def psd_factor(M):
    """Rank-revealing factor of a symmetric matrix, clipping round-off negatives.

    The matrix splits into the connected components of its exact-nonzero
    pattern (for a transform covariance, its taper parity classes). Each
    block gets LAPACK's pivoted Cholesky (dpstrf), stopped once every
    remaining Schur complement diagonal is at most 1e-8 times the largest
    diagonal entry of M. LAPACK's default tolerance, n * eps times that
    entry, keeps columns that are mostly round-off: sampling through them
    is then invariant under a common factor on M only to 1e-7, not 1e-12.

    Eigenvalues below -1e-8 times the largest eigenvalue raise NotPsd;
    anything above that and below the stopping level is treated as zero.
    The largest eigenvalue is the largest squared singular value of a
    block's factor. A nonzero block passes when plain Cholesky succeeds
    after adding 1e-8 times that eigenvalue to its diagonal; the spectrum
    of M is the union of its blocks' spectra.

    Pivot order and rank follow round-off where diagonals tie (a taper's
    variance is the same at every scale), so the factor jumps under tiny
    changes of M. factor @ basis.T does not: per block the basis is the
    polar factor U V^T of the factor U S V^T, and the product U S U^T is
    the symmetric square root of the clipped block. The polar factor comes
    from a thin QR of the factor, L = Q T, and the SVD of the r x r
    triangle T = U' S V^T: U = Q U'.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("psd_factor requires a square matrix")
    if np.array_equal(M, M.T):
        sym = M
    elif np.allclose(M, M.T, rtol=0, atol=1e-12 * max(1.0, np.abs(M).max())):
        sym = 0.5 * (M + M.T)
    else:
        raise DomainError("psd_factor requires a symmetric matrix")
    tol = _PSD_CLIP_REL * max(np.diag(sym).max(initial=0.0), 0.0)
    parts, top = [], 0.0
    for rows in _blocks(sym != 0.0):
        block = sym[np.ix_(rows, rows)]
        c, piv, rank, _ = dpstrf(block, lower=1, tol=tol)
        L = np.zeros((len(rows), rank))
        # dpstrf leaves the strict upper triangle as it found it
        L[piv - 1] = np.tril(c[:, :rank])
        Q, T = qr(L, mode="economic")
        U, sv, Vt = np.linalg.svd(T)
        top = max(top, float(sv[0]) ** 2 if rank else 0.0)
        parts.append((rows, block, L, Q @ (U @ Vt)))
    shift = _PSD_CLIP_REL * top
    for _, block, _, _ in parts:
        if not block.any():
            continue
        block.flat[::len(block) + 1] += shift
        if dpotrf(block, lower=1, clean=0, overwrite_a=1)[1] != 0:
            raise NotPsd(
                f"matrix has an eigenvalue below the clipping floor {-shift:.3e} "
                f"(-{_PSD_CLIP_REL:g} x the largest eigenvalue, {top:.3e})"
            )
    return PsdFactor(dimension=M.shape[0],
                     blocks=tuple((rows, L, Q) for rows, _, L, Q in parts))


def make_rng(seed):
    """Counter-based generator (Philox4x32-10) keyed through SeedSequence.

    Philox is numpy's documented, versioned, cross-platform counter-based
    bit generator; all randomness in the package flows through here so a
    single integer seed pins every draw.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_seed_sequences(seed, n):
    """n independent child SeedSequences of a root seed (stable spawn keys)."""
    return np.random.SeedSequence(seed).spawn(n)
