"""Special functions, signed log-space arithmetic, quadrature, PSD factors, RNG.

Everything here is deterministic and pure. Hermite coefficients are
built and stored as signed logs (sign, log magnitude).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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
    """Factor L of a clipped symmetric matrix, with M_clipped = L @ L.T."""

    dimension: int
    factor: np.ndarray


_PSD_CLIP_REL = 1e-8


def psd_factor(M):
    """Eigen-factor of a symmetric matrix, clipping round-off negatives.

    Eigenvalues below -1e-8 times the largest eigenvalue raise NotPsd;
    anything negative above that threshold is treated as zero.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("psd_factor requires a square matrix")
    if not np.allclose(M, M.T, rtol=0, atol=1e-12 * max(1.0, np.abs(M).max())):
        raise DomainError("psd_factor requires a symmetric matrix")
    sym = 0.5 * (M + M.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    top = float(eigvals.max(initial=0.0))
    floor = -_PSD_CLIP_REL * max(top, 0.0)
    if eigvals.min(initial=0.0) < floor:
        raise NotPsd(
            f"matrix eigenvalue {eigvals.min():.3e} below clipping floor {floor:.3e}"
        )
    clipped = np.clip(eigvals, 0.0, None)
    L = eigvecs * np.sqrt(clipped)[None, :]
    return PsdFactor(dimension=M.shape[0], factor=L)


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
