"""Special functions, quadrature, the PSD factor, RNG.

Everything here is deterministic and pure. Hermite coefficients come
from their explicit sum in exact integer arithmetic and are rounded to
float only at the end, as the square root of an exact rational times
pi^(-1/4).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, pi, sqrt

import numpy as np
# numpy 2 loads numpy.random on first attribute access; importing it here
# keeps that load in the package import, not in the first simulation
from numpy.random import Generator, Philox, SeedSequence

from .errors import DomainError, NoConvergence, NotPsd, Overflow

_PI_QUARTER_INV = pi ** -0.25
# B_16, B_14, ..., B_2 and 0: trigamma's series in 1/x^2, highest power first
_TRIGAMMA_B = (-3617/510, 7/6, -691/2730, 5/66, -1/30, 1/42, -1/30, 1/6, 0.0)


def trigamma(m):
    """Trigamma psi1(m) for real m >= 1, to a few ulp: psi1(m) = psi1(m + 1)
    + 1/m^2 up to x >= 10, then 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1)
    through B_16 (Abramowitz & Stegun 6.4.12), the smallest terms first."""
    if not m >= 1:
        raise DomainError(f"trigamma requires m >= 1, got {m}")
    x = float(m)
    if x < 10.0:
        return trigamma(x + 1.0) + 1.0 / (x * x)
    return float(1.0 + 0.5 / x + np.polyval(_TRIGAMMA_B, 1.0 / (x * x))) / x


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
def hermite_coeffs(n):
    """Monomial coefficients of the L2-normalized Hermite polynomial H_n.

    Returns n+1 floats, degree 0 to n. Coefficients of degree m with m and
    n of opposite parity are exactly zero.
    """
    if n < 0:
        raise DomainError("hermite_coeffs requires n >= 0")
    if n > _HERMITE_MAX_ORDER:
        raise Overflow(f"hermite_coeffs supports orders <= {_HERMITE_MAX_ORDER}")
    # H_n(y) = n! sum_k (-1)^k (2y)^(n-2k) / (k! (n-2k)!) over 2k <= n; the
    # normalization sqrt(2^n n! sqrt(pi)) leaves a rational under one square
    # root, times pi^(-1/4); integer true division rounds it correctly
    norm = 2 ** n * factorial(n)
    coeffs = [0.0] * (n + 1)
    for k in range(n // 2 + 1):
        m = n - 2 * k
        a = factorial(n) // (factorial(k) * factorial(m)) * 2 ** m
        coeffs[m] = (-1) ** k * sqrt(a * a / norm) * _PI_QUARTER_INV
    return tuple(coeffs)


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

# Each d = 2 level multiplies the polar grid by 3.2; refinement stops before
# a level above this many points (64 MiB), so the fifth level, 3.4 million
# points, is the last.
_POLAR_MAX_POINTS = 2**22


@lru_cache(maxsize=16)
def _gauss_legendre(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], memoized per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quad_radial(integrand, d, tol=1e-9):
    """Integral of `integrand` over R^d for d in {1, 2}.

    The integrand must accept an (m, d) array of points and return m values,
    and must decay like a Gaussian times a polynomial. d=2 uses a polar
    scheme: Gauss-Legendre radially, periodic trapezoid in angle. d=1 uses
    Gauss-Legendre on an adaptively chosen symmetric interval.

    Refines until two consecutive levels differ by less than tol (absolute);
    raises NoConvergence instead of evaluating a level that would need more
    than _GL_MAX_NODES nodes (d=1, 6 levels) or _POLAR_MAX_POINTS points
    (d=2, 5 levels).
    """
    if d not in (1, 2):
        raise DomainError("quad_radial supports d in {1, 2}")
    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
        L = _probe_extent(integrand, 1, dirs)
        prev = None
        n = 256
        while n <= _GL_MAX_NODES:
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
    while n_r * n_t <= _POLAR_MAX_POINTS:
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
    """Eigen-truncated square root of a symmetric block matrix, block by block.

    blocks holds one (rows, factor, basis) triple per block given to
    psd_factor, rows as given. basis is a len(rows) x r matrix V of the
    block's orthonormal eigenvectors whose eigenvalues lie above the
    clipping level, and factor = V sqrt(lambda), so
    M_clipped[rows][:, rows] = factor @ factor.T and factor @ basis.T is its
    symmetric square root. M_clipped is zero outside the blocks.
    """

    dimension: int
    blocks: tuple


_PSD_CLIP_REL = 1e-8


def psd_factor(blocks):
    """Eigen-truncated symmetric square root of a block matrix M.

    blocks are (rows, B) pairs: B is M[rows][:, rows], and M is zero
    outside the blocks. Their rows must partition 0..n-1 and each B must
    be square and exactly symmetric; a transform covariance gives its
    taper parity classes (CovBlockMatrix.blocks, gathered from its tables
    on that first read and kept). Each block gets one
    symmetric eigendecomposition. Eigenvalues below -1e-8 times the
    largest eigenvalue of M raise NotPsd; the eigenpairs above +1e-8 times
    it are kept and the rest are treated as zero, so each block's root
    changes with M as smoothly as its retained eigenspace does.
    """
    blocks = [(np.asarray(rows), np.asarray(B, dtype=np.float64))
              for rows, B in blocks]
    covered = np.concatenate([rows for rows, _ in blocks])
    n = len(covered)
    if not np.array_equal(np.sort(covered), np.arange(n)):
        raise DomainError("psd_factor: the block rows must partition 0..n-1")
    for rows, B in blocks:
        if B.shape != (len(rows), len(rows)) or not np.array_equal(B, B.T):
            raise DomainError("psd_factor requires square, exactly symmetric blocks")
    # numpy's eigh is LAPACK dsyevd, as scipy's driver="evd"; scipy's runs
    # on scipy's own BLAS threads, which keep spinning after the call and
    # halved the speed of the sampling products that follow
    parts = [(rows, *np.linalg.eigh(B)) for rows, B in blocks]
    top = max((lam.max() for _, lam, _ in parts), default=0.0)
    low = min((lam.min() for _, lam, _ in parts), default=0.0)
    floor = _PSD_CLIP_REL * top
    if low < -floor:
        raise NotPsd(
            f"matrix has an eigenvalue {low:.3e} below the clipping floor "
            f"{-floor:.3e} (-{_PSD_CLIP_REL:g} x the largest eigenvalue, {top:.3e})"
        )
    factors = []
    for rows, lam, vec in parts:
        keep = lam > floor
        factors.append((rows, vec[:, keep] * np.sqrt(lam[keep]), vec[:, keep]))
    return PsdFactor(dimension=n, blocks=tuple(factors))


def make_rng(seed):
    """Counter-based generator (Philox4x32-10) keyed through SeedSequence.

    Philox is numpy's documented, versioned, cross-platform counter-based
    bit generator; all randomness in the package flows through here so a
    single integer seed pins every draw. A negative seed raises DomainError.
    """
    if seed < 0:
        raise DomainError(f"the seed must be at least 0, got {seed}")
    return Generator(Philox(SeedSequence(seed)))
