"""Hermite-wavelet taper family: construction, evaluation, numerical supports.

A taper with multi-index i is psi_i(x) = e^{-|x|^2/2} prod_l H_{i_l}(x_l)
with L2-normalized Hermite polynomials, evaluated at c*x (default c = 5).
Indices with all components even are excluded so every taper integrates
to zero and vanishes at the origin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import _HERMITE_MAX_ORDER

_MACHINE_EPS = float(np.finfo(np.float64).eps)

# Envelope threshold of a TaperSet's max_support. That support feeds border
# calibration (the j_max rule), where the operative question is "out to
# where does the taper meaningfully reach", not "where does it underflow":
# at machine epsilon the order-9 factor-5 taper has sigma near 2.1, which
# would pin j_max near 0.80 at R=40, while its effective reach (and
# observed border behavior) corresponds to sigma near 1.1 and j_max near 1.
# 1e-2 reproduces the latter.
DEFAULT_SUPPORT_EPS = 1e-2

DEFAULT_SPATIAL_SCALE = 5.0
# largest support grid a taper set builds; its length grows as 1/c
_MAX_SUPPORT_GRID = 2**20

# np.exp is exactly 0.0 at and below this argument (the boundary is near
# -745.1332); exp(-y^2/2) past it, |y| > 38.605, would take exp's slow
# underflow path. Every psi_n(y) is then exactly 0.0: the recurrence only
# multiplies and subtracts zeros.
EXP_ZERO = -745.14


def hermite_function_values(n_max, y, out=None):
    """Values of the orthonormal Hermite functions psi_n(y), n = 0..n_max.

    psi_n(y) = H_n(y) e^{-y^2/2} with the L2-normalized H_n, built by the
    upward three-term recurrence, which is stable for the orders used here
    and keeps the Gaussian factor inside so nothing overflows. The orders
    are stored first, as an (n_max + 1,) + y.shape array, so each step of
    the recurrence writes one contiguous slab; the return value is a view
    of shape y.shape + (n_max + 1,) that puts the order on the last axis.
    Each step is written into its slab in place, through one scratch slab,
    as (a_n y) psi_n - b_n psi_(n-1), so no step allocates.
    Where -y^2/2 lies below EXP_ZERO the Gaussian is written as 0.0 without
    calling exp there, which gives the same bits faster; the denormal band
    just inside EXP_ZERO keeps exp's values. Every order is then a zero,
    also at y = +-inf, and a huge |y| raises no overflow warning.
    out, if given, is that C-contiguous (n_max + 1,) + y.shape array, filled
    in place; a caller that evaluates many blocks reuses one buffer.
    """
    y = np.asarray(y, dtype=np.float64)
    shape = (n_max + 1,) + y.shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    # one row per order; rows are views, also for a 0-d y
    psi, flat_y = out.reshape(n_max + 1, -1), y.reshape(-1)
    np.multiply(-0.5, flat_y, out=psi[0])
    # -y^2/2 is -inf for |y| above about 1.3e154, and exp(-inf) is 0.0
    with np.errstate(over="ignore"):
        np.multiply(psi[0], flat_y, out=psi[0])
    # one reduction finds whether any argument lies past EXP_ZERO; fmin
    # skips NaN, so a NaN argument leaves the others' zeros alone
    low = np.fmin.reduce(psi[0], initial=0.0)
    zero = np.flatnonzero(psi[0] < EXP_ZERO) if low < EXP_ZERO else slice(0)
    if low == -np.inf:
        # past EXP_ZERO the recurrence multiplies zeros by y; y's sign alone
        # gives the same signed zeros where y is finite, and no inf * 0
        # (NaN) or overflow where it is huge or infinite
        flat_y = flat_y.copy()
        flat_y[zero] = np.sign(flat_y[zero])
    psi[0][zero] = 0.0
    np.exp(psi[0], out=psi[0])
    psi[0][zero] = 0.0
    np.multiply(np.pi ** -0.25, psi[0], out=psi[0])
    if n_max >= 1:
        np.multiply(np.sqrt(2.0), flat_y, out=psi[1])
        np.multiply(psi[1], psi[0], out=psi[1])
    scratch = np.empty_like(flat_y)
    for n in range(1, n_max):
        np.multiply(np.sqrt(2.0 / (n + 1)), flat_y, out=psi[n + 1])
        np.multiply(psi[n + 1], psi[n], out=psi[n + 1])
        np.multiply(np.sqrt(n / (n + 1.0)), psi[n - 1], out=scratch)
        np.subtract(psi[n + 1], scratch, out=psi[n + 1])
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


@dataclass(frozen=True)
class TaperSet:
    """Immutable family of Hermite tapers sharing one spatial scale.

    max_support is the largest numerical support over the tapers at
    DEFAULT_SUPPORT_EPS, the only support the j_max rule reads.
    """

    dim: int
    spatial_scale: float
    indices: tuple
    max_support: float


def _support_tables(n_max, c):
    """Per-order tail envelopes on a shared grid of step 0.01.

    Returns (x_grid, tail_max, global_max) where tail_max[n, k] is
    sup over y >= c * x_grid[k] of |psi_n(y)|.
    """
    step = 0.01
    x_hi = 4.0 * (np.sqrt(2.0 * max(1, n_max)) + 6.0) / c
    if not x_hi <= step * _MAX_SUPPORT_GRID:
        raise DomainError(f"spatial scale c = {c!r} (--taper-scale) is too small: "
                          f"its support grid exceeds {_MAX_SUPPORT_GRID} points")
    x_grid = np.arange(0.0, x_hi + step, step)
    y = c * x_grid
    vals = np.abs(hermite_function_values(n_max, y))  # (len(y), n_max+1)
    # suffix maximum over the grid gives the decreasing tail envelope
    tail = np.flip(np.maximum.accumulate(np.flip(vals, axis=0), axis=0), axis=0)
    return x_grid, tail.T, vals.max(axis=0)


def _scan_support(orders, tables, eps):
    """Outward line scan for the smallest sigma with the separable bound."""
    x_grid, tail, peak = tables
    # along each axis: tail of that order times the other axes' peaks
    sigma = 0.0
    for l, n in enumerate(orders):
        others = 1.0
        for m, nm in enumerate(orders):
            if m != l:
                others *= peak[nm]
        ok = tail[n] * others <= eps
        first = int(np.argmax(ok)) if ok.any() else len(x_grid) - 1
        sigma = max(sigma, float(x_grid[first]))
    return sigma


def build_taper_set(d, i_max, c=DEFAULT_SPATIAL_SCALE):
    """All multi-indices in {0..i_max-1}^d with at least one odd component."""
    if d not in (1, 2):
        raise DomainError("build_taper_set supports d in {1, 2}")
    if i_max < 2:
        raise DomainError("i_max must be >= 2: below that every index "
                          "would be all-even")
    # refused before np.indices and the support tables allocate i_max^d and
    # i_max times the grid length
    if i_max > _HERMITE_MAX_ORDER + 1:
        raise DomainError(f"i_max (--imax) must be at most {_HERMITE_MAX_ORDER + 1}: "
                          f"Hermite coefficients stop at order {_HERMITE_MAX_ORDER}, "
                          f"got {i_max}")
    if not 0 < c < np.inf:
        raise DomainError("spatial scale c (--taper-scale) must be positive "
                          f"and finite, got {c!r}")
    ranges = np.indices((i_max,) * d).reshape(d, -1).T
    indices = tuple(
        tuple(int(v) for v in row) for row in ranges if any(v % 2 == 1 for v in row)
    )
    tables = _support_tables(i_max - 1, c)
    return TaperSet(
        dim=d,
        spatial_scale=c,
        indices=indices,
        max_support=max(_scan_support(i, tables, DEFAULT_SUPPORT_EPS)
                        for i in indices),
    )


def taper_eval(set_, i, x):
    """f_i(x) = psi_i(c * x) for a single index, at one point or many.

    x may be a d-vector or an (m, d) array.
    """
    i = tuple(i)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != set_.dim:
        raise DomainError(f"points have dim {pts.shape[1]}, taper set has {set_.dim}")
    y = set_.spatial_scale * pts
    n_max = max(i)
    val = np.ones(len(pts))
    for l, n in enumerate(i):
        val = val * hermite_function_values(n_max, y[:, l])[:, n]
    return float(val[0]) if single else val


def numerical_support(set_, i, eps=None):
    """Smallest sigma such that |psi_i(c x)| <= eps whenever |x|_inf >= sigma.

    Found by an outward scan (grid step 0.01) of the separable per-axis
    bound. eps defaults to 64-bit machine epsilon; a TaperSet's
    max_support uses DEFAULT_SUPPORT_EPS instead.
    """
    if eps is None:
        eps = _MACHINE_EPS
    if not eps > 0:
        raise DomainError("eps must be positive")
    i = tuple(i)
    return _scan_support(i, _support_tables(max(i), set_.spatial_scale), eps)
