"""Truncated wavelet transforms and the diagnostic curve C.

T_j(f_i, R) sums f_i(x / R^j) over the points of the pattern. Sums of many
signed, nearly cancelling terms are the core numeric risk, so reductions
use a canonical point order and fixed blocks of 1024 points: results are
bit-identical under any permutation of the input points.

Every taper is a product of 1-D Hermite functions, so in d=2 the sums of
all tapers over a block of points are the entries of the small matrix
H_x^T H_y, where H_x holds the Hermite orders of the first coordinates.
One kernel evaluates the orders once per axis and forms that product for
a chunk of scales at a time; its cost is at most n * |J| * d * i_max for
the recurrence plus n * |J| * i_max^d for the product: a pair of a block
and a chunk whose Hermite values on some axis are all exactly zero costs
neither, and arguments whose Gaussian underflows skip exp.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroTransformSum
from .tapers import EXP_ZERO, hermite_function_values

_SUM_BLOCK = 1024

# Scales evaluated together on one block of points. Bounded so the Hermite
# tables (i_max x 8 x 1024 values per axis) stay small whatever |J| is:
# all 170 scales of an estimate at once raise its peak memory by ~40 MB.
_SCALE_CHUNK = 8

# A (block, chunk) pair whose arguments |s x_l| on some axis l all exceed
# this is skipped: there -y^2/2 < EXP_ZERO, so that axis's Hermite tables
# are exactly 0.0 and the pair would add +-0 to every sum. The margin
# covers the rounding of s * x and of -y^2/2, a few ulps.
_ZERO_REACH = float(np.sqrt(-2.0 * EXP_ZERO)) * (1.0 + 1e-9)


def _canonical_order(points):
    """Lexicographic order by coordinates; ties broken by later columns.

    Without a tie in the first coordinate (-0.0 and 0.0 tie) that order is
    the first coordinate's sort, which argsort finds about 10x faster than
    lexsort; with one, lexsort's stable order is kept.
    """
    if len(points) == 0:
        return points
    order = np.argsort(points[:, 0])
    first = points[order, 0]
    if np.any(first[1:] == first[:-1]):
        keys = tuple(points[:, col] for col in range(points.shape[1] - 1, -1, -1))
        order = np.lexsort(keys)
    return points[order]


@dataclass(frozen=True)
class TransformGrid:
    """Transforms for every (scale, taper) pair; values has shape (|J|, |I|)."""

    scales: np.ndarray
    indices: tuple
    values: np.ndarray
    R: float

    def log_square_sums(self):
        """log sum_i T_j(f_i, R)^2 for each scale j; ZeroTransformSum names
        the first scale where every transform vanished."""
        sq = np.sum(self.values**2, axis=1)
        if np.any(sq == 0.0):
            bad = float(self.scales[int(np.argmax(sq == 0.0))])
            raise ZeroTransformSum(f"all transforms vanished at scale j={bad}")
        return np.log(sq)


@dataclass(frozen=True)
class CurveC:
    """The diagnostic curve C(j) = log(sum_i T_j^2) / log R."""

    grid: np.ndarray
    values: np.ndarray
    R: float


def _taper_sums(pts, mult, idx):
    """Sums over pts of prod_l psi_{idx[t, l]}(s * x_l) for every s in mult.

    pts must be in canonical order; returns shape (len(mult), len(idx)),
    all zeros when pts is empty. Points go in blocks of _SUM_BLOCK and
    scales in chunks of _SCALE_CHUNK.
    Each scale's result depends only on that scale and the blocks, never
    on the chunk it shares, and block results are added in block order.
    Every block and chunk writes its arguments and Hermite tables into two
    buffers allocated once: fresh tables made malloc trim and regrow its heap.
    A pair is skipped when, on some axis, the block's smallest |coordinate|
    times the chunk's smallest multiplier lies past _ZERO_REACH; adding its
    +-0 would leave every sum as it is (a sum is never -0.0).
    """
    n_max, d = int(idx.max()), idx.shape[1]
    out = np.zeros((len(mult), len(idx)))
    full = d * min(len(mult), _SCALE_CHUNK) * min(len(pts), _SUM_BLOCK)
    arg_buf, table_buf = np.empty(full), np.empty((n_max + 1) * full)
    chunk_min = [float(mult[lo:lo + _SCALE_CHUNK].min())
                 for lo in range(0, len(mult), _SCALE_CHUNK)]
    for start in range(0, len(pts), _SUM_BLOCK):
        block = pts[start:start + _SUM_BLOCK]
        # the largest, over axes, of the block's smallest |coordinate|
        min_abs = float(np.abs(block).min(axis=0).max())
        for lo, s_min in zip(range(0, len(mult), _SCALE_CHUNK), chunk_min):
            if min_abs * s_min > _ZERO_REACH:
                continue
            s = mult[lo:lo + _SCALE_CHUNK, None]
            shape, size = (d, len(s), len(block)), d * len(s) * len(block)
            y = np.multiply(s, block.T[:, None, :], out=arg_buf[:size].reshape(shape))
            tables = table_buf[:(n_max + 1) * size].reshape((n_max + 1,) + shape)
            H = hermite_function_values(n_max, y, out=tables)
            G = H[0].sum(axis=1) if d == 1 else \
                np.matmul(H[0].swapaxes(1, 2), H[1])
            out[lo:lo + len(s)] += G[(slice(None), *idx.T)]
    return out


def _check_args(p, J, caller):
    R = p.half_width
    if not R > 1:
        raise DomainError(f"{caller} requires window half-width > 1, got {R}")
    J = np.asarray(J, dtype=np.float64)
    if not np.all(J > 0):
        raise DomainError("all scales must be positive")
    return R, J


def wavelet_transform(p, set_, i, j):
    """T_j(f_i, R) = sum over points of f_i(x / R^j)."""
    R, J = _check_args(p, [j], "wavelet_transform")
    idx = np.asarray([tuple(i)], dtype=np.intp)
    mult = set_.spatial_scale / R**J
    return float(_taper_sums(_canonical_order(p.points), mult, idx)[0, 0])


def transform_grid(p, set_, J):
    """All transforms T_j(f_i, R) for j in J and i in the taper set.

    Per block of 1024 canonically ordered points and chunk of 8 scales,
    each coordinate's Hermite orders 0..i_max-1 are evaluated once and
    combined by one batched matrix product (d=2) or a sum (d=1). The cost
    is at most n * |J| * (d * i_max + i_max^d), less where whole blocks lie
    past the Hermite functions' exact zeros, and linear in |J|; each row of
    the result is the same whatever other scales J holds.
    """
    R, J = _check_args(p, J, "transform_grid")
    idx = np.asarray(set_.indices, dtype=np.intp)
    out = _taper_sums(_canonical_order(p.points), set_.spatial_scale / R**J, idx)
    return TransformGrid(scales=J, indices=set_.indices, values=out, R=R)


def curve_C(p, set_, grid):
    """C(j) on a grid of scales; errors if the squared sum vanishes anywhere."""
    tg = transform_grid(p, set_, grid)
    return CurveC(grid=tg.scales, values=tg.log_square_sums() / np.log(tg.R),
                  R=tg.R)
