"""Point patterns, centered-cube windows, and intensity normalization.

The estimation pipeline assumes unit intensity; `normalize_intensity`
produces the rescaled pattern and keeps the record needed to interpret
results in original units.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyPattern


@dataclass(frozen=True)
class Window:
    """Centered cube [-R, R]^d described by its half-width R."""

    half_width: float

    def __post_init__(self):
        if not 0 < self.half_width < np.inf:
            raise DomainError("window half-width must be positive and finite, "
                              f"got {self.half_width}")

    def volume(self, dim):
        return (2.0 * self.half_width) ** dim


class PointPattern:
    """A finite point set inside a centered cubic window.

    Points are stored as an (n, d) float64 array. Construction verifies
    every point lies inside the window (closed boundary, max-norm) and
    raises DomainError for one that does not. A pattern may be empty (dim
    is then required), but normalization and estimation refuse it.
    """

    def __init__(self, points, window, dim=None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            if dim is None:
                raise DomainError("dim required for an empty pattern")
            pts = pts.reshape(0, dim)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise DomainError("points must be an (n, d) array")
        if dim is not None and pts.shape[1] != dim:
            raise DomainError(f"points have dim {pts.shape[1]}, expected {dim}")
        R = window.half_width
        # column-wise, far faster than row maxima; a NaN propagates and fails
        extent = np.zeros(len(pts))
        for col in pts.T:
            np.maximum(extent, np.abs(col), out=extent)
        inside = extent <= R
        if not inside.all():
            bad = int(np.argmin(inside))
            raise DomainError(
                f"point {pts[bad]} lies outside the window of half-width {R}"
            )
        self.points = pts
        self.window = window
        self.dim = pts.shape[1]

    def __len__(self):
        return len(self.points)

    @property
    def half_width(self):
        return self.window.half_width


@dataclass(frozen=True)
class NormalizationRecord:
    """Intensity estimate of the pattern before rescaling to lambda = 1."""

    lambda_hat: float


def estimate_intensity(p):
    """Point count divided by window volume, n / (2R)^d."""
    return len(p) / p.window.volume(p.dim)


def normalize_intensity(p):
    """Rescale coordinates and window so the empirical intensity is exactly 1.

    Multiplies everything by lambda_hat^(1/d); returns the new pattern and
    the record of what was done.
    """
    if len(p) == 0:
        raise EmptyPattern("cannot normalize an empty pattern")
    lam = estimate_intensity(p)
    scale = lam ** (1.0 / p.dim)
    rescaled = PointPattern(
        p.points * scale, Window(half_width=p.half_width * scale), dim=p.dim
    )
    return rescaled, NormalizationRecord(lambda_hat=lam)
