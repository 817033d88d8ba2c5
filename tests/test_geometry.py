import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalpha.errors import DomainError, EmptyPattern
from hyperalpha.geometry import (
    PointPattern,
    Window,
    estimate_intensity,
    normalize_intensity,
)


def square_pattern(points, R, dim=2):
    return PointPattern(np.asarray(points, dtype=float), Window(R), dim=dim)


class TestWindow:
    def test_volume(self):
        assert Window(3.0).volume(2) == pytest.approx(36.0)
        assert Window(2.0).volume(1) == pytest.approx(4.0)
        assert Window(1.5).volume(3) == pytest.approx(27.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Window(0.0)
        with pytest.raises(DomainError):
            Window(-1.0)

    @pytest.mark.parametrize("half_width", [np.inf, np.nan])
    def test_rejects_non_finite(self, half_width):
        with pytest.raises(DomainError, match="finite"):
            Window(half_width)


class TestPointPattern:
    def test_basic(self):
        p = square_pattern([[0.0, 0.0], [1.0, -1.0]], 2.0)
        assert len(p) == 2
        assert p.dim == 2
        assert p.half_width == 2.0

    def test_empty_needs_dim(self):
        with pytest.raises(DomainError):
            PointPattern(np.empty((0, 2)), Window(1.0))
        p = PointPattern(np.empty((0, 2)), Window(1.0), dim=2)
        assert len(p) == 0

    def test_rejects_out_of_window(self):
        with pytest.raises(DomainError):
            square_pattern([[3.0, 0.0]], 2.0)

    def test_boundary_is_inside(self):
        p = square_pattern([[2.0, -2.0]], 2.0)
        assert len(p) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.nextafter(2.0, np.inf),
                                     -np.nextafter(2.0, np.inf)])
    @pytest.mark.parametrize("col", [0, 1])
    def test_rejects_nan_or_just_outside(self, bad, col):
        pts = np.array([[0.5, -2.0], [2.0, 1.0], [0.0, 0.0]])
        pts[1, col] = bad
        with pytest.raises(DomainError, match="outside the window"):
            square_pattern(pts, 2.0)
        with pytest.raises(DomainError, match="outside the window"):
            square_pattern(pts[:, col], 2.0, dim=1)

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            PointPattern(np.zeros((3, 2)), Window(1.0), dim=1)


class TestIntensity:
    def test_estimate(self):
        p = square_pattern(np.zeros((36, 2)), 3.0)
        assert estimate_intensity(p) == pytest.approx(1.0)

    def test_normalize_unit_intensity(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, size=(500, 2))
        p = square_pattern(pts, 10.0)
        q, rec = normalize_intensity(p)
        assert estimate_intensity(q) == pytest.approx(1.0, rel=1e-12)
        assert len(q) == len(p)
        assert rec.lambda_hat == pytest.approx(500 / 400.0)
        # scaling factor is lambda^(1/d)
        assert q.half_width == pytest.approx(10.0 * np.sqrt(500 / 400.0))

    def test_normalize_preserves_geometry_shape(self):
        # relative positions only rescale by a common factor
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [4.0, -4.0]])
        p = square_pattern(pts, 5.0)
        q, rec = normalize_intensity(p)
        factor = q.half_width / 5.0
        np.testing.assert_allclose(q.points, pts * factor, rtol=1e-14)

    def test_normalize_empty_raises(self):
        p = PointPattern(np.empty((0, 2)), Window(1.0), dim=2)
        with pytest.raises(EmptyPattern):
            normalize_intensity(p)

    @given(st.integers(min_value=1, max_value=400),
           st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_normalized_intensity_is_one(self, n, R):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-R, R, size=(n, 2))
        q, _ = normalize_intensity(square_pattern(pts, R))
        assert estimate_intensity(q) == pytest.approx(1.0, rel=1e-9)
