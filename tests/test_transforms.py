import numpy as np
import pytest

from hyperalpha.cli import write_csv
from hyperalpha.errors import DomainError, ZeroTransformSum
from hyperalpha.geometry import PointPattern, Window
from hyperalpha.simulate import poisson
from hyperalpha.tapers import (
    build_taper_set,
    hermite_function_values,
    taper_eval,
)
from hyperalpha import transforms
from hyperalpha.transforms import (
    _canonical_order,
    curve_C,
    transform_grid,
    wavelet_transform,
)


def pat(points, R):
    return PointPattern(np.asarray(points, dtype=float), Window(R), dim=2)


class TestWaveletTransform:
    def test_matches_direct_sum(self, set10):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-8, 8, size=(200, 2))
        p = pat(pts, 8.0)
        for i, j in (((0, 1), 0.5), ((3, 2), 0.8)):
            direct = taper_eval(set10, i, pts / 8.0 ** j).sum()
            assert wavelet_transform(p, set10, i, j) == pytest.approx(
                direct, rel=1e-10)

    def test_additive_over_points(self, set10):
        rng = np.random.default_rng(3)
        a = rng.uniform(-5, 5, size=(50, 2))
        b = rng.uniform(-5, 5, size=(70, 2))
        t_ab = wavelet_transform(pat(np.vstack([a, b]), 5.0), set10, (1, 1), 0.6)
        t_a = wavelet_transform(pat(a, 5.0), set10, (1, 1), 0.6)
        t_b = wavelet_transform(pat(b, 5.0), set10, (1, 1), 0.6)
        assert t_ab == pytest.approx(t_a + t_b, rel=1e-10)

    def test_empty_pattern_is_zero(self, set10):
        p = PointPattern(np.empty((0, 2)), Window(4.0), dim=2)
        assert wavelet_transform(p, set10, (0, 1), 0.5) == 0.0

    def test_window_too_small(self, set10):
        p = pat([[0.0, 0.0]], 1.0)
        with pytest.raises(DomainError):
            wavelet_transform(p, set10, (0, 1), 0.5)

    def test_scale_must_be_positive(self, set10):
        p = pat([[0.0, 0.0]], 4.0)
        with pytest.raises(DomainError):
            wavelet_transform(p, set10, (0, 1), 0.0)

    def test_permutation_bit_identity(self, set10):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-6, 6, size=(1500, 2))
        p1 = pat(pts, 6.0)
        p2 = pat(pts[rng.permutation(1500)], 6.0)
        for i, j in (((0, 1), 0.4), ((5, 4), 0.9)):
            assert wavelet_transform(p1, set10, i, j) == wavelet_transform(
                p2, set10, i, j)


class TestTransformGrid:
    def test_consistent_with_scalar_calls(self, set10):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-7, 7, size=(300, 2))
        p = pat(pts, 7.0)
        J = np.array([0.3, 0.6, 0.9])
        g = transform_grid(p, set10, J)
        assert g.values.shape == (3, len(set10.indices))
        for jx, j in enumerate(J):
            for i in ((0, 1), (2, 3), (9, 8)):
                assert g.values[jx, set10.indices.index(i)] == pytest.approx(
                    wavelet_transform(p, set10, i, j), rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_direct_taper_sum(self, d):
        # independent oracle: pointwise taper values summed over the points;
        # 2500 points leave a partial last block, 10 scales a partial chunk
        set_ = build_taper_set(d, 10)
        R = 25.0
        pts = np.random.default_rng(10 + d).uniform(-R, R, size=(2500, d))
        p = PointPattern(pts, Window(R), dim=d)
        J = np.linspace(0.2, 1.1, 10)
        g = transform_grid(p, set_, J)
        for jx, j in enumerate(J):
            direct = np.array([taper_eval(set_, i, pts / R ** j).sum()
                               for i in set_.indices])
            scale = np.abs(direct).max()
            assert np.abs(g.values[jx] - direct).max() <= 1e-12 * scale
            # batching scales never changes a row, not even in the last bit
            np.testing.assert_array_equal(
                g.values[jx], transform_grid(p, set_, J[jx:jx + 1]).values[0])

    @staticmethod
    def per_axis_kernel(pts, mult, idx):
        # the kernel with a fresh Hermite table per axis, block and chunk
        n_max = int(idx.max())
        out = np.zeros((len(mult), len(idx)))
        for start in range(0, len(pts), 1024):
            block = pts[start:start + 1024]
            for lo in range(0, len(mult), 8):
                s = mult[lo:lo + 8, None]
                H = [hermite_function_values(n_max, s * block[:, l])
                     for l in range(idx.shape[1])]
                G = H[0].sum(axis=1) if len(H) == 1 else \
                    np.matmul(H[0].swapaxes(1, 2), H[1])
                out[lo:lo + len(s)] += G[(slice(None), *idx.T)]
        return out

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 1000, 2500, 3000])
    @pytest.mark.parametrize("n_scales", [1, 10, 17])
    def test_reused_tables_match_per_axis_kernel(self, d, n, n_scales,
                                                 monkeypatch):
        # whole and partial blocks of points and chunks of scales all land
        # in leading slices of the reused buffers, bit for bit; at n = 3000
        # a wide window and small scales put the outer two blocks past the
        # Hermite functions' exact zeros at every scale, so the kernel skips
        # those (block, chunk) pairs and evaluates the middle block's
        set_ = build_taper_set(d, 10)
        R, J = (60.0, np.linspace(0.05, 0.2, n_scales)) if n == 3000 else \
            (20.0, np.linspace(0.1, 1.2, n_scales))
        pts = np.random.default_rng(100 * d + n).uniform(-R, R, size=(n, d))
        p = PointPattern(pts, Window(R), dim=d)
        ref = self.per_axis_kernel(
            p.points[np.lexsort(p.points.T[::-1])],
            set_.spatial_scale / R ** J,
            np.asarray(set_.indices, dtype=np.intp))
        calls = []
        evaluate = transforms.hermite_function_values
        monkeypatch.setattr(transforms, "hermite_function_values",
                            lambda *a, **k: calls.append(1) or evaluate(*a, **k))
        np.testing.assert_array_equal(transform_grid(p, set_, J).values, ref)
        if n == 3000:
            # one table per evaluated pair: the middle block's chunks
            assert len(calls) == -(-n_scales // 8)

    def test_denormal_band_is_summed_not_skipped(self):
        # every first coordinate lies just inside the zero reach, |y| in
        # (38.5, 38.6), where the Hermite values are denormal: the block is
        # evaluated, and its sums keep those values
        set_ = build_taper_set(2, 4)
        R, J = 60.0, np.array([0.5])
        mult = set_.spatial_scale / R ** J
        pts = np.column_stack([np.linspace(38.5, 38.6, 50) / mult[0], np.zeros(50)])
        values = transform_grid(PointPattern(pts, Window(R), dim=2), set_, J).values
        ref = self.per_axis_kernel(pts, mult, np.asarray(set_.indices, dtype=np.intp))
        np.testing.assert_array_equal(values, ref)
        assert np.any(values != 0.0) and np.all(np.abs(values) < 1e-300)

    def test_permutation_bit_identity(self, set10):
        rng = np.random.default_rng(6)
        # whole and partial last blocks of 1024 points, in d=2 and d=1; on
        # a 0.5 grid first coordinates tie, -0.0 against 0.0 included
        for d, n, tied in ((2, 2048, False), (2, 2500, False), (1, 2048, False),
                           (1, 2500, False), (2, 2500, True), (1, 2500, True)):
            set_ = set10 if d == 2 else build_taper_set(1, 10)
            if tied:
                pts = rng.integers(-12, 13, size=(n, d)) * 0.5
                pts[::7, 0] *= -1.0
            else:
                pts = rng.uniform(-6, 6, size=(n, d))
            # the canonical order is lexicographic, ties kept in input order
            np.testing.assert_array_equal(
                np.signbit(_canonical_order(pts)),
                np.signbit(pts[np.lexsort(pts.T[::-1])]))
            np.testing.assert_array_equal(_canonical_order(pts),
                                          pts[np.lexsort(pts.T[::-1])])
            J = np.array([0.5, 1.0])
            g1 = transform_grid(PointPattern(pts, Window(6.0), dim=d), set_, J)
            g2 = transform_grid(PointPattern(pts[::-1], Window(6.0), dim=d),
                                set_, J)
            np.testing.assert_array_equal(g1.values, g2.values)


class TestCurveC:
    def test_definition(self, set10):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-9, 9, size=(400, 2))
        p = pat(pts, 9.0)
        grid = np.array([0.4, 0.8])
        cv = curve_C(p, set10, grid)
        g = transform_grid(p, set10, grid)
        expect = np.log((g.values ** 2).sum(axis=1)) / np.log(9.0)
        np.testing.assert_allclose(cv.values, expect, rtol=1e-12)

    def test_zero_sum_raises_empty(self, set10):
        p = PointPattern(np.empty((0, 2)), Window(4.0), dim=2)
        with pytest.raises(ZeroTransformSum):
            curve_C(p, set10, np.array([0.5]))

    def test_zero_sum_raises_underflow(self, set10):
        # a single point so deep in the Gaussian tail that every taper
        # value underflows to exactly zero
        p = pat([[40.0, 40.0]], 41.0)
        with pytest.raises(ZeroTransformSum):
            curve_C(p, set10, np.array([1e-4]))

    def test_csv_roundtrip(self, set10, tmp_path):
        rng = np.random.default_rng(8)
        p = pat(rng.uniform(-5, 5, size=(100, 2)), 5.0)
        cv = curve_C(p, set10, np.array([0.5, 0.7]))
        out = tmp_path / "curve.csv"
        write_csv(out, np.column_stack([cv.grid, cv.values]), header="j,C")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,C"
        # repr floats read back bit for bit
        back = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(back[:, 0], [0.5, 0.7])
        np.testing.assert_array_equal(back[:, 1], cv.values)


class TestPoissonMoments:
    def test_second_moment_matches_window_integral(self, set10):
        # for unit-intensity Poisson input the transform variance equals
        # the window integral of the squared taper at that scale
        R, j, i = 12.0, 0.5, (0, 1)
        n_gl = 200
        x, w = np.polynomial.legendre.leggauss(n_gl)
        xs, ws = R * x, R * w
        from hyperalpha.tapers import hermite_function_values
        y = (set10.spatial_scale / R ** j) * xs
        g0 = hermite_function_values(1, y)
        ref = (ws @ g0[:, i[0]] ** 2) * (ws @ g0[:, i[1]] ** 2)
        vals = [wavelet_transform(poisson(1.0, R, seed=900 + k), set10, i, j)
                for k in range(600)]
        v = np.var(vals, ddof=1)
        se = v * np.sqrt(2.0 / 599.0)
        assert abs(v - ref) < 5.0 * se

    def test_mean_is_near_zero(self, set10):
        # zero-integral tapers kill the first moment
        vals = [wavelet_transform(poisson(1.0, 12.0, seed=2000 + k),
                                  set10, (1, 2), 0.6) for k in range(400)]
        m = np.mean(vals)
        se = np.std(vals, ddof=1) / np.sqrt(400)
        assert abs(m) < 5.0 * se + 1e-12
