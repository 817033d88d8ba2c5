import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperalpha.estimator as est_mod
from hyperalpha.errors import (
    DegenerateScales,
    DomainError,
    EmptyInput,
    EmptyPattern,
    WindowTooSmall,
    ZeroTransformSum,
)
from hyperalpha.estimator import (
    DIAGNOSTIC_GRID,
    EstimateReport,
    ScalePlan,
    calibrate_jmax,
    calibrate_jmax_poisson,
    default_scale_plan,
    estimate_alpha,
    least_squares_weights,
    pooled_estimate,
    select_jmin,
)
from hyperalpha.geometry import PointPattern, Window, normalize_intensity
from hyperalpha.simulate import cloaked_lattice, poisson
from hyperalpha.tapers import build_taper_set
from hyperalpha.transforms import CurveC, TransformGrid, curve_C


class TestWeights:
    def test_two_scales(self):
        plan = least_squares_weights(np.array([0.5, 1.0]))
        np.testing.assert_allclose(plan.weights, [-2.0, 2.0], atol=1e-12)

    def test_three_scales(self):
        # centered regression weights: the middle scale drops out
        plan = least_squares_weights(np.array([0.25, 0.5, 0.75]))
        np.testing.assert_allclose(plan.weights, [-2.0, 0.0, 2.0], atol=1e-12)

    def test_constraints_default_grid(self):
        J = np.linspace(0.4, 0.97, 50)
        w = least_squares_weights(J).weights
        assert abs(w.sum()) < 1e-12
        assert abs(J @ w - 1.0) < 1e-12

    @given(st.floats(min_value=0.05, max_value=0.6),
           st.floats(min_value=0.65, max_value=1.29),
           st.integers(min_value=2, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_constraints_random_grids(self, lo, hi, n):
        J = np.linspace(lo, hi, n)
        w = least_squares_weights(J).weights
        assert abs(w.sum()) < 1e-12
        assert abs(J @ w - 1.0) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateScales):
            least_squares_weights(np.array([0.5, 0.5]))


class TestScalePlan:
    def test_default_plan(self):
        plan = default_scale_plan(0.4, 0.9)
        assert len(plan.scales) == 50
        assert plan.scales[0] == pytest.approx(0.4)
        assert plan.scales[-1] == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(DomainError):
            ScalePlan(scales=np.array([0.5]), weights=np.array([1.0]))
        with pytest.raises(DomainError):
            ScalePlan(scales=np.array([0.9, 0.5]), weights=np.array([-2.0, 2.0]))
        with pytest.raises(DomainError):
            ScalePlan(scales=np.array([0.5, 1.35]), weights=np.array([-2.0, 2.0]))
        with pytest.raises(DomainError):
            ScalePlan(scales=np.array([0.5, 1.0]), weights=np.array([1.0, 2.0]))


def synthetic_grid_stub(exponent_fn):
    """Patch transform_grid so the squared taper sums follow a given law."""

    def stub(p, set_, J):
        J = np.asarray(J, dtype=float)
        R = p.half_width
        vals = np.zeros((len(J), len(set_.indices)))
        vals[:, 0] = np.sqrt(R ** exponent_fn(J))
        return TransformGrid(scales=J, indices=list(set_.indices),
                             values=vals, R=R)

    return stub


@pytest.fixture(scope="module")
def small_set():
    return build_taper_set(2, 2)


class TestExactIdentity:
    @given(st.floats(min_value=-1.0, max_value=2.5),
           st.floats(min_value=0.15, max_value=0.55),
           st.floats(min_value=0.6, max_value=1.2),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_power_law_recovers_alpha(self, small_set, alpha_star, lo, hi, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                est_mod, "transform_grid",
                synthetic_grid_stub(lambda J: (2.0 - alpha_star) * J))
            plan = default_scale_plan(lo, hi, n_scales=n)
            p = PointPattern(np.zeros((3600, 2)), Window(30.0), dim=2)
            rpt = estimate_alpha(p, small_set, plan)
        assert rpt.alpha_hat == pytest.approx(alpha_star, abs=1e-10)

    def test_affine_log_sums(self, monkeypatch, small_set):
        # log_R sums a*j + b: the estimator returns d - a exactly
        a, b = 1.3, -0.7
        monkeypatch.setattr(
            est_mod, "transform_grid",
            synthetic_grid_stub(lambda J: a * J + b))
        plan = default_scale_plan(0.3, 0.9)
        pts = np.zeros((3600, 2))
        p = PointPattern(pts, Window(30.0), dim=2)
        rpt = estimate_alpha(p, small_set, plan)
        assert rpt.alpha_hat == pytest.approx(2.0 - a, abs=1e-10)

    def test_constant_shift_invariance(self, monkeypatch, small_set):
        base = synthetic_grid_stub(lambda J: 1.1 * J)
        shifted = synthetic_grid_stub(lambda J: 1.1 * J + 2.0)
        plan = default_scale_plan(0.3, 0.9)
        p = PointPattern(np.zeros((3600, 2)), Window(30.0), dim=2)
        monkeypatch.setattr(est_mod, "transform_grid", base)
        a1 = estimate_alpha(p, small_set, plan).alpha_hat
        monkeypatch.setattr(est_mod, "transform_grid", shifted)
        a2 = estimate_alpha(p, small_set, plan).alpha_hat
        assert a1 == pytest.approx(a2, abs=1e-12)


# Symmetries of the window [-R, R]^d: in d = 2 a 90 degree rotation, a
# reflection in an axis and the swap of the axes; in d = 1 x -> -x.
SYMMETRIES = {
    2: (lambda x: np.column_stack([-x[:, 1], x[:, 0]]),
        lambda x: x * [-1.0, 1.0],
        lambda x: x[:, ::-1]),
    1: (lambda x: -x,),
}


class TestSymmetryInvariance:
    @given(st.sampled_from(["cloaked", "poisson", "poisson-1d"]),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_window_symmetries(self, model, seed):
        # the taper set is closed under these maps up to the sign of each
        # transform, so sums of squared transforms move by rounding only
        if model == "cloaked":
            p = cloaked_lattice(1.0, 0.25, 15.0, seed)
        else:
            p = poisson(1.0, 15.0, seed, d=1 if model == "poisson-1d" else 2)
        set_ = build_taper_set(p.dim, 10)

        def summary(points):
            norm, _ = normalize_intensity(
                PointPattern(points, p.window, dim=p.dim))
            curve = curve_C(norm, set_, DIAGNOSTIC_GRID)
            j_min = select_jmin(curve, calibrate_jmax(set_, norm.half_width))
            plan = default_scale_plan(0.3, 0.9)
            return estimate_alpha(norm, set_, plan).alpha_hat, curve.values, j_min

        alpha, values, j_min = summary(p.points)
        for move in SYMMETRIES[p.dim]:
            moved_alpha, moved_values, moved_j_min = summary(move(p.points))
            assert abs(moved_alpha - alpha) <= 1e-12
            assert np.abs(moved_values - values).max() <= 1e-12
            assert moved_j_min == j_min


class TestEstimateAlpha:
    def test_empty_pattern(self, small_set):
        # an empty pattern has no estimate, whatever its window
        plan = default_scale_plan(0.3, 0.9)
        for R in (5.0, 1.0):
            p = PointPattern(np.empty((0, 2)), Window(R), dim=2)
            with pytest.raises(EmptyPattern):
                estimate_alpha(p, small_set, plan)

    def test_vanished_sums_name_the_scale(self, small_set):
        # every taper has an odd Hermite factor, exactly zero at the origin,
        # so a unit-intensity pattern with all its points there has no
        # transform at any scale; the first plan scale is named
        p = PointPattern(np.zeros((16, 2)), Window(2.0), dim=2)
        with pytest.raises(ZeroTransformSum, match=r"at scale j=0\.3$"):
            estimate_alpha(p, small_set, default_scale_plan(0.3, 0.9))

    def test_window_too_small(self, small_set):
        p = PointPattern(np.zeros((1, 2)), Window(1.0), dim=2)
        with pytest.raises(WindowTooSmall):
            estimate_alpha(p, small_set, default_scale_plan(0.3, 0.9))

    def test_intensity_warning(self, small_set):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(400, 2))  # intensity 4
        p = PointPattern(pts, Window(5.0), dim=2)
        with pytest.warns(UserWarning):
            estimate_alpha(p, small_set, default_scale_plan(0.3, 0.9))

    def test_poisson_plausible_range(self, set10):
        from hyperalpha.geometry import normalize_intensity
        vals = []
        for rep in range(6):
            p, _ = normalize_intensity(poisson(1.0, 20.0, seed=600 + rep))
            plan = default_scale_plan(0.4, calibrate_jmax(set10, p.half_width))
            vals.append(estimate_alpha(p, set10, plan).alpha_hat)
        assert abs(np.mean(vals)) < 0.6


class TestCalibrateJmax:
    def test_formula(self, set10):
        for R in (25.0, 40.0):
            expect = 1.0 - np.log(set10.max_support) / np.log(R)
            assert calibrate_jmax(set10, R) == pytest.approx(expect, rel=1e-12)

    def test_default_preset_value(self, set10):
        assert calibrate_jmax(set10, 40.0) == pytest.approx(0.969278, abs=2e-4)

    def test_monotone_in_R(self, set10):
        vals = [calibrate_jmax(set10, R) for R in (10.0, 20.0, 40.0, 80.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_clamped_at_one(self):
        # compressed supports below one unit push the raw value above 1
        s = build_taper_set(2, 2, c=20.0)
        assert calibrate_jmax(s, 40.0) == 1.0

    def test_window_too_small(self):
        s = build_taper_set(2, 10, c=0.04)  # supports of order 140
        with pytest.raises(WindowTooSmall):
            calibrate_jmax(s, 40.0)


class TestCalibrateJmaxPoisson:
    def test_quick_agreement(self, set4):
        # reduced preset and few replicates: coarse but within the
        # contract's 0.2 sanity band of the analytic rule at R=25
        got = calibrate_jmax_poisson(set4, 25.0, replicates=8, seed=11)
        ana = calibrate_jmax(set4, 25.0)
        assert got <= 1.3
        assert abs(got - ana) < 0.2

    def test_deterministic(self, set4):
        a = calibrate_jmax_poisson(set4, 25.0, replicates=6, seed=3)
        b = calibrate_jmax_poisson(set4, 25.0, replicates=6, seed=3)
        assert a == b

    def test_replicate_floor(self, set4):
        with pytest.raises(DomainError):
            calibrate_jmax_poisson(set4, 25.0, replicates=3)


def curve_from_values(grid, vals, R=40.0):
    return CurveC(grid=np.asarray(grid, dtype=float),
                  values=np.asarray(vals, dtype=float), R=R)


class TestSelectJmin:
    def test_two_slope_curve(self):
        grid = DIAGNOSTIC_GRID
        brk = 0.6
        vals = np.where(grid < brk, 2.0 * grid, 2.0 * brk + 0.5 * (grid - brk))
        got = select_jmin(curve_from_values(grid, vals), 1.0)
        assert abs(got - brk) <= 0.02 + 1e-9

    def test_linear_curve_falls_back(self):
        grid = DIAGNOSTIC_GRID
        vals = 1.7 * grid + 0.3
        assert select_jmin(curve_from_values(grid, vals), 1.0) == pytest.approx(0.5)

    def test_output_below_jmax(self):
        rng = np.random.default_rng(5)
        grid = DIAGNOSTIC_GRID
        vals = 2.0 * grid + rng.normal(scale=0.05, size=len(grid))
        got = select_jmin(curve_from_values(grid, vals), 0.97)
        assert 0.0 < got < 0.97

    def test_needs_ten_points(self):
        grid = np.linspace(0.2, 0.9, 8)
        with pytest.raises(DomainError):
            select_jmin(curve_from_values(grid, 2.0 * grid), 1.0)


def select_jmin_by_loop(curve, j_max):
    """The knee as one lstsq per breakpoint: select_jmin's oracle."""
    mask = curve.grid <= j_max
    grid, vals = curve.grid[mask], curve.values[mask]
    ones = np.ones_like(grid)

    def rss(design):
        coef = np.linalg.lstsq(design, vals, rcond=None)[0]
        r = vals - design @ coef
        return float(r @ r)

    rss1 = rss(np.column_stack([ones, grid]))
    floor = 1e-14 * max(1.0, float(vals @ vals))
    breaks = grid[2:-2]
    rss2 = np.array([rss(np.column_stack([ones, grid, np.maximum(grid - b, 0.0)]))
                     for b in breaks])
    if rss1 <= floor or rss2.min() > 0.95 * rss1:
        return j_max / 2.0
    return float(breaks[np.argmax(rss2 <= 1.05 * rss2.min())])


class TestSelectJminMatchesLoop:
    """One residualizing solve picks the breakpoint the per-breakpoint fits pick."""

    def test_exact_two_slope_curve(self):
        grid = DIAGNOSTIC_GRID
        vals = np.where(grid < 0.6, 2.0 * grid, 1.2 + 0.5 * (grid - 0.6))
        curve = curve_from_values(grid, vals)
        assert select_jmin(curve, 1.0) == select_jmin_by_loop(curve, 1.0)

    def test_linear_fallback(self):
        curve = curve_from_values(DIAGNOSTIC_GRID, 1.7 * DIAGNOSTIC_GRID + 0.3)
        assert select_jmin(curve, 1.0) == select_jmin_by_loop(curve, 1.0) == 0.5

    def test_noisy_curves(self):
        rng = np.random.default_rng(2024)
        grid = DIAGNOSTIC_GRID
        fallbacks = 0
        for _ in range(200):
            brk = rng.uniform(0.2, 0.9)
            slope2 = rng.uniform(0.0, 2.0)
            vals = np.where(grid < brk, 2.0 * grid, 2.0 * brk + slope2 * (grid - brk))
            vals = vals + rng.normal(scale=10 ** rng.uniform(-4, -1), size=len(grid))
            j_max = rng.uniform(0.3, 1.3)
            curve = curve_from_values(grid, vals)
            got = select_jmin(curve, j_max)
            assert got == select_jmin_by_loop(curve, j_max)
            fallbacks += got == j_max / 2.0
        # both branches are exercised
        assert 0 < fallbacks < 200

    @pytest.mark.parametrize("make, d, R", [
        (lambda R, s: cloaked_lattice(1.0, 0.25, R, s), 2, 20.0),
        (lambda R, s: cloaked_lattice(0.5, 0.25, R, s), 2, 12.0),
        (lambda R, s: poisson(1.0, R, seed=s), 2, 15.0),
        (lambda R, s: poisson(1.0, R, seed=s, d=1), 1, 200.0),
    ], ids=["cloaked-1", "cloaked-0.5", "poisson-2d", "poisson-1d"])
    def test_real_curves(self, make, d, R):
        set_ = build_taper_set(d, 10)
        for seed in (1, 2):
            p, _ = normalize_intensity(make(R, seed))
            curve = curve_C(p, set_, DIAGNOSTIC_GRID)
            j_max = calibrate_jmax(set_, p.half_width)
            assert select_jmin(curve, j_max) == select_jmin_by_loop(curve, j_max)


class TestPoissonKnee:
    """calibrate_jmax_poisson on crafted curves: the last scale before the
    mean curve leaves the slope-d line for good, never inside the anchor."""

    def knee(self, monkeypatch, set4, drop):
        grid = DIAGNOSTIC_GRID
        curve = 2.0 * grid + 0.3 - 0.1 * drop(grid)
        monkeypatch.setattr(est_mod, "poisson_curves",
                            lambda set_, R, replicates, seed:
                            np.tile(curve, (replicates, 1)))
        return calibrate_jmax_poisson(set4, 25.0)

    def test_never_departs(self, monkeypatch, set4):
        assert self.knee(monkeypatch, set4, lambda g: 0.0 * g) == 1.3

    def test_departs_for_good(self, monkeypatch, set4):
        got = self.knee(monkeypatch, set4, lambda g: g > 0.905)
        assert got == pytest.approx(0.90)

    def test_departs_inside_the_anchor(self, monkeypatch, set4):
        # the first scale past the anchor (0.61) is the earliest knee index
        got = self.knee(monkeypatch, set4, lambda g: g > 0.555)
        assert got == pytest.approx(0.60)

    def test_last_departure_counts(self, monkeypatch, set4):
        got = self.knee(monkeypatch, set4,
                        lambda g: ((g > 0.705) & (g < 0.805)) | (g > 1.005))
        assert got == pytest.approx(1.00)


class TestPooled:
    def make_report(self, a):
        return EstimateReport(alpha_hat=a, R=40.0, plan=None, curve=None,
                              n_points=100)

    def test_mean(self):
        rpts = [self.make_report(1.0), self.make_report(3.0)]
        assert pooled_estimate(rpts) == pytest.approx(2.0)

    def test_single(self):
        assert pooled_estimate([self.make_report(0.7)]) == pytest.approx(0.7)

    def test_empty_list(self):
        with pytest.raises(EmptyInput):
            pooled_estimate([])
