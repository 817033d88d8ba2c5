import dataclasses
import math

import numpy as np
import pytest

from hyperalpha.covariance import sigma_asymptotic, sigma_transient
from hyperalpha.errors import DomainError
from hyperalpha.estimator import EstimateReport, default_scale_plan
from hyperalpha.inference import (
    ConfidenceInterval,
    ZSample,
    confidence_interval,
    pivot_quantiles,
    quantile,
    sample_Z,
)
from hyperalpha.numerics import trigamma
from hyperalpha.tapers import build_taper_set


@pytest.fixture(scope="module")
def small_cov():
    set4 = build_taper_set(2, 4)
    plan = default_scale_plan(0.5, 0.9, n_scales=5)
    return set4, plan, sigma_transient(set4, plan.scales, 0.7, 25.0)


def fails_cholesky(matrix):
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return True
    return False


@pytest.fixture(scope="module")
def fallback_cov():
    # the coverage command's size: reduced preset, 12 tapers x 25 scales;
    # nearly collinear scales leave round-off negatives, so Cholesky fails
    set4 = build_taper_set(2, 4)
    plan = default_scale_plan(0.36, 0.96, n_scales=25)
    cov = sigma_transient(set4, plan.scales, 0.5, 25.0)
    assert cov.dim == 300 and fails_cholesky(cov.matrix)
    return set4, plan, cov


class TestSampleZ:
    def test_deterministic(self, small_cov):
        _, plan, cov = small_cov
        a = sample_Z(cov, plan, 500, seed=3)
        b = sample_Z(cov, plan, 500, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_Z(cov, plan, 500, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_longer_run_extends_shorter(self, small_cov):
        _, plan, cov = small_cov
        a = sample_Z(cov, plan, 3000, seed=9)
        b = sample_Z(cov, plan, 9000, seed=9)
        np.testing.assert_array_equal(a.values, b.values[:3000])

    def test_scale_invariance_per_draw(self, small_cov):
        # multiplying the covariance by any constant must leave each draw
        # unchanged to near machine precision
        _, plan, cov = small_cov
        base = sample_Z(cov, plan, 2000, seed=5).values
        for c in (7.5, 1e-3, 40.0):
            scaled = dataclasses.replace(cov, matrix=cov.matrix * c)
            got = sample_Z(scaled, plan, 2000, seed=5).values
            assert np.max(np.abs(got - base)) < 1e-10

    def test_scale_invariance_per_draw_on_fallback(self, fallback_cov):
        _, plan, cov = fallback_cov
        base = sample_Z(cov, plan, 2000, seed=5).values
        for c in (7.5, 1e-3, 40.0):
            scaled = dataclasses.replace(cov, matrix=cov.matrix * c)
            assert fails_cholesky(scaled.matrix)
            got = sample_Z(scaled, plan, 2000, seed=5).values
            assert np.max(np.abs(got - base)) < 1e-10

    def test_fallback_matches_dense_eigen_factor(self, fallback_cov):
        # Z through the clipped eigen factor V sqrt(lambda), drawn
        # independently, against sample_Z; at each level p the share of the
        # eigen draws below sample_Z's p-quantile may miss p by 4.5 standard
        # errors of the difference of two empirical CDFs
        _, plan, cov = fallback_cov
        n = 20_000
        lam, vec = np.linalg.eigh(cov.matrix)
        factor = vec * np.sqrt(np.clip(lam, 0.0, None))
        rng = np.random.default_rng(2024)
        x = rng.standard_normal((n, cov.dim)) @ factor.T
        nI = cov.dim // len(plan)
        ref = np.log(np.sum(x.reshape(n, len(plan), nI) ** 2, axis=2)) @ plan.weights
        got = sample_Z(cov, plan, n, seed=7)
        for p in (0.025, 0.5, 0.975):
            share = np.mean(ref < quantile(got, p))
            assert abs(share - p) <= 4.5 * math.sqrt(2.0 * p * (1.0 - p) / n)

    def test_mean_near_zero(self, small_cov):
        # weights sum to zero, so the common log-chi-square location drops
        _, plan, cov = small_cov
        v = sample_Z(cov, plan, 60_000, seed=1).values
        se = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean()) < 5.0 * se

    def test_identity_covariance_log_moments(self):
        # independent scales with identity covariance: Z is a weighted sum
        # of independent log chi-squares with |I| degrees of freedom, so
        # Var Z = sum w^2 * trigamma(|I| / 2)
        set4 = build_taper_set(2, 4)
        nI = len(set4.indices)
        plan = default_scale_plan(0.5, 1.0, n_scales=2)
        cov = sigma_asymptotic(set4, plan.scales, 0.0)  # identity matrix
        v = sample_Z(cov, plan, 100_000, seed=2).values
        expect = float(plan.weights @ plan.weights) * trigamma(nI / 2.0)
        ratio = v.var(ddof=1) / expect
        assert abs(ratio - 1.0) < 0.05

    def test_count_validation(self, small_cov):
        _, plan, cov = small_cov
        with pytest.raises(DomainError):
            sample_Z(cov, plan, 0, seed=0)

    def test_plan_dimension_mismatch(self, small_cov):
        set4, _, cov = small_cov
        bad_plan = default_scale_plan(0.5, 0.9, n_scales=7)
        with pytest.raises(DomainError):
            sample_Z(cov, bad_plan, 100, seed=0)


class TestQuantile:
    def test_hand_check(self):
        zs = ZSample(values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                     beta=0.0, R=10.0, seed=0)
        assert quantile(zs, 0.5) == pytest.approx(3.0)
        assert quantile(zs, 0.0) == pytest.approx(1.0)
        assert quantile(zs, 1.0) == pytest.approx(5.0)
        # linear interpolation between order statistics
        assert quantile(zs, 0.625) == pytest.approx(3.5)

    def test_range_validation(self):
        zs = ZSample(values=np.zeros(4), beta=0.0, R=10.0, seed=0)
        with pytest.raises(DomainError):
            quantile(zs, 1.2)


class TestPivotQuantiles:
    def test_ordered_and_deterministic(self, small_cov):
        set4, plan, _ = small_cov
        q1 = pivot_quantiles(set4, plan, 0.7, 25.0, 0.95, draws=4000, seed=11)
        q2 = pivot_quantiles(set4, plan, 0.7, 25.0, 0.95, draws=4000, seed=11)
        assert q1 == q2
        assert q1[0] < 0.0 < q1[1]

    def test_nested_levels(self, small_cov):
        set4, plan, _ = small_cov
        inner = pivot_quantiles(set4, plan, 0.7, 25.0, 0.90, draws=4000, seed=11)
        outer = pivot_quantiles(set4, plan, 0.7, 25.0, 0.99, draws=4000, seed=11)
        assert outer[0] < inner[0] and inner[1] < outer[1]

    def test_one_ulp_beta_moves_fallback_by_round_off(self, fallback_cov):
        # the step moves the matrix by a few ulps; an eigen or pivoted
        # factor's basis can jump with that, and the quantiles by Monte
        # Carlo noise (0.11 here with the eigen factor)
        set4, plan, _ = fallback_cov
        beta = 0.6918
        nudged = np.nextafter(beta, np.inf)
        a = sigma_transient(set4, plan.scales, beta, 25.0).matrix
        b = sigma_transient(set4, plan.scales, nudged, 25.0).matrix
        assert not np.array_equal(a, b)
        assert fails_cholesky(a) and fails_cholesky(b)
        q = pivot_quantiles(set4, plan, beta, 25.0, 0.95, draws=4096, seed=3)
        q_nudged = pivot_quantiles(set4, plan, nudged, 25.0, 0.95, draws=4096,
                                   seed=3)
        assert np.max(np.abs(np.subtract(q, q_nudged))) < 1e-6

    def test_level_validation(self, small_cov):
        set4, plan, _ = small_cov
        with pytest.raises(DomainError):
            pivot_quantiles(set4, plan, 0.7, 25.0, 1.0, draws=100)


def report_stub(alpha_hat, plan, R=25.0):
    return EstimateReport(
        alpha_hat=alpha_hat, nonempty=True, lambda_hat=1.0, R=R, plan=plan,
        curve=None, n_points=600)


class TestConfidenceInterval:
    def test_empty_report_degenerate(self):
        set4 = build_taper_set(2, 4)
        rpt = EstimateReport(alpha_hat=0.0, nonempty=False, lambda_hat=0.0,
                             R=25.0, plan=None, curve=None, n_points=0)
        ci = confidence_interval(rpt, set4)
        assert (ci.lo, ci.hi) == (0.0, 0.0)
        assert ci.degenerate

    def test_orientation_and_center(self, small_cov):
        set4, plan, _ = small_cov
        rpt = report_stub(0.6, plan)
        ci = confidence_interval(rpt, set4, draws=4000, seed=13, beta=0.6)
        assert ci.lo < ci.hi
        assert ci.lo < 0.6 < ci.hi
        # interval endpoints are the point estimate shifted by the pivot
        # quantiles over log R
        q_lo, q_hi = pivot_quantiles(set4, plan, 0.6, 25.0, 0.95,
                                     draws=4000, seed=13)
        assert ci.lo == pytest.approx(0.6 - q_hi / math.log(25.0))
        assert ci.hi == pytest.approx(0.6 - q_lo / math.log(25.0))

    def test_covers(self):
        ci = ConfidenceInterval(lo=0.2, hi=0.9, level=0.95, alpha_hat=0.5)
        assert ci.covers(0.5)
        assert not ci.covers(1.0)

    def test_beta_defaults_to_alpha_hat_floor(self, small_cov):
        set4, plan, _ = small_cov
        rpt = report_stub(-0.3, plan)
        # negative point estimates clamp the covariance exponent at zero
        ci = confidence_interval(rpt, set4, draws=2000, seed=1)
        ci0 = confidence_interval(rpt, set4, draws=2000, seed=1, beta=0.0)
        assert (ci.lo, ci.hi) == (ci0.lo, ci0.hi)

    def test_missing_plan_raises(self):
        set4 = build_taper_set(2, 4)
        rpt = EstimateReport(alpha_hat=0.5, nonempty=True, lambda_hat=1.0,
                             R=25.0, plan=None, curve=None, n_points=10)
        with pytest.raises(DomainError):
            confidence_interval(rpt, set4, draws=100)
