import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hyperalpha import inference
from hyperalpha.cli import run_pipeline
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
from hyperalpha.numerics import psd_factor, spawn_seed_sequences, trigamma
from hyperalpha.simulate import cloaked_lattice
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


def dense_Z(cov, plan, count, seed, root):
    """Z through a dense n x n map N = root @ z, from sample_Z's normals.

    Each 4096-draw child seed fills one (4096, n) array at once, in the
    matrix's coordinate order, and the chi-square sums run over the
    (scale, taper) layout of the whole vector.
    """
    nJ, out = len(plan), []
    for child in spawn_seed_sequences(seed, -(-count // 4096)):
        z = np.random.Generator(np.random.Philox(child)).standard_normal(
            (4096, cov.dim))
        x = z @ root.T
        chi = np.sum(x.reshape(4096, nJ, cov.dim // nJ) ** 2, axis=2)
        out.append(np.log(chi) @ plan.weights)
    return np.concatenate(out)[:count]


def dense_root(cov):
    """The symmetric square root of the clipped matrix, from psd_factor's blocks."""
    root = np.zeros((cov.dim, cov.dim))
    for rows, factor, basis in psd_factor(cov.matrix).blocks:
        root[np.ix_(rows, rows)] = factor @ basis.T
    return root


@pytest.fixture(scope="module")
def asymptotic_cov():
    # 3 |J| blocks of 4 (parity class x scale); dimension 600 draws its
    # normals in two 2048-row chunks per child seed
    set4 = build_taper_set(2, 4)
    plan = default_scale_plan(0.5, 0.9, n_scales=50)
    cov = sigma_asymptotic(set4, plan.scales, 0.7)
    assert cov.dim == 600 and not fails_cholesky(cov.matrix)
    return set4, plan, cov


class TestSampleZ:
    @pytest.mark.parametrize("case", ["small_cov", "fallback_cov", "asymptotic_cov"])
    def test_matches_dense_reference(self, case, request):
        # one block at a time and chunked against one dense map of the same
        # normals: whole-matrix Cholesky where it succeeds, the densified
        # square root where it fails. A Cholesky factor's round-off grows
        # with the condition number (4e6 for small_cov, where numpy's
        # Cholesky of one extracted block and of the whole matrix differ by
        # 5e-12), so that bound is 1e-12 or eps x cond, whichever is larger
        _, plan, cov = request.getfixturevalue(case)
        if fails_cholesky(cov.matrix):
            root, rel = dense_root(cov), 1e-12
        else:
            root = np.linalg.cholesky(cov.matrix)
            rel = max(1e-12, np.finfo(float).eps * np.linalg.cond(cov.matrix))
        ref = dense_Z(cov, plan, 5000, 17, root)
        got = sample_Z(cov, plan, 5000, seed=17).values
        assert np.max(np.abs(got - ref)) <= rel * np.abs(ref).max()

    def test_psd_factor_called_exactly_when_cholesky_fails(self, small_cov,
                                                            fallback_cov,
                                                            monkeypatch):
        calls, covs = [], []

        def counted(matrix):
            calls.append(1)
            return psd_factor(matrix)

        def captured(*args):
            covs.append(sigma_transient(*args))
            return covs[-1]

        monkeypatch.setattr(inference, "psd_factor", counted)
        monkeypatch.setattr(inference, "sigma_transient", captured)
        for _, plan, cov in (small_cov, fallback_cov):
            del calls[:]
            sample_Z(cov, plan, 300, seed=0)
            assert len(calls) == fails_cholesky(cov.matrix)
        assert fails_cholesky(fallback_cov[2].matrix)
        # the benchmark's interval smoke call: cloaked R 12, i_max 4,
        # 8 scales, full preset
        del calls[:]
        run_pipeline(cloaked_lattice(1.0, 0.25, 12.0, 1), i_max=4, n_scales=8,
                     ci_level=0.95, ci_draws=256, ci_full=True)
        assert len(covs) == 1 and not fails_cholesky(covs[0].matrix)
        assert calls == []

    def test_peak_memory_full_preset(self):
        # the benchmark's interval covariance (dimension 3750, Cholesky
        # fails); one 4096-draw block once held three 4096 x 3750 arrays
        set10 = build_taper_set(2, 10)
        plan = default_scale_plan(0.73, 0.9692886836023428, 50)
        cov = sigma_transient(set10, plan.scales, 1.130756822160043,
                              40.049968789001575)
        tracemalloc.start()
        try:
            sample_Z(cov, plan, 4096, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6

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
