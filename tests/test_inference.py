import dataclasses
import logging
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from hyperalpha import inference
from hyperalpha.cli import run_pipeline
from hyperalpha.covariance import (CovBlockMatrix, gather_block, sigma_asymptotic,
                                   sigma_transient)
from hyperalpha.errors import DomainError
from hyperalpha.estimator import (EstimateReport, default_scale_plan,
                                  least_squares_weights)
from hyperalpha.inference import (
    ConfidenceInterval,
    ZSample,
    confidence_interval,
    cumulant_quantiles,
    pivot_quantiles,
    quantile,
    sample_Z,
)
from hyperalpha.numerics import psd_factor, trigamma
from hyperalpha.simulate import cloaked_lattice, poisson
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
    for child in np.random.SeedSequence(seed).spawn(-(-count // 4096)):
        z = np.random.Generator(np.random.Philox(child)).standard_normal(
            (4096, cov.dim))
        x = z @ root.T
        chi = np.sum(x.reshape(4096, nJ, cov.dim // nJ) ** 2, axis=2)
        out.append(np.log(chi) @ plan.weights)
    return np.concatenate(out)[:count]


def dense_root(blocks):
    """The symmetric square root of the clipped matrix, from psd_factor's blocks."""
    f = psd_factor(blocks)
    root = np.zeros((f.dimension, f.dimension))
    for rows, factor, basis in f.blocks:
        root[np.ix_(rows, rows)] = factor @ basis.T
    return root


@pytest.fixture(scope="module")
def asymptotic_cov():
    # 3 parity class blocks of 200 rows, block diagonal over the 50
    # scales; dimension 600 draws its normals in two 2048-row chunks per
    # child seed
    set4 = build_taper_set(2, 4)
    plan = default_scale_plan(0.5, 0.9, n_scales=50)
    cov = sigma_asymptotic(set4, plan.scales, 0.7)
    assert cov.dim == 600 and not fails_cholesky(cov.matrix)
    return set4, plan, cov


class TestSampleZ:
    @pytest.mark.parametrize("case", ["small_cov", "fallback_cov", "asymptotic_cov"])
    def test_matches_dense_reference(self, case, request):
        # one block at a time and chunked against one dense map of the same
        # normals through the densified square root
        _, plan, cov = request.getfixturevalue(case)
        ref = dense_Z(cov, plan, 5000, 17, dense_root(cov.blocks))
        got = sample_Z(cov, plan, 5000, seed=17).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.abs(ref).max()

    def test_psd_factor_called_once_with_swap(self, small_cov, fallback_cov,
                                              asymptotic_cov, monkeypatch):
        # one factor path for every covariance, positive definite or not
        calls, covs = [], []

        def counted(blocks):
            calls.append(blocks)
            return psd_factor(blocks)

        def captured(*args):
            covs.append(sigma_transient(*args))
            return covs[-1]

        monkeypatch.setattr(inference, "psd_factor", counted)
        monkeypatch.setattr(inference, "sigma_transient", captured)
        for _, plan, cov in (small_cov, fallback_cov, asymptotic_cov):
            del calls[:]
            sample_Z(cov, plan, 300, seed=0)
            assert len(calls) == 1 and calls[0] is cov.blocks
        # the benchmark's interval smoke call: cloaked R 12, i_max 4,
        # 8 scales, full preset; its covariance is positive definite
        del calls[:]
        run_pipeline(cloaked_lattice(1.0, 0.25, 12.0, 1), i_max=4, n_scales=8,
                     ci_level=0.95, ci_draws=256, ci_full=True)
        assert len(covs) == 1 and not fails_cholesky(covs[0].matrix)
        assert len(calls) == 1 and calls[0] is covs[0].blocks

    def test_positive_definite_shift_moves_quantiles_by_round_off(
            self, fallback_cov):
        # a diagonal shift of 1.07e-14 of the largest eigenvalue makes the
        # matrix pass Cholesky; which root samples it must not depend on
        # that (a Cholesky-first sampler moved these quantiles by 0.058)
        _, plan, cov = fallback_cov
        top = np.linalg.eigvalsh(cov.matrix).max()
        shifted = dataclasses.replace(
            cov, matrix=cov.matrix + 1.07e-14 * top * np.eye(cov.dim))
        assert fails_cholesky(cov.matrix) and not fails_cholesky(shifted.matrix)
        a = sample_Z(cov, plan, 4096, seed=3)
        b = sample_Z(shifted, plan, 4096, seed=3)
        for p in (0.025, 0.5, 0.975):
            assert abs(quantile(a, p) - quantile(b, p)) < 1e-6

    def test_peak_memory_full_preset(self):
        # the benchmark's interval covariance (dimension 3750, Cholesky
        # fails), built and sampled: one 4096-draw block once held three
        # 4096 x 3750 arrays, and the covariance was once stored dense,
        # 3750^2 floats (112.5 MB), two thirds of them parity zeros
        set10 = build_taper_set(2, 10)
        plan = default_scale_plan(0.73, 0.9692886836023428, 50)
        tracemalloc.start()
        try:
            cov = sigma_transient(set10, plan.scales, 1.130756822160043,
                                  40.049968789001575)
            sample_Z(cov, plan, 4096, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3750**2 * 8

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

    @pytest.mark.parametrize("case", ["small_cov", "fallback_cov"])
    def test_scale_invariance_per_draw(self, case, request):
        # multiplying the covariance by any constant must leave each draw
        # unchanged to near machine precision
        _, plan, cov = request.getfixturevalue(case)
        base = sample_Z(cov, plan, 2000, seed=5).values
        for c in (7.5, 1e-3, 40.0):
            scaled = dataclasses.replace(cov, matrix=cov.matrix * c)
            got = sample_Z(scaled, plan, 2000, seed=5).values
            assert np.max(np.abs(got - base)) < 1e-10

    def test_fallback_root_continuous_in_matrix(self, fallback_cov):
        # a relative perturbation of 1e-15 per entry, symmetric and with
        # the same zero pattern, may move the square root by round-off only;
        # a pivoted-Cholesky root moved by 1.7e-5 of max |root| here
        _, _, cov = fallback_cov
        e = np.random.default_rng(0).standard_normal(cov.matrix.shape)
        e = 0.5 * (e + e.T)
        root = dense_root(cov.blocks)
        moved = dense_root(dataclasses.replace(
            cov, matrix=cov.matrix * (1.0 + 1e-15 * e)).blocks)
        assert np.max(np.abs(moved - root)) <= 1e-9 * np.abs(root).max()

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
        # refused before the child seeds and the output are allocated
        with pytest.raises(DomainError, match="draws"):
            sample_Z(cov, plan, inference.MAX_CI_DRAWS + 1, seed=0)

    def test_negative_seed_refused(self, small_cov):
        # numpy's SeedSequence would raise a bare ValueError
        _, plan, cov = small_cov
        with pytest.raises(DomainError, match="seed"):
            sample_Z(cov, plan, 10, seed=-1)

    def test_plan_dimension_mismatch(self, small_cov):
        set4, _, cov = small_cov
        bad_plan = default_scale_plan(0.5, 0.9, n_scales=7)
        with pytest.raises(DomainError):
            sample_Z(cov, bad_plan, 100, seed=0)

    @pytest.mark.parametrize("bad_plan", [
        default_scale_plan(0.5, 0.8, n_scales=5),
        default_scale_plan(0.5, 0.9, n_scales=10),
    ], ids=["same-length", "length-divides"])
    def test_plan_must_be_the_covariances(self, small_cov, bad_plan):
        # 12 tapers x 5 scales: another 5-scale plan, or a 10-scale plan
        # that would read the rows as 6 tapers, is not this covariance's
        _, _, cov = small_cov
        with pytest.raises(DomainError, match="scales"):
            sample_Z(cov, bad_plan, 100, seed=0)


class TestAxisSwapFactor:
    # fallback_cov's blocks are (even,odd), (odd,even) and (odd,odd) tapers,
    # 100 rows each; the axis swap maps the first two onto each other, but
    # each block gets its own eigendecomposition

    def test_swapped_blocks_factored_once(self, fallback_cov, eigh_sizes):
        _, plan, cov = fallback_cov
        psd_factor(cov.blocks)
        assert eigh_sizes == [100, 100, 100]
        del eigh_sizes[:]
        sample_Z(cov, plan, 10, seed=0)
        assert eigh_sizes == [100, 100, 100]


class TestQuantile:
    def test_hand_check(self):
        zs = ZSample(values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert quantile(zs, 0.5) == pytest.approx(3.0)
        assert quantile(zs, 0.0) == pytest.approx(1.0)
        assert quantile(zs, 1.0) == pytest.approx(5.0)
        # linear interpolation between order statistics
        assert quantile(zs, 0.625) == pytest.approx(3.5)

    def test_range_validation(self):
        zs = ZSample(values=np.zeros(4))
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

    def test_full_preset_takes_the_cumulant_ends(self, set10, monkeypatch):
        # i_max 10 over 8 scales (min nu_j 66.2): the Cornish-Fisher ends
        # themselves, with no factor and no draws
        plan = default_scale_plan(0.6, 0.97, 8)
        cov = sigma_transient(set10, plan.scales, 1.0, 40.0)
        lo, hi, nu_min, _ = cumulant_quantiles(cov, plan, 0.95)
        assert nu_min >= inference._CF_MIN_DOF
        calls = []
        monkeypatch.setattr(inference, "psd_factor",
                            lambda *a: calls.append("psd_factor"))
        monkeypatch.setattr(inference, "sample_Z",
                            lambda *a: calls.append("sample_Z"))
        got = pivot_quantiles(set10, plan, 1.0, 40.0, 0.95, draws=256, seed=3)
        assert got == (lo, hi) and calls == []

    def test_few_degrees_of_freedom_take_the_sampled_ends(self, small_cov):
        # i_max 4 (nu about 11): the empirical quantiles of sample_Z's
        # draws at the given seed, bit for bit
        set4, plan, cov = small_cov
        zs = sample_Z(cov, plan, 4000, seed=11)
        a = 1.0 - 0.95
        want = quantile(zs, a / 2.0), quantile(zs, 1.0 - a / 2.0)
        assert pivot_quantiles(set4, plan, 0.7, 25.0, 0.95, draws=4000,
                               seed=11) == want


def report_stub(alpha_hat, plan, R=25.0):
    return EstimateReport(alpha_hat=alpha_hat, R=R, plan=plan, curve=None,
                          n_points=600)


class TestConfidenceInterval:
    def test_orientation_and_center(self, small_cov):
        set4, plan, _ = small_cov
        rpt = report_stub(0.6, plan)
        ci = confidence_interval(rpt, set4, draws=4000, seed=13)
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
        q_lo, q_hi = pivot_quantiles(set4, plan, 0.0, 25.0, 0.95, draws=2000,
                                     seed=1)
        log_R = math.log(25.0)
        assert (ci.lo, ci.hi) == (-0.3 - q_hi / log_R, -0.3 - q_lo / log_R)

    def test_missing_plan_raises(self):
        set4 = build_taper_set(2, 4)
        rpt = EstimateReport(alpha_hat=0.5, R=25.0, plan=None, curve=None,
                             n_points=10)
        with pytest.raises(DomainError):
            confidence_interval(rpt, set4, draws=100)

    # the ids keep the "None" of a former beta column, where None meant
    # beta = max(alpha_hat, 0), the only beta the interval now takes
    @pytest.mark.parametrize("alpha_hat, named", [
        (-0.3, "clipped to beta = 0"),
        (2.0, "alpha < d = 2"),
        (0.6, None),
    ], ids=["-0.3-None-clipped to beta = 0", "2.0-None-alpha < d = 2",
            "0.6-None-None"])
    def test_warns_where_the_theory_does_not_apply(self, small_cov, caplog,
                                                   capsys, alpha_hat, named):
        # the interval needs 0 <= alpha < d: a clipped negative estimate
        # or one at or above d logs one warning, and nothing goes to stdout
        set4, plan, _ = small_cov
        with caplog.at_level(logging.WARNING, logger="hyperalpha"):
            confidence_interval(report_stub(alpha_hat, plan), set4, draws=200,
                                seed=1)
        messages = [r.getMessage() for r in caplog.records if r.name == "hyperalpha"]
        assert len(messages) == (named is not None)
        assert named is None or named in messages[0]
        assert capsys.readouterr().out == ""


def dense_cumulants(cov, plan):
    """mu_j, V and 8 tr((AC)^3) from the dense matrix, one scale block at a time."""
    C, nJ = cov.matrix, len(plan)
    nI = cov.dim // nJ
    sub = [[C[j * nI:(j + 1) * nI, k * nI:(k + 1) * nI] for k in range(nJ)]
           for j in range(nJ)]
    mu = np.array([np.trace(sub[j][j]) for j in range(nJ)])
    V = np.array([[2.0 * np.sum(sub[j][k] ** 2) / (mu[j] * mu[k])
                   for k in range(nJ)] for j in range(nJ)])
    AC = np.repeat(plan.weights / mu, nI)[:, None] * C
    return mu, V, 8.0 * np.trace(AC @ AC @ AC)


def per_block_quantiles(cov, plan, level):
    """cumulant_quantiles with one whole (AB)^2 product per parity block.

    No swap is read and no tiles are taken: the reference the swap path
    and the tiles are checked against.
    """
    nJ, w = len(plan), plan.weights
    mu, frob = np.zeros(nJ), np.zeros((nJ, nJ))
    for rows, B in cov.blocks:
        Bs = B.reshape(nJ, len(rows) // nJ, nJ, -1)
        mu += np.einsum("jiji->j", Bs)
        frob += np.einsum("jakb,jakb->jk", Bs, Bs)
    V = 2.0 * frob / np.outer(mu, mu)
    m, s = w @ (np.log(mu) - np.diag(V) / 2.0), np.sqrt(w @ V @ w)
    kappa3 = 0.0
    for rows, B in cov.blocks:
        AB = np.repeat(w / mu, len(rows) // nJ)[:, None] * B
        kappa3 += 8.0 * np.einsum("ij,ji->", AB @ AB, AB)
    skew = kappa3 / s**3
    z = -NormalDist().inv_cdf((1.0 - level) / 2.0)
    shift = skew * (z * z - 1.0) / 6.0
    return (float(m + s * (shift - z)), float(m + s * (shift + z)),
            float(np.min(2.0 / np.diag(V))), float(skew))


class TestCumulantQuantiles:
    @pytest.mark.parametrize("case", ["small_cov", "fallback_cov"])
    def test_matches_dense_cumulants(self, case, request):
        # the block-wise traces, norms and cubes against the dense matrix,
        # with the quantile formula written out
        _, plan, cov = request.getfixturevalue(case)
        mu, V, kappa3 = dense_cumulants(cov, plan)
        w = plan.weights
        m = w @ (np.log(mu) - np.diag(V) / 2.0)
        s = math.sqrt(w @ V @ w)
        skew = kappa3 / s**3
        z = 1.959963984540054  # the 0.975 normal quantile, for level 0.95
        lo, hi, nu_min, got_skew = cumulant_quantiles(cov, plan, 0.95)
        assert got_skew == pytest.approx(skew, rel=1e-10)
        assert nu_min == pytest.approx(np.min(2.0 / np.diag(V)), rel=1e-12)
        for got, sign in ((lo, -1.0), (hi, 1.0)):
            want = m + s * (sign * z + skew * (z * z - 1.0) / 6.0)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999999])
    def test_diagonal_covariance(self, level):
        # independent normals with variances d_ji: scale j's sum has
        # mu_j = sum_i d_ji, V_jj = 2 sum_i d_ji^2 / mu_j^2, V_jk = 0 off the
        # diagonal, and 8 tr((AC)^3) = 8 sum_j (w_j / mu_j)^3 sum_i d_ji^3;
        # unequal spreads across the scales make nu_j and the mean's
        # -V_jj / 2 terms differ, and uneven scales make sum w^3 nonzero
        set4 = build_taper_set(2, 4)
        plan = least_squares_weights(np.array([0.5, 0.6, 1.0]))
        d = 1.0 + np.outer([0.0, 1.0, 4.0], np.arange(12) % 3)
        cov = CovBlockMatrix(indices=set4.indices, scales=plan.scales,
                             matrix=np.diag(d.ravel()))
        w, mu = plan.weights, d.sum(axis=1)
        Vd = 2.0 * np.sum(d**2, axis=1) / mu**2
        m = w @ (np.log(mu) - Vd / 2.0)
        s = math.sqrt(w**2 @ Vd)
        skew = 8.0 * np.sum((w / mu) ** 3 * np.sum(d**3, axis=1)) / s**3
        z = -NormalDist().inv_cdf((1.0 - level) / 2.0)  # the tail to full precision
        lo, hi, nu_min, got_skew = cumulant_quantiles(cov, plan, level)
        assert nu_min == pytest.approx(np.min(2.0 / Vd), rel=1e-12)
        assert got_skew == pytest.approx(skew, rel=1e-12) and abs(skew) > 0.1
        for got, sign in ((lo, -1.0), (hi, 1.0)):
            want = m + s * (sign * z + skew * (z * z - 1.0) / 6.0)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_scales", [5, 50])
    @pytest.mark.parametrize("i_max", [4, 6, 10])
    def test_swap_path_matches_per_block_reference(self, i_max, n_scales):
        # a d = 2 covariance carries its axis swap; the cube then counts the
        # swap-image blocks once each and splits the self-mapped block, and
        # its skew and ends agree with one whole product per block. At
        # beta = 0, and for the asymptotic covariance, the equally spaced
        # scales' antisymmetric weights make kappa3 vanish but for
        # round-off (|skew| below 1e-13), hence the skew's absolute floor
        set_ = build_taper_set(2, i_max)
        plan = default_scale_plan(0.5, 0.95, n_scales=n_scales)
        for beta in (0.0, 0.7, 1.5):
            for cov in (sigma_transient(set_, plan.scales, beta, 25.0),
                        sigma_transient(set_, plan.scales, beta, 40.0),
                        sigma_asymptotic(set_, plan.scales, beta)):
                assert cov.swap is not None
                got = cumulant_quantiles(cov, plan, 0.95)
                want = per_block_quantiles(cov, plan, 0.95)
                assert got[2] == want[2]
                assert got[:2] == pytest.approx(want[:2], rel=1e-13, abs=0.0)
                assert got[3] == pytest.approx(want[3], rel=1e-13, abs=1e-13)

    def test_swap_pieces_at_the_full_preset(self, set10):
        # i_max 10: (odd, even) is the swap image of (even, odd), whose
        # cube counts twice; (odd, odd) maps onto itself with 5 of its 25
        # tapers fixed, so its 1250 rows split into 250 + 500 and 500
        plan = default_scale_plan(0.73, 0.97, n_scales=50)
        cov = sigma_transient(set10, plan.scales, 1.0, 40.0)
        sizes = [(len(rows), X.shape, count)
                 for rows, X, count in inference._cube_pieces(cov)]
        assert sizes == [(1250, (1250, 1250), 2), (750, (750, 750), 1),
                         (500, (500, 500), 1)]

    def test_trace_cube_over_upper_tiles(self):
        # 2.5 row tiles: the diagonal tiles, the tiles right of them counted
        # twice, and a last partial tile, against the dense cube
        rng = np.random.default_rng(3)
        n = 5 * inference._CUBE_TILE // 2
        G = rng.standard_normal((n, n))
        X, a = G + G.T, rng.uniform(0.5, 2.0, n)
        want = np.trace(np.linalg.matrix_power(a[:, None] * X, 3))
        assert inference._trace_cube(a, X) == pytest.approx(want, rel=1e-12)

    def test_constructed_covariance_is_unmarked(self, small_cov):
        # only sigma_transient and sigma_asymptotic mark a covariance: one
        # built from matrix=, or copied by dataclasses.replace, takes the
        # plain per-block cube, so a matrix that is not swap-invariant keeps
        # its own skew
        set4, plan, cov = small_cov
        assert cov.swap is not None
        for other in (CovBlockMatrix(indices=set4.indices, scales=plan.scales,
                                     matrix=cov.matrix),
                      dataclasses.replace(cov, matrix=cov.matrix),
                      dataclasses.replace(cov)):
            assert other.swap is None
            assert [len(rows) for rows, _, _ in inference._cube_pieces(other)] == [
                len(rows) for rows, _ in cov.blocks]
        with pytest.raises(TypeError):
            CovBlockMatrix(indices=set4.indices, scales=plan.scales, swap=cov.swap)

    @pytest.mark.parametrize("n_scales", [6, 25])
    def test_d1_takes_the_per_block_product_bit_for_bit(self, n_scales):
        # d = 1 has no axis swap, and its blocks fit in one row tile, so the
        # cube is the one whole product per block, to the last bit
        set1 = build_taper_set(1, 10)
        plan = default_scale_plan(0.4, 1.0, n_scales=n_scales)
        for beta in (0.0, 0.5):
            cov = sigma_transient(set1, plan.scales, beta, 200.0)
            assert cov.swap is None
            assert max(len(rows) for rows, _ in cov.blocks) <= inference._CUBE_TILE
            assert cumulant_quantiles(cov, plan, 0.95)[3] == (
                per_block_quantiles(cov, plan, 0.95)[3])

    def test_peak_memory_full_preset(self, set10):
        # 3 blocks of 1250 rows (37.5 MB, built before tracing starts): AB
        # (12.5 MB) and one row tile of (AB)^2 fit in 20 MB, a whole second
        # (AB)^2 next to AB (25 MB) does not
        plan = default_scale_plan(0.73, 0.97, n_scales=50)
        cov = sigma_transient(set10, plan.scales, 1.0, 40.0)
        tracemalloc.start()
        try:
            cumulant_quantiles(cov, plan, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    def test_pivot_quantiles_peak_memory_full_preset(self, set10):
        # the cumulant branch from start to end: the tables (3 MB), the
        # largest kappa3 piece (12.5 MB) and one row tile of its square;
        # the blocks (37.5 MB) are never built
        plan = default_scale_plan(0.73, 0.97, n_scales=50)
        tracemalloc.start()
        try:
            pivot_quantiles(set10, plan, 1.0, 40.0, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25e6

    def test_cumulant_branch_gathers_each_piece_once(self, set10, monkeypatch):
        # on the full preset's cumulant branch the blocks are never built:
        # the (even, odd) class is gathered once, its (odd, even) image
        # never, and the (odd, odd) class's parts from its table
        covs, gathered = [], []

        def captured(*args):
            covs.append(sigma_transient(*args))
            return covs[-1]

        def counted(table, slot):
            gathered.append(table)
            return gather_block(table, slot)

        monkeypatch.setattr(inference, "sigma_transient", captured)
        monkeypatch.setattr(inference, "gather_block", counted)
        plan = default_scale_plan(0.73, 0.97, n_scales=50)
        pivot_quantiles(set10, plan, 1.0, 40.0, 0.95)
        (cov,) = covs
        assert "blocks" not in vars(cov)
        parity = {tuple(np.asarray(cov.indices[rows[0]]) % 2): table
                  for rows, (table, _) in zip(cov.class_rows, cov.tables)}
        whole = [next(p for p, t in parity.items() if t is table)
                 for table in gathered if any(table is t for t in parity.values())]
        assert whole == [(0, 1)]
        # the (odd, odd) parts: four sub-tables of the even part, one odd
        assert [(len(t), t.shape[2]) for t in gathered[1:]] == [
            (5, 5), (5, 10), (10, 5), (10, 10), (10, 10)]

    def test_validation(self, small_cov):
        _, plan, cov = small_cov
        for level in (0.0, 1.0):
            with pytest.raises(DomainError):
                cumulant_quantiles(cov, plan, level)
        with pytest.raises(DomainError, match="scales"):
            cumulant_quantiles(cov, default_scale_plan(0.5, 0.8, n_scales=5), 0.95)

    @pytest.mark.parametrize("R", [25.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_within_monte_carlo_band(self, set10, alpha, R):
        # the gate, grid and bound fixed in advance: full d = 2 preset
        # (i_max 10) over 8 scales from the knee, beta the true exponent;
        # every scale has at least _CF_MIN_DOF degrees of freedom, and each
        # end lies in the order-statistic band k +- 4 sqrt(n q (1 - q)) of
        # 2^14 draws
        report, _ = run_pipeline(cloaked_lattice(alpha, 0.25, R, 1), n_scales=8)
        cov = sigma_transient(set10, report.plan.scales, alpha, report.R)
        lo, hi, nu_min, _ = cumulant_quantiles(cov, report.plan, 0.95)
        assert nu_min >= inference._CF_MIN_DOF
        values = np.sort(sample_Z(cov, report.plan, 2**14, seed=7).values)
        n = len(values)
        for q, end in ((0.025, lo), (0.975, hi)):
            half = 4.0 * math.sqrt(n * q * (1.0 - q))
            band = values[math.floor(n * q - half)], values[math.ceil(n * q + half)]
            assert band[0] <= end <= band[1]


class TestQuantileDispatch:
    def test_full_preset_needs_no_factor_and_no_draws(self, set10, monkeypatch):
        # the benchmark's interval covariance (min nu_j 64.5): the ends come
        # from the cumulants, read from the blocks, and depend on neither
        # the seed nor the draw count
        calls = []
        monkeypatch.setattr(inference, "psd_factor",
                            lambda *a: calls.append("psd_factor"))
        monkeypatch.setattr(inference, "sample_Z",
                            lambda *a: calls.append("sample_Z"))
        monkeypatch.setattr(CovBlockMatrix, "matrix", property(
            lambda self: calls.append("matrix")))
        plan = default_scale_plan(0.73, 0.9692886836023428, 50)
        rpt = report_stub(1.130756822160043, plan, R=40.049968789001575)
        ends = {(ci.lo, ci.hi) for seed, draws in ((0, 256), (5, 256), (0, 20_000))
                for ci in [confidence_interval(rpt, set10, draws=draws, seed=seed)]}
        assert calls == [] and len(ends) == 1

    @pytest.mark.parametrize("case", ["imax4", "reduced", "d1", "imax9"])
    def test_few_degrees_of_freedom_sample(self, case, monkeypatch):
        # below _CF_MIN_DOF (nu about 11 at i_max 4 and the reduced preset,
        # 5 in d = 1, 49.7 at i_max 9) the interval is Monte Carlo's, with
        # the given draws and seed
        calls = []

        def counted(cov, plan, count, seed):
            calls.append((count, seed))
            return sample_Z(cov, plan, count, seed)

        monkeypatch.setattr(inference, "sample_Z", counted)
        kwargs = {"imax4": dict(i_max=4, n_scales=8, ci_full=True),
                  "imax9": dict(i_max=9, n_scales=8, ci_full=True),
                  "reduced": {}, "d1": {}}[case]
        pattern = (poisson(1.0, 50.0, 1, d=1) if case == "d1"
                   else cloaked_lattice(1.0, 0.25, 12.0, 1))
        run_pipeline(pattern, ci_level=0.95, ci_draws=300, seed=3, **kwargs)
        assert calls == [(300, 3)]
