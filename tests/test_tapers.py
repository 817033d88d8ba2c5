import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hyperalpha.covariance import sigma_entry_d2
from hyperalpha.errors import DomainError
from hyperalpha.numerics import quad_radial
from hyperalpha.tapers import (
    DEFAULT_SUPPORT_EPS,
    EXP_ZERO,
    TaperSet,
    build_taper_set,
    hermite_function_values,
    numerical_support,
    taper_eval,
)


def hermite_1d(n, y):
    return hermite_function_values(n, np.asarray(y))[..., n]


class TestIndexSet:
    def test_default_count(self, set10):
        # i_max^d minus the all-even-block i_max/2 rounded up, per coordinate
        assert len(set10.indices) == 75

    def test_small_2d(self):
        s = build_taper_set(2, 2)
        assert sorted(s.indices) == [(0, 1), (1, 0), (1, 1)]

    def test_1d(self):
        s = build_taper_set(1, 3)
        # odd components only survive in d=1: (1,) and (3,) minus evens
        assert all(max(i) < 3 + 1 for i in s.indices)
        assert (2,) not in s.indices and (0,) not in s.indices

    def test_reduced_counts(self, set4, set5):
        assert len(set4.indices) == 12
        assert len(set5.indices) == 16

    def test_every_index_has_an_odd_component(self, set10):
        # all-even index pairs have nonzero integral and are excluded
        assert all(any(c % 2 == 1 for c in i) for i in set10.indices)

    @pytest.mark.parametrize("d", [1, 2])
    def test_imax_one_is_refused(self, d):
        # {0}^d holds only the all-even index, so the set would be empty
        with pytest.raises(DomainError, match="all-even"):
            build_taper_set(d, 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_imax_above_hermite_orders_is_refused(self, d):
        # 65 is the last i_max with Hermite coefficients; above it the set is
        # refused before anything is allocated (i_max 100000 in 2-D asked
        # np.indices for 149 GiB)
        assert len(build_taper_set(d, 65).indices) == (65**d - 33**d)
        tracemalloc.start()
        try:
            for i_max in (66, 100_000):
                with pytest.raises(DomainError, match="--imax"):
                    build_taper_set(d, i_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHermiteValues:
    def test_ground_state(self):
        y = np.linspace(-3, 3, 7)
        expect = math.pi ** -0.25 * np.exp(-y ** 2 / 2.0)
        np.testing.assert_allclose(hermite_1d(0, y), expect, rtol=1e-13)

    def test_odd_function(self):
        y = np.linspace(0.1, 4.0, 9)
        np.testing.assert_allclose(
            hermite_1d(3, -y), -hermite_1d(3, y), rtol=1e-12)

    def test_orthonormality_1d(self):
        # Gauss-Hermite quadrature integrates the pairwise products
        # exactly; physicists' weight already sits inside the functions
        x, w = np.polynomial.hermite.hermgauss(80)
        vals = hermite_function_values(9, x)  # (80, 10)
        # remove the e^{-x^2} weight the rule assumes: functions carry
        # e^{-x^2/2} each, so the product pair is exactly the rule weight
        gram = (vals * w[:, None] * np.exp(x ** 2)[:, None]).T @ vals
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-8)

    def test_orthonormality_2d_spot(self, set10):
        pairs = [((0, 1), (0, 1)), ((0, 1), (2, 1)), ((1, 1), (1, 1)),
                 ((3, 2), (3, 2)), ((3, 2), (1, 2)), ((5, 4), (5, 4))]
        x, w = np.polynomial.hermite.hermgauss(80)
        corr = np.exp(x ** 2)
        v = hermite_function_values(9, x)
        for a, b in pairs:
            ix = (w * corr * v[:, a[0]]) @ v[:, b[0]]
            iy = (w * corr * v[:, a[1]]) @ v[:, b[1]]
            expect = 1.0 if a == b else 0.0
            assert ix * iy == pytest.approx(expect, abs=1e-8)

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3, 4)])
    def test_out_buffer_is_filled_in_place(self, shape):
        y = np.random.default_rng(len(shape)).normal(0.0, 3.0, shape)
        buf = np.full((10,) + shape, np.nan)
        vals = hermite_function_values(9, y, out=buf)
        assert np.shares_memory(vals, buf)
        assert vals.shape == shape + (10,)
        np.testing.assert_array_equal(vals, hermite_function_values(9, y))

    def test_exp_is_zero_at_and_below_the_cutoff(self):
        below = [EXP_ZERO, np.nextafter(EXP_ZERO, -np.inf), -746.0, -1e300, -np.inf]
        assert np.all(np.exp(np.array(below)) == 0.0)
        # just inside the cutoff exp still gives denormals, which are kept
        assert np.exp(-745.13) > 0.0

    def test_underflow_tail_matches_scalar_recurrence(self):
        # in-range arguments, the denormal band 37.6 < |y| <= 38.6 and
        # arguments past the cutoff, mixed in one vector, against the
        # recurrence evaluated one scalar at a time with exp everywhere
        rng = np.random.default_rng(12)
        y = np.concatenate([rng.uniform(0.0, 37.6, 40), rng.uniform(37.6, 38.6, 40),
                            [38.6039, 38.6040, 38.6056, 38.6058, 39.0, 1e3, 1e150],
                            rng.uniform(38.6, 60.0, 40)])
        y = rng.permutation(np.concatenate([y, -y]))
        n_max = 12
        ref = np.empty((len(y), n_max + 1))
        for k, v in enumerate(y):
            psi = [np.pi ** -0.25 * np.exp((-0.5 * v) * v)]
            psi.append((np.sqrt(2.0) * v) * psi[0])
            for n in range(1, n_max):
                psi.append((np.sqrt(2.0 / (n + 1)) * v) * psi[n]
                           - np.sqrt(n / (n + 1.0)) * psi[n - 1])
            ref[k] = psi
        got = np.ascontiguousarray(hermite_function_values(n_max, y))
        # bit for bit, the signs of zeros included
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.any(ref[:, 0] == 0.0) and np.any((ref[:, 0] > 0) & (ref[:, 0] < 1e-300))

    def test_infinite_and_huge_arguments_give_zeros(self):
        # psi_n(+-inf) = 0 on every order, with no NaN from inf * 0, and
        # -y^2/2 overflowing at 1e200 raises no warning, which the suite's
        # filter would turn into an error; the zeros carry the
        # signs they have at a finite argument past the cutoff, and a NaN
        # argument stays NaN without touching the others
        y = np.array([np.inf, -np.inf, 1e200, -1e200, 1.7e308, -1.7e308, np.nan])
        got = np.ascontiguousarray(hermite_function_values(12, y))
        finite = np.ascontiguousarray(hermite_function_values(12, np.array([1e3, -1e3])))
        assert np.all(got[:-1] == 0.0) and np.all(np.isnan(got[-1]))
        for k in range(0, 6, 2):
            np.testing.assert_array_equal(got[k:k + 2].view(np.int64),
                                          finite.view(np.int64))

    @pytest.mark.parametrize("buf", [np.empty((10, 8)), np.empty((10, 7, 2))[..., 0],
                                     np.empty((10, 7), dtype=np.float32)])
    def test_unusable_out_buffer_is_refused(self, buf):
        # a wrong shape, a strided view (its reshape would be a copy) and
        # another dtype would each leave the values somewhere else
        with pytest.raises(ValueError, match="C-contiguous float64"):
            hermite_function_values(9, np.zeros(7), out=buf)


class TestTaperEval:
    def test_separable_product(self, set10):
        pts = np.array([[0.3, -1.2], [2.0, 0.5]])
        got = taper_eval(set10, (1, 2), pts)
        c = set10.spatial_scale
        expect = hermite_1d(1, c * pts[:, 0]) * hermite_1d(2, c * pts[:, 1])
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_scale_compression(self, set10):
        # the set's spatial scale compresses the argument, so the taper at
        # x equals the unit-scale profile at c*x
        unit = build_taper_set(2, 3, c=1.0)
        x = np.array([[0.1, 0.2]])
        np.testing.assert_allclose(
            taper_eval(set10, (1, 1), x),
            taper_eval(unit, (1, 1), set10.spatial_scale * x), rtol=1e-12)


class TestNumericalSupport:
    def test_grows_with_order(self, set10):
        sig = [numerical_support(set10, i) for i in ((0, 1), (3, 2), (9, 8))]
        assert sig[0] < sig[1] < sig[2]

    def test_machine_eps_support_default_scale(self, set10):
        # order-9 envelope at compression 5 dies out within about 2 units
        val = max(numerical_support(set10, i) for i in set10.indices)
        assert 1.7 <= val <= 2.1

    def test_set_max_support(self, set10):
        assert set10.max_support == pytest.approx(
            max(numerical_support(set10, i, eps=DEFAULT_SUPPORT_EPS)
                for i in set10.indices))

    def test_one_support_value_per_set(self):
        # the j_max rule reads only the largest support, so no per-taper
        # table or threshold is kept
        names = {f.name for f in dataclasses.fields(TaperSet)}
        assert "max_support" in names
        assert not names & {"supports", "support_eps"}

    def test_wider_for_smaller_eps(self, set10):
        i = (5, 2)
        assert numerical_support(set10, i, eps=1e-12) > numerical_support(
            set10, i, eps=1e-2)


class TestSpectralMass:
    """Weighted spectral moments of taper pairs against direct quadrature.

    sigma_entry_d2 at R=1, j1=j2=1 is exactly the integral of
    psi_i1 * psi_i2 * |k|^beta over the plane (both wavelets unscaled), so
    low-order entries double as taper-level moment checks.
    """

    def test_unit_norm_beta_zero(self, set10):
        for i in ((0, 1), (1, 1), (2, 3)):
            assert sigma_entry_d2(i, i, 1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_cross_mass_beta(self, set10):
        # oracle via adaptive polar quadrature of the same integrand
        c = set10.spatial_scale

        def integrand(k, i1, i2, beta):
            v0 = hermite_function_values(max(i1[0], i2[0]), k[..., 0])
            v1 = hermite_function_values(max(i1[1], i2[1]), k[..., 1])
            r = np.sqrt((k ** 2).sum(axis=-1))
            return (v0[..., i1[0]] * v1[..., i1[1]]
                    * v0[..., i2[0]] * v1[..., i2[1]] * r ** beta)

        for i1, i2, beta in (((0, 1), (0, 1), 0.7), ((1, 2), (1, 2), 1.3),
                             ((0, 1), (2, 1), 0.5)):
            ref = quad_radial(lambda k: integrand(k, i1, i2, beta), 2, tol=1e-10)
            # frequency-side pairing carries the transform phase of each
            # taper, a real sign of (-1)^((|i2|-|i1|)/2) once parities match
            phase = -1.0 if ((sum(i2) - sum(i1)) // 2) % 2 else 1.0
            got = sigma_entry_d2(i1, i2, 1.0, 1.0, beta, 1.0)
            assert got == pytest.approx(phase * ref, rel=1e-8, abs=1e-12)


class TestFrequencyLocalization:
    def test_low_frequency_mass_band(self, set10):
        # mass below |k| <= sqrt(2|i|+2)/2 versus above it stays within a
        # moderate band for every index in the default set: the wavelets
        # concentrate near sqrt(2|i|+2) but are not sharply banded
        x, w = np.polynomial.hermite.hermgauss(120)
        corr = np.exp(x ** 2)
        v = hermite_function_values(10, x)
        ratios = []
        for i in ((0, 1), (4, 3), (9, 8)):
            kcut = math.sqrt(2.0 * (i[0] + i[1]) + 2.0) / 2.0
            prod = np.outer(v[:, i[0]] ** 2, v[:, i[1]] ** 2)
            wgt = np.outer(w * corr, w * corr)
            r2 = np.add.outer(x ** 2, x ** 2)
            inside = (wgt * prod)[r2 <= kcut ** 2].sum()
            outside = (wgt * prod)[r2 > kcut ** 2].sum()
            ratios.append(inside / outside)
        assert all(0.05 <= r <= 20.0 for r in ratios)
