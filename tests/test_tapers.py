import math

import numpy as np
import pytest

from hyperalpha.covariance import sigma_entry_d2
from hyperalpha.numerics import quad_radial
from hyperalpha.tapers import (
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
            max(numerical_support(set10, i, eps=set10.support_eps)
                for i in set10.indices))

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
