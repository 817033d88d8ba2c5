import math

import numpy as np
import pytest

from hyperalpha.covariance import (
    _entries,
    sigma_asymptotic,
    sigma_entry_d2,
    sigma_transient,
)
from hyperalpha.errors import DomainError, Overflow
from hyperalpha.numerics import quad_radial
from hyperalpha.tapers import build_taper_set, hermite_function_values


def phase(i1, i2):
    return -1.0 if ((sum(i2) - sum(i1)) // 2) % 2 else 1.0


def parity_matched(i1, i2):
    return all((a - b) % 2 == 0 for a, b in zip(i1, i2))


def oracle_entry(i1, i2, j1, j2, beta, R):
    """Adaptive polar quadrature of the scaled spectral pairing.

    Substituting u = R^lo k with lo = min(j1, j2) leaves one factor
    unscaled, which keeps the integrand well conditioned for the
    quadrature no matter how far apart the two scales are.
    """
    lo, hi = sorted((j1, j2))
    if j1 <= j2:
        a, b = i1, i2
    else:
        a, b = i2, i1
    ratio = R ** (hi - lo)
    nmax = max(max(i1), max(i2))

    def integrand(k):
        va = hermite_function_values(nmax, k[..., 0])
        vb = hermite_function_values(nmax, ratio * k[..., 0])
        wa = hermite_function_values(nmax, k[..., 1])
        wb = hermite_function_values(nmax, ratio * k[..., 1])
        r = np.sqrt((k ** 2).sum(axis=-1))
        return (va[..., a[0]] * wa[..., a[1]]
                * vb[..., b[0]] * wb[..., b[1]] * r ** beta)

    raw = quad_radial(integrand, 2, tol=1e-11)
    # undo the substitution and add the normalizing scale prefactors of
    # both wavelets plus the transform phase
    pref = R ** (-(2.0 + beta) * lo) * R ** ((2.0 + beta) * (j1 + j2) / 2.0)
    return phase(i1, i2) * pref * raw


def psi_1d(n, u):
    return hermite_function_values(max(n, 1), u)[:, n]


def oracle_entry_d1(i1, i2, j1, j2, beta, R):
    """d = 1 entry by Gauss-Legendre quadrature of the defining integral.

    Same substitution as oracle_entry. Integer orders, not index tuples.
    """
    if (i1 - i2) % 2:
        return 0.0
    lo, hi = sorted((j1, j2))
    a, b = (i1, i2) if j1 <= j2 else (i2, i1)
    ratio = R ** (hi - lo)

    def integrand(u):
        u = np.asarray(u)[:, 0]
        return psi_1d(a, u) * psi_1d(b, ratio * u) * np.abs(u) ** beta

    raw = quad_radial(integrand, 1, tol=1e-11)
    pref = R ** (-(1.0 + beta) * lo) * R ** ((1.0 + beta) * (j1 + j2) / 2.0)
    return phase((i1,), (i2,)) * pref * raw


class TestEntryExactCases:
    def test_beta_zero_diagonal_is_one(self):
        # higher orders lose a digit or two to cancellation in the split
        # sums, hence the graded tolerances
        for i, j, R, tol in (((0, 1), 0.5, 5.0, 1e-12),
                             ((3, 2), 0.8, 40.0, 1e-10),
                             ((9, 8), 1.0, 25.0, 1e-8)):
            assert sigma_entry_d2(i, i, j, j, 0.0, R) == pytest.approx(
                1.0, rel=tol)

    def test_parity_mismatch_is_exact_zero(self):
        cases = (((0, 1), (1, 1)), ((2, 1), (1, 2)), ((0, 1), (0, 2)),
                 ((3, 4), (3, 3)))
        for i1, i2 in cases:
            assert sigma_entry_d2(i1, i2, 0.5, 0.7, 0.8, 20.0) == 0.0

    def test_beta_zero_cross_taper_same_scale_vanishes(self):
        # orthonormality in the spectral pairing once scales coincide
        assert sigma_entry_d2((0, 1), (2, 1), 0.6, 0.6, 0.0, 30.0) == (
            pytest.approx(0.0, abs=1e-12))

    def test_argument_validation(self):
        with pytest.raises(Overflow):
            sigma_entry_d2((33, 0), (33, 0), 0.5, 0.5, 0.0, 10.0)
        with pytest.raises(DomainError):
            sigma_entry_d2((0, 1), (0, 1), 0.5, 0.5, -0.2, 10.0)
        with pytest.raises(DomainError):
            sigma_entry_d2((0, 1), (0, 1), 0.5, 0.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            sigma_entry_d2((0, 1), (0, 1), -0.5, 0.5, 0.0, 10.0)


class TestEntryOracle:
    def test_randomized_entries_match_quadrature(self):
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 8:
            i1 = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            step = (int(rng.integers(-1, 2)) * 2, int(rng.integers(-1, 2)) * 2)
            i2 = (i1[0] + step[0], i1[1] + step[1])
            if min(i2) < 0 or max(i1) + max(i2) == 0:
                continue
            if not (any(c % 2 for c in i1) and any(c % 2 for c in i2)):
                continue
            beta = float(rng.uniform(0.0, 1.6))
            R = float(rng.choice([5.0, 12.0, 40.0]))
            j1 = float(rng.uniform(0.3, 1.0))
            j2 = float(rng.uniform(0.3, 1.0))
            ref = oracle_entry(i1, i2, j1, j2, beta, R)
            got = sigma_entry_d2(i1, i2, j1, j2, beta, R)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-12), (
                i1, i2, j1, j2, beta, R)
            checked += 1

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            i1 = (int(rng.integers(0, 6)), int(rng.integers(1, 6)))
            i2 = (i1[0] + 2, i1[1])
            j1, j2 = rng.uniform(0.3, 1.0, size=2)
            beta = float(rng.uniform(0.0, 1.5))
            a = sigma_entry_d2(i1, i2, float(j1), float(j2), beta, 20.0)
            b = sigma_entry_d2(i2, i1, float(j2), float(j1), beta, 20.0)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-300)

    def test_randomized_d1_entries_match_quadrature(self):
        # The pipeline's d = 1 tapers have odd orders. Even orders only at
        # beta = 0: there the integrand behaves like |u|^beta at u = 0, an
        # endpoint singularity Gauss-Legendre does not resolve within its
        # node budget. R and the scale gap stay where quadrature converges.
        rng = np.random.default_rng(101)
        for _ in range(60):
            i1 = int(rng.integers(0, 10))
            i2 = i1 + 2 * int(rng.integers(-2, 3))
            if not 0 <= i2 <= 9:
                continue
            odd = i1 % 2 == 1
            beta = float(rng.uniform(0.0, 1.7)) if odd and rng.integers(4) else 0.0
            R = float(rng.uniform(5.0, 60.0))
            j1 = float(rng.uniform(0.3, 1.0))
            # equal scales at beta = 0 hit the exact orthogonality zeros
            j2 = j1 if rng.integers(3) == 0 else float(
                np.clip(j1 + rng.uniform(-0.25, 0.25), 0.3, 1.0))
            want = oracle_entry_d1(i1, i2, j1, j2, beta, R)
            got = _entries([(i1,)], [(i2,)], beta, R, [j1], [j2])[0, 0]
            # quadrature's absolute tolerance, carried back through the
            # substitution, is of order R^{(beta+1)|j1-j2|/2}
            scale = max(abs(want), R ** ((beta + 1.0) * abs(j1 - j2) / 2.0))
            assert abs(got - want) <= 1e-8 * scale, (i1, i2, j1, j2, beta, R)

    def test_far_scales_decorrelate(self):
        # pulling the scales apart shrinks the cross entry
        i = (1, 2)
        vals = [abs(sigma_entry_d2(i, i, 0.5, 0.5 + gap, 0.5, 40.0))
                for gap in (0.0, 0.2, 0.45)]
        assert vals[0] > vals[1] > vals[2]


@pytest.fixture(scope="module")
def cov():
    set4 = build_taper_set(2, 4)
    J = np.linspace(0.5, 0.9, 5)
    return set4, J, sigma_transient(set4, J, 0.7, 25.0)


class TestTransientMatrix:

    def test_layout(self, cov):
        set4, J, m = cov
        nI = len(set4.indices)
        assert m.dim == nI * len(J)
        assert m.matrix.shape == (m.dim, m.dim)
        # row index walks tapers fastest within each scale block
        ix, jx = 3, 1
        i1 = set4.indices[ix]
        row = jx * nI + ix
        assert m.index_map[row] == (i1, J[jx])

    def test_exact_symmetry(self, cov):
        _, _, m = cov
        assert np.array_equal(m.matrix, m.matrix.T)

    def test_psd(self, cov):
        _, _, m = cov
        eigs = np.linalg.eigvalsh(m.matrix)
        assert eigs.min() > -1e-8 * eigs.max()

    def test_unit_diagonal_at_beta_zero(self):
        set4 = build_taper_set(2, 4)
        J = np.array([0.5, 0.8])
        m = sigma_transient(set4, J, 0.0, 25.0)
        np.testing.assert_allclose(np.diag(m.matrix), 1.0, rtol=1e-10)

    def test_unit_diagonal_at_beta_zero_full_preset(self, set10):
        # the order-9 tapers sum degree tables with heavy cancellation;
        # the diagonal must stay 1 whatever R and the scales
        for R in (10.0, 30.0, 100.0):
            for J in (np.array([0.5, 0.8]), np.array([0.3, 1.0])):
                m = sigma_transient(set10, J, 0.0, R)
                np.testing.assert_allclose(np.diag(m.matrix), 1.0, rtol=5e-9)

    def test_structural_zero_fraction(self, set10):
        J = np.array([0.5, 0.75, 1.0])
        m = sigma_transient(set10, J, 0.5, 40.0)
        frac = m.structural_zero.mean()
        assert frac >= 0.5
        # structural zeros really are zero
        assert np.all(m.matrix[m.structural_zero] == 0.0)

    def test_entries_match_scalar_function(self):
        set4 = build_taper_set(2, 4)
        J = np.array([0.6, 0.9])
        m = sigma_transient(set4, J, 0.4, 20.0)
        nI = len(set4.indices)
        rng = np.random.default_rng(1)
        for _ in range(12):
            r, c = rng.integers(0, m.dim, size=2)
            (i1, j1), (i2, j2) = m.index_map[r], m.index_map[c]
            assert m.matrix[r, c] == pytest.approx(
                sigma_entry_d2(i1, i2, j1, j2, 0.4, 20.0),
                rel=1e-10, abs=1e-300)

    def test_scale_factor_metadata(self):
        set4 = build_taper_set(2, 4)
        m = sigma_transient(set4, np.array([0.5, 0.8]), 0.7, 25.0)
        assert m.log_scale_factor == pytest.approx(
            (0.7 - 2.0) * math.log(set4.spatial_scale))

    def test_d1_matrix_matches_quadrature(self):
        set_ = build_taper_set(1, 6)
        J = np.array([0.55, 0.7])
        m = sigma_transient(set_, J, 0.59, 40.0)
        assert np.array_equal(m.matrix, m.matrix.T)
        for r in range(m.dim):
            for c in range(r, m.dim):
                (i1, j1), (i2, j2) = m.index_map[r], m.index_map[c]
                want = oracle_entry_d1(i1[0], i2[0], j1, j2, 0.59, 40.0)
                assert m.matrix[r, c] == pytest.approx(
                    want, rel=1e-8, abs=1e-12), (i1, i2, j1, j2)

    def test_validation(self):
        set4 = build_taper_set(2, 4)
        with pytest.raises(DomainError):
            sigma_transient(set4, np.array([0.5, 0.8]), -0.1, 25.0)
        with pytest.raises(DomainError):
            sigma_transient(set4, np.array([0.5, 0.8]), 0.5, 1.0)


class TestAsymptoticMatrix:
    def test_alpha_zero_is_identity(self):
        J = np.linspace(0.4, 0.9, 4)
        for set_ in (build_taper_set(2, 4), build_taper_set(1, 10)):
            m = sigma_asymptotic(set_, J, 0.0)
            np.testing.assert_allclose(m.matrix, np.eye(m.dim), atol=1e-10)

    def test_block_diagonal_replication(self):
        set4 = build_taper_set(2, 4)
        J = np.array([0.5, 0.7, 0.9])
        m = sigma_asymptotic(set4, J, 0.8)
        nI = len(set4.indices)
        block = m.matrix[:nI, :nI]
        for jx in range(1, 3):
            sl = slice(jx * nI, (jx + 1) * nI)
            np.testing.assert_array_equal(m.matrix[sl, sl], block)
        # off-diagonal scale blocks vanish: distinct scales decouple in
        # the limit
        assert np.all(m.matrix[:nI, nI:] == 0.0)

    def test_transient_converges_to_asymptotic(self):
        set4 = build_taper_set(2, 4)
        J = np.array([0.5, 0.75, 1.0])
        alpha = 0.8
        asym = sigma_asymptotic(set4, J, alpha).matrix
        dists = []
        for R in (10.0, 40.0, 160.0):
            tr = sigma_transient(set4, J, alpha, R).matrix
            dists.append(np.linalg.norm(tr - asym))
        assert dists[0] > dists[1] > dists[2]
