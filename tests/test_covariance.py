import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import gamma

from hyperalpha import covariance
from hyperalpha.covariance import (
    CovBlockMatrix,
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

    @pytest.mark.parametrize("j1, R, beta, name", [
        (np.inf, 10.0, 0.5, "scales"),
        (0.5, np.inf, 0.5, "R"),
        (0.5, 10.0, np.nan, "beta"),
    ], ids=["inf-scale", "inf-R", "nan-beta"])
    def test_non_finite_input_refused(self, j1, R, beta, name):
        # an infinite scale or R once warned from a product, and beta = NaN
        # was refused as "beta too large"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=name):
                sigma_entry_d2((0, 1), (0, 1), j1, 0.6, beta, R)

    def test_r_one_allowed(self):
        # the asymptotic covariance is the R = 1 evaluation
        assert sigma_entry_d2((0, 1), (0, 1), 0.5, 0.6, 0.5, 1.0) > 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_gamma_matches_scipy(d):
    # the arguments the i_max = 10 tables take: half-integers in the
    # degree tables, (d + beta + L1 + L2) / 2 in the scale kernel
    n = 10
    n_total = 2 * (d * (n - 1) + 1) - 1
    args = [(np.arange(2 * n - 1) + 1) / 2.0, (np.arange(n_total) + d) / 2.0]
    args += [(d + beta + np.arange(n_total)) / 2.0
             for beta in (0.0, 0.37, 1.1308, 2.0, 3.7)]
    for x in args:
        want = gamma(x)
        assert np.all(np.abs(covariance._gamma(x) - want)
                      <= 4 * np.spacing(want)), x


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

    @pytest.mark.parametrize("i_max, pairs", [(10, 500), (4, 17)])
    @pytest.mark.parametrize("build", ["transient", "asymptotic"])
    def test_exact_axis_swap_invariance(self, i_max, pairs, build, monkeypatch):
        # the swap (a, b) -> (b, a) of both tapers leaves the d = 2
        # covariance unchanged; it holds to the last bit, and the entries
        # are computed once per swap orbit of parity-matched taper pairs
        # (975 and 30 pairs in all)
        computed = []

        def counted(i1s, *args):
            computed.append(len(i1s))
            return _entries(i1s, *args)

        monkeypatch.setattr(covariance, "_entries", counted)
        set_ = build_taper_set(2, i_max)
        J = np.linspace(0.5, 0.9, 5)
        if build == "transient":
            m = sigma_transient(set_, J, 0.7, 25.0)
        else:
            m = sigma_asymptotic(set_, J, 0.7)
        p = (np.arange(0, m.dim, len(set_.indices))[:, None]
             + covariance._taper_swap(set_.indices)).ravel()
        assert sorted(m.index_map[r] for r in p) == sorted(m.index_map)
        assert m.index_map[p[1]] == (m.index_map[1][0][::-1], J[0])
        assert np.array_equal(m.matrix[np.ix_(p, p)], m.matrix)
        assert np.array_equal(m.matrix, m.matrix.T)
        assert computed == [pairs]

    def test_no_swap_in_d1(self):
        assert covariance._taper_swap(build_taper_set(1, 6).indices) is None

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

    def test_blocks_are_the_parity_classes(self, cov):
        # one (rows, B) block per parity class, classes in the order of
        # their first taper, rows ascending, B the dense matrix's block,
        # and exact zeros between classes
        set4, J, m = cov
        parity = [tuple(np.asarray(i) % 2) for i in set4.indices]
        first = [rows[0] for rows, _ in m.blocks]
        assert first == [parity.index(p) for p in dict.fromkeys(parity)]
        dense, covered = m.matrix, np.zeros((m.dim, m.dim), dtype=bool)
        for rows, B in m.blocks:
            assert np.all(np.diff(rows) > 0)
            assert len({parity[r % len(parity)] for r in rows}) == 1
            assert np.array_equal(dense[np.ix_(rows, rows)], B)
            covered[np.ix_(rows, rows)] = True
        assert sum(len(rows) for rows, _ in m.blocks) == m.dim
        np.testing.assert_array_equal(covered, ~m.structural_zero)
        assert np.all(dense[~covered] == 0.0)

    def test_dense_matrix_split_into_blocks(self, cov):
        # a matrix given to the constructor is stored as the same blocks;
        # a scaled copy holds the blocks times the factor, bit for bit
        _, _, m = cov
        for c in (1.0, 3.0):
            scaled = dataclasses.replace(m, matrix=m.matrix * c)
            for (rows, B), (got_rows, got) in zip(m.blocks, scaled.blocks,
                                                  strict=True):
                assert np.array_equal(got_rows, rows)
                assert got.tobytes() == (B * c).tobytes()

    def test_dense_matrix_refused(self, cov):
        _, _, m = cov
        with pytest.raises(DomainError, match="shape"):
            dataclasses.replace(m, matrix=m.matrix[:-1, :-1])
        bad = m.matrix.copy()
        r, c = np.argwhere(m.structural_zero)[7]
        bad[r, c] = bad[c, r] = 1e-300
        with pytest.raises(DomainError, match="parity classes"):
            CovBlockMatrix(m.indices, m.scales, matrix=bad)

    def test_blocks_gathered_from_the_tables(self, cov):
        # each class keeps a (taper, slot, taper) table and a |J| x |J| slot
        # map: block entry (j, p; k, q) is table[p, slot[j, k], q]. The
        # blocks are gathered once, on their first read
        set4, J, _ = cov
        m = sigma_transient(set4, J, 0.7, 25.0)
        assert "blocks" not in vars(m)
        nJ = len(J)
        for rows, (table, slot), (got_rows, B) in zip(
                m.class_rows, m.tables, m.blocks, strict=True):
            n = len(table)
            assert np.array_equal(rows, got_rows) and slot.shape == (nJ, nJ)
            want = np.array([[table[p, slot[j, k], q] for k in range(nJ)
                              for q in range(n)] for j in range(nJ)
                             for p in range(n)])
            assert B.tobytes() == want.tobytes()
        assert m.blocks is m.blocks

    def test_slots(self, cov):
        # one slot per distinct scale gap; one per scale pair from a dense
        # matrix; the asymptotic block and a slot of zeros
        set4, J, m = cov
        nJ = len(J)
        for table, slot in m.tables:
            assert table.shape[1] == len(np.unique(J - J[:, None]))
        for table, slot in dataclasses.replace(m, matrix=m.matrix).tables:
            assert table.shape[1] == nJ * nJ
            assert np.array_equal(slot, np.arange(nJ * nJ).reshape(nJ, nJ))
        for table, slot in sigma_asymptotic(set4, J, 0.7).tables:
            assert table.shape[1] == 2 and not np.any(table[:, 1])
            assert np.array_equal(slot, 1 - np.eye(nJ))

    def test_peak_memory_full_preset(self, set10):
        # the three tables of 209 gaps hold 3 MB; the blocks they gather
        # into (37.5 MB) are not built
        J = np.linspace(0.73, 0.97, 50)
        tracemalloc.start()
        try:
            sigma_transient(set10, J, 1.0, 40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_structural_zero_is_derived_not_stored(self):
        # the mask is read from the taper parities on demand, so no n x n
        # array rides along with every covariance; the row layout is read
        # from the stored tapers and scales
        names = {f.name for f in dataclasses.fields(CovBlockMatrix)}
        assert "structural_zero" not in names
        assert "index_map" not in names

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
        # Gamma((2 + 400) / 2) = 200! is past the float range
        with pytest.raises(Overflow, match="beta too large"):
            sigma_transient(set4, np.array([0.5, 0.8]), 400.0, 25.0)

    @pytest.mark.parametrize("J, beta, R, name", [
        ([0.5, np.nan], 0.5, 25.0, "scales"),
        ([0.5, np.inf], 0.5, 25.0, "scales"),
        ([0.5, 0.8], 0.5, np.inf, "R"),
        ([0.5, 0.8], np.nan, 25.0, "beta"),
    ], ids=["nan-scale", "inf-scale", "inf-R", "nan-beta"])
    def test_non_finite_input_refused(self, J, beta, R, name):
        # once a NaN scale warned from logaddexp, an infinite one from a
        # subtraction, R = inf from a product, and beta = NaN was refused
        # as "beta too large"
        with pytest.raises(DomainError, match=name):
            sigma_transient(build_taper_set(2, 4), np.array(J), beta, R)

    def test_uneven_scales_match_scalar_function(self):
        # every distinct gap of unevenly spaced scales is its own column;
        # the assembled blocks still match entry by entry (the upper
        # triangle; the lower one is its exact mirror), and keep their
        # exact symmetry and axis-swap invariance
        set4 = build_taper_set(2, 4)
        J = np.array([0.31, 0.5, 0.52, 0.9, 1.1])
        m = sigma_transient(set4, J, 0.7, 30.0)
        M = m.matrix
        for r in range(m.dim):
            for c in range(r, m.dim):
                (i1, j1), (i2, j2) = m.index_map[r], m.index_map[c]
                assert M[r, c] == pytest.approx(
                    sigma_entry_d2(i1, i2, j1, j2, 0.7, 30.0),
                    rel=1e-10, abs=1e-300), (i1, i2, j1, j2)
        assert np.array_equal(M, M.T)
        assert np.array_equal(M[np.ix_(m.swap, m.swap)], M)

    def test_one_column_per_scale_gap(self, monkeypatch):
        # the scales k / 16 have exact gaps, 2 |J| - 1 of them: one
        # _entries call fills every block
        shapes = []

        def counted(*args):
            out = _entries(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(covariance, "_entries", counted)
        J = np.arange(5, 17) / 16.0
        sigma_transient(build_taper_set(2, 4), J, 0.7, 25.0)
        assert shapes == [(17, 2 * len(J) - 1)]


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
        # the same bytes as scipy's block_diag, signs of zeros included
        one = CovBlockMatrix(set4.indices, np.ones(1), covariance._assemble(
            set4.indices, np.ones(1), 0.8, 1.0)).matrix
        assert m.matrix.tobytes() == block_diag(one, one, one).tobytes()

    def test_structural_zero_is_the_parity_rule(self):
        # the cross-scale blocks vanish in the limit, but only the parity
        # zeros are structural: the mask is the transient one
        set4 = build_taper_set(2, 4)
        J = np.array([0.5, 0.7, 0.9])
        m = sigma_asymptotic(set4, J, 0.8)
        want = sigma_transient(set4, J, 0.8, 25.0).structural_zero
        np.testing.assert_array_equal(m.structural_zero, want)
        assert not np.all(m.structural_zero[m.matrix == 0.0])

    @pytest.mark.parametrize("J, alpha, name", [
        ([0.5, np.nan], 0.8, "scales"),
        ([0.5, 0.8], np.nan, "alpha"),
    ], ids=["nan-scale", "nan-alpha"])
    def test_non_finite_input_refused(self, J, alpha, name):
        # a NaN scale was once accepted silently
        with pytest.raises(DomainError, match=name):
            sigma_asymptotic(build_taper_set(2, 4), np.array(J), alpha)

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
