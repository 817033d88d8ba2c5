import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalpha import numerics
from hyperalpha.errors import DomainError, NoConvergence, NotPsd, Overflow
from hyperalpha.numerics import (
    angular_moment,
    hermite_coeffs,
    make_rng,
    psd_factor,
    quad_radial,
    trigamma,
)

# Reference values below were frozen from 30-digit arbitrary-precision
# evaluations, independent of the library code paths under test.
TRIGAMMA_75 = 0.01342261726990576130858
TRIGAMMA_6 = 0.1813229557371153253613


class TestTrigamma:
    def test_basel_value(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)

    def test_frozen_values(self):
        assert trigamma(75.0) == pytest.approx(TRIGAMMA_75, rel=1e-13)
        assert trigamma(6.0) == pytest.approx(TRIGAMMA_6, rel=1e-13)

    def test_recurrence_exact(self):
        # psi1(x+1) = psi1(x) - 1/x^2
        for x in (1.0, 2.25, 7.0, 37.5, 74.0):
            lhs = trigamma(x + 1.0)
            rhs = trigamma(x) - 1.0 / x ** 2
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)

    def test_monotone_decreasing(self):
        xs = np.linspace(1.0, 80.0, 40)
        vals = [trigamma(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_below_one(self):
        with pytest.raises(DomainError):
            trigamma(0.5)
        with pytest.raises(DomainError):
            trigamma(float("nan"))

    def test_matches_scipy_polygamma(self):
        # recurrence and asymptotic series against scipy on a fixed grid
        # over [1, 1e6], half-integers (|I| / 2) included: at most 4 ulp
        from scipy.special import polygamma
        grid = np.concatenate([np.arange(1.0, 40.0, 0.5), np.linspace(1.0, 20.0, 191),
                               np.geomspace(1.0, 1e6, 241)])
        for x in grid:
            ref = float(polygamma(1, x))
            assert abs(trigamma(x) - ref) <= 4 * np.spacing(ref), x


class TestAngularMoment:
    def test_exact_low_orders(self):
        assert angular_moment(0, 0) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert angular_moment(2, 0) == pytest.approx(math.pi, rel=1e-14)
        assert angular_moment(0, 2) == pytest.approx(math.pi, rel=1e-14)
        assert angular_moment(2, 2) == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert angular_moment(4, 2) == pytest.approx(math.pi / 8.0, rel=1e-14)
        assert angular_moment(6, 4) == pytest.approx(3.0 * math.pi / 128.0, rel=1e-13)
        assert angular_moment(8, 8) == pytest.approx(35.0 * math.pi / 16384.0, rel=1e-13)

    def test_odd_orders_vanish(self):
        for p, q in ((1, 0), (0, 3), (3, 2), (2, 5), (7, 7)):
            assert angular_moment(p, q) == 0.0

    def test_against_quadrature(self):
        t = np.linspace(0.0, 2.0 * np.pi, 20001)
        for p, q in ((0, 0), (2, 4), (6, 2), (10, 8), (12, 0)):
            ref = np.trapezoid(np.cos(t) ** p * np.sin(t) ** q, t)
            assert angular_moment(p, q) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_symmetry(self):
        for p, q in ((2, 4), (6, 2), (8, 0)):
            assert angular_moment(p, q) == pytest.approx(
                angular_moment(q, p), rel=1e-14)


class TestHermiteCoeffs:
    def test_first_three_orders_exact(self):
        n0 = math.pi ** -0.25
        c0 = [float(v) for v in hermite_coeffs(0)]
        np.testing.assert_allclose(c0, [n0], rtol=1e-14)
        c1 = [float(v) for v in hermite_coeffs(1)]
        np.testing.assert_allclose(c1, [0.0, math.sqrt(2.0) * n0], rtol=1e-14)
        c2 = [float(v) for v in hermite_coeffs(2)]
        np.testing.assert_allclose(
            c2, [-n0 / math.sqrt(2.0), 0.0, math.sqrt(2.0) * n0],
            rtol=1e-13, atol=1e-16)

    def test_parity_zeros(self):
        for n in (3, 6, 9, 14):
            c = hermite_coeffs(n)
            # degrees of the opposite parity carry exactly zero weight
            assert all(c[m] == 0.0 for m in range((n + 1) % 2, n + 1, 2))

    def test_matches_recurrence_evaluation(self):
        # evaluate the polynomial from its coefficients and compare with the
        # direct three-term recurrence for normalized Hermite polynomials
        y = np.linspace(-4.0, 4.0, 41)
        for n in (0, 1, 2, 5, 9, 16):
            c = [float(v) for v in hermite_coeffs(n)]
            poly = sum(c[m] * y ** m for m in range(n + 1))
            h_prev = np.full_like(y, math.pi ** -0.25)
            h = y * math.sqrt(2.0) * math.pi ** -0.25
            if n == 0:
                direct = h_prev
            else:
                for k in range(2, n + 1):
                    h, h_prev = (
                        math.sqrt(2.0 / k) * y * h
                        - math.sqrt((k - 1.0) / k) * h_prev,
                        h,
                    )
                direct = h
            np.testing.assert_allclose(poly, direct, rtol=1e-10, atol=1e-10)

    def test_matches_explicit_sum_to_40_digits(self):
        # H_n = n! sum_k (-1)^k (2y)^(n-2k) / (k! (n-2k)!), normalized by
        # sqrt(2^n n! sqrt(pi)), evaluated in 40-digit decimal arithmetic
        with localcontext() as ctx:
            ctx.prec = 40
            sqrt_pi = Decimal(
                "3.141592653589793238462643383279502884197169").sqrt()
            for n in range(65):
                c = hermite_coeffs(n)
                norm = (Decimal(2 ** n * math.factorial(n)) * sqrt_pi).sqrt()
                for k in range(n // 2 + 1):
                    m = n - 2 * k
                    exact = Decimal((-1) ** k * 2 ** m * math.factorial(n)
                                    // (math.factorial(k) * math.factorial(m))) / norm
                    assert abs((Decimal(c[m]) - exact) / exact) <= Decimal("1e-15")

    def test_order_cap(self):
        with pytest.raises(Overflow):
            hermite_coeffs(65)


class TestQuadRadial:
    def test_gaussian_norm_2d(self):
        # int_{R^2} pi^-1 exp(-|k|^2) dk = 1
        val = quad_radial(lambda k: np.exp(-(k ** 2).sum(axis=-1)) / np.pi, 2)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_second_moment_2d(self):
        # int |k|^2 pi^-1 exp(-|k|^2) dk = 1
        val = quad_radial(
            lambda k: (k ** 2).sum(axis=-1) * np.exp(-(k ** 2).sum(axis=-1)) / np.pi, 2)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_gaussian_norm_1d(self):
        val = quad_radial(
            lambda k: np.exp(-k[..., 0] ** 2) / math.sqrt(math.pi), 1)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_d1_node_budget(self, monkeypatch):
        # A rule of n nodes costs two n x n eigensolve arrays, so refinement
        # must give up before it asks for one above the budget. Cheap stand-in
        # nodes record the requests; the integrand never settles.
        requested = []

        def fake_rule(n):
            requested.append(n)
            return np.zeros(n), np.full(n, 2.0 / n)

        monkeypatch.setattr(numerics, "_gauss_legendre", fake_rule)
        calls = []

        def restless(k):
            calls.append(1)
            return np.full(len(k), float(len(calls)))

        with pytest.raises(NoConvergence):
            quad_radial(restless, 1)
        assert max(requested) == numerics._GL_MAX_NODES
        assert requested == sorted(set(requested))

    def test_d2_point_budget(self):
        # Each polar level holds 3.2 times the points of the one before, so
        # refinement must give up before a level exceeds the budget; the
        # integrand never settles and records the size of every level.
        sizes = []

        def restless(k):
            sizes.append(len(k))
            return np.full(len(k), float(len(sizes)))

        with pytest.raises(NoConvergence):
            quad_radial(restless, 2)
        assert max(sizes) <= numerics._POLAR_MAX_POINTS

    def test_memoized_rule_is_leggauss(self):
        x, w = numerics._gauss_legendre(300)
        ref_x, ref_w = np.polynomial.legendre.leggauss(300)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        assert numerics._gauss_legendre(300)[0] is x
        assert not x.flags.writeable


def dense(f):
    """(factor, basis) of a PsdFactor as n x r arrays, block after block."""
    n, r = f.dimension, sum(factor.shape[1] for _, factor, _ in f.blocks)
    factor, basis, col = np.zeros((n, r)), np.zeros((n, r)), 0
    for rows, L, Q in f.blocks:
        factor[rows, col:col + L.shape[1]] = L
        basis[rows, col:col + L.shape[1]] = Q
        col += L.shape[1]
    return factor, basis


def one_block(m):
    """m as a single (rows, B) block."""
    return [(np.arange(len(m)), m)]


def assembled(blocks):
    """The matrix of (rows, B) blocks, zero outside them."""
    n = sum(len(rows) for rows, _ in blocks)
    m = np.zeros((n, n))
    for rows, B in blocks:
        m[np.ix_(rows, rows)] = B
    return m


def symmetrized(m):
    """m's upper triangle mirrored, so the result is exactly symmetric."""
    return np.triu(m) + np.triu(m, 1).T


class TestPsdFactor:
    def test_reconstructs(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        m = symmetrized(a @ a.T)
        factor, _ = dense(psd_factor(one_block(m)))
        np.testing.assert_allclose(factor @ factor.T, m, atol=1e-10)

    def test_semidefinite_ok(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        factor, _ = dense(psd_factor(one_block(v)))
        np.testing.assert_allclose(factor @ factor.T, v, atol=1e-12)

    def test_rejects_indefinite(self):
        m = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NotPsd):
            psd_factor(one_block(m))

    def test_block_structured_rank_deficient(self):
        # three interleaved blocks, like the parity classes of a covariance,
        # of ranks 2, 3 and 4
        rng = np.random.default_rng(5)
        n, ranks = 30, (2, 3, 4)
        label = np.arange(n) % 3
        blocks = []
        for b, r in enumerate(ranks):
            rows = np.flatnonzero(label == b)
            g = rng.normal(size=(len(rows), r))
            blocks.append((rows, symmetrized(g @ g.T)))
        m = assembled(blocks)
        factor, basis = dense(psd_factor(blocks))
        assert factor.shape == (n, sum(ranks))
        assert np.abs(factor @ factor.T - m).max() <= 1e-10 * np.abs(m).max()
        for cols in (factor, basis):
            for col in cols.T:
                assert len(set(label[col != 0.0])) == 1

    def test_basis_gives_symmetric_square_root(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(12, 5))
        m = symmetrized(g @ g.T)
        factor, basis = dense(psd_factor(one_block(m)))
        np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-12)
        root = factor @ basis.T
        np.testing.assert_allclose(root, root.T, atol=1e-12)
        np.testing.assert_allclose(root @ root, m, atol=1e-10 * np.abs(m).max())
        assert np.linalg.eigvalsh(root).min() > -1e-10

    @pytest.mark.parametrize("neg, raises", [(-1e-6, True), (-1e-9, False)])
    def test_clipping_threshold_both_sides(self, neg, raises):
        # one eigenvalue at neg times the top one, in one block and, split
        # off, in a second block whose own top is far smaller: the
        # threshold is relative to the whole matrix's largest eigenvalue
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        one = q @ np.diag([1.0, 0.5, 0.3, 0.1, 0.0, neg]) @ q.T
        q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        top = q @ np.diag([1.0, 0.5, 0.3, 0.1, 0.2, 0.4]) @ q.T
        low = q2 @ np.diag([1e-3, 1e-4, 0.0, neg]) @ q2.T
        two = [(np.arange(6), symmetrized(top)),
               (np.arange(6, 10), symmetrized(low))]
        for blocks in (one_block(symmetrized(one)), two):
            if raises:
                with pytest.raises(NotPsd):
                    psd_factor(blocks)
            else:
                factor, _ = dense(psd_factor(blocks))
                assert np.abs(factor @ factor.T - assembled(blocks)).max() <= 1e-7

    def test_asymmetric_input_rejected(self):
        # the blocks are used as given: a round-off asymmetry is refused
        # as firmly as a gross one
        g = np.random.default_rng(1).normal(size=(6, 4))
        for rel in (1e-6, 1e-14):
            m = symmetrized(g @ g.T)
            m[4, 1] += rel * np.abs(m).max()
            with pytest.raises(DomainError, match="symmetric"):
                psd_factor([(np.array([0, 1]), np.eye(2)),
                            (np.arange(2, 8), m)])

    def test_non_square_rejected(self):
        for rows, B in ((np.arange(600), np.ones((600, 599))),
                        (np.arange(3), np.eye(4))):
            with pytest.raises(DomainError, match="square"):
                psd_factor([(rows, B)])

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 2]], [[0, 2]], [[-1, 0]], [[0, 0]], [[1, 2], [3]],
    ], ids=["overlap", "gap", "negative", "repeated", "no-zero"])
    def test_rows_must_partition(self, rows):
        blocks = [(np.array(r), np.eye(len(r))) for r in rows]
        with pytest.raises(DomainError, match="partition"):
            psd_factor(blocks)


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(123).normal(size=5)
        b = make_rng(123).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_refused(self):
        # numpy's SeedSequence would raise a bare ValueError
        with pytest.raises(DomainError, match="seed"):
            make_rng(-1)
