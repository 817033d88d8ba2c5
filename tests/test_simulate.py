import numpy as np
import pytest
from scipy.spatial import cKDTree

from hyperalpha import simulate
from hyperalpha.errors import DomainError
from hyperalpha.numerics import make_rng
from hyperalpha.simulate import (
    cloaked_lattice,
    matched_process,
    one_sided_stable,
    poisson,
    rsa,
)


class TestPoisson:
    def test_mean_count(self):
        counts = [len(poisson(1.5, 10.0, seed=s).points) for s in range(40)]
        expect = 1.5 * 20.0 ** 2
        # Poisson sd is sqrt(600); 40 replicates give se ~ 3.9
        assert abs(np.mean(counts) - expect) < 5 * np.sqrt(expect / 40)

    def test_inside_window_and_dim(self):
        p = poisson(2.0, 5.0, seed=1, d=3)
        assert p.dim == 3
        assert p.points.shape[1] == 3
        assert np.max(np.abs(p.points)) <= 5.0

    def test_deterministic(self):
        a = poisson(1.0, 8.0, seed=11)
        b = poisson(1.0, 8.0, seed=11)
        np.testing.assert_array_equal(a.points, b.points)

    def test_validation(self):
        with pytest.raises(DomainError):
            poisson(-0.5, 10.0, seed=0)
        with pytest.raises(DomainError):
            poisson(1.0, 0.0, seed=0)

    def test_expected_count_cap(self, monkeypatch):
        # a count above the cap is refused before a point is drawn; the cap
        # is lowered here, as the real one (1e8) would take 1.6 GB to pass
        monkeypatch.setattr(simulate, "_MAX_EXPECTED_COUNT", 400.0)
        assert len(poisson(1.0, 10.0, seed=0).points) > 0
        with pytest.raises(DomainError, match="above the 4e[+]02"):
            poisson(1.0 + 1e-9, 10.0, seed=0)


class TestOneSidedStable:
    def test_degenerate_at_one(self):
        np.testing.assert_array_equal(one_sided_stable(1.0, seed=0, size=7),
                                      np.ones(7))

    def test_vector_draws(self):
        ys = one_sided_stable(0.5, seed=3, size=100)
        assert ys.shape == (100,) and np.all(ys > 0)

    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.8])
    def test_laplace_transform(self, delta):
        # E exp(-s Y) = exp(-s^delta); loose band at 2e4 draws
        y = one_sided_stable(delta, seed=17, size=20_000)
        for s in (0.5, 2.0):
            got = np.mean(np.exp(-s * y))
            assert abs(got - np.exp(-s ** delta)) < 0.02

    def test_validation(self):
        with pytest.raises(DomainError):
            one_sided_stable(0.0, seed=0, size=1)
        with pytest.raises(DomainError):
            one_sided_stable(1.2, seed=0, size=1)


class TestCloakedLattice:
    def test_inside_window(self):
        p = cloaked_lattice(1.0, 0.25, 12.0, seed=5)
        assert np.max(np.abs(p.points)) <= 12.0
        assert p.window.half_width == 12.0

    def test_near_unit_intensity(self):
        # one point per unit cell up to boundary exchange
        p = cloaked_lattice(2.0, 0.15, 30.0, seed=2)
        lam = len(p.points) / 60.0 ** 2
        assert abs(lam - 1.0) < 0.05

    def test_gaussian_degenerate_case(self):
        # alpha = 2 must not touch the stable sampler; displacements stay
        # at the sigma scale instead of occasionally huge
        p = cloaked_lattice(2.0, 0.1, 15.0, seed=8)
        assert len(p.points) > 0
        tree = cKDTree(p.points)
        d, _ = tree.query(p.points, k=2)
        assert np.median(d[:, 1]) < 2.0

    @staticmethod
    def meshgrid_body(alpha, sigma, R, seed):
        # the sampler's points as first written: meshgrid sites, one sum
        delta = alpha / 2.0
        margin = 6.0 * sigma if delta >= 1.0 else \
            min(6.0 * sigma * (1.0 + 3.0 ** (2.0 / alpha)), 3.0 * R)
        side = np.arange(int(np.floor(-R - margin)), int(np.ceil(R + margin)) + 1,
                         dtype=np.float64)
        qx, qy = np.meshgrid(side, side, indexing="ij")
        sites = np.column_stack([qx.ravel(), qy.ravel()])
        n = len(sites)
        rng = make_rng(seed)
        global_shift = rng.uniform(0.0, 1.0, 2)
        cell_jitter = rng.uniform(-0.5, 0.5, (n, 2))
        y = simulate._stable(rng, delta, n)
        z = rng.standard_normal((n, 2))
        pts = sites + global_shift + cell_jitter + sigma * np.sqrt(y)[:, None] * z
        return pts[np.max(np.abs(pts), axis=1) <= R]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("R", [5.0, 12.5, 25.0])
    def test_matches_meshgrid_body(self, alpha, R):
        for seed in (1, 2, 3):
            assert np.array_equal(
                cloaked_lattice(alpha, 0.25, R, seed).points,
                self.meshgrid_body(alpha, 0.25, R, seed))

    def test_deterministic(self):
        a = cloaked_lattice(0.5, 0.35, 10.0, seed=21)
        b = cloaked_lattice(0.5, 0.35, 10.0, seed=21)
        np.testing.assert_array_equal(a.points, b.points)
        c = cloaked_lattice(0.5, 0.35, 10.0, seed=22)
        assert a.points.shape != c.points.shape or not np.array_equal(
            a.points, c.points)

    def test_validation(self):
        with pytest.raises(DomainError):
            cloaked_lattice(0.0, 0.2, 10.0, seed=0)
        with pytest.raises(DomainError):
            cloaked_lattice(2.5, 0.2, 10.0, seed=0)
        with pytest.raises(DomainError):
            cloaked_lattice(1.0, 0.0, 10.0, seed=0)
        with pytest.raises(DomainError):
            cloaked_lattice(1.0, 0.2, 1.0, seed=0)


class TestMatchedProcess:
    def test_exact_count(self):
        # one matched point per lattice site
        p = matched_process(2.0, 10.0, seed=3)
        assert len(p.points) == 400

    def test_points_distinct_and_inside(self):
        p = matched_process(1.5, 8.0, seed=9)
        assert len(np.unique(p.points, axis=0)) == len(p.points)
        assert np.max(np.abs(p.points)) <= 8.0

    def test_deterministic(self):
        a = matched_process(2.0, 6.0, seed=14)
        b = matched_process(2.0, 6.0, seed=14)
        np.testing.assert_array_equal(a.points, b.points)

    def test_validation(self):
        with pytest.raises(DomainError):
            matched_process(1.0, 10.0, seed=0)
        with pytest.raises(DomainError):
            matched_process(2.0, 10.25, seed=0)


class TestRsa:
    def test_hard_core_distance(self):
        p = rsa(3.0, 1.0, 20.0, seed=4)
        assert len(p.points) > 100
        tree = cKDTree(p.points)
        d, _ = tree.query(p.points, k=2)
        assert d[:, 1].min() >= 1.0

    def test_zero_radius_keeps_everything(self):
        p = rsa(2.0, 0.0, 10.0, seed=6)
        expect = 2.0 * 20.0 ** 2
        assert abs(len(p.points) - expect) < 5 * np.sqrt(expect)

    def test_saturation_reduces_count(self):
        # the same proposal intensity with a larger exclusion radius must
        # accept fewer points
        small = rsa(3.0, 0.5, 15.0, seed=12)
        large = rsa(3.0, 1.5, 15.0, seed=12)
        assert len(large.points) < len(small.points)

    def test_infinite_distance_keeps_first_arrival(self):
        assert len(rsa(2.0, np.inf, 10.0, seed=6).points) == 1

    @pytest.mark.parametrize("r", [0.0, 1e-320, 1e-9, 0.5, 1.0, 3.0, np.inf])
    @pytest.mark.parametrize("lam, R, seed", [(2.0, 12.0, 3), (1.0, 15.0, 8)])
    def test_matches_quadratic_greedy(self, lam, R, seed, r):
        # the same draws, in the same arrival order (the stable argsort of
        # the marks), through a plain greedy against every accepted point;
        # at r = 1e-320, r * r underflows to 0 and nothing is rejected
        rng = make_rng(seed)
        pts = rng.uniform(-R, R, (rng.poisson(lam * (2.0 * R) ** 2), 2))
        pts = pts[np.argsort(rng.uniform(0.0, 1.0, len(pts)), kind="stable")]
        accepted = np.empty((0, 2))
        for p in pts:
            dx, dy = accepted[:, 0] - p[0], accepted[:, 1] - p[1]
            if not np.any(dx * dx + dy * dy < r * r):
                accepted = np.vstack([accepted, p])
        assert np.array_equal(rsa(lam, r, R, seed).points, accepted)

    def test_deterministic(self):
        a = rsa(1.5, 0.8, 12.0, seed=30)
        b = rsa(1.5, 0.8, 12.0, seed=30)
        np.testing.assert_array_equal(a.points, b.points)

    def test_validation(self):
        with pytest.raises(DomainError):
            rsa(0.0, 1.0, 10.0, seed=0)
        with pytest.raises(DomainError):
            rsa(1.0, -0.1, 10.0, seed=0)
        with pytest.raises(DomainError):
            rsa(1.0, 1.0, 0.0, seed=0)
