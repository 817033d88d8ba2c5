"""Benchmark point processes with known or conjectured exponents.

All samplers draw through a counter-based generator keyed by one integer
seed; a (spec, seed) pair pins the pattern exactly, across platforms.
"""

import numpy as np

from .errors import DomainError, Unmatchable
from .geometry import PointPattern, Window
from .numerics import make_rng

# draws of a matched_process replicate before it raises Unmatchable
_MATCH_ATTEMPTS = 3
# largest expected point count a simulator draws: 1e8 points in 2-D are
# 1.6 GB of coordinates and some 40 minutes of estimation
_MAX_EXPECTED_COUNT = 1e8


def _uniform_points(rng, lam, R, d):
    """Poisson(lam (2R)^d) many uniform points on [-R, R]^d, the one count
    draw; refuses an expected count that is not finite or above the cap."""
    try:
        mean = lam * (2.0 * R) ** d
    except OverflowError:
        mean = np.inf
    if not mean <= _MAX_EXPECTED_COUNT:
        raise DomainError(
            f"intensity {lam!r} on half-width {R!r} in {d}-D expects {mean:.3g} "
            f"points, above the {_MAX_EXPECTED_COUNT:.0e} a simulator draws")
    return rng.uniform(-R, R, size=(rng.poisson(mean), d))


def poisson(lam, R, seed, d=2):
    """Homogeneous Poisson pattern of intensity lam on [-R, R]^d."""
    if not 0 <= lam < np.inf:
        raise DomainError(f"intensity must be finite and nonnegative, got {lam}")
    if not 0 < R < np.inf:
        raise DomainError(f"half-width must be finite and positive, got {R}")
    pts = _uniform_points(make_rng(seed), lam, R, d)
    return PointPattern(pts, Window(half_width=float(R)), dim=d)


def one_sided_stable(delta, seed, size):
    """Positive stable draws with Laplace transform exp(-s^delta).

    Ratio-of-trig construction (Kanter): Y = (a(V) / W)^((1-delta)/delta)
    with V uniform, W unit exponential, and
    a(v) = sin((1-d)pi v) sin(d pi v)^(d/(1-d)) / sin(pi v)^(1/(1-d)).
    At delta = 1 the law degenerates to the constant 1.
    """
    if not 0 < delta <= 1:
        raise DomainError("delta must lie in (0, 1]")
    return _stable(make_rng(seed), delta, int(size))


def _stable(rng, delta, n):
    """n one_sided_stable draws from rng: all V, then all W (none at 1)."""
    if delta == 1.0:
        return np.ones(n)
    v = rng.uniform(0.0, 1.0, n)
    w = rng.exponential(1.0, n)
    # evaluated in log space: the three sine powers overflow for delta
    # near 0 or 1 long before the final value does
    log_a = (
        np.log(np.sin((1.0 - delta) * np.pi * v))
        + (delta / (1.0 - delta)) * np.log(np.sin(delta * np.pi * v))
        - (1.0 / (1.0 - delta)) * np.log(np.sin(np.pi * v))
    )
    return np.exp(((1.0 - delta) / delta) * (log_a - np.log(w)))


def cloaked_lattice(alpha, sigma, R, seed):
    """Perturbed integer lattice with hyperuniformity exponent alpha.

    Each site gets a uniform jitter over its cell plus a heavy-tailed
    elliptical displacement sigma * sqrt(Y) * Z with Y one-sided stable of
    index alpha / 2; alpha = 2 degenerates to Gaussian displacements.
    Sites are generated with a margin so that mass jumping into the window
    from outside is represented, then restricted to [-R, R]^2.
    """
    if not 0 < alpha <= 2:
        raise DomainError("alpha must lie in (0, 2]")
    if not 0 < sigma < np.inf:
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    if not 1 < R < np.inf:
        raise DomainError(f"half-width must be finite and exceed 1, got {R}")
    delta = alpha / 2.0
    if delta >= 1.0:
        margin = 6.0 * sigma
    else:
        # heavy displacement tails: inflate the margin, capped at 3R (the
        # few-permille of jumps from beyond the cap is absorbed by
        # intensity normalization downstream)
        margin = min(6.0 * sigma * (1.0 + 3.0 ** (2.0 / alpha)), 3.0 * R)
    # Python floats, so a huge window overflows to inf without a warning
    lo, hi = float(np.floor(-R - margin)), float(np.ceil(R + margin))
    n_side = hi - lo + 1.0
    if not n_side * n_side <= _MAX_EXPECTED_COUNT:
        raise DomainError(f"cloaked lattice at alpha {alpha!r}, sigma {sigma!r} on "
                          f"half-width {R!r} has {n_side * n_side:.6g} sites, "
                          f"above the {_MAX_EXPECTED_COUNT:.0e} a simulator draws")
    side = np.arange(int(lo), int(hi) + 1, dtype=np.float64)
    n = len(side) ** 2
    rng = make_rng(seed)
    global_shift = rng.uniform(0.0, 1.0, 2)
    cell_jitter = rng.uniform(-0.5, 0.5, (n, 2))
    y = _stable(rng, delta, n)
    z = rng.standard_normal((n, 2))
    # site i * len(side) + k is (side[i], side[k]), shifted
    pts = np.column_stack([np.repeat(side + global_shift[0], len(side)),
                           np.tile(side + global_shift[1], len(side))])
    pts += cell_jitter
    pts += sigma * np.sqrt(y)[:, None] * z
    inside = np.maximum(np.abs(pts[:, 0]), np.abs(pts[:, 1])) <= R
    return PointPattern(pts[inside], Window(half_width=float(R)), dim=2)


def matched_process(lambda_p, R, seed):
    """Mutual nearest-neighbor matching of a Poisson cloud to the unit lattice.

    On the torus [-R, R)^2, lattice points and surplus Poisson points are
    matched in rounds: pairs that choose each other are bound and removed.
    The returned pattern is the set of matched Poisson points, one per
    lattice site. Needs lambda_p > 1 so the cloud outnumbers the lattice;
    a replicate whose cloud comes up short is redrawn, a few times only.
    """
    if not 1 < lambda_p < np.inf:
        raise DomainError("lambda_p must be finite and exceed 1 (lattice "
                          f"intensity), got {lambda_p}")
    if not 1 < R < np.inf:
        raise DomainError(f"half-width must be finite and exceed 1, got {R}")
    n_side = int(round(2.0 * R))
    if abs(2.0 * R - n_side) > 1e-9:
        raise DomainError("2R must be an integer for a unit lattice tiling")
    spacing = 2.0 * R / n_side
    for attempt in range(_MATCH_ATTEMPTS):
        rng = make_rng(seed + 1_000_003 * attempt)
        shift = rng.uniform(0.0, 1.0, 2)
        # the cloud first: its count cap then bounds the lattice too
        cloud = _uniform_points(rng, lambda_p, R, 2)
        if len(cloud) < n_side ** 2:
            continue
        side = np.arange(n_side, dtype=np.float64)
        lx, ly = np.meshgrid(side, side, indexing="ij")
        lattice = -R + (np.column_stack([lx.ravel(), ly.ravel()])
                        + shift) * spacing
        matched = _mutual_match(lattice + R, cloud + R, 2.0 * R) - R
        return PointPattern(matched, Window(half_width=float(R)), dim=2)
    raise Unmatchable("Poisson cloud smaller than the lattice in "
                      f"{_MATCH_ATTEMPTS} attempts")


def _mutual_match(targets, cloud, box):
    """Torus mutual-NN matching; returns cloud points, one per target."""
    from scipy.spatial import cKDTree

    # wrap so rounding can never push a coordinate onto the seam
    targets = np.mod(targets, box)
    cloud = np.mod(cloud, box)
    t_left = np.arange(len(targets))
    c_left = np.arange(len(cloud))
    chosen = np.empty((len(targets), 2))
    n_chosen = 0
    while len(t_left):
        t_pts = targets[t_left]
        c_pts = cloud[c_left]
        tree_c = cKDTree(c_pts, boxsize=box)
        _, t_to_c = tree_c.query(t_pts)
        tree_t = cKDTree(t_pts, boxsize=box)
        _, c_to_t = tree_t.query(c_pts)
        mutual = c_to_t[t_to_c] == np.arange(len(t_left))
        # the globally closest pair is always mutual, so progress is certain
        pick = c_left[t_to_c[mutual]]
        chosen[n_chosen:n_chosen + len(pick)] = cloud[pick]
        n_chosen += len(pick)
        t_left = t_left[~mutual]
        keep = np.ones(len(c_left), dtype=bool)
        keep[t_to_c[mutual]] = False
        c_left = c_left[keep]
    return chosen


def rsa(lambda_prop, r, R, seed):
    """Random sequential adsorption: proposals accepted if no accepted
    point lies within distance r, in uniform arrival order.

    r is the hard-core distance between accepted centres (disks of
    diameter r), not a disk radius.
    """
    # r = inf is allowed: the first arrival blocks every later one
    if not 0 < lambda_prop < np.inf:
        raise DomainError(f"rsa needs a finite lambda_prop > 0, got {lambda_prop}")
    if not r >= 0:
        raise DomainError(f"rsa needs a hard-core distance r >= 0, got {r}")
    if not 0 < R < np.inf:
        raise DomainError(f"rsa needs a finite half-width R > 0, got {R}")
    rng = make_rng(seed)
    pts = _uniform_points(rng, lambda_prop, R, 2)
    # arrival order: by uniform marks
    pts = pts[np.argsort(rng.uniform(0.0, 1.0, len(pts)), kind="stable")]
    window = Window(half_width=float(R))
    if r * r == 0.0:  # r = 0, or so small that r * r underflows: no rejection
        return PointPattern(pts, window, dim=2)
    # cells of side r: an accepted point closer than r is in the 3 x 3 around
    r2, cells, accepted = r * r, {}, []
    for (x, y), (cx, cy) in zip(pts.tolist(), np.floor(pts / r).tolist()):
        if all((px - x) * (px - x) + (py - y) * (py - y) >= r2
               for bx in (cx - 1, cx, cx + 1) for by in (cy - 1, cy, cy + 1)
               for px, py in cells.get((bx, by), ())):
            cells.setdefault((cx, cy), []).append((x, y))
            accepted.append((x, y))
    return PointPattern(np.array(accepted).reshape(-1, 2), window, dim=2)
