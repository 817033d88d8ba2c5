"""Gaussian-limit covariance of the transform vector, in closed form.

One closed form serves d = 1 and d = 2. Each entry is a finite sum over
the total Hermite degrees L1, L2 of its two tapers,

    entry = 1/2 * sum over (L1, L2) of D_pair(L1, L2) * K_{L1,L2}(j2 - j1),

so the entries of all taper pairs at all scale gaps are 0.5 * D @ K. The
degree table D is indexed by taper pair and (L1, L2) and depends on neither
beta, R nor the scales; the scale kernel K is indexed by (L1, L2) and scale
gap and is shared by every taper pair.

K reads the scales only through the gap j2 - j1, so each taper pair's
entries are a function of the gap (a Toeplitz matrix in scale, for evenly
spaced scales). They are computed once per distinct gap of the scales: 50
evenly spaced scales make 2500 scale pairs but 209 gaps (their 99 exact
gaps round to 209 distinct floats). The per-class (taper, gap, taper)
tables they fill, with a map from scale pair to gap, are the covariance's
stored form (CovBlockMatrix.tables, 3 MB at i_max 10 over 50 scales); a
parity block (12.5 MB each there) is gathered from them only where it is
read, and the pivot's cumulants read the tables directly.

The product D @ K is a fixed-order sum: each taper pair adds its nonzero
D(L1, L2) K terms (about 7% of D's entries are nonzero) in ascending
(L1, L2) order, in elementwise operations. A BLAS product's summation
order can follow the thread count (at i_max 10 over 50 scales' gaps,
D @ K gave different bytes under one and two OpenBLAS threads); this sum
gives the same bytes under any thread count.

D comes from per-axis tables. The moment of the unit sphere S^(d-1)
splits into per-axis factors and a factor of the total degree,
S(p) = 2 prod_k Gamma((p_k+1)/2) / Gamma((|p|+d)/2), so D is the
convolution over axes of T[a, b] = c_n1(a) c_n2(b) Gamma((a+b+1)/2) (zero
for odd a+b), times 2 / Gamma((L1+L2+d)/2) and the pair's phase; c_n are
the monomial coefficients of the normalized Hermite polynomials.

K = Gamma(g) R^((L2-L1)(j2-j1)/2) / cosh(x)^g with x = (j2-j1) log R and
g = (d+beta+L1+L2)/2: writing the shared Gaussian width
(R^(2 j1) + R^(2 j2))/2 as R^(j1+j2) cosh(x) cancels the powers R^(j1+j2)
exactly. K is evaluated as Gamma(g) exp((L2-L1) x/2 - g log cosh x), whose
exponent is at most g log 2, so K <= Gamma(g) 2^g for every R and scale
pair and only Gamma(g) itself can overflow (beta in the hundreds).

Every Gamma value comes from the standard library's math.gamma, one call
per distinct argument: half-integers in D and one g per total degree
L1 + L2 in K. It agrees with scipy.special.gamma to a few ulp, and keeps
scipy out of every import of the package.

In d = 2 the covariance is isotropic: swapping the axes of both tapers,
(a, b) -> (b, a), leaves an entry unchanged, although its degree
tables are convolved in the other order. Each swap orbit of taper pairs
is computed once and written to every member, so the tables are exactly
invariant under the axis swap; sigma_transient and sigma_asymptotic
record that as CovBlockMatrix.swap, which the third cumulant of the
pivot reads.

Entries are for unscaled tapers. The physical taper scale c contributes a
common factor c^(beta-d); a common factor scales every chi-square block
equally and cancels in the pivot statistic, so it never enters the
confidence interval.
"""

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, Overflow
from .numerics import hermite_coeffs

# The degree sums cancel as the taper order grows: the beta = 0 unit diagonal
# at R = 30 is off by 1.1e-8 with orders up to 11, 2.0e-8 up to 12, 2.0e-6
# up to 13 and 1.2e-4 up to 15.
_MAX_ORDER = 12


def _gamma(x):
    """Gamma of each value of the 1-D array x, inf where it overflows.

    The tables hold at most a few dozen arguments, so one math.gamma call
    per element costs microseconds.
    """
    out = np.empty(len(x))
    for k, v in enumerate(x):
        try:
            out[k] = math.gamma(v)
        except OverflowError:
            out[k] = math.inf
    return out


def _convolve(A, B):
    """Full 2-D convolution of (P, m, m) and (P, n, n) tables, pair by pair.

    The (a, b) slices of A that are zero for every pair add nothing and
    are skipped: half of them in a per-axis table, those with a + b odd.
    """
    m, n = A.shape[1], B.shape[1]
    out = np.zeros((len(A), m + n - 1, m + n - 1))
    for a, b in zip(*np.nonzero(np.any(A, axis=0))):
        out[:, a:a + n, b:b + n] += A[:, a, b, None, None] * B
    return out


def _degree_tables(i1s, i2s):
    """D for the taper pairs (i1s[p], i2s[p]), shape (P, nL, nL).

    nL = d * n_max + 1 total degrees per taper. Pairs that differ in
    parity on some axis get an all-zero table.
    """
    P, d = i1s.shape
    N = int(max(i1s.max(), i2s.max())) + 1
    coef = np.zeros((N, N))
    for n in range(N):
        coef[n, :n + 1] = hermite_coeffs(n)
    ab = np.add.outer(np.arange(N), np.arange(N))
    axis_gamma = np.where(ab % 2 == 0,
                          _gamma((np.arange(2 * N - 1) + 1) / 2.0)[ab], 0.0)
    D = np.ones((P, 1, 1))
    for k in range(d):
        D = _convolve(D, coef[i1s[:, k], :, None] * coef[i2s[:, k], None, :]
                      * axis_gamma)
    nL = D.shape[1]
    L = np.add.outer(np.arange(nL), np.arange(nL))
    # i^|i2| (-i)^|i1|, real for parity-matched pairs
    phase = 1.0 - 2.0 * (((i2s.sum(1) - i1s.sum(1)) // 2) % 2)
    total_gamma = _gamma((np.arange(2 * nL - 1) + d) / 2.0)[L]
    return D * (2.0 / total_gamma) * phase[:, None, None]


def _scale_kernel(nL, d, beta, R, gap):
    """K over (L1, L2) and the scale gaps j2 - j1, shape (nL * nL, len(gap))."""
    L = np.arange(nL, dtype=np.float64)
    S = np.add.outer(np.arange(nL), np.arange(nL))  # L1 + L2
    g = (d + beta + S)[..., None] / 2.0
    # g depends on L1 + L2 only: one Gamma per total degree
    gam = _gamma((d + beta + np.arange(2 * nL - 1)) / 2.0)[S][..., None]
    if not np.all(np.isfinite(gam)):
        raise Overflow("beta too large: Gamma((d+beta+L1+L2)/2) overflows")
    dL = np.subtract.outer(L, L)[..., None]  # L1 - L2
    x = gap * np.log(R)
    K = gam * np.exp(-dL * x / 2.0 - g * (np.logaddexp(x, -x) - np.log(2.0)))
    return K.reshape(nL * nL, -1)


def _entries(i1s, i2s, beta, R, j1, j2):
    """Entries for taper pairs (i1s[p], i2s[p]) over paired scale arrays.

    Returns a (pairs, scales) array; every covariance value is computed here,
    so this is also where taper orders above _MAX_ORDER are refused. The
    scales enter through j2 - j1 alone.

    Each pair sums D(L1, L2) K_{L1,L2} over its own nonzero (L1, L2), in
    ascending order, with elementwise operations only, so the bytes do not
    follow the BLAS thread count. Pairs are taken by falling count of
    nonzeros, so step k updates a prefix of the rows: the pairs with more
    than k terms.
    """
    i1s = np.asarray(i1s, dtype=np.int64)
    i2s = np.asarray(i2s, dtype=np.int64)
    if max(i1s.max(), i2s.max()) > _MAX_ORDER:
        raise Overflow(f"taper orders above {_MAX_ORDER} (i_max above "
                       f"{_MAX_ORDER + 1}) are not supported: the closed-form "
                       "covariance loses precision there")
    gap = np.asarray(j2, dtype=np.float64) - np.asarray(j1, dtype=np.float64)
    D = _degree_tables(i1s, i2s)
    K = _scale_kernel(D.shape[1], i1s.shape[1], beta, R, gap)
    D = D.reshape(len(D), -1)
    terms = np.count_nonzero(D, axis=1)
    order = np.argsort(-terms, kind="stable")
    D, terms = D[order], terms[order]
    # each pair's nonzero columns first, ascending
    cols = np.argsort(D == 0.0, axis=1, kind="stable")
    total = np.zeros((len(D), len(gap)))
    for k in range(terms.max(initial=0)):
        live = np.count_nonzero(terms > k)
        c = cols[:live, k]
        total[:live] += D[np.arange(live), c, None] * K[c]
    out = np.empty_like(total)
    out[order] = 0.5 * total
    return out


def sigma_entry_d2(i1, i2, j1, j2, beta, R):
    """One covariance entry in dimension 2, unscaled tapers.

    Closed form: prefactor * (1/2) * sum over the per-taper total degrees
    L1, L2 of D(L1, L2) * Gamma(g) * R^((L2-L1)(j2-j1)/2)
    / cosh((j2-j1) log R)^g, with g = (2+beta+L1+L2)/2. D(L1, L2) sums,
    over degree splits, the coefficient products times the angular moment
    B(l11+l21, l12+l22); B is 2 Gamma((p+1)/2) Gamma((q+1)/2) /
    Gamma((p+q+2)/2), so D is a convolution of per-axis tables. A
    differently indexed rendering of the same sum attaches complex unit
    powers per split; the grouped form above is the one whose terms are
    individually real, and the quadrature oracle pins it down. In d = 1 the
    sum has one coefficient per taper, 2+beta becomes 1+beta in g, and the
    S^0 moment, 2 for an even power, replaces B; the 1/2 stays.
    """
    i1 = tuple(int(v) for v in i1)
    i2 = tuple(int(v) for v in i2)
    if len(i1) != 2 or len(i2) != 2:
        raise DomainError("sigma_entry_d2 needs two-component indices")
    _checked_scales([j1, j2])
    if not 1 <= R < math.inf:
        raise DomainError(f"R must be finite and at least 1, got {R!r}")
    _checked_exponent("beta", beta)
    return float(_entries([i1], [i2], beta, R, [j1], [j2])[0, 0])


@dataclass(frozen=True)
class CovBlockMatrix:
    """Symmetric covariance stored as per-class (taper, slot, taper) tables.

    Row convention: row = scale_index * |I| + taper_index, matching how
    transform vectors are flattened for sampling. Entries between parity
    classes vanish; tables holds one (table, slot) pair per class, classes
    in the order of their first taper. slot is a (|J|, |J|) map of integers
    and the class's entry at (scale j, taper p; scale k, taper q), p and q
    numbered within the class, is table[p, slot[j, k], q]. sigma_transient
    has one slot per distinct scale gap, sigma_asymptotic one for its
    block and one of zeros, and a dense matrix= one per scale pair.

    blocks, one (rows, M[rows][:, rows]) pair per class with rows
    ascending, is gathered from the tables on its first read and kept;
    matrix is assembled from the blocks on each read. index_map and
    structural_zero are derived when read.

    swap, when not None, is the row permutation of the axis swap
    (a, b) -> (b, a), under which the tables are exactly invariant: row
    (taper (a, b), scale j) goes to row ((b, a), j). sigma_transient and
    sigma_asymptotic set it, since they write the tables so; it is not a
    constructor argument, so a covariance built from matrix= or by
    dataclasses.replace never carries it.
    """

    indices: tuple
    scales: np.ndarray
    tables: tuple = ()
    matrix: InitVar[np.ndarray] = None
    swap: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, matrix):
        if matrix is None:
            return
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (self.dim,) * 2 or np.any(matrix[self.structural_zero]):
            raise DomainError(
                f"matrix= must be {self.dim} x {self.dim} and zero between taper "
                f"parity classes, got shape {matrix.shape}")
        nJ = len(self.scales)
        slot = np.arange(nJ * nJ).reshape(nJ, nJ)
        tables = []
        for rows in _class_rows(self.indices, nJ):
            n = len(rows) // nJ
            B = matrix[np.ix_(rows, rows)].reshape(nJ, n, nJ, n)
            tables.append((B.transpose(1, 0, 2, 3).reshape(n, nJ * nJ, n), slot))
        object.__setattr__(self, "tables", tuple(tables))

    @property
    def dim(self):
        return len(self.indices) * len(self.scales)

    @property
    def index_map(self):
        """(taper index, scale) of each row."""
        return tuple((i, float(j)) for j in self.scales for i in self.indices)

    @property
    def structural_zero(self):
        """n x n mask of the entries between parity classes, which vanish."""
        label = _parity_labels(self.indices)
        return np.tile(label[:, None] != label, (len(self.scales),) * 2)

    @property
    def class_rows(self):
        """Ascending rows of each parity class, in the order of tables."""
        return _class_rows(self.indices, len(self.scales))

    @cached_property
    def blocks(self):
        """(rows, B) of each parity class, gathered once from the tables."""
        return tuple((rows, gather_block(table, slot))
                     for rows, (table, slot) in zip(self.class_rows, self.tables))


def gather_block(table, slot):
    """The block of a (n, slots, m) table: entry table[p, slot[j, k], q] at
    row j * n + p and column k * m + q."""
    n = len(table)
    return table[np.arange(n)[:, None], slot[:, None, :]].reshape(len(slot) * n, -1)


def _dense(cov):
    """The dense covariance: its blocks on their rows, zeros elsewhere."""
    matrix = np.zeros((cov.dim, cov.dim))
    for rows, B in cov.blocks:
        matrix[np.ix_(rows, rows)] = B
    return matrix


CovBlockMatrix.matrix = property(_dense)


def _parity_labels(indices):
    """Parity class of each taper, numbered in the order of first tapers."""
    first = {}
    return np.array([first.setdefault(tuple(p), len(first))
                     for p in np.asarray(indices) % 2])


def _class_rows(indices, n_scales):
    """Ascending rows of each parity class in the scale-major layout."""
    label = _parity_labels(indices)
    scale_rows = np.arange(n_scales)[:, None] * len(label)
    return [(scale_rows + np.flatnonzero(label == k)).ravel()
            for k in range(label.max() + 1)]


def _taper_swap(indices):
    """Position of each taper's axis-swapped image, (a, b) -> (b, a).

    None unless d = 2 and the index list is closed under the swap.
    """
    pos = {tuple(i): k for k, i in enumerate(indices)}
    swap = [pos.get(tuple(i)[::-1]) for i in indices]
    if len(indices[0]) != 2 or None in swap:
        return None
    return np.array(swap)


def _swap_invariant(cov):
    """Mark cov, whose blocks _assemble wrote, with its axis-swap rows."""
    sw = _taper_swap(cov.indices)
    if sw is not None:
        rows = np.arange(0, cov.dim, len(cov.indices))[:, None] + sw
        object.__setattr__(cov, "swap", rows.ravel())
    return cov


def _assemble(indices, J, beta, R):
    """The (table, slot) pair of each parity class, as CovBlockMatrix stores them.

    Entries between classes vanish by parity; they are never computed. An
    entry depends on its scales only through the gap j2 - j1, so one
    _entries call fills every representative taper pair at each distinct
    gap of J into its class's (taper, gap, taper) table, and slot maps each
    scale pair to its gap: entry (j1, p; j2, q) is table[p, slot[j1, j2], q].

    In d = 2 the covariance is isotropic, so swapping the axes of both
    tapers, (a, b) -> (b, a), leaves an entry unchanged: one pair a <= b per
    swap orbit is computed and written to its swapped image. Its mirror
    (b, a) takes its values at the reversed gaps, since fl(x - y) =
    -fl(y - x) makes the sorted gaps antisymmetric. A pair that is its own
    mirror (b = a) or whose mirror is its swap image (b = swap(a)) takes
    its values at |gap|. So every block is exactly symmetric, and the
    tables exactly invariant under the axis swap, by construction.
    """
    idx = np.asarray(indices)
    nI, nJ = len(idx), len(J)
    label = _parity_labels(idx)
    A, B = np.nonzero(np.triu(label[:, None] == label))
    sw = _taper_swap(indices)
    if sw is None:
        sw = np.arange(nI)
    # keep a pair when it sorts no later than its image, ordered a <= b
    lo, hi = np.minimum(sw[A], sw[B]), np.maximum(sw[A], sw[B])
    rep = (A < lo) | ((A == lo) & (B <= hi))
    A, B = A[rep], B[rep]
    gaps, gap_of = np.unique(J - J[:, None], return_inverse=True)
    vals = _entries(idx[A], idx[B], beta, R, 0.0, gaps)
    # gaps[::-1] = -gaps: |gaps[g]| is gaps[max(g, len(gaps) - 1 - g)]
    g = np.arange(len(gaps))
    same = (A == B) | (B == sw[A])
    vals[same] = vals[same][:, np.maximum(g, g[::-1])]
    # each taper's position within its class
    pos = np.array([np.count_nonzero(label[:k] == c) for k, c in enumerate(label)])
    gap_of = gap_of.reshape(nJ, nJ)
    tables = []
    for k in range(label.max() + 1):
        n = np.count_nonzero(label == k)
        table = np.zeros((n, len(gaps), n))
        # a pair and its swap image can lie in different classes
        for a, b in ((A, B), (sw[A], sw[B])):
            mine = label[a] == k
            pa, pb, v = pos[a[mine]], pos[b[mine]], vals[mine]
            table[pa, :, pb] = v
            table[pb, :, pa] = v[:, ::-1]
        tables.append((table, gap_of))
    return tuple(tables)


def _checked_scales(J):
    """J as a float array, refused unless every scale is finite and positive."""
    J = np.asarray(J, dtype=np.float64)
    if not np.all((0 < J) & (J < math.inf)):
        raise DomainError("scales must be finite and positive")
    return J


def _checked_exponent(name, value):
    """Refuse a beta or alpha that is negative, infinite or NaN."""
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {value!r}")


def sigma_transient(set_, J, beta, R):
    """Covariance of the transform vector at finite R, beta = max(alpha,0)."""
    J = _checked_scales(J)
    if not 1 < R < math.inf:
        raise DomainError(f"R must be finite and above 1, got {R!r}")
    _checked_exponent("beta", beta)
    return _swap_invariant(CovBlockMatrix(
        indices=set_.indices, scales=J, tables=_assemble(set_.indices, J, beta, R)))


def sigma_asymptotic(set_, J, alpha):
    """R -> infinity limit: block diagonal, one identical block per scale.

    A single block is the degenerate R = 1 evaluation (every power of R
    collapses), replicated across scales; cross-scale blocks vanish. Each
    class keeps that block's table as slot 0 and a table of zeros as slot 1.
    """
    J = _checked_scales(J)
    _checked_exponent("alpha", alpha)
    slot = 1 - np.eye(len(J), dtype=np.int64)
    tables = tuple((np.concatenate([table, np.zeros_like(table)], axis=1), slot)
                   for table, _ in _assemble(set_.indices, np.ones(1), alpha, 1.0))
    return _swap_invariant(CovBlockMatrix(indices=set_.indices, scales=J,
                                          tables=tables))
