"""Few-shot refinement: label propagation over a kNN instance graph.

Zero-shot category scores pick seed instances per category; the seeds
diffuse over a symmetrically normalized similarity graph,
F <- alpha * S F + (1 - alpha) * Y, with few-shot labeled rows clamped
to their one-hot assignment after every sweep. For unclamped seeds the
fixed point has the closed form (1 - alpha) (I - alpha S)^(-1) Y, which
doubles as an independent check on the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .core import (AttributeScoreMatrix, CategoryScoreMatrix, LabelledMatrix, ValidationError,
                   freeze, positions)

if TYPE_CHECKING:
    import scipy.sparse as sp

KERNELS = ("gaussian", "cosine")
# Keys per row block of the kNN build, whose rows are filtered and ranked together.
_BLOCK_VALUES = 1 << 22
# Rows per product of keys, float32 (half as many float64 rows in the
# fallback), in one buffer: ~2.7 MB at n = 5232. Every product packs its
# whole right operand again, so fewer rows slow a large build.
_PRODUCT_ROWS = 128
# Keys per row chunk of a product partitioned and masked at a time (~0.5 MB of float64).
_CHUNK_VALUES = 1 << 16
# Distances per row block of the median heuristic (~256 KB of float64).
_CACHE_VALUES = 1 << 15
# Scores per row block of a propagation sweep, which stays in cache (~256 KB of float64).
_SWEEP_VALUES = 1 << 15


@dataclass(frozen=True)
class PropagationConfig:
    """PST's parameters; a function that takes one alone checks it by building a config."""
    k: int = 10
    kernel: str = "gaussian"
    sigma: float | None = None
    alpha: float = 0.8
    tol: float = 1e-6
    max_iters: int = 1000
    rho: float = 0.05

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.kernel not in KERNELS:
            raise ValidationError(f"unknown kernel: {self.kernel!r}")
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        if self.sigma is not None and not -2.0 * self.sigma * self.sigma:  # the kernel's divisor
            raise ValidationError(f"sigma too small: -2 sigma^2 underflows to 0, got {self.sigma}")
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0 < self.tol < np.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0.0 < self.rho <= 1.0):
            raise ValidationError(f"rho must lie in (0, 1], got {self.rho}")


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Symmetric weights W and the normalized operator S = D^-1/2 W D^-1/2,
    stored as CSR arrays: row i's edges go to ``indices[indptr[i]:indptr[i + 1]]``,
    in ascending order, with weights ``weights`` (W) and ``norm`` (S).

    The degrees are ``np.add.reduceat`` over each row's weights, and
    ``norm`` is ``(d_i * w_ij) * d_j`` with ``d = 1 / sqrt(degree)``, which is
    the arithmetic of SciPy's ``W.sum(axis=1)`` and ``D @ W @ D``, so ``W``
    and ``S``, the ``scipy.sparse`` views built on each read, are bit for
    bit theirs. Only these views need SciPy (the ``test`` extra).

    ``build_knn_graph`` also records the Gaussian ``sigma`` (None for
    cosine) and its filter's counts: the candidates it ranked over all rows,
    the row blocks whose filter fell back from float32 to float64, and the
    Gaussian rows ranked over every column because their k-th similarity
    underflowed.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    sigma: float | None = None
    candidates: int = 0
    fallback_blocks: int = 0
    weak_rows: int = 0
    norm: np.ndarray = field(init=False)

    def __post_init__(self):
        indptr, indices, weights = (np.asarray(a) for a in (self.indptr, self.indices, self.weights))
        if (indptr.shape != (self.n + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
                or not indptr[-1] == indices.size == weights.size
                or np.any((indices < 0) | (indices >= self.n))):
            raise ValidationError("graph arrays must be an n x n CSR matrix")
        # SciPy's row sums: reduceat over the rows that have an edge
        deg = np.zeros(self.n)
        rows = np.flatnonzero(np.diff(indptr))
        deg[rows] = np.add.reduceat(weights, indptr[rows])
        if (isolated := np.flatnonzero(deg <= 0)).size:
            raise ValidationError(f"isolated graph nodes: {isolated.tolist()}")
        d = 1.0 / np.sqrt(deg)
        freeze(self, indptr=indptr, indices=indices, weights=weights,
               norm=d.repeat(np.diff(indptr)) * weights * d[indices])

    def _csr(self, data) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @property
    def W(self) -> sp.csr_matrix:
        return self._csr(self.weights)

    @property
    def S(self) -> sp.csr_matrix:
        return self._csr(self.norm)


def _dimension_sum(a, b, shape, term) -> np.ndarray:
    """Sums ``term(a_t, b_t)`` over the dimensions t in order, from 0, for
    points given one dimension at a time: ``a`` and ``b`` yield each
    dimension's coordinates, which broadcast to ``shape``. With
    ``_squared_difference`` the sums are squared Euclidean distances, bit for
    bit SciPy's ``cdist`` and ``pdist``, which sum in the same order.
    """
    out = np.zeros(shape)
    buf = np.empty(shape)
    for a_t, b_t in zip(a, b):
        out += term(a_t, b_t, out=buf)
    return out


def _squared_difference(a, b, out) -> np.ndarray:
    np.subtract(a, b, out=out)
    return np.multiply(out, out, out=out)


def _median_heuristic(vectors: np.ndarray) -> float:
    # Median positive pairwise distance; strided subsample keeps this cheap
    # and deterministic for big inputs. sqrt is monotone, so the square roots
    # of the middle one or two positive squared distances, averaged, are
    # np.median of the distances bit for bit.
    vectors = vectors[::-(-vectors.shape[0] // 1000)]  # every ceil(n / 1000)-th row
    m = vectors.shape[0]
    VT = np.ascontiguousarray(vectors.T)
    step = max(1, _CACHE_VALUES // m)
    d2 = np.empty(m * (m - 1) // 2)
    size = 0
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        part = _dimension_sum(VT[:, lo:hi, None], VT[:, None, lo:], (hi - lo, m - lo),
                              _squared_difference)
        part = part[np.triu_indices(hi - lo, 1, m - lo)]  # pairs i < j
        part = part[part > 0]
        d2[size:size + part.size] = part
        size += part.size
    if size == 0:
        return 1.0
    mid = d2[:size]
    mid.partition([(size - 1) // 2, size // 2])
    return float(np.mean(np.sqrt(mid[(size - 1) // 2:size // 2 + 1])))


def _top_k(r: np.ndarray, c: np.ndarray, v: np.ndarray, rows: int, k: int):
    """Columns and values of the k candidates (r, c, v) with the largest v in
    each of ``rows`` rows, ties going to the lower column.

    ``r`` must be sorted and give every row at least k candidates.
    """
    order = np.lexsort((c, -v, r))
    # order keeps r's row grouping, so a position minus its row's first
    # position is the rank within the row
    rank = np.arange(r.size) - np.searchsorted(r, np.arange(rows))[r]
    keep = order[rank < k]
    return c[keep].reshape(rows, k), v[keep].reshape(rows, k)


def build_knn_graph(vectors, k: int, kernel: str = "gaussian",
                    sigma: float | None = None) -> SimilarityGraph:
    """Mutual-max kNN graph: each node keeps its k most similar neighbors,
    and an edge survives if either endpoint selected it.

    Neighbors are ranked by similarity descending, then by index ascending,
    so ties go to the lower index. Rows are ranked in blocks of about
    ``_BLOCK_VALUES / n`` rows. Their keys come from products of
    ``_PRODUCT_ROWS`` rows and are partitioned and masked in chunks of about
    ``_CHUNK_VALUES / n`` rows, so memory is one product's keys plus
    O(chunk * n + n * k) rather than O(n^2). Gaussian weights of selected
    neighbors are floored at the smallest normal float, so an outlier far
    from everything keeps its k edges instead of underflowing to an isolated
    node; a cosine similarity of 0 is genuine isolation and still raises.

    A row gets one key per column that rises with distance, from float32
    matrix products: the negated dot product of the unit vectors (cosine),
    or approximate squared distances on the column-centered vectors
    (Gaussian). Columns within the row's k-th key plus twice a rounding
    bound are candidates. The filter falls back to float64 keys, from
    products of half as many rows in the same buffer, where float32 could
    overflow or underflow, or as soon as a block's chunks keep more than 4k
    candidates per row. Candidates are ranked by their exact similarity,
    summed over the dimensions in order: max(0, u_i.u_j) for cosine, and
    for Gaussian the ``exp`` of squared distances that are bit for bit
    SciPy's ``cdist``. A Gaussian row whose k-th similarity is below the
    smallest normal float, where an excluded column could still tie with
    it, is ranked again over every other column.
    """
    if isinstance(vectors, AttributeScoreMatrix):
        vectors = vectors.values
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"vectors must be 2-d, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValidationError("vectors must be finite")
    n = X.shape[0]
    if n < 2:
        raise ValidationError(f"graph needs at least 2 nodes, got {n}")
    PropagationConfig(k=k, kernel=kernel, sigma=sigma)

    # the selection's buffers and inputs are gone once it returns, and the
    # assembly's sort temporaries once it does, before the graph is built
    cols, vals, sigma, counts = _nearest(X, min(k, n - 1), kernel, sigma)
    return SimilarityGraph(n, *_symmetric_max(cols, vals), sigma=sigma, **counts)


def _nearest(X: np.ndarray, k: int, kernel: str, sigma: float | None):
    """The columns and similarities of each row's k nearest other rows, the
    Gaussian sigma and the filter's counts, as ``build_knn_graph`` ranks them."""
    n, d = X.shape
    tiny = np.finfo(float).tiny
    # Float32 keys multiply a kernel's operands rounded to float32, which puts at
    # most two factors (1 + e), |e| <= v = 2^-24, on each term, and the GEMM at
    # most d + 1 more in any summation order, so each term is off by at most g.
    v = 2.0 ** -24
    g = (d + 3) * v / (1 - (d + 3) * v)

    if kernel == "gaussian":
        def operands():  # [xc_i, 1] and [-2 xc_j; s_j]
            left = np.ones((n, d + 1))
            Xc = np.subtract(X, X.mean(axis=0), out=left[:, :d])
            return left, np.vstack([-2.0 * Xc.T, np.einsum("ij,ij->i", Xc, Xc)])
        exact = operands()
        sq = exact[1][d].copy()
        top = sq.max()
        if not np.isfinite(4.0 * top):  # no squared distance exceeds 4 max s
            raise ValidationError("vectors too large: squared distances overflow")
        if sigma is None:
            sigma = _median_heuristic(X)
        scale = -2.0 * sigma * sigma
        coords, term = X.T, _squared_difference

        def similarity(sqdist):
            with np.errstate(over="ignore"):  # a quotient below -max is -inf: similarity 0
                return np.exp(sqdist / scale)
        # The filter value of (i, j) is the product A_ij = fl(s_j - 2 xc_i.xc_j),
        # where s_j = |xc_j|^2, so A_ij + s_i is the squared distance up to
        # rounding; the row constant s_i does not change a row's order. With
        # u = 2^-53 and D_ij = fl(sum_t (x_it - x_jt)^2) the exact rescoring:
        #   product and norms: |A_ij + s_i - |xc_i - xc_j|^2| <= (3d + 2)u (s_i + s_j)
        #   centering, each xc coordinate off by at most u|xc|:
        #                      ||xc_i - xc_j|^2 - |x_i - x_j|^2| <= 4u (s_i + s_j)
        #   exact rescoring:   |D_ij - |x_i - x_j|^2| <= (2d + 4)u (s_i + s_j)
        # So B_i = (5d + 16)u (s_i + max s) bounds |A_ij + s_i - D_ij|; the
        # spare 6u covers second-order terms and the rounding of the filter
        # threshold. A column j with A_ij > A_ik + 2(B_i + m), A_ik the row's
        # k-th smallest, has D_ij > D_il + 2m for each of the k columns l of
        # smallest A. m = 2^-37 * 2 sigma^2 puts the exponent of its similarity
        # at least 2^-36 below theirs. Rounding moves an exponent a by at most
        # |a|u <= 745u (beyond that exp underflows to 0) and exp by an ulp,
        # together under 1/80 of that gap, so its similarity is the smaller
        # as long as the k-th selected one is at least the smallest normal float.
        slack = (5 * d + 16) * 2.0 ** -53 * (sq + top) + 2.0 ** -37 * -scale
        # The float32 product A32_ij of [xc_i, 1] and [-2 xc_j; s_j]:
        # |A32_ij - (s_j - 2 xc_i.xc_j)| <= g (s_i + 2 s_j), as
        # 2|xc_i||xc_j| <= s_i + s_j. The float64 terms stay:
        # B32_i = B_i + g (s_i + 2 max s) + v (s_i + max s).
        # The spare v covers underflow: while max s >= 2^-100 and d < 2^22,
        # inputs and products that go subnormal add at most
        # (2d + 2) 2^-150 (1 + 2 sqrt(max s)) < v max s / 2 to A32_ij. No sum
        # overflows while 4 max s is a finite float32. The threshold
        # A32_ik + 2(B32_i + m) is summed in float64 and rounded up to a float32.
        slack32 = slack + g * (sq + 2.0 * top) + v * (sq + top)
        f32 = 2.0 ** -100 <= top and 4.0 * top <= np.finfo(np.float32).max
    else:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        coords, term = np.ascontiguousarray((X / norms).T), np.multiply

        def operands():  # u_i and -u_j
            return X / norms, -coords
        exact = operands()

        def similarity(dot):
            return np.maximum(dot, 0.0)
        # K_ij = fl(-u_i.u_j) in any summation order and S_ij = fl(sum_t u_it u_jt)
        # in order are each within (d + 1)u / (1 - (d + 1)u) |u_i||u_j| of their exact
        # values, u = 2^-53, and |u_i| <= 1 + (d + 4)u / 2. So B = 2(d + 2)u bounds
        # |K_ij + S_ij|, with a spare 2u for second-order terms and the threshold's
        # rounding while d < 2^25: a column j with K_ij > K_ik + 2B has S_ij < S_il for
        # the k columns l of smallest K, and ties with one only at similarity 0, no edge.
        # Float32 adds g (spare v covers |u_i| > 1) and d 2^-147 for subnormal terms.
        slack = np.full(n, 2 * (d + 2) * 2.0 ** -53)
        slack32 = slack + g + d * 2.0 ** -147
        f32 = True
    rounded = tuple(a.astype(np.float32) for a in exact) if f32 and d < 1 << 22 else None
    exact = None if rounded else exact  # a fallback block rebuilds them, bit for bit

    block = min(n, max(1, _BLOCK_VALUES // n))
    # a product has `rows32` float32 rows, or `rows64` float64 ones in the same buffer
    rows32 = min(block, _PRODUCT_ROWS)
    rows64 = max(1, rows32 // 2)
    chunk = min(block, max(1, _CHUNK_VALUES // n))
    # Reused by every block; fresh buffers per block made peak RSS swing by ~30 MB.
    # A chunk of a product's rows at a time is copied for the partition and masked.
    key_buf = np.empty(max(rows64 * n, -(-rows32 * n // 2)))
    part_buf = np.empty(chunk * n)
    keep_buf = np.empty((chunk, n), dtype=bool)
    cols = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k))
    counts = {"candidates": 0, "fallback_blocks": 0, "weak_rows": 0}

    def select(lo, rows, flat):
        # the k most similar candidates (rows[i], c), where flat = i * n + c
        # in ascending order, of the rows from lo; gathered a dimension at a
        # time, not 2d values per candidate
        i, c = np.divmod(flat, n)
        r = lo + rows[i]
        sim = similarity(_dimension_sum((x[r] for x in coords), (x[c] for x in coords),
                                        i.shape, term))
        cols[lo + rows], vals[lo + rows] = _top_k(i, c, sim, rows.size, k)

    def rank(lo, hi, f32):
        # filters and ranks rows lo..hi; False if float32 keys kept over 4k
        # candidates per row, leaving the rows unranked
        dtype, step = (np.float32, rows32) if f32 else (float, rows64)
        L, R = rounded if f32 else exact
        margin = 2.0 * (slack32 if f32 else slack)
        found, kept = [], 0
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            key = key_buf.view(dtype)[:(b - a) * n].reshape(b - a, n)
            np.matmul(L[a:b], R, out=key)
            key[np.arange(b - a), np.arange(a, b)] = np.inf
            for c in range(a, b, chunk):
                e = min(c + chunk, b)
                part = part_buf.view(dtype)[:(e - c) * n].reshape(e - c, n)
                np.copyto(part, key[c - a:e - a])
                part.partition(k - 1, axis=1)
                bound = part[:, k - 1] + margin[c:e]
                if f32:
                    bound = np.nextafter(np.minimum(bound, np.finfo(np.float32).max)
                                         .astype(np.float32), np.float32(np.inf))
                keep = np.less_equal(key[c - a:e - a], bound[:, None], out=keep_buf[:e - c])
                found.append(np.flatnonzero(keep) + (c - lo) * n)
                kept += found[-1].size
                if f32 and kept > 4 * k * (hi - lo):
                    return False
        flat = np.concatenate(found)
        counts["candidates"] += flat.size
        select(lo, np.arange(hi - lo), flat)
        if kernel == "gaussian" and (weak := np.flatnonzero(vals[lo:hi, k - 1] < tiny)).size:
            # exp underflowed at the k-th neighbor, so columns outside the
            # filter may tie with it: every other column is a candidate
            counts["weak_rows"] += weak.size
            select(lo, weak, np.flatnonzero(np.arange(n) != (lo + weak)[:, None]))
        return True

    for lo in range(0, n, block):
        hi = min(lo + block, n)
        if rounded is not None and rank(lo, hi, True):
            continue
        counts["fallback_blocks"] += 1
        exact = exact or operands()
        rank(lo, hi, False)
    if kernel == "gaussian":
        np.maximum(vals, tiny, out=vals)
    return cols, vals, sigma, counts


def _symmetric_max(cols: np.ndarray, vals: np.ndarray):
    """CSR arrays (indptr, indices, weights) of W = max(K, K^T), where row i
    of K holds ``vals[i]`` at the columns ``cols[i]``.

    Both directions of every selected edge are sorted by (row, column); an
    edge selected from both ends keeps the larger weight, and a cosine
    weight of 0 is no edge. The maximum is exact and commutative, so the
    order of an edge's two copies does not matter.
    """
    n, k = cols.shape
    key = np.empty(2 * n * k, dtype=np.intp)  # i n + j, then j n + i
    np.add(np.arange(0, n * n, n)[:, None], cols, out=key[:n * k].reshape(n, k))
    np.add(cols * n, np.arange(n)[:, None], out=key[n * k:].reshape(n, k))
    # position p >= n k of the doubled edge list is edge p - n k again
    weights = np.take(vals.ravel(), np.argsort(key), mode="wrap")
    key.sort()  # equal keys are equal values, so this is key[argsort(key)]
    # an edge has at most two copies; the first keeps their maximum
    twin = np.flatnonzero(key[1:] == key[:-1])
    weights[twin] = np.maximum(weights[twin], weights[twin + 1])
    keep = weights > 0
    keep[twin + 1] = False
    key = key[keep]
    weights = weights[keep]
    return np.searchsorted(key, np.arange(n + 1) * n), key % n, weights


@dataclass(frozen=True, eq=False)
class SeedLabels(LabelledMatrix):
    """Per-category seed weights plus the rows held fixed while propagating."""

    KIND = "seeds"
    RANGE = (0.0, np.inf)

    instances: tuple[str, ...]
    categories: tuple[str, ...]
    values: np.ndarray
    clamped: frozenset[int] = frozenset()

    def __post_init__(self):
        super().__post_init__()
        if bad := [i for i in self.clamped if not 0 <= i < len(self.instances)]:
            raise ValidationError(f"clamped rows out of range: {bad}")


def seed_from_zeroshot(zeroshot: CategoryScoreMatrix, rho: float) -> SeedLabels:
    """Seed the ceil(rho * n) highest scoring instances per category.

    Seed weights are the column scores min-max rescaled to [0, 1]; a
    constant column yields no usable seeds (all-zero weights). Ties at a
    column's cut go to the earliest instances, as a stable sort would.
    """
    PropagationConfig(rho=rho)
    V = zeroshot.values
    m = int(np.ceil(rho * V.shape[0]))
    lo = V.min(axis=0)
    span = V.max(axis=0) - lo
    cut = np.partition(V, -m, axis=0)[-m].copy()  # each column's m-th highest score
    top, ties = V > cut, V == cut
    # the earliest ties fill the places that the scores above the cut leave
    top |= ties & (np.cumsum(ties, axis=0) <= m - top.sum(axis=0))
    # a constant column's span becomes inf, so its weights are 0
    Y = np.where(top, (V - lo) / np.where(span > 0.0, span, np.inf), 0.0)
    return SeedLabels(zeroshot.instances, zeroshot.categories, Y)


def clamp_fewshot(seeds: SeedLabels, labels: Mapping[str, str]) -> SeedLabels:
    """Overwrite labeled rows with one-hot targets and pin them."""
    if not labels:
        return seeds
    rows = positions(seeds.instances, labels.keys(), "instances")
    Y = seeds.values.copy()
    Y[rows] = 0.0
    Y[rows, positions(seeds.categories, labels.values(), "categories")] = 1.0
    return SeedLabels(seeds.instances, seeds.categories, Y, seeds.clamped | frozenset(rows))


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Propagated scores and each instance's best category (first maximum on ties)."""

    scores: CategoryScoreMatrix
    predictions: dict[str, str]
    converged: bool
    iterations: int
    delta: float  # max-abs change of the last sweep
    tol: float


def propagate(graph: SimilarityGraph, seeds: SeedLabels,
              config: PropagationConfig = PropagationConfig()) -> PropagationResult:
    """Iterate F <- alpha S F + (1 - alpha) Y until the max-abs change
    drops below tol, re-clamping pinned rows after every sweep.

    S F is summed in layers. The rows are ordered by edge count, most first,
    and layer s adds the s-th edge of every row that has more than s edges,
    a prefix of that order, with one gather, one multiply and one add. So
    each row sums 0 + s_0 F_0 + s_1 F_1 + ... over its ascending columns, as
    SciPy's ``S @ F`` does, and every sweep is bit for bit SciPy's. Sweeps run
    in place, over blocks of ``_SWEEP_VALUES / C`` rows that stay in cache.
    """
    if graph.n != len(seeds.instances):
        raise ValidationError(
            f"graph has {graph.n} nodes but seeds cover {len(seeds.instances)} instances")
    if not seeds.categories:
        raise ValidationError("seeds have no categories to propagate")
    count = np.diff(graph.indptr)
    order = np.argsort(-count, kind="stable")
    pos = np.empty(graph.n, dtype=np.intp)  # row i sits at pos[i] in that order
    pos[order] = np.arange(graph.n)
    F = seeds.values[order]  # clamped rows already hold their one-hot targets
    base = (1.0 - config.alpha) * F
    clamped = np.sort(pos[list(seeds.clamped)])
    pinned, SF = F[clamped], np.empty_like(F)
    step = max(1, _SWEEP_VALUES // F.shape[1])
    term = np.empty_like(F[:step])
    first = graph.indptr[order]
    layers = [(pos[graph.indices[first[:m] + s]], graph.norm[first[:m] + s, None])
              for s, m in enumerate(np.searchsorted(-count[order], -np.arange(count.max())))]
    blocks = []  # per block, its rows of each layer; F and SF are never swapped under these views
    for a in range(0, graph.n, step):
        rows, pin = slice(a, a + step), slice(*np.searchsorted(clamped, [a, a + step]))
        blocks.append((SF[rows], base[rows], F[rows], clamped[pin] - a, pinned[pin],
                       [(c[rows], w[rows], SF[a:a + c[rows].size], term[:c[rows].size])
                        for c, w in layers if c.size > a]))
    for iterations in range(1, config.max_iters + 1):
        delta = 0.0
        for acc, add, old, pin_rows, pin_vals, parts in blocks:
            acc.fill(0.0)
            for cols, weights, out, t in parts:
                # cols are in range; mode "raise" would gather through a temporary
                np.take(F, cols, axis=0, out=t, mode="clip")
                np.multiply(t, weights, out=t)
                out += t
            np.multiply(acc, config.alpha, out=acc)
            acc += add
            acc[pin_rows] = pin_vals
            diff = np.subtract(acc, old, out=term[:len(acc)])
            delta = max(delta, float(np.abs(diff, out=diff).max()))
        np.copyto(F, SF)
        if delta < config.tol:
            break
    del blocks, layers, SF, base, term
    F = F[pos]
    picks = np.argmax(F, axis=1)  # np.argmax takes the first maximum on ties
    return PropagationResult(
        scores=CategoryScoreMatrix(seeds.instances, seeds.categories, F),
        predictions={inst: seeds.categories[j] for inst, j in zip(seeds.instances, picks)},
        converged=delta < config.tol, iterations=iterations, delta=delta, tol=config.tol)


def propagate_closed_form(graph: SimilarityGraph, seeds: SeedLabels,
                          alpha: float) -> CategoryScoreMatrix:
    """Exact fixed point (1 - alpha) (I - alpha S)^(-1) Y for unclamped seeds,
    by SciPy's sparse LU (the ``test`` extra)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    if seeds.clamped:
        raise ValidationError("closed form requires unclamped seeds")
    PropagationConfig(alpha=alpha)
    if graph.n != len(seeds.instances):
        raise ValidationError(
            f"graph has {graph.n} nodes but seeds cover {len(seeds.instances)} instances")
    A = (sp.identity(graph.n, format="csc") - alpha * graph.S.tocsc())
    solver = splu(A.tocsc())
    F = (1.0 - alpha) * solver.solve(seeds.values)
    return CategoryScoreMatrix(seeds.instances, seeds.categories, F)


def pst(zeroshot: CategoryScoreMatrix, vectors: AttributeScoreMatrix,
        fewshot_labels: Mapping[str, str] | None = None,
        config: PropagationConfig = PropagationConfig()) -> PropagationResult:
    """Full propagation pipeline from zero-shot scores to predictions.

    The graph coordinates of each zero-shot instance are its row of
    ``vectors``, aligned by id, so ``vectors`` may hold other rows too.
    """
    graph = build_knn_graph(vectors.take(zeroshot.instances), config.k, config.kernel, config.sigma)
    seeds = clamp_fewshot(seed_from_zeroshot(zeroshot, config.rho), fewshot_labels or {})
    return propagate(graph, seeds, config)
