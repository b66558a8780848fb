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
# Keys per row block of the kNN build: one float32 block of this many
# (~16 MB) for the Gaussian filter, one float64 block (~32 MB) for cosine.
_BLOCK_VALUES = 1 << 22
# Keys per row chunk of a block that is partitioned and masked at a time
# (~2 MB of float64).
_CHUNK_VALUES = 1 << 18
# Distances per row block of the median heuristic (~256 KB of float64).
_CACHE_VALUES = 1 << 15


@dataclass(frozen=True)
class PropagationConfig:
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
        if self.sigma is not None and not self.sigma > 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not self.tol > 0:
            raise ValidationError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0.0 < self.rho <= 1.0):
            raise ValidationError(f"rho must lie in (0, 1], got {self.rho}")


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Symmetric weights W and the normalized operator S = D^-1/2 W D^-1/2.

    ``build_knn_graph`` also records the Gaussian ``sigma`` (None for
    cosine) and its filter's counts: the candidates it ranked over all rows,
    the row blocks whose Gaussian filter fell back from float32 to float64,
    and the rows ranked over every column because their k-th similarity
    underflowed.
    """

    n: int
    W: sp.csr_matrix
    sigma: float | None = None
    candidates: int = 0
    fallback_blocks: int = 0
    weak_rows: int = 0
    S: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        import scipy.sparse as sp

        if self.W.shape != (self.n, self.n):
            raise ValidationError("graph weights must be n x n")
        deg = np.asarray(self.W.sum(axis=1)).ravel()
        if (isolated := np.flatnonzero(deg <= 0)).size:
            raise ValidationError(f"isolated graph nodes: {isolated.tolist()}")
        D = sp.diags(1.0 / np.sqrt(deg))
        freeze(self, S=(D @ self.W @ D).tocsr())


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between ``a`` and ``b``, whose first axis
    is the dimension and whose other axes broadcast.

    Sums ``(a_t - b_t)^2`` over the dimensions t in order, as SciPy's
    ``cdist`` and ``pdist`` do, so the result matches theirs bit for bit.
    """
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros(shape)
    diff = np.empty(shape)
    for a_t, b_t in zip(a, b):
        np.subtract(a_t, b_t, out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def _median_heuristic(vectors: np.ndarray) -> float:
    # Median positive pairwise distance; strided subsample keeps this cheap
    # and deterministic for big inputs.
    n = vectors.shape[0]
    if n > 1000:
        stride = int(np.ceil(n / 1000))
        vectors = vectors[::stride]
    m = vectors.shape[0]
    VT = np.ascontiguousarray(vectors.T)
    step = max(1, _CACHE_VALUES // m)
    parts = []
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        d2 = _sqdist(VT[:, lo:hi, None], VT[:, None, lo:])
        parts.append(d2[np.triu_indices(hi - lo, 1, m - lo)])  # pairs i < j
    d = np.sqrt(np.concatenate(parts))
    d = d[d > 0]
    if d.size == 0:
        return 1.0
    return float(np.median(d))


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
    so ties go to the lower index. Rows are processed in blocks of about
    ``_BLOCK_VALUES / n`` rows, and each block's keys are partitioned and
    masked in chunks of about ``_CHUNK_VALUES / n`` rows, so memory is one
    block of keys plus O(chunk * n + n * k) rather than O(n^2). Gaussian
    weights of selected neighbors are floored at the smallest normal float,
    so an outlier far from everything keeps its k edges instead of
    underflowing to an isolated node; a cosine similarity of 0 is genuine
    isolation and still raises.

    A row block gets one key per column that rises with distance: the
    negated cosine, or approximate squared distances from one float32
    matrix product on the column-centered vectors. Columns within the row's
    k-th key plus twice a slack (0 for cosine, a rounding bound for
    Gaussian) are candidates. The Gaussian filter falls back to float64
    keys, half the block's rows at a time in the same key buffer, where
    float32 would overflow or underflow, or as soon as a block's chunks keep
    more than 4k candidates per row. Candidates are ranked by similarity;
    Gaussian ones get exact float64 squared distances, bit for bit SciPy's
    ``cdist``, and an ``exp``. A Gaussian row whose k-th similarity is below
    the smallest normal float, where an excluded column could still tie
    with it, is ranked again over every other column.
    """
    if isinstance(vectors, AttributeScoreMatrix):
        vectors = vectors.values
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"vectors must be 2-d, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValidationError("vectors must be finite")
    n, d = X.shape
    if n < 2:
        raise ValidationError(f"graph needs at least 2 nodes, got {n}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel: {kernel!r}")
    import scipy.sparse as sp  # here, so that importing the CLI does not load it

    k = min(k, n - 1)
    tiny = np.finfo(float).tiny
    rounded = None  # the float32 inputs of the Gaussian filter, if float32 is safe

    if kernel == "gaussian":
        left = np.ones((n, d + 1))  # [xc_i, 1]
        Xc = np.subtract(X, X.mean(axis=0), out=left[:, :d])
        sq = np.einsum("ij,ij->i", Xc, Xc)
        top = sq.max()
        if not np.isfinite(4.0 * top):  # no squared distance exceeds 4 max s
            raise ValidationError("vectors too large: squared distances overflow")
        if sigma is None:
            sigma = _median_heuristic(X)
        scale = -2.0 * sigma * sigma
        XT = np.ascontiguousarray(X.T)
        right = np.vstack([-2.0 * Xc.T, sq])  # [-2 xc_j; s_j]
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
        # The float32 product A32_ij, with v = 2^-24: rounding [xc_i, 1] and
        # [-2 xc_j; s_j] to float32 puts at most two factors (1 + e), |e| <= v,
        # on each of its d + 1 terms, and the GEMM at most d + 1 more in any
        # summation order. So |A32_ij - (s_j - 2 xc_i.xc_j)| <= g (s_i + 2 s_j)
        # with g = (d + 3)v / (1 - (d + 3)v), as 2|xc_i||xc_j| <= s_i + s_j.
        # The float64 terms stay: B32_i = B_i + g (s_i + 2 max s) + v (s_i + max s).
        # The spare v covers underflow: while max s >= 2^-100 and d < 2^22,
        # inputs and products that go subnormal add at most
        # (2d + 2) 2^-150 (1 + 2 sqrt(max s)) < v max s / 2 to A32_ij. No sum
        # overflows while 4 max s is a finite float32. The threshold
        # A32_ik + 2(B32_i + m) is summed in float64 and rounded up to a float32.
        v = 2.0 ** -24
        g = (d + 3) * v / (1 - (d + 3) * v)
        slack32 = slack + g * (sq + 2.0 * top) + v * (sq + top)
        exact = left, right
        if 2.0 ** -100 <= top and 4.0 * top <= np.finfo(np.float32).max and d < 1 << 22:
            rounded = left.astype(np.float32), right.astype(np.float32)
    else:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        unit = X / np.where(norms < 1e-12, 1.0, norms)
        slack = np.zeros(n)  # cosines are ranked exactly
        exact = unit, unit.T

    block = min(n, max(1, _BLOCK_VALUES // n))
    # float32 key blocks have `block` rows; float64 ones of the Gaussian
    # filter have `half` rows, so that both fit the same buffer
    half = block if kernel == "cosine" else max(1, block // 2)
    chunk = min(block, max(1, _CHUNK_VALUES // n))
    # Reused by every block; fresh buffers per block made peak RSS swing by ~30 MB.
    # Only the key block is full height; a chunk of its rows at a time is
    # copied for the partition and masked.
    key_buf = np.empty(max(half * n, -(-block * n // 2)))
    part_buf = np.empty(chunk * n)
    keep_buf = np.empty((chunk, n), dtype=bool)
    cols = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k))
    counts = {"candidates": 0, "fallback_blocks": 0, "weak_rows": 0}

    def select(lo, key, rows, flat):
        # the k most similar candidates (rows[i], c), where flat = i * n + c
        # in ascending order, of a block of keys ``key`` starting at row lo
        i, c = np.divmod(flat, n)
        sim = (-key[rows[i], c] if kernel == "cosine"
               else np.exp(_sqdist(XT[:, lo + rows[i]], XT[:, c]) / scale))
        cols[lo + rows], vals[lo + rows] = _top_k(i, c, sim, rows.size, k)

    def candidates(lo, key, f32):
        # flat indices into ``key``, the keys of the rows from lo, of the
        # columns that the filter keeps; None once float32 keys keep over 4k
        # candidates per row
        rows = key.shape[0]
        margin = 2.0 * (slack32 if f32 else slack)[lo:lo + rows]
        found, kept = [], 0
        for a in range(0, rows, chunk):
            b = min(a + chunk, rows)
            part = part_buf.view(key.dtype)[:(b - a) * n].reshape(b - a, n)
            np.copyto(part, key[a:b])
            part.partition(k - 1, axis=1)
            bound = part[:, k - 1] + margin[a:b]
            if f32:
                bound = np.nextafter(np.minimum(bound, np.finfo(np.float32).max).astype(np.float32),
                                     np.float32(np.inf))
            keep = np.less_equal(key[a:b], bound[:, None], out=keep_buf[:b - a])
            found.append(np.flatnonzero(keep) + a * n)
            kept += found[-1].size
            if f32 and kept > 4 * k * rows:
                return None
        return np.concatenate(found)

    def rank(lo, hi, f32):
        # filters and ranks rows lo..hi; False if float32 keys kept over 4k
        # candidates per row, leaving the rows unranked
        rows = hi - lo
        key = key_buf.view(np.float32 if f32 else float)[:rows * n].reshape(rows, n)
        local = np.arange(rows)
        L, R = rounded if f32 else exact
        np.matmul(L[lo:hi], R, out=key)
        if kernel == "cosine":
            np.negative(np.clip(key, 0.0, None, out=key), out=key)
        key[local, lo + local] = np.inf
        flat = candidates(lo, key, f32)
        if flat is None:
            return False
        counts["candidates"] += flat.size
        select(lo, key, local, flat)
        if kernel == "gaussian" and (weak := np.flatnonzero(vals[lo:hi, k - 1] < tiny)).size:
            # exp underflowed at the k-th neighbor, so columns outside the
            # filter may tie with it: every other column is a candidate
            counts["weak_rows"] += weak.size
            select(lo, key, weak, np.flatnonzero(key[weak] < np.inf))
        return True

    for lo in range(0, n, block):
        hi = min(lo + block, n)
        if rounded is not None and rank(lo, hi, True):
            continue
        counts["fallback_blocks"] += kernel == "gaussian"
        for sub in range(lo, hi, half):
            rank(sub, min(sub + half, hi), False)

    if kernel == "gaussian":
        np.maximum(vals, tiny, out=vals)
    rows = np.repeat(np.arange(n), k)
    W = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n))
    W = W.maximum(W.T)
    W.eliminate_zeros()
    return SimilarityGraph(n=n, W=W, sigma=sigma, **counts)


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
    constant column yields no usable seeds (all-zero weights).
    """
    if not (0.0 < rho <= 1.0):
        raise ValidationError(f"rho must lie in (0, 1], got {rho}")
    V = zeroshot.values
    lo = V.min(axis=0)
    span = V.max(axis=0) - lo
    top = np.argsort(-V, axis=0, kind="stable")[:int(np.ceil(rho * V.shape[0]))]
    # a constant column's span becomes inf, so its weights are 0
    scaled = (np.take_along_axis(V, top, axis=0) - lo) / np.where(span > 0.0, span, np.inf)
    Y = np.zeros(V.shape)
    np.put_along_axis(Y, top, scaled, axis=0)
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
    drops below tol, re-clamping pinned rows after every sweep."""
    if graph.n != len(seeds.instances):
        raise ValidationError(
            f"graph has {graph.n} nodes but seeds cover {len(seeds.instances)} instances")
    Y = seeds.values
    clamped = sorted(seeds.clamped)
    alpha = config.alpha
    F = Y.copy()  # clamped rows of Y already hold their one-hot targets
    for iterations in range(1, config.max_iters + 1):
        Fn = alpha * (graph.S @ F) + (1.0 - alpha) * Y
        if clamped:
            Fn[clamped] = Y[clamped]
        delta = float(np.abs(Fn - F).max())
        F = Fn
        if delta < config.tol:
            break
    picks = np.argmax(F, axis=1)  # np.argmax takes the first maximum on ties
    return PropagationResult(
        scores=CategoryScoreMatrix(seeds.instances, seeds.categories, F),
        predictions={inst: seeds.categories[j] for inst, j in zip(seeds.instances, picks)},
        converged=delta < config.tol, iterations=iterations, delta=delta, tol=config.tol)


def propagate_closed_form(graph: SimilarityGraph, seeds: SeedLabels,
                          alpha: float) -> CategoryScoreMatrix:
    """Exact fixed point (1 - alpha) (I - alpha S)^(-1) Y for unclamped seeds."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    if seeds.clamped:
        raise ValidationError("closed form requires unclamped seeds")
    if not (0.0 <= alpha < 1.0):
        raise ValidationError(f"alpha must lie in [0, 1), got {alpha}")
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
    seeds = seed_from_zeroshot(zeroshot, config.rho)
    if fewshot_labels:
        seeds = clamp_fewshot(seeds, fewshot_labels)
    return propagate(graph, seeds, config)
