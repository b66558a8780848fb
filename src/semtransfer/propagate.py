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

from .core import AttributeScoreMatrix, CategoryScoreMatrix, ValidationError, freeze

if TYPE_CHECKING:
    import scipy.sparse as sp

KERNELS = ("gaussian", "cosine")
# Similarity values held per row block of the kNN build (~32 MB of float64).
_BLOCK_VALUES = 1 << 22
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
    """Symmetric weights W and the normalized operator S = D^-1/2 W D^-1/2."""

    n: int
    W: sp.csr_matrix
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
    ``_BLOCK_VALUES / n`` rows, so memory is O(block * n + n * k) rather
    than O(n^2). Gaussian weights of selected neighbors are floored at the
    smallest normal float, so an outlier far from everything keeps its k
    edges instead of underflowing to an isolated node; a cosine similarity
    of 0 is genuine isolation and still raises.

    A row block gets one key per column that rises with distance: the
    negated cosine, or approximate squared distances from one matrix product
    on the column-centered vectors. Columns within the row's k-th key plus
    twice a slack (0 for cosine, a rounding bound for Gaussian) are ranked
    by similarity; Gaussian ones get exact squared distances, bit for bit
    SciPy's ``cdist``, and an ``exp``. A Gaussian row whose k-th similarity
    is below the smallest normal float, where an excluded column could
    still tie with it, is ranked again over every other column.
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

    if kernel == "gaussian":
        left = np.ones((n, d + 1))  # [xc_i, 1]
        Xc = np.subtract(X, X.mean(axis=0), out=left[:, :d])
        sq = np.einsum("ij,ij->i", Xc, Xc)
        if not np.isfinite(4.0 * sq.max()):  # no squared distance exceeds 4 max s
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
        slack = (5 * d + 16) * 2.0 ** -53 * (sq + sq.max()) + 2.0 ** -37 * -scale
    else:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        unit = X / np.where(norms < 1e-12, 1.0, norms)
        slack = np.zeros(n)  # cosines are ranked exactly

    block = min(n, max(1, _BLOCK_VALUES // n))
    cols = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k))

    def select(lo, key, rows, keep):
        # the k most similar candidates (rows[i], c), where keep[i, c], of a
        # block of keys ``key`` starting at row lo
        i, c = np.divmod(np.flatnonzero(keep), n)
        v = (-key[rows[i], c] if kernel == "cosine"
             else np.exp(_sqdist(XT[:, lo + rows[i]], XT[:, c]) / scale))
        cols[lo + rows], vals[lo + rows] = _top_k(i, c, v, rows.size, k)

    # Reused by every block; fresh buffers per block made peak RSS swing by ~30 MB.
    key_buf, part_buf = np.empty((2, block, n))
    keep_buf = np.empty((block, n), dtype=bool)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        key, part = key_buf[:hi - lo], part_buf[:hi - lo]
        local = np.arange(hi - lo)
        if kernel == "cosine":
            np.matmul(unit[lo:hi], unit.T, out=key)
            np.negative(np.clip(key, 0.0, None, out=key), out=key)
        else:
            np.matmul(left[lo:hi], right, out=key)
        key[local, lo + local] = np.inf
        np.copyto(part, key)
        part.partition(k - 1, axis=1)
        select(lo, key, local, np.less_equal(
            key, (part[:, k - 1] + 2.0 * slack[lo:hi])[:, None], out=keep_buf[:hi - lo]))
        if kernel == "gaussian" and (weak := np.flatnonzero(vals[lo:hi, k - 1] < tiny)).size:
            # exp underflowed at the k-th neighbor, so columns outside the
            # filter may tie with it: every other column is a candidate
            select(lo, key, weak, key[weak] < np.inf)

    if kernel == "gaussian":
        np.maximum(vals, tiny, out=vals)
    rows = np.repeat(np.arange(n), k)
    W = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n))
    W = W.maximum(W.T)
    W.eliminate_zeros()
    return SimilarityGraph(n=n, W=W)


@dataclass(frozen=True, eq=False)
class SeedLabels:
    """Per-category seed weights Y plus the rows held fixed while propagating."""

    instances: tuple[str, ...]
    categories: tuple[str, ...]
    Y: np.ndarray
    clamped: frozenset[int] = frozenset()

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        if Y.shape != (len(self.instances), len(self.categories)):
            raise ValidationError(
                f"seed matrix must be {(len(self.instances), len(self.categories))}, got {Y.shape}")
        if not np.isfinite(Y).all() or (Y < 0).any():
            raise ValidationError("seed weights must be finite and non-negative")
        if bad := [i for i in self.clamped if not 0 <= i < len(self.instances)]:
            raise ValidationError(f"clamped rows out of range: {bad}")
        Y.setflags(write=False)
        freeze(self, Y=Y)


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
    inst_index = {inst: i for i, inst in enumerate(seeds.instances)}
    cat_index = {cat: j for j, cat in enumerate(seeds.categories)}
    Y = seeds.Y.copy()
    clamped = set(seeds.clamped)
    for inst, cat in labels.items():
        if inst not in inst_index:
            raise ValidationError(f"labeled instance not in graph: {inst!r}")
        if cat not in cat_index:
            raise ValidationError(f"label category not scored: {cat!r}")
        i = inst_index[inst]
        Y[i] = 0.0
        Y[i, cat_index[cat]] = 1.0
        clamped.add(i)
    return SeedLabels(seeds.instances, seeds.categories, Y, frozenset(clamped))


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Propagated scores and each instance's best category (first maximum on ties)."""

    scores: CategoryScoreMatrix
    predictions: dict[str, str]
    converged: bool
    iterations: int


def propagate(graph: SimilarityGraph, seeds: SeedLabels,
              config: PropagationConfig = PropagationConfig()) -> PropagationResult:
    """Iterate F <- alpha S F + (1 - alpha) Y until the max-abs change
    drops below tol, re-clamping pinned rows after every sweep."""
    if graph.n != len(seeds.instances):
        raise ValidationError(
            f"graph has {graph.n} nodes but seeds cover {len(seeds.instances)} instances")
    Y = seeds.Y
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
        converged=delta < config.tol, iterations=iterations)


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
    F = (1.0 - alpha) * solver.solve(seeds.Y)
    return CategoryScoreMatrix(seeds.instances, seeds.categories, F)


def pst(zeroshot: CategoryScoreMatrix, vectors,
        fewshot_labels: Mapping[str, str] | None = None,
        config: PropagationConfig = PropagationConfig()) -> PropagationResult:
    """Full propagation pipeline from zero-shot scores to predictions.

    ``vectors`` gives the graph coordinates (attribute score matrix or a
    plain array aligned row-for-row with the zero-shot instances).
    """
    if isinstance(vectors, AttributeScoreMatrix):
        if vectors.instances != zeroshot.instances:
            raise ValidationError("graph vectors and zero-shot scores disagree on instances")
        coords = vectors.values
    else:
        coords = np.asarray(vectors, dtype=float)
        if coords.shape[0] != len(zeroshot.instances):
            raise ValidationError("graph vectors and zero-shot scores disagree on instances")
    graph = build_knn_graph(coords, config.k, config.kernel, config.sigma)
    seeds = seed_from_zeroshot(zeroshot, config.rho)
    if fewshot_labels:
        seeds = clamp_fewshot(seeds, fewshot_labels)
    return propagate(graph, seeds, config)
