"""Few-shot refinement: label propagation over a kNN instance graph.

Zero-shot category scores pick seed instances per category; the seeds
diffuse over a symmetrically normalized similarity graph,
F <- alpha * S F + (1 - alpha) * Y, with few-shot labeled rows clamped
to their one-hot assignment after every sweep. For unclamped seeds the
fixed point has the closed form (1 - alpha) (I - alpha S)^(-1) Y, which
doubles as an independent check on the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .core import (
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    ValidationError,
)

KERNELS = ("gaussian", "cosine")
# Similarity values held per row block of the kNN build (~32 MB of float64).
_BLOCK_VALUES = 1 << 22


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
    S: sp.csr_matrix

    def __post_init__(self):
        if self.W.shape != (self.n, self.n) or self.S.shape != (self.n, self.n):
            raise ValidationError("graph matrices must be n x n")
        deg = np.asarray(self.W.sum(axis=1)).ravel()
        isolated = np.nonzero(deg <= 0)[0]
        if isolated.size:
            raise ValidationError(f"isolated graph nodes: {isolated.tolist()}")


def _median_heuristic(vectors: np.ndarray) -> float:
    # Median positive pairwise distance; strided subsample keeps this cheap
    # and deterministic for big inputs.
    from scipy.spatial.distance import pdist

    n = vectors.shape[0]
    if n > 1000:
        stride = int(np.ceil(n / 1000))
        vectors = vectors[::stride]
    d = pdist(vectors)
    d = d[d > 0]
    if d.size == 0:
        return 1.0
    return float(np.median(d))


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
    """
    from scipy.spatial.distance import cdist

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
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel: {kernel!r}")
    k = min(k, n - 1)

    if kernel == "gaussian":
        if sigma is None:
            sigma = _median_heuristic(X)
        scale = -2.0 * sigma * sigma
    else:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        safe = np.where(norms < 1e-12, 1.0, norms)
        unit = X / safe

    block = min(n, max(1, _BLOCK_VALUES // n))
    cols = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k))
    # Reused by every block; fresh buffers per block made peak RSS swing by ~30 MB.
    sim_buf, part_buf = np.empty((2, block, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        sim, part = sim_buf[:hi - lo], part_buf[:hi - lo]
        if kernel == "gaussian":
            cdist(X[lo:hi], X, "sqeuclidean", out=sim)
            np.divide(sim, scale, out=sim)
            np.exp(sim, out=sim)
        else:
            np.matmul(unit[lo:hi], unit.T, out=sim)
            np.clip(sim, 0.0, None, out=sim)
        local = np.arange(hi - lo)
        sim[local, lo + local] = -np.inf
        # Every value at or above the k-th largest is a candidate; sorting
        # only those by (-similarity, index) resolves ties exactly.
        np.copyto(part, sim)
        part.partition(n - k, axis=1)
        r, c = np.divmod(np.flatnonzero(sim >= part[:, n - k, None]), n)
        v = sim[r, c]
        order = np.lexsort((c, -v, r))
        # order keeps r's row grouping, so a position minus its row's first
        # position is the rank within the row
        rank = np.arange(r.size) - np.searchsorted(r, local)[r]
        keep = order[rank < k]
        cols[lo:hi] = c[keep].reshape(-1, k)
        vals[lo:hi] = v[keep].reshape(-1, k)

    if kernel == "gaussian":
        np.maximum(vals, np.finfo(float).tiny, out=vals)
    rows = np.repeat(np.arange(n), k)
    W = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n))
    W = W.maximum(W.T)
    W.eliminate_zeros()

    deg = np.asarray(W.sum(axis=1)).ravel()
    if (deg <= 0).any():
        bad = np.nonzero(deg <= 0)[0]
        raise ValidationError(f"isolated graph nodes: {bad.tolist()}")
    dinv = 1.0 / np.sqrt(deg)
    D = sp.diags(dinv)
    S = (D @ W @ D).tocsr()
    return SimilarityGraph(n=n, W=W, S=S)


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
        bad = [i for i in self.clamped if not 0 <= i < len(self.instances)]
        if bad:
            raise ValidationError(f"clamped rows out of range: {bad}")
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)


def seed_from_zeroshot(zeroshot: CategoryScoreMatrix, rho: float) -> SeedLabels:
    """Seed the ceil(rho * n) highest scoring instances per category.

    Seed weights are the column scores min-max rescaled to [0, 1]; a
    constant column yields no usable seeds (all-zero weights).
    """
    if not (0.0 < rho <= 1.0):
        raise ValidationError(f"rho must lie in (0, 1], got {rho}")
    V = zeroshot.values
    n, m = V.shape
    take = int(np.ceil(rho * n))
    Y = np.zeros((n, m))
    for j in range(m):
        col = V[:, j]
        lo, hi = float(col.min()), float(col.max())
        if hi - lo <= 0.0:
            continue
        scaled = (col - lo) / (hi - lo)
        top = np.argsort(-col, kind="stable")[:take]
        Y[top, j] = scaled[top]
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
