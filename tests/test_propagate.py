import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import pdist, squareform

from semtransfer import (
    CategoryScoreMatrix,
    AttributeScoreMatrix,
    PropagationConfig,
    ValidationError,
    build_knn_graph,
    clamp_fewshot,
    propagate,
    propagate_closed_form,
    pst,
    seed_from_zeroshot,
)
from semtransfer.propagate import (_PRODUCT_ROWS, SeedLabels, SimilarityGraph,
                                   _median_heuristic, _nearest, _symmetric_max)

# the module, not the function that ``semtransfer.propagate`` names
propagate_module = importlib.import_module("semtransfer.propagate")


def dense_knn_oracle(X, ks, kernel):
    """Reference construction: full n x n similarities, stable argsort.

    Gaussian similarities come from the dense pdist matrix. Cosine
    similarities are max(0, sum_t u_it u_jt) of the unit rows, summed over
    the dimensions t in order, with no BLAS product whose summation order
    could change their rounding.
    """
    n = X.shape[0]
    if kernel == "gaussian":
        sigma = _median_heuristic(X)
        d2 = squareform(pdist(X, "sqeuclidean"))
        sim = np.exp(-d2 / (2.0 * sigma * sigma))
    else:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        unit = X / np.where(norms < 1e-12, 1.0, norms)
        sim = np.zeros((n, n))
        for u_t in unit.T:
            sim += np.outer(u_t, u_t)
        sim = np.maximum(sim, 0.0)
    np.fill_diagonal(sim, -np.inf)
    order = np.argsort(-sim, axis=1, kind="stable")
    graphs = {}
    for k in ks:
        k = min(k, n - 1)
        rows = np.repeat(np.arange(n), k)
        cols = order[:, :k].ravel()
        vals = sim[rows, cols]
        # the build floors Gaussian weights at the smallest normal float
        floor = np.finfo(float).tiny if kernel == "gaussian" else 0.0
        vals = np.where(np.isfinite(vals), np.maximum(vals, floor), 0.0)
        W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        W = W.maximum(W.T)
        W.eliminate_zeros()
        D = sp.diags(1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel()))
        graphs[k] = W, (D @ W @ D).tocsr()
    return graphs


def _oracle_inputs():
    rng = np.random.default_rng(31)
    plain = rng.normal(size=(300, 3))
    dup = rng.normal(size=(120, 3))
    dup = np.vstack([dup, dup[:40], dup[:40]])  # exact duplicate rows
    tied = np.round(rng.normal(size=(400, 2)), 1) + 3.0  # heavy ties, no zero rows
    # n > 2048 and not a multiple of the block height: several blocks, ragged last
    large = np.round(rng.random((2100, 2)), 2) + 0.5
    return {"plain": plain, "duplicates": dup, "rounded": tied, "large": large}


ORACLE_INPUTS = _oracle_inputs()


def _gaussian_oracle_inputs():
    """Inputs that stress the Gaussian build's distance filter, as (X, ks)."""
    rng = np.random.default_rng(37)
    # a random 70% of a 30 x 30 integer lattice: exact distances tie (1, 2,
    # 4, 5, ...), and the inexact column mean puts rounding noise into the
    # filter's approximate distances; k=6 and k=7 split the group of four
    # diagonal neighbors at distance^2 = 2
    lattice = np.array([(i, j) for i in range(30) for j in range(30)], dtype=float)
    grid = lattice[rng.random(len(lattice)) < 0.7]
    # a lattice 1e4 away from 500 points in the unit square: sigma comes
    # from the square, while the lattice rows' large centered norms make
    # their product error far exceed the exp margin, so only the distance
    # bound keeps their tied neighbors
    far_grid = np.vstack([rng.random((500, 2)), lattice[:100] + 1e4])
    # the outlier is row 0; every similarity of its row underflows to 0
    outlier = np.vstack([np.full((1, 4), 1e3), rng.random((200, 4))])
    # 20 copies of each point: more exact ties at similarity 1 than k
    copies = np.repeat(rng.normal(size=(30, 3)), 20, axis=0)[rng.permutation(600)]
    inputs = {
        "offset": (1e6 + 1e-3 * rng.normal(size=(300, 4)), (1, 10, 15)),
        "scaled_down": (1e-3 * rng.normal(size=(300, 4)), (1, 10, 15)),
        "scaled_up": (1e3 * rng.normal(size=(300, 4)), (1, 10, 15)),
        "grid_tie": (grid, (6, 7)),
        "far_grid": (far_grid, (6, 7)),
        "far_outlier": (outlier, (1, 5, 15)),
        "copies": (copies, (1, 15)),
        # 3000 rows make 23 blocks of 128 rows and a ragged 56, filtered in
        # chunks of 21
        "three_blocks": (rng.normal(size=(3000, 3)), (15,)),
    }
    # the same blocks with an outlier in the 12th and one in the 23rd:
    # every similarity of their rows underflows to 0
    far_rows = rng.normal(size=(3000, 3))
    far_rows[1500] += 1e3
    far_rows[2900] -= 1e3
    inputs["far_rows_in_later_blocks"] = (far_rows, (1, 4))
    return inputs


GAUSSIAN_INPUTS = _gaussian_oracle_inputs()


def narrow_cone(seed, d, spread):
    """400 points around the all-ones direction: every cosine is within about
    spread^2 of 1, so a row's nearest cosines crowd together."""
    return np.ones((400, d)) + spread * np.random.default_rng(seed).normal(size=(400, d))


def traced(fn, *args, **kwargs):
    """What ``fn`` returns and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_build(X, k, kernel):
    """The graph and the peak of memory traced while building it."""
    return traced(build_knn_graph, X, k=k, kernel=kernel)


# the fewshot-graph benchmark's PST shape: 5232 nodes, 24 attributes
FEWSHOT_SHAPED = np.random.default_rng(43).random((5232, 24))


def assert_graphs_equal(graph, W, S):
    for got, want in ((graph.W, W), (graph.S, S)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


class TestPropagationConfig:
    def test_alpha_one_rejected(self):
        with pytest.raises(ValidationError):
            PropagationConfig(alpha=1.0)

    def test_alpha_zero_allowed(self):
        assert PropagationConfig(alpha=0.0).alpha == 0.0

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            PropagationConfig(k=0)
        with pytest.raises(ValidationError):
            PropagationConfig(kernel="triangle")
        with pytest.raises(ValidationError):
            PropagationConfig(rho=0.0)
        with pytest.raises(ValidationError):
            PropagationConfig(rho=1.5)
        for value in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="sigma"):
                PropagationConfig(sigma=value)
        for value in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tol"):
                PropagationConfig(tol=value)

    @pytest.mark.parametrize("call, message", [
        (lambda: build_knn_graph(np.eye(3), k=0), "k must be >= 1, got 0"),
        (lambda: build_knn_graph(np.eye(3), k=1, kernel="x"), "unknown kernel: 'x'"),
        (lambda: build_knn_graph(np.eye(3), k=1, sigma=float("nan")),
         "sigma must be positive and finite, got nan"),
        (lambda: build_knn_graph(np.eye(3), k=1, sigma=1e-200),
         "sigma too small: -2 sigma^2 underflows to 0, got 1e-200"),
        (lambda: seed_from_zeroshot(CategoryScoreMatrix(("i0",), ("c0",), [[0.5]]), rho=0),
         "rho must lie in (0, 1], got 0"),
        (lambda: propagate_closed_form(two_node_graph(), seeds_of(2), alpha=1),
         "alpha must lie in [0, 1), got 1"),
        (lambda: propagate_closed_form(two_node_graph(), seeds_of(3), alpha=0.5),
         "graph has 2 nodes but seeds cover 3 instances"),
        (lambda: PropagationConfig(max_iters=0), "max_iters must be >= 1, got 0"),
        (lambda: build_knn_graph(np.zeros(3), k=1), "vectors must be 2-d, got shape (3,)"),
    ], ids=["graph_k", "graph_kernel", "graph_sigma", "graph_tiny_sigma", "seed_rho",
            "closed_form_alpha", "closed_form_nodes", "config_max_iters", "graph_1d"])
    def test_rejections_give_the_config_rules(self, call, message):
        # a function that takes a PST parameter alone checks it by PropagationConfig's rules
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message


class TestKnnGraph:
    def test_line_hand_case(self):
        # points 0, 1, 10 with sigma 1 and k=1: nodes 0 and 1 pick each
        # other, node 2 picks node 1; symmetrization keeps both edges
        X = np.array([[0.0], [1.0], [10.0]])
        graph = build_knn_graph(X, k=1, kernel="gaussian", sigma=1.0)
        W = graph.W.toarray()
        assert W[0, 1] == np.exp(-0.5)
        assert W[1, 2] == np.exp(-40.5)
        assert W[0, 2] == 0.0
        assert np.array_equal(W, W.T)

    def test_normalization_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        graph = build_knn_graph(X, k=5)
        W = graph.W.toarray()
        deg = W.sum(axis=1)
        want = W / np.sqrt(np.outer(deg, deg))
        assert np.allclose(graph.S.toarray(), want, atol=1e-14)

    def test_no_self_loops(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        graph = build_knn_graph(X, k=4)
        assert graph.W.diagonal().max() == 0.0

    def test_every_node_has_at_least_k_neighbors(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 3))
        k = 6
        graph = build_knn_graph(X, k=k)
        degrees = (graph.W.toarray() > 0).sum(axis=1)
        assert (degrees >= k).all()

    def test_spectral_radius_at_most_one(self):
        # power iteration on |S|; normalization caps the radius at 1
        rng = np.random.default_rng(21)
        for trial in range(10):
            n = int(rng.integers(8, 40))
            X = rng.normal(size=(n, 3))
            graph = build_knn_graph(X, k=int(rng.integers(2, 6)),
                                    kernel=("gaussian", "cosine")[trial % 2])
            S = np.abs(graph.S.toarray())
            v = rng.random(n) + 0.1
            for _ in range(200):
                nxt = S @ v
                norm = np.linalg.norm(nxt)
                if norm == 0.0:
                    break
                v = nxt / norm
            radius = float(v @ (S @ v))
            assert radius <= 1.0 + 1e-9

    def test_graph_from_csr_arrays(self):
        # one unit edge between two nodes: S is the 0/1 swap matrix
        graph = SimilarityGraph(2, [0, 1, 2], [1, 0], [1.0, 1.0])
        assert np.array_equal(graph.S.toarray(), [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(graph.W.toarray(), graph.S.toarray())

    @pytest.mark.parametrize("indptr, indices, weights, message", [
        ([0, 2], [1, 0], [1.0, 1.0], "CSR"),  # indptr too short
        ([1, 1, 2], [1, 0], [1.0, 1.0], "CSR"),  # indptr starts past 0
        ([0, 2, 1], [1], [1.0], "CSR"),  # indptr decreases
        ([0, 1, 2], [1], [1.0], "CSR"),  # fewer edges than indptr ends at
        ([0, 1, 2], [1, 2], [1.0, 1.0], "CSR"),  # column out of range
        ([0, 1, 1], [1], [1.0], r"isolated graph nodes: \[1\]"),  # no edge
        ([0, 1, 2], [1, 0], [0.0, 0.0], r"isolated graph nodes: \[0, 1\]"),  # zero degree
    ])
    def test_malformed_csr_arrays_rejected(self, indptr, indices, weights, message):
        with pytest.raises(ValidationError, match=message):
            SimilarityGraph(2, indptr, indices, weights)

    def test_cosine_isolated_node_rejected(self):
        # the third vector is anti-parallel to everything else, so its
        # clipped cosine similarities are all zero
        X = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, -0.5]])
        with pytest.raises(ValidationError, match="isolated"):
            build_knn_graph(X, k=1, kernel="cosine")

    def test_default_sigma_gives_positive_weights(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 2)) * 100  # large scale stresses fixed sigmas
        graph = build_knn_graph(X, k=3)
        assert graph.W.data.min() > 0.0

    def test_accepts_attribute_score_matrix(self):
        scores = AttributeScoreMatrix(("i0", "i1", "i2"), ("a0",),
                                      np.array([[0.1], [0.2], [0.9]]))
        graph = build_knn_graph(scores, k=1)
        assert graph.n == 3

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValidationError):
            build_knn_graph(np.zeros((1, 2)), k=1)

    def test_non_finite_vectors_rejected(self):
        X = np.array([[0.0, 1.0], [np.nan, 0.5], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="finite"):
            build_knn_graph(X, k=1)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        # an infinite sigma would give every pair weight 1, the diagonal too
        X = np.random.default_rng(13).normal(size=(50, 3))
        with pytest.raises(ValidationError, match="sigma must be positive and finite"):
            build_knn_graph(X, k=5, sigma=sigma)

    def test_tiny_sigma_keeps_identical_rows_at_weight_one(self):
        # at sigma 1e-160 every positive squared distance over -2 sigma^2
        # overflows to -inf, a similarity of 0, floored like any underflow
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = build_knn_graph(X, k=2, sigma=1e-160)
        W = graph.W.toarray()
        assert W[0, 1] == W[1, 0] == 1.0
        assert graph.indices.size == 10
        assert np.all(W[(W > 0) & (W < 1)] == np.finfo(float).tiny)

    def test_overflowing_distances_rejected(self):
        X = np.random.default_rng(12).normal(size=(20, 3)) * 1e200
        with pytest.raises(ValidationError, match="overflow"):
            build_knn_graph(X, k=3)

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    @pytest.mark.parametrize("kernel", ["gaussian", "cosine"])
    def test_blocked_build_matches_dense_oracle_bitwise(self, name, kernel):
        X = ORACLE_INPUTS[name]
        for k, (W, S) in dense_knn_oracle(X, (1, 10, 15), kernel).items():
            assert_graphs_equal(build_knn_graph(X, k=k, kernel=kernel), W, S)

    @pytest.mark.parametrize("name", sorted(GAUSSIAN_INPUTS))
    def test_filtered_gaussian_build_matches_dense_oracle_bitwise(self, name):
        X, ks = GAUSSIAN_INPUTS[name]
        for k, (W, S) in dense_knn_oracle(X, ks, "gaussian").items():
            assert_graphs_equal(build_knn_graph(X, k=k), W, S)

    @pytest.mark.parametrize("name", ["grid_tie", "far_grid"])
    def test_grid_ties_straddle_the_kth_neighbor(self, name):
        # a grid case is only a test of the filter if, in many rows, the
        # k-th similarity ties with a column that is not selected
        X, ks = GAUSSIAN_INPUTS[name]
        sigma = _median_heuristic(X)
        sim = np.exp(-squareform(pdist(X, "sqeuclidean")) / (2.0 * sigma * sigma))
        np.fill_diagonal(sim, -np.inf)
        ranked = -np.sort(-sim, axis=1)
        for k in ks:
            assert (ranked[:, k - 1] == ranked[:, k]).sum() >= 50

    def test_far_outlier_ranks_its_row_in_full(self):
        # every similarity of the outlier's row is 0, so its k neighbors are
        # the k lowest indices, not its k nearest points
        X, _ = GAUSSIAN_INPUTS["far_outlier"]
        d2 = squareform(pdist(X, "sqeuclidean"))[0, 1:]
        sigma = _median_heuristic(X)
        assert np.exp(-d2.min() / (2.0 * sigma * sigma)) == 0.0
        k = 5
        nearest = 1 + np.argsort(d2, kind="stable")[:k]
        assert set(nearest) != set(range(1, k + 1))
        W, S = dense_knn_oracle(X, (k,), "gaussian")[k]
        assert set(range(1, k + 1)) <= set(W.getrow(0).indices)
        assert_graphs_equal(build_knn_graph(X, k=k), W, S)

    def test_three_blocks_with_ragged_last(self):
        # at least three blocks, the last one ragged
        n = GAUSSIAN_INPUTS["three_blocks"][0].shape[0]
        assert n // _PRODUCT_ROWS >= 3 and n % _PRODUCT_ROWS

    def test_far_rows_underflow_in_later_blocks(self):
        X, _ = GAUSSIAN_INPUTS["far_rows_in_later_blocks"]
        assert [row // _PRODUCT_ROWS for row in (1500, 2900)] == [11, 22]
        sigma = _median_heuristic(X)
        for row in (1500, 2900):
            d2 = np.delete(((X - X[row]) ** 2).sum(axis=1), row)
            assert np.exp(-d2.min() / (2.0 * sigma * sigma)) == 0.0

    def test_fewshot_shaped_input_stays_in_float32(self):
        X = FEWSHOT_SHAPED
        k = 15
        graph = build_knn_graph(X, k=k)
        assert graph.fallback_blocks == 0 and graph.weak_rows == 0
        assert k * graph.n <= graph.candidates < 2 * k * graph.n
        assert graph.sigma == _median_heuristic(X)

    @pytest.mark.parametrize("X", [ORACLE_INPUTS["large"], ORACLE_INPUTS["rounded"],
                                   GAUSSIAN_INPUTS["grid_tie"][0],
                                   GAUSSIAN_INPUTS["three_blocks"][0]],
                             ids=["large", "rounded", "grid_tie", "three_blocks"])
    def test_tie_inputs_are_filtered_in_float32(self, X):
        # the oracle tests above check the float32 filter only if it runs
        assert build_knn_graph(X, k=10).fallback_blocks == 0

    def test_float32_filter_reranks_underflowing_rows(self):
        # two rows 150 away (over 38 sigma) from a cluster whose spread keeps
        # the float32 bound small: every similarity of their rows underflows
        rng = np.random.default_rng(59)
        X = np.vstack([rng.normal(size=(300, 3)), [[150.0, 0, 0]], [[0, -150.0, 0]]])
        for k, (W, S) in dense_knn_oracle(X, (1, 5, 15), "gaussian").items():
            graph = build_knn_graph(X, k=k)
            assert (graph.fallback_blocks, graph.weak_rows) == (0, 2)
            assert_graphs_equal(graph, W, S)

    # every 128-row block falls back: blocks is ceil(n / 128)
    @pytest.mark.parametrize("X, k, blocks", [
        # 4 max s overflows float32: 300 rows
        pytest.param(1e20 * np.random.default_rng(47).normal(size=(300, 4)), 10, 3,
                     id="overflow"),
        # float32 products go subnormal (max s < 2^-100) and lose precision:
        # a tied lattice of 636 rows whose coordinates are scaled to about 1e-20 ...
        pytest.param(2.0 ** -70 * GAUSSIAN_INPUTS["grid_tie"][0], 7, 5, id="subnormal_grid"),
        # ... and, near 1e-25, underflow to 0: 300 rows
        pytest.param(1e-25 * np.random.default_rng(53).normal(size=(300, 4)), 10, 3,
                     id="subnormal"),
        # mixed scales, 600 rows: the lattice rows' bound admits most of the square
        pytest.param(GAUSSIAN_INPUTS["far_grid"][0], 7, 5, id="mixed_scale"),
        # 3000 rows, two of them far; the float64 fallback splits each block in half
        pytest.param(GAUSSIAN_INPUTS["far_rows_in_later_blocks"][0], 4, 24,
                     id="mixed_scale_blocks"),
    ])
    def test_float64_fallback_matches_dense_oracle_bitwise(self, X, k, blocks):
        graph = build_knn_graph(X, k=k)
        assert graph.fallback_blocks == blocks
        W, S = dense_knn_oracle(X, (k,), "gaussian")[k]
        assert_graphs_equal(graph, W, S)

    @pytest.mark.parametrize("kernel", ["gaussian", "cosine"])
    def test_block_falls_back_alone(self, kernel):
        # rows 0-119 are 20 copies each of 6 points: at k = 1 their float32
        # keys keep 19 tied candidates a row, over 4k, so the first block falls
        # back to float64 and the other 23 stay in float32
        rng = np.random.default_rng(61)
        X = rng.normal(size=(3000, 3))
        X[:120] = np.repeat(rng.normal(size=(6, 3)), 20, axis=0)
        graph = build_knn_graph(X, k=1, kernel=kernel)
        assert graph.fallback_blocks == 1
        assert_graphs_equal(graph, *dense_knn_oracle(X, (1,), kernel)[1])

    @pytest.mark.parametrize("name, k", [("three_blocks", 15), ("far_rows_in_later_blocks", 4)])
    def test_float32_filter_and_its_fallback_share_the_block_memory(self, name, k):
        # the peak (5.0 MiB) is the median heuristic's: the 500K squared
        # distances of its 1000-row subsample (3.8 MiB). Ranking a block, in
        # float32 or in its float64 fallback, holds one product's keys (1.5 MB)
        # in the same buffer, a chunk of its rows partitioned and masked, and
        # what grows with n k: 3.1 MiB at most
        X = GAUSSIAN_INPUTS[name][0]
        graph, peak = traced_build(X, k, "gaussian")
        assert graph.fallback_blocks == (0 if name == "three_blocks" else 24)
        assert peak < 5.8 * 2 ** 20

    def test_fewshot_shaped_build_memory(self):
        # at the fewshot-graph benchmark's PST shape the peak (6.1 MiB) is the
        # median heuristic's 380K distances (2.9 MiB) beside the float64
        # operands (2.1 MB). Ranking a block holds 5.6 MiB: one product of
        # float32 keys (2.7 MB), the float32 operands (1 MB), the partition
        # buffer (0.5 MB), the neighbors (1.3 MB) and the block's candidates;
        # the exact distances read the input in place, and the float64
        # operands are dropped once rounded
        graph, peak = traced_build(FEWSHOT_SHAPED, 15, "gaussian")
        assert graph.fallback_blocks == 0
        assert peak < 7.0 * 2 ** 20

    def test_fewshot_shaped_cosine_build_memory(self):
        # cosine keys come from the same float32 products as Gaussian ones;
        # the exact cosines add a transposed copy of the unit vectors (1 MB):
        # 6.5 MiB
        graph, peak = traced_build(FEWSHOT_SHAPED, 15, "cosine")
        assert graph.fallback_blocks == 0
        assert peak < 7.5 * 2 ** 20

    def test_fewshot_shaped_edge_assembly_memory(self):
        # the doubled edge keys, their sort order and the gathered weights
        # (1.3 MB each) at once, or the keys and weights and four arrays over
        # the 44K edges selected from both ends (0.36 MB each)
        cols, vals, _, _ = _nearest(FEWSHOT_SHAPED, 15, "gaussian", None)
        _, peak = traced(_symmetric_max, cols, vals)
        assert peak < 3 * 2 * cols.nbytes * 1.15

    @pytest.mark.parametrize("seed", range(6))
    def test_narrow_cone_is_filtered_in_float32(self, seed):
        # the float32 keys of a row's near neighbors are within their rounding
        # bound of each other; without the float32 slack the filter drops some
        X = narrow_cone(seed, 24, 1e-2)
        graph = build_knn_graph(X, k=15, kernel="cosine")
        assert graph.fallback_blocks == 0
        assert_graphs_equal(graph, *dense_knn_oracle(X, (15,), "cosine")[15])

    # every 128-row block falls back: blocks is ceil(n / 128)
    @pytest.mark.parametrize("X, k, blocks", [
        # in 8 dimensions with a spread of 1e-3 the float32 bound keeps over
        # 4k candidates per row of the 400
        pytest.param(narrow_cone(0, 8, 1e-3), 15, 4, id="narrower_cone"),
        # 2100 directions within 1 radian: the cosines nearest 1 are closer
        # than the float32 bound at k=1, and their float64 keys need the
        # float64 slack where they round differently from the rescoring
        pytest.param(ORACLE_INPUTS["large"], 1, 17, id="large"),
    ])
    def test_cosine_float64_fallback_matches_dense_oracle_bitwise(self, X, k, blocks):
        graph = build_knn_graph(X, k=k, kernel="cosine")
        assert graph.fallback_blocks == blocks
        assert_graphs_equal(graph, *dense_knn_oracle(X, (k,), "cosine")[k])

    @pytest.mark.parametrize("X", [ORACLE_INPUTS["plain"], narrow_cone(0, 24, 1e-2)],
                             ids=["plain", "narrow_cone"])
    def test_cosine_graph_does_not_depend_on_product_height(self, X, monkeypatch):
        # the keys only filter and every candidate is rescored in a fixed
        # order, so blocks of 3 rows give the same bits
        want = build_knn_graph(X, k=10, kernel="cosine")
        monkeypatch.setattr(propagate_module, "_PRODUCT_ROWS", 3)
        graph = build_knn_graph(X, k=10, kernel="cosine")
        assert graph.fallback_blocks == want.fallback_blocks == 0
        assert_graphs_equal(graph, want.W, want.S)

    def test_median_heuristic_matches_pdist(self):
        # strided to at most 1000 rows; duplicate rows give zero distances
        rng = np.random.default_rng(41)
        X = rng.normal(size=(1700, 5))
        X[2::14] = X[:-2:14]  # rows 14t + 2 copy rows 14t; both survive the stride of 2
        d = pdist(X[::2])
        assert (d == 0).any()
        assert _median_heuristic(X) == float(np.median(d[d > 0]))
        for small, odd in (X[:300], 0), (X[:302], 1):  # even and odd counts of positive distances
            d = pdist(small)
            assert (d > 0).sum() % 2 == odd
            assert _median_heuristic(small) == float(np.median(d[d > 0]))
        # all rows equal: no positive distance
        assert _median_heuristic(np.ones((5, 3))) == 1.0
        assert _median_heuristic(np.zeros((1200, 2))) == 1.0

    def test_gaussian_far_outlier_keeps_its_edges(self):
        # exp(-d^2 / 2 sigma^2) underflows to 0 for every neighbor of the
        # outlier; the floored weights keep it connected
        rng = np.random.default_rng(11)
        X = np.vstack([rng.random((50, 4)), np.full((1, 4), 100.0)])
        graph = build_knn_graph(X, k=5)
        row = graph.W.getrow(50)
        assert row.nnz >= 5
        assert row.data.min() == np.finfo(float).tiny
        assert np.isfinite(graph.S.data).all()


class TestSeeds:
    def test_hand_case(self):
        zs = CategoryScoreMatrix(("i0", "i1", "i2", "i3"), ("c0",),
                                 np.array([[0.2], [1.0], [0.6], [0.2]]))
        seeds = seed_from_zeroshot(zs, rho=0.5)
        # ceil(0.5 * 4) = 2 seeds; weights are min-max rescaled scores
        assert np.allclose(seeds.values[:, 0], [0.0, 1.0, 0.5, 0.0], atol=1e-15)
        assert seeds.clamped == frozenset()

    def test_constant_column_yields_no_seeds(self):
        zs = CategoryScoreMatrix(("i0", "i1"), ("c0",), np.array([[0.3], [0.3]]))
        seeds = seed_from_zeroshot(zs, rho=1.0)
        assert np.all(seeds.values == 0.0)

    def test_ties_prefer_earlier_instances(self):
        zs = CategoryScoreMatrix(("i0", "i1", "i2"), ("c0",),
                                 np.array([[0.5], [0.5], [0.0]]))
        seeds = seed_from_zeroshot(zs, rho=1 / 3)
        assert seeds.values[0, 0] == 1.0
        assert seeds.values[1, 0] == 0.0

    @pytest.mark.parametrize("rho, levels", [
        *(pytest.param(rho, None, id=str(rho)) for rho in (0.05, 0.3, 1.0)),
        *(pytest.param(rho, 3, id=f"{rho}-3_levels") for rho in (0.05, 0.3))])
    def test_matches_per_column_loop_bitwise(self, rho, levels):
        # rounded scores tie often, and scores of 3 levels tie across the cut
        # of most columns; column 0 is constant
        rng = np.random.default_rng(17)
        V = np.round(rng.normal(size=(40, 6)), 1)
        if levels:
            V = rng.integers(levels, size=V.shape) / levels
            m = int(np.ceil(rho * len(V)))
            cut = -np.sort(-V, axis=0)[m - 1]
            assert np.sum(((V > cut).sum(axis=0) < m) & ((V >= cut).sum(axis=0) > m)) >= 3
        V[:, 0] = 0.7
        want = np.zeros_like(V)
        for j in range(V.shape[1]):
            lo, hi = V[:, j].min(), V[:, j].max()
            if hi > lo:
                top = np.argsort(-V[:, j], kind="stable")[:int(np.ceil(rho * len(V)))]
                want[top, j] = (V[top, j] - lo) / (hi - lo)
        zs = CategoryScoreMatrix(tuple(f"i{i}" for i in range(40)),
                                 tuple(f"c{j}" for j in range(6)), V)
        assert seed_from_zeroshot(zs, rho).values.tobytes() == want.tobytes()

    def test_rho_out_of_range_rejected(self):
        zs = CategoryScoreMatrix(("i0",), ("c0",), np.array([[0.5]]))
        with pytest.raises(ValidationError):
            seed_from_zeroshot(zs, rho=0.0)

    def test_take_keeps_clamped_rows_with_their_instances(self):
        # a clamped row stays clamped at its new position; a dropped one drops out
        seeds = SeedLabels(("a", "b", "c"), ("c0",), np.array([[1.0], [0.5], [0.0]]),
                           frozenset({0}))
        taken = seeds.take(["c", "a"])
        assert taken.instances == ("c", "a")
        assert np.array_equal(taken.values, [[0.0], [1.0]])
        assert taken.clamped == frozenset({1})
        assert seeds.take(["b"]).clamped == frozenset()


class TestClamping:
    def _seeds(self):
        return SeedLabels(("i0", "i1", "i2"), ("c0", "c1"),
                          np.array([[0.5, 0.0], [0.0, 0.5], [0.2, 0.2]]))

    def test_clamped_rows_become_one_hot(self):
        seeds = clamp_fewshot(self._seeds(), {"i2": "c1"})
        assert np.array_equal(seeds.values[2], [0.0, 1.0])
        assert seeds.clamped == frozenset({2})
        # unlabeled rows untouched
        assert np.array_equal(seeds.values[0], [0.5, 0.0])

    def test_unknown_instance_rejected(self):
        with pytest.raises(ValidationError, match="^not in instances: 'ghost'$"):
            clamp_fewshot(self._seeds(), {"i0": "c0", "ghost": "c0"})

    def test_unknown_category_rejected(self):
        with pytest.raises(ValidationError, match="^not in categories: 'zebra'$"):
            clamp_fewshot(self._seeds(), {"i0": "c0", "i1": "zebra"})

    def test_clamping_keeps_earlier_clamped_rows(self):
        seeds = clamp_fewshot(clamp_fewshot(self._seeds(), {"i0": "c1"}), {"i2": "c0"})
        assert seeds.clamped == frozenset({0, 2})
        assert np.array_equal(seeds.values, [[0.0, 1.0], [0.0, 0.5], [1.0, 0.0]])

    def test_empty_labels_are_noop(self):
        seeds = self._seeds()
        assert clamp_fewshot(seeds, {}) is seeds

    @pytest.mark.parametrize("values, clamped, message", [
        (np.zeros((3, 3)), frozenset(), r"seeds: expected 3 instances x 2 categories"),
        ([[0.5, 0.0], [0.0, -0.1], [0.2, 0.2]], frozenset(), r"seeds entries must lie in"),
        ([[0.5, 0.0], [np.nan, 0.5], [0.2, 0.2]], frozenset(), r"seeds: non-finite entries"),
        (np.zeros((3, 2)), frozenset({1, 3}), r"clamped rows out of range: \[3\]"),
    ], ids=["shape", "negative", "nan", "clamped"])
    def test_invalid_seeds_rejected(self, values, clamped, message):
        with pytest.raises(ValidationError, match=message):
            SeedLabels(("i0", "i1", "i2"), ("c0", "c1"), values, clamped)


def sweep_oracle(graph, seeds, config):
    """Reference iteration: one ``scipy.sparse`` product ``S @ F`` per sweep,
    re-clamping pinned rows. Returns the scores, sweeps and last change."""
    Y = seeds.values
    clamped = sorted(seeds.clamped)
    F = Y.copy()
    for iterations in range(1, config.max_iters + 1):
        Fn = config.alpha * (graph.S @ F) + (1.0 - config.alpha) * Y
        if clamped:
            Fn[clamped] = Y[clamped]
        delta = float(np.abs(Fn - F).max())
        F = Fn
        if delta < config.tol:
            break
    return F, iterations, delta


def random_seeds(n, n_categories, rng, n_clamped=0):
    """Random seed weights, with ``n_clamped`` rows pinned to one-hot targets."""
    Y = rng.random((n, n_categories))
    clamped = rng.choice(n, size=n_clamped, replace=False)
    Y[clamped] = np.eye(n_categories)[rng.integers(n_categories, size=n_clamped)]
    return SeedLabels(tuple(f"i{i}" for i in range(n)), tuple(f"c{j}" for j in range(n_categories)),
                      Y, frozenset(clamped.tolist()))


def _sweep_inputs():
    """(X, k, kernel) of graphs for the sweep oracle."""
    rng = np.random.default_rng(61)
    inputs = {name: (X, ks[0], "gaussian") for name, (X, ks) in GAUSSIAN_INPUTS.items()}
    # a hub: 40 points near the ends of orthogonal unit vectors all pick the
    # origin, whose degree is then 40 with k=3
    inputs["hub"] = (np.vstack([np.zeros(40), np.eye(40) + 0.01 * rng.random((40, 40))]), 3,
                     "gaussian")
    inputs["k1"] = (rng.normal(size=(50, 3)), 1, "gaussian")
    inputs["two_nodes"] = (np.array([[0.0], [1.0]]), 1, "gaussian")
    # clusters of 3 points in disjoint dimensions: with k=4 every row also
    # selects two columns of cosine 0, which are no edges
    inputs["cosine_zeros"] = (np.kron(np.eye(10), np.ones((3, 2))) + 0.1 * np.kron(
        np.eye(10), rng.random((3, 2))), 4, "cosine")
    return inputs


SWEEP_INPUTS = _sweep_inputs()


def two_node_graph():
    # unit weight edge; S is the 0/1 swap matrix after normalization
    return build_knn_graph(np.array([[0.0], [1.0]]), k=1, kernel="gaussian", sigma=1.0)


def seeds_of(n):
    """Unclamped all-zero seeds of one category over n instances."""
    return SeedLabels(tuple(f"i{i}" for i in range(n)), ("c0",), np.zeros((n, 1)))


class TestPropagate:
    def test_alpha_zero_returns_seeds_bitwise_after_one_sweep(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 3))
        graph = build_knn_graph(X, k=3)
        Y = rng.random((12, 2))
        seeds = SeedLabels(tuple(f"i{k}" for k in range(12)), ("c0", "c1"), Y)
        result = propagate(graph, seeds, PropagationConfig(alpha=0.0))
        assert result.converged
        assert result.iterations == 1
        assert np.array_equal(result.scores.values, Y)

    def test_two_node_fixed_point(self):
        # Y = [1, 0], alpha = 1/2: F = (1-a)(I - aS)^(-1) Y = [2/3, 1/3]
        graph = two_node_graph()
        seeds = SeedLabels(("i0", "i1"), ("c0",), np.array([[1.0], [0.0]]))
        closed = propagate_closed_form(graph, seeds, alpha=0.5)
        assert np.allclose(closed.values[:, 0], [2 / 3, 1 / 3], atol=1e-12)
        result = propagate(graph, seeds, PropagationConfig(alpha=0.5, tol=1e-12,
                                                           max_iters=2000))
        assert result.converged
        assert np.allclose(result.scores.values, closed.values, atol=1e-9)

    def test_iterative_matches_closed_form_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(10, 60))
            X = rng.normal(size=(n, 4))
            graph = build_knn_graph(X, k=4)
            Y = rng.random((n, 3))
            seeds = SeedLabels(tuple(f"i{k}" for k in range(n)), ("c0", "c1", "c2"), Y)
            alpha = [0.1, 0.5, 0.9][trial % 3]
            closed = propagate_closed_form(graph, seeds, alpha)
            result = propagate(graph, seeds,
                               PropagationConfig(alpha=alpha, tol=1e-9, max_iters=20000))
            assert result.converged
            gap = np.abs(result.scores.values - closed.values).max()
            assert gap <= 1e-6

    def test_clamped_rows_stay_fixed_bitwise(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 3))
        graph = build_knn_graph(X, k=3)
        Y = rng.random((15, 2))
        Y[4] = [0.0, 1.0]
        Y[9] = [1.0, 0.0]
        seeds = SeedLabels(tuple(f"i{k}" for k in range(15)), ("c0", "c1"), Y,
                           clamped=frozenset({4, 9}))
        result = propagate(graph, seeds, PropagationConfig(alpha=0.7))
        assert np.array_equal(result.scores.values[4], Y[4])
        assert np.array_equal(result.scores.values[9], Y[9])

    def test_closed_form_rejects_clamped_seeds(self):
        graph = two_node_graph()
        seeds = SeedLabels(("i0", "i1"), ("c0",), np.array([[1.0], [0.0]]),
                           clamped=frozenset({0}))
        with pytest.raises(ValidationError):
            propagate_closed_form(graph, seeds, alpha=0.5)

    def test_size_mismatch_rejected(self):
        graph = two_node_graph()
        seeds = SeedLabels(("i0", "i1", "i2"), ("c0",), np.zeros((3, 1)))
        with pytest.raises(ValidationError):
            propagate(graph, seeds, PropagationConfig())

    @pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
    def test_layered_sweeps_match_scipy_loop_bitwise(self, name):
        X, k, kernel = SWEEP_INPUTS[name]
        graph = build_knn_graph(X, k=k, kernel=kernel)
        degree = np.diff(graph.W.indptr)
        if name == "hub":
            assert degree.max() >= 10 * k
        if name == "cosine_zeros":
            assert degree.max() < k  # the selected zero cosines left no edge
        rng = np.random.default_rng(67)
        seeds = random_seeds(graph.n, 3, rng, n_clamped=min(5, graph.n // 2))
        for config in (PropagationConfig(), PropagationConfig(alpha=0.99, max_iters=40)):
            F, iterations, delta = sweep_oracle(graph, seeds, config)
            result = propagate(graph, seeds, config)
            assert result.scores.values.tobytes() == F.tobytes()
            assert (result.iterations, result.delta) == (iterations, delta)

    @pytest.mark.parametrize("name", sorted(set(SWEEP_INPUTS) - {"two_nodes"}))
    def test_blocked_sweeps_match_scipy_loop_bitwise(self, name, monkeypatch):
        # blocks of (n - 1) // 3 rows: at least three, the last one ragged
        # (two nodes cannot make three blocks)
        X, k, kernel = SWEEP_INPUTS[name]
        graph = build_knn_graph(X, k=k, kernel=kernel)
        seeds = random_seeds(graph.n, 3, np.random.default_rng(67), n_clamped=5)
        rows = (graph.n - 1) // 3
        monkeypatch.setattr(propagate_module, "_CACHE_VALUES", 3 * rows)
        assert graph.n // rows >= 3 and graph.n % rows
        count = np.diff(graph.indptr)
        at = np.argsort(np.argsort(-count, kind="stable"))  # each row's place, most edges first
        assert len({p // rows for p in at[sorted(seeds.clamped)]}) >= 2
        if count.min() < count.max():  # some layer ends inside a block
            ends = (count[:, None] > np.arange(count.max())).sum(axis=0)
            assert np.any(ends[ends < graph.n] % rows)
        for config in (PropagationConfig(), PropagationConfig(alpha=0.99, max_iters=40)):
            F, iterations, delta = sweep_oracle(graph, seeds, config)
            result = propagate(graph, seeds, config)
            assert result.scores.values.tobytes() == F.tobytes()
            assert (result.iterations, result.delta) == (iterations, delta)

    def test_fewshot_shaped_sweep_memory(self):
        # the scores, their product with S and the seed term (0.67 MB each),
        # one block's term buffer (0.25 MB) and the layers' columns and
        # weights (16 bytes an edge, 1.8 MB); a sweep makes no n x C temporary
        graph = build_knn_graph(FEWSHOT_SHAPED, k=15)
        seeds = random_seeds(graph.n, 16, np.random.default_rng(71), n_clamped=32)
        result, peak = traced(propagate, graph, seeds)
        assert result.converged
        assert peak < 5.8 * 2 ** 20

    def test_seeds_without_categories_rejected(self):
        graph = build_knn_graph(np.random.default_rng(73).random((10, 2)), k=3)
        seeds = SeedLabels(tuple(f"i{i}" for i in range(10)), (), np.zeros((10, 0)))
        with pytest.raises(ValidationError, match="no categories"):
            propagate(graph, seeds)

    def test_non_convergence_reported_not_raised(self):
        graph = two_node_graph()
        seeds = SeedLabels(("i0", "i1"), ("c0",), np.array([[1.0], [0.0]]))
        result = propagate(graph, seeds,
                           PropagationConfig(alpha=0.9, tol=1e-12, max_iters=3))
        assert not result.converged
        assert result.iterations == 3


class TestPstPipeline:
    def _clustered(self, seed=9, n_per=20):
        rng = np.random.default_rng(seed)
        a = np.clip(rng.normal(0.2, 0.05, size=(n_per, 4)), 0.01, 0.99)
        b = np.clip(rng.normal(0.8, 0.05, size=(n_per, 4)), 0.01, 0.99)
        vecs = np.vstack([a, b])
        instances = tuple(f"i{k}" for k in range(2 * n_per))
        scores = AttributeScoreMatrix(instances, tuple(f"a{k}" for k in range(4)), vecs)
        # zero-shot evidence is weak but points the right way on average
        zs_vals = np.column_stack([
            1.0 - vecs.mean(axis=1) + rng.normal(0, 0.05, 2 * n_per),
            vecs.mean(axis=1) + rng.normal(0, 0.05, 2 * n_per),
        ])
        zs = CategoryScoreMatrix(instances, ("lowcat", "highcat"), zs_vals)
        truth = {inst: ("lowcat" if k < n_per else "highcat")
                 for k, inst in enumerate(instances)}
        return zs, scores, truth

    def test_propagation_recovers_clusters(self):
        zs, vectors, truth = self._clustered()
        result = pst(zs, vectors, None, PropagationConfig(k=5, rho=0.2, alpha=0.8))
        assert result.converged
        acc = np.mean([result.predictions[i] == truth[i] for i in truth])
        assert acc >= 0.9

    def test_fewshot_labels_are_respected(self):
        zs, vectors, truth = self._clustered()
        fewshot = {"i0": "lowcat", "i39": "highcat"}
        result = pst(zs, vectors, fewshot, PropagationConfig(k=5, rho=0.2, alpha=0.8))
        for inst, cat in fewshot.items():
            assert result.predictions[inst] == cat

    def test_instance_mismatch_rejected(self):
        zs, vectors, _ = self._clustered()
        wrong = AttributeScoreMatrix(("x0", "x1"), vectors.attributes,
                                     vectors.values[:2])
        with pytest.raises(ValidationError):
            pst(zs, wrong, None, PropagationConfig())

    def test_prediction_keys_cover_all_instances(self):
        zs, vectors, _ = self._clustered()
        result = pst(zs, vectors, None, PropagationConfig(k=5, rho=0.2))
        assert set(result.predictions) == set(zs.instances)
