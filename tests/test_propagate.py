import tracemalloc

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
from semtransfer.propagate import _BLOCK_VALUES, SeedLabels, _median_heuristic


def dense_knn_oracle(X, ks, kernel):
    """Reference construction: full n x n similarities, stable argsort.

    Cosine similarities come from BLAS, whose rounding for one entry can
    differ between the full product (a SYRK call) and a row-block product
    (GEMM), so the oracle assembles them from the same row blocks as the
    build; Gaussian similarities come from the dense pdist matrix.
    """
    n = X.shape[0]
    if kernel == "gaussian":
        sigma = _median_heuristic(X)
        d2 = squareform(pdist(X, "sqeuclidean"))
        sim = np.exp(-d2 / (2.0 * sigma * sigma))
    else:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        unit = X / np.where(norms < 1e-12, 1.0, norms)
        block = max(1, _BLOCK_VALUES // n)
        sim = np.vstack([unit[lo:lo + block] @ unit.T for lo in range(0, n, block)])
        sim = np.clip(sim, 0.0, None)
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
        # 3000 rows make key blocks of 1398, 1398 and a ragged 204 rows,
        # filtered in chunks of 87
        "three_blocks": (rng.normal(size=(3000, 3)), (15,)),
    }
    # the same blocks with an outlier in the second and one in the ragged
    # last: every similarity of their rows underflows to 0
    far_rows = rng.normal(size=(3000, 3))
    far_rows[1500] += 1e3
    far_rows[2900] -= 1e3
    inputs["far_rows_in_later_blocks"] = (far_rows, (1, 4))
    return inputs


GAUSSIAN_INPUTS = _gaussian_oracle_inputs()


def traced_build(X, k, kernel):
    """The graph and the peak of memory traced while building it."""
    tracemalloc.start()
    try:
        graph = build_knn_graph(X, k=k, kernel=kernel)
        return graph, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        with pytest.raises(ValidationError):
            PropagationConfig(sigma=-1.0)
        with pytest.raises(ValidationError):
            PropagationConfig(tol=0.0)


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
        n = GAUSSIAN_INPUTS["three_blocks"][0].shape[0]
        block = _BLOCK_VALUES // n
        assert -(-n // block) == 3 and n % block

    def test_far_rows_underflow_in_later_blocks(self):
        X, _ = GAUSSIAN_INPUTS["far_rows_in_later_blocks"]
        block = _BLOCK_VALUES // X.shape[0]
        assert [row // block for row in (1500, 2900)] == [1, 2]
        sigma = _median_heuristic(X)
        for row in (1500, 2900):
            d2 = np.delete(((X - X[row]) ** 2).sum(axis=1), row)
            assert np.exp(-d2.min() / (2.0 * sigma * sigma)) == 0.0

    def test_fewshot_shaped_input_stays_in_float32(self):
        # the fewshot-graph benchmark's PST shape: 5232 nodes, 24 attributes
        X = np.random.default_rng(43).random((5232, 24))
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

    @pytest.mark.parametrize("X, k, blocks", [
        # 4 max s overflows float32
        pytest.param(1e20 * np.random.default_rng(47).normal(size=(300, 4)), 10, 1,
                     id="overflow"),
        # float32 products go subnormal (max s < 2^-100) and lose precision:
        # a tied lattice whose coordinates are scaled to about 1e-20 ...
        pytest.param(2.0 ** -70 * GAUSSIAN_INPUTS["grid_tie"][0], 7, 1, id="subnormal_grid"),
        # ... and, near 1e-25, underflow to 0
        pytest.param(1e-25 * np.random.default_rng(53).normal(size=(300, 4)), 10, 1,
                     id="subnormal"),
        # mixed scales: the lattice rows' bound admits most of the square
        pytest.param(GAUSSIAN_INPUTS["far_grid"][0], 7, 1, id="mixed_scale"),
        # 3000 rows in 3 blocks, the last two with a far row; the float64
        # fallback splits each block in half
        pytest.param(GAUSSIAN_INPUTS["far_rows_in_later_blocks"][0], 4, 3,
                     id="mixed_scale_blocks"),
    ])
    def test_float64_fallback_matches_dense_oracle_bitwise(self, X, k, blocks):
        graph = build_knn_graph(X, k=k)
        assert graph.fallback_blocks == blocks
        W, S = dense_knn_oracle(X, (k,), "gaussian")[k]
        assert_graphs_equal(graph, W, S)

    @pytest.mark.parametrize("name, k", [("three_blocks", 15), ("far_rows_in_later_blocks", 4)])
    def test_float32_filter_and_its_fallback_share_the_block_memory(self, name, k):
        # one float32 key block, or one float64 block of half the rows, takes
        # 4 bytes per block value; the partition copy and the keep mask cover
        # a row chunk, and the rest grows with n k. A full-height partition
        # copy would add 4 more
        X = GAUSSIAN_INPUTS[name][0]
        graph, peak = traced_build(X, k, "gaussian")
        assert graph.fallback_blocks == (0 if name == "three_blocks" else 3)
        assert peak < 7 * _BLOCK_VALUES

    def test_cosine_block_memory_is_one_float64_key_block(self):
        # cosine keys stay float64 at full block height, 8 bytes per block
        # value; as for Gaussian, only a row chunk is copied and masked
        X = GAUSSIAN_INPUTS["three_blocks"][0]
        _, peak = traced_build(X, 15, "cosine")
        assert peak < 11 * _BLOCK_VALUES

    def test_median_heuristic_matches_pdist(self):
        # strided to at most 1000 rows; duplicate rows give zero distances
        rng = np.random.default_rng(41)
        X = rng.normal(size=(1700, 5))
        X[2::14] = X[:-2:14]  # rows 14t + 2 copy rows 14t; both survive the stride of 2
        d = pdist(X[::2])
        assert (d == 0).any()
        assert _median_heuristic(X) == float(np.median(d[d > 0]))
        small = X[:300]
        d = pdist(small)
        assert _median_heuristic(small) == float(np.median(d[d > 0]))

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

    @pytest.mark.parametrize("rho", [0.05, 0.3, 1.0])
    def test_matches_per_column_loop_bitwise(self, rho):
        # rounded scores tie often; column 0 is constant
        rng = np.random.default_rng(17)
        V = np.round(rng.normal(size=(40, 6)), 1)
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


def two_node_graph():
    # unit weight edge; S is the 0/1 swap matrix after normalization
    return build_knn_graph(np.array([[0.0], [1.0]]), k=1, kernel="gaussian", sigma=1.0)


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
