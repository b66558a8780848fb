import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from semtransfer import (
    AssociationMatrix,
    FeatureMatrix,
    TrainConfig,
    ValidationError,
    logistic_loss_and_grad,
    predict_attribute_scores,
    train_attribute_classifiers,
)
from semtransfer import classify
from semtransfer.classify import AttributeModel
from semtransfer.synth import SynthConfig, gen_dataset


def fd_gradient(w, b, X, t, l2, h=1e-5):
    """Oracle: central differences around (w, b)."""
    gw = np.zeros_like(w)
    for i in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        lp, _, _ = logistic_loss_and_grad(wp, b, X, t, l2)
        lm, _, _ = logistic_loss_and_grad(wm, b, X, t, l2)
        gw[i] = (lp - lm) / (2 * h)
    lp, _, _ = logistic_loss_and_grad(w, b + h, X, t, l2)
    lm, _, _ = logistic_loss_and_grad(w, b - h, X, t, l2)
    return gw, (lp - lm) / (2 * h)


def separable_problem(seed=0, n=40, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    t = (X[:, 0] > 0).astype(float)
    return X, t


class TestLossAndGradient:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 4))
        t = rng.random(15)  # soft targets exercise the general case
        for _ in range(5):
            w = rng.normal(size=4)
            b = float(rng.normal())
            _, gw, gb = logistic_loss_and_grad(w, b, X, t, l2=0.01)
            fw, fb = fd_gradient(w, b, X, t, 0.01)
            denom = max(np.linalg.norm(np.append(fw, fb)), 1e-12)
            rel = np.linalg.norm(np.append(gw - fw, gb - fb)) / denom
            assert rel < 1e-4

    def test_loss_finite_for_extreme_scores(self):
        X = np.array([[1000.0], [-1000.0]])
        t = np.array([1.0, 0.0])
        loss, gw, gb = logistic_loss_and_grad(np.array([1.0]), 0.0, X, t, l2=0.0)
        assert np.isfinite(loss)
        assert np.isfinite(gw).all() and np.isfinite(gb)

    def test_zero_point_loss_is_log_two(self):
        X = np.zeros((4, 2))
        t = np.array([1.0, 0.0, 1.0, 0.0])
        loss, _, _ = logistic_loss_and_grad(np.zeros(2), 0.0, X, t, l2=0.0)
        assert loss == pytest.approx(np.log(2), abs=1e-15)


def _training_setup(targets, seed=0, n_per=20):
    """Two categories with opposite single-attribute signatures."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    X = rng.normal(size=(n, 3))
    X[:n_per, 0] += 2.0  # category p instances shifted along dim 0
    instances = tuple(f"i{k}" for k in range(n))
    features = FeatureMatrix(instances, X)
    labels = {inst: ("p" if k < n_per else "q") for k, inst in enumerate(instances)}
    assoc = AssociationMatrix(("p", "q"), ("a0",), np.asarray(targets, dtype=float),
                              binary=bool(set(np.asarray(targets).ravel()) <= {0.0, 1.0}))
    return features, labels, assoc


class TestTraining:
    def test_zero_iterations_keep_zero_weights_and_half_probs(self):
        features, labels, assoc = _training_setup([[1.0], [0.0]])
        model = train_attribute_classifiers(features, labels, assoc,
                                            TrainConfig(max_iters=0))
        assert np.all(model.weights == 0.0)
        assert np.all(model.biases == 0.0)
        probs = predict_attribute_scores(model, features)
        assert np.all(probs.values == 0.5)

    def test_final_loss_does_not_increase_with_iterations(self):
        features, labels, assoc = _training_setup([[1.0], [0.0]])
        losses = [train_attribute_classifiers(features, labels, assoc,
                                              TrainConfig(max_iters=m)).metadata["final_loss"][0]
                  for m in (0, 10, 50, 200)]
        assert losses[0] == pytest.approx(np.log(2), abs=1e-15)
        assert (np.diff(losses) <= 1e-12).all()

    def test_reaches_convex_optimum(self):
        features, labels, assoc = _training_setup([[1.0], [0.0]])
        config = TrainConfig(l2=1e-2, max_iters=5000, tol=1e-9)
        model = train_attribute_classifiers(features, labels, assoc, config)

        # independent optimum from a second-order method on the same objective
        mu, sd = model.feature_mean, model.feature_std
        X = (features.values - mu) / sd
        t = np.array([1.0] * 20 + [0.0] * 20)

        def objective(params):
            loss, gw, gb = logistic_loss_and_grad(params[:-1], params[-1], X, t, 1e-2)
            return loss, np.append(gw, gb)

        res = minimize(objective, np.zeros(4), jac=True, method="L-BFGS-B")
        ours = model.metadata["final_loss"][0]
        assert ours == pytest.approx(res.fun, abs=1e-6)

    def test_degenerate_attribute_flagged_but_trained(self):
        features, labels, assoc = _training_setup([[1.0], [1.0]])
        model = train_attribute_classifiers(features, labels, assoc,
                                            TrainConfig(max_iters=50))
        assert model.metadata["degenerate"] == [True]
        probs = predict_attribute_scores(model, features)
        assert (probs.values > 0.5).all()

    def test_soft_targets_accepted(self):
        features, labels, assoc = _training_setup([[0.9], [0.2]])
        model = train_attribute_classifiers(features, labels, assoc,
                                            TrainConfig(max_iters=100))
        assert np.isfinite(model.weights).all()

    def test_constant_feature_column_is_safe(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 2))
        X[:, 1] = 3.0  # zero variance
        features = FeatureMatrix(tuple(f"i{k}" for k in range(10)), X)
        labels = {f"i{k}": ("p" if k < 5 else "q") for k in range(10)}
        assoc = AssociationMatrix(("p", "q"), ("a0",), np.array([[1.0], [0.0]]),
                                  binary=True)
        model = train_attribute_classifiers(features, labels, assoc)
        assert np.isfinite(model.weights).all()
        assert max(model.metadata["grad_norm"]) < TrainConfig().tol
        assert model.feature_std[1] == 1.0
        assert model.weights[0, 1] == 0.0  # the column is all zeros once centered

    def test_missing_instance_rejected(self):
        features, labels, assoc = _training_setup([[1.0], [0.0]])
        labels = dict(labels)
        labels["ghost"] = "p"
        with pytest.raises(ValidationError):
            train_attribute_classifiers(features, labels, assoc)

    def test_unknown_category_rejected(self):
        features, labels, assoc = _training_setup([[1.0], [0.0]])
        labels = dict(labels)
        labels[next(iter(labels))] = "zebra"
        with pytest.raises(ValidationError):
            train_attribute_classifiers(features, labels, assoc)

    def test_empty_labels_rejected(self):
        features, _, assoc = _training_setup([[1.0], [0.0]])
        with pytest.raises(ValidationError):
            train_attribute_classifiers(features, {}, assoc)


def per_attribute_lbfgs_oracle(features, labels, assoc, l2):
    """Oracle: each attribute's objective minimized on its own by L-BFGS to a
    tight gradient tolerance. Returns (weights, biases, final_losses)."""
    inst_index = {inst: i for i, inst in enumerate(features.instances)}
    rows = [inst_index[inst] for inst in labels]
    targets_all = assoc.values[[assoc.category_index(c) for c in labels.values()]]
    X_raw = features.values[rows]
    mu = X_raw.mean(axis=0)
    sd = X_raw.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    X = (X_raw - mu) / sd

    weights, biases, final_losses = [], [], []
    for j in range(len(assoc.attributes)):
        def objective(params, t=targets_all[:, j]):
            loss, gw, gb = logistic_loss_and_grad(params[:-1], params[-1], X, t, l2)
            return loss, np.append(gw, gb)

        res = minimize(objective, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10000})
        weights.append(res.x[:-1])
        biases.append(res.x[-1])
        final_losses.append(res.fun)
    return np.array(weights), np.array(biases), np.array(final_losses)


def _multi_attribute_setup(targets):
    features, labels, _ = _training_setup([[1.0], [0.0]])
    targets = np.asarray(targets, dtype=float)
    attrs = tuple(f"a{j}" for j in range(targets.shape[1]))
    return features, labels, AssociationMatrix(("p", "q"), attrs, targets)


def _synth_setup():
    ds = gen_dataset(SynthConfig())
    return ds.features, ds.split.train_instances, ds.associations


class TestBatchedMatchesPerAttributeOracle:
    @pytest.mark.parametrize("case, config", [
        ("synth", TrainConfig()),
        ("degenerate", TrainConfig()),
        ("soft", TrainConfig()),
        ("small_l2", TrainConfig(l2=1e-3, tol=1e-10)),
    ], ids=["synth", "degenerate", "soft", "small_l2"])
    def test_matches_oracle(self, case, config):
        features, labels, assoc = {
            "synth": _synth_setup,
            "small_l2": _synth_setup,
            "degenerate": lambda: _multi_attribute_setup([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
            "soft": lambda: _multi_attribute_setup([[0.9, 0.3], [0.2, 0.7]]),
        }[case]()
        model = train_attribute_classifiers(features, labels, assoc, config)
        assert max(model.metadata["grad_norm"]) < config.tol
        weights, biases, final_losses = per_attribute_lbfgs_oracle(
            features, labels, assoc, config.l2)
        # all-positive or all-negative attributes have no finite optimum in
        # the bias, so only their gradient norm is comparable
        fit = ~np.array(model.metadata["degenerate"])
        np.testing.assert_allclose(model.weights[fit], weights[fit], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(model.biases[fit], biases[fit], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(np.array(model.metadata["final_loss"])[fit],
                                   final_losses[fit], rtol=1e-10, atol=1e-12)
        if case == "degenerate":
            assert model.metadata["degenerate"] == [False, True, True]

    def test_grad_norm_is_recorded_at_stop(self):
        features, labels, assoc = _synth_setup()
        config = TrainConfig(max_iters=2000, tol=1e-2)
        model = train_attribute_classifiers(features, labels, assoc, config)
        norms = np.array(model.metadata["grad_norm"])
        iterations = model.metadata["iterations"]
        stopped = np.array(iterations) < config.max_iters
        assert stopped.any() and (norms[stopped] < config.tol).all()
        # rows leave the batch at different steps
        assert len(set(iterations)) > 1


class TestChunkedSums:
    # 180 training rows: chunks of 7 leave a last chunk of 5, and 10**6 holds them all
    @pytest.mark.parametrize("chunk", [7, 10**6], ids=["ragged", "one_chunk"])
    def test_chunk_size_does_not_change_the_fit(self, chunk, monkeypatch):
        features, labels, assoc = _synth_setup()
        assert len(labels) == 180
        want = train_attribute_classifiers(features, labels, assoc)
        monkeypatch.setattr(classify, "_CHUNK", chunk)
        got = train_attribute_classifiers(features, labels, assoc)
        assert got.metadata["iterations"] == want.metadata["iterations"]
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(got.biases, want.biases, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(got.metadata["final_loss"], want.metadata["final_loss"],
                                   rtol=1e-10, atol=1e-12)

    def test_traced_peak_at_benchmark_shape(self):
        # zsl-train's 3,000 training rows x 64 dims and 48 attributes: training
        # copies 1.5 MB of features and 1.1 MB of targets, and each step's
        # Hessians and their solve take 1.6 MB each
        ds = gen_dataset(SynthConfig(n_known=30, n_novel=20, n_attributes=48, feature_dim=64,
                                     train_per_known=100, test_per_novel=30))
        labels = ds.split.train_instances
        assert (len(labels), ds.features.dim) == (3000, 64)
        tracemalloc.start()
        try:
            train_attribute_classifiers(ds.features, labels, ds.associations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestFirstOrderOptimality:
    """Every attribute reaches ``grad_norm < tol`` with finite parameters."""

    def _check(self, model, config=TrainConfig()):
        assert np.isfinite(model.weights).all() and np.isfinite(model.biases).all()
        assert max(model.metadata["grad_norm"]) < config.tol
        assert max(model.metadata["iterations"]) < config.max_iters

    @pytest.mark.parametrize("targets", [[[1.0], [1.0]], [[0.0], [0.0]], [[0.9], [0.2]]],
                             ids=["all_positive", "all_negative", "soft"])
    def test_single_attribute(self, targets):
        features, labels, assoc = _training_setup(targets)
        self._check(train_attribute_classifiers(features, labels, assoc))

    @pytest.mark.parametrize("seed, l2", [(7, 1e-8), (18, 1e-6)])
    def test_separable_data_with_weak_l2(self, seed, l2):
        # 40 points in 30 dimensions are separable; on these draws a full
        # Newton step saturates every probability and leaves a singular
        # Hessian, so the step has to be shortened
        X = np.random.default_rng(seed).normal(size=(40, 30))
        instances = tuple(f"i{k}" for k in range(40))
        labels = {inst: ("p" if k < 20 else "q") for k, inst in enumerate(instances)}
        assoc = AssociationMatrix(("p", "q"), ("a0",), np.array([[1.0], [0.0]]))
        config = TrainConfig(l2=l2, max_iters=100)
        model = train_attribute_classifiers(FeatureMatrix(instances, X), labels, assoc, config)
        self._check(model, config)


class TestPrediction:
    def _unit_model(self):
        return AttributeModel(
            attributes=("a0",),
            weights=np.array([[1.0]]),
            biases=np.array([0.0]),
            feature_mean=np.array([0.0]),
            feature_std=np.array([1.0]),
        )

    def test_hand_value(self):
        model = self._unit_model()
        probs = predict_attribute_scores(model, FeatureMatrix(("i0",), np.array([[2.0]])))
        assert probs.values[0, 0] == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_probabilities_strictly_inside_unit_interval(self):
        model = self._unit_model()
        feats = FeatureMatrix(("i0", "i1"), np.array([[1e6], [-1e6]]))
        probs = predict_attribute_scores(model, feats)
        assert probs.values[0, 0] < 1.0
        assert probs.values[1, 0] > 0.0
        # saturated scores land within 1e-9 of the endpoints
        assert probs.values[0, 0] > 1.0 - 1e-9
        assert probs.values[1, 0] < 1e-9

    def test_dim_mismatch_rejected(self):
        model = self._unit_model()
        with pytest.raises(ValidationError):
            predict_attribute_scores(model, FeatureMatrix(("i0",), np.zeros((1, 3))))

    def test_standardization_applied_at_predict_time(self):
        model = AttributeModel(
            attributes=("a0",),
            weights=np.array([[1.0]]),
            biases=np.array([0.0]),
            feature_mean=np.array([10.0]),
            feature_std=np.array([2.0]),
        )
        probs = predict_attribute_scores(model, FeatureMatrix(("i0",), np.array([[10.0]])))
        assert probs.values[0, 0] == 0.5


class TestTrainConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(l2=-1.0)
        for l2 in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                TrainConfig(l2=l2)
        with pytest.raises(ValidationError):
            TrainConfig(max_iters=-1)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                TrainConfig(tol=tol)
