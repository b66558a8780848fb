"""Per-attribute probabilistic classifiers on instance features.

One logistic regression per attribute on z-scored features, with L2 on the
weights and an unpenalized bias, fitted to its optimum by Newton steps from
zero. The steps are batched across attributes: one matrix product gives every
gradient, an attribute leaves the batch once its gradient norm is below
``tol``, and one stacked solve takes the other attributes' steps. ``l2 > 0``
makes the optimum unique and finite even on separable data, unless an
attribute's targets are all on one side. Targets come from the association
matrix: every training instance inherits the attribute labels of its
category. Soft targets in [0, 1] are accepted for non-binary association inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    FeatureMatrix,
    ValidationError,
    freeze,
    positions,
)

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 0.3
    max_iters: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.l2 < np.inf:
            raise ValidationError(f"l2 must be positive and finite, got {self.l2}")
        if self.max_iters < 0:
            raise ValidationError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tol <= 0:
            raise ValidationError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True, eq=False)
class AttributeModel:
    """Trained weights plus the standardization that produced them."""

    attributes: tuple[str, ...]
    weights: np.ndarray       # (n_attributes, dim)
    biases: np.ndarray        # (n_attributes,)
    feature_mean: np.ndarray  # (dim,)
    feature_std: np.ndarray   # (dim,)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        mu = np.asarray(self.feature_mean, dtype=float)
        sd = np.asarray(self.feature_std, dtype=float)
        if w.ndim != 2 or w.shape[0] != len(self.attributes):
            raise ValidationError(f"weights must be ({len(self.attributes)}, dim), got {w.shape}")
        if b.shape != (len(self.attributes),):
            raise ValidationError(f"biases must have one entry per attribute, got {b.shape}")
        if mu.shape != (w.shape[1],) or sd.shape != (w.shape[1],):
            raise ValidationError("standardization vectors must match feature dim")
        if not np.isfinite(w).all() or not np.isfinite(b).all():
            raise ValidationError("non-finite model parameters")
        if (sd <= 0).any():
            raise ValidationError("feature_std entries must be positive")
        for arr in (w, b, mu, sd):
            arr.setflags(write=False)
        freeze(self, weights=w, biases=b, feature_mean=mu, feature_std=sd)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), taking exp only of -|z| so it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss_and_grad(w: np.ndarray, b: float, X: np.ndarray,
                           targets: np.ndarray, l2: float):
    """Mean cross-entropy with L2 on the weights (bias unpenalized).

    Uses logaddexp(0, z) - t*z per sample, which stays finite for any z.
    Returns (loss, grad_w, grad_b).
    """
    z = X @ w + b
    n = X.shape[0]
    loss = float(np.logaddexp(0.0, z).sum() - targets @ z) / n
    loss += 0.5 * l2 * float(w @ w)
    resid = logistic(z) - targets
    grad_w = X.T @ resid / n + l2 * w
    grad_b = float(resid.sum()) / n
    return loss, grad_w, grad_b


def train_attribute_classifiers(features: FeatureMatrix, labels: Mapping[str, str],
                                assoc: AssociationMatrix,
                                config: TrainConfig = TrainConfig()) -> AttributeModel:
    """Fit one logistic classifier per attribute on labeled training features.

    Every instance in ``labels`` must have a feature row and a category in
    ``assoc``. An attribute's Newton iteration stops when its gradient norm
    falls below ``tol`` or after ``max_iters`` steps; the metadata records
    each attribute's ``iterations``, ``final_loss`` and ``grad_norm`` at stop.
    Attributes whose targets are all-positive or all-negative are flagged
    ``degenerate`` but still trained.
    """
    if not labels:
        raise ValidationError("no training labels")
    X_raw = features.take(list(labels)).values
    cat_rows = positions(assoc.categories, labels.values(), "categories")
    targets = np.ascontiguousarray(assoc.values[cat_rows].T)  # (n_attributes, n_train)

    mu, sd = X_raw.mean(axis=0), X_raw.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    X = (X_raw - mu) / sd

    n, dim = X.shape
    X1 = np.hstack([X, np.ones((n, 1))])  # the last parameter is the bias
    X1T = np.ascontiguousarray(X1.T)
    reg = np.append(np.full(dim, config.l2), 0.0)

    def objective(theta, Z, T):  # per row: mean cross-entropy plus the L2 term
        return ((np.logaddexp(0.0, Z).sum(axis=1) - np.einsum("ij,ij->i", T, Z)) / n
                + 0.5 * np.einsum("ij,j,ij->i", theta, reg, theta))

    theta = np.zeros((len(assoc.attributes), dim + 1))
    steps = np.zeros(len(assoc.attributes), dtype=int)
    active = np.arange(len(assoc.attributes))  # rows whose gradient norm is >= tol
    Z = np.zeros((active.size, n))  # theta[active] @ X1T
    loss = np.full(active.size, np.log(2.0))
    for step in range(config.max_iters):
        T = targets[active]
        G = (logistic(Z) - T) @ X1 / n + reg * theta[active]
        keep = np.sqrt(np.einsum("ij,ij->i", G, G)) >= config.tol
        active, T, Z, G, loss = (a[keep] for a in (active, T, Z, G, loss))
        if not active.size:
            break
        E = np.exp(-np.abs(Z))  # p(1 - p) = e / (1 + e)^2, exact in both tails
        # every row starts at theta = 0, so step 0 needs only one Hessian
        H = np.array([X1T * (e / (n * (1.0 + e) ** 2)) @ X1
                      for e in (E[:1] if step == 0 else E)]) + np.diag(reg)
        try:
            D = np.linalg.solve(H, G[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # collinear features or saturated probabilities
            # with l2 below rounding; name the first singular system (step 0 has one)
            singular = np.broadcast_to(np.linalg.slogdet(H)[0] == 0, active.shape)
            bad = assoc.attributes[active[singular.argmax()]]
            raise ValidationError(f"attribute {bad!r}: singular Newton system at "
                                  f"l2={config.l2:g}; l2 is too small for these features") from None
        # halve the Newton step until it passes Armijo's test up to rounding slack:
        # far from the optimum (weak l2, separable data) the full step overshoots
        t = np.ones(active.size)
        slack = 1e-12 * np.abs(loss)
        for _ in range(50):
            trial = theta[active] - t[:, None] * D
            Z = trial @ X1T
            f = objective(trial, Z, T)
            short = ~(f <= loss - 1e-4 * t * np.einsum("ij,ij->i", G, D) + slack)
            if not short.any():
                break
            t[short] /= 2
        theta[active], loss = trial, f
        steps[active] += 1

    Z = theta @ X1T
    G = (logistic(Z) - targets) @ X1 / n + reg * theta
    metadata = {
        "iterations": steps.tolist(),
        "final_loss": objective(theta, Z, targets).tolist(),
        "grad_norm": np.sqrt(np.einsum("ij,ij->i", G, G)).tolist(),
        "degenerate": ((targets >= 0.5).all(axis=1) | (targets < 0.5).all(axis=1)).tolist(),
        "config": asdict(config),
        "n_train": n,
    }
    return AttributeModel(assoc.attributes, theta[:, :-1], theta[:, -1], mu, sd, metadata)


def predict_attribute_scores(model: AttributeModel,
                             features: FeatureMatrix) -> AttributeScoreMatrix:
    """Per-instance attribute probabilities, clipped strictly inside (0, 1)."""
    if features.dim != model.dim:
        raise ValidationError(
            f"feature dim {features.dim} does not match model dim {model.dim}")
    X = (features.values - model.feature_mean) / model.feature_std
    probs = logistic(X @ model.weights.T + model.biases)
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return AttributeScoreMatrix(features.instances, model.attributes, probs)
