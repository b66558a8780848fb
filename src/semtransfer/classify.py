"""Per-attribute probabilistic classifiers on instance features.

One L2-regularized logistic regression per attribute, all trained by one
batched full-batch gradient descent from zero weights on z-scored
features: each step takes every attribute's gradient with two matrix
products, and an attribute leaves the batch once its gradient norm is
below ``tol``. Targets come from the binary association matrix: every
training instance inherits the attribute labels of its category. Soft
targets in [0, 1] are accepted for fused association inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np
from scipy.special import expit

from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    FeatureMatrix,
    ValidationError,
)

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-3
    lr: float = 0.1
    max_iters: int = 2000
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.l2 < 0:
            raise ValidationError(f"l2 must be >= 0, got {self.l2}")
        if self.lr <= 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
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
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "feature_mean", mu)
        object.__setattr__(self, "feature_std", sd)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


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
    resid = expit(z) - targets
    grad_w = X.T @ resid / n + l2 * w
    grad_b = float(resid.sum()) / n
    return loss, grad_w, grad_b


def train_attribute_classifiers(features: FeatureMatrix, labels: Mapping[str, str],
                                assoc: AssociationMatrix,
                                config: TrainConfig = TrainConfig()) -> AttributeModel:
    """Fit one logistic classifier per attribute on labeled training features.

    Every instance in ``labels`` must have a feature row and a category in
    ``assoc``. An attribute's descent stops when its gradient norm falls
    below ``tol`` or after ``max_iters`` steps; the metadata records each
    attribute's ``iterations``, ``final_loss`` and ``grad_norm`` at stop.
    Attributes whose targets are all-positive or all-negative are flagged
    ``degenerate`` but still trained.
    """
    if not labels:
        raise ValidationError("no training labels")
    inst_index = {inst: i for i, inst in enumerate(features.instances)}
    rows = []
    cat_rows = []
    for inst, cat in labels.items():
        if inst not in inst_index:
            raise ValidationError(f"labeled instance without features: {inst!r}")
        rows.append(inst_index[inst])
        cat_rows.append(assoc.category_index(cat))
    X_raw = features.values[rows]
    targets = np.ascontiguousarray(assoc.values[cat_rows].T)  # (n_attributes, n_train)

    mu = X_raw.mean(axis=0)
    sd = X_raw.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    X = (X_raw - mu) / sd

    n = len(rows)
    weights = np.zeros((len(assoc.attributes), features.dim))
    biases = np.zeros(len(assoc.attributes))
    steps = np.zeros(len(assoc.attributes), dtype=int)
    active = np.arange(len(assoc.attributes))  # rows whose gradient norm is >= tol
    for _ in range(config.max_iters):
        W, b = weights[active], biases[active]
        resid = expit(W @ X.T + b[:, None]) - targets[active]
        gW = resid @ X / n + config.l2 * W
        gb = resid.sum(axis=1) / n
        keep = np.sqrt(np.einsum("ij,ij->i", gW, gW) + gb * gb) >= config.tol
        active = active[keep]
        if not active.size:
            break
        weights[active] = W[keep] - config.lr * gW[keep]
        biases[active] = b[keep] - config.lr * gb[keep]
        steps[active] += 1

    final = [logistic_loss_and_grad(weights[j], float(biases[j]), X, targets[j], config.l2)
             for j in range(len(assoc.attributes))]
    metadata = {
        "iterations": steps.tolist(),
        "final_loss": [loss for loss, _, _ in final],
        "grad_norm": [float(np.sqrt(gw @ gw + gb * gb)) for _, gw, gb in final],
        "degenerate": ((targets >= 0.5).all(axis=1) | (targets < 0.5).all(axis=1)).tolist(),
        "config": asdict(config),
        "n_train": n,
    }
    return AttributeModel(assoc.attributes, weights, biases, mu, sd, metadata)


def predict_attribute_scores(model: AttributeModel,
                             features: FeatureMatrix) -> AttributeScoreMatrix:
    """Per-instance attribute probabilities, clipped strictly inside (0, 1)."""
    if features.dim != model.dim:
        raise ValidationError(
            f"feature dim {features.dim} does not match model dim {model.dim}")
    X = (features.values - model.feature_mean) / model.feature_std
    probs = expit(X @ model.weights.T + model.biases)
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return AttributeScoreMatrix(features.instances, model.attributes, probs)
