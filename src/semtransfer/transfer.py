"""Zero-shot scoring of novel categories from attribute evidence.

Three transfer routes:

* attribute-posterior scoring: each novel category is scored by how well
  an instance's predicted attribute probabilities match the category's
  binary signature, normalized by attribute priors (log domain);
* direct-similarity: weighted blend of known-category classifier scores,
  weights from a relatedness matrix over (novel, known) pairs;
* hierarchy transfer: borrow scores from known leaves near the novel
  category's attachment point in a taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .classify import PROB_FLOOR
from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    RelatednessMatrix,
    ValidationError,
    freeze,
)
from .relatedness import Taxonomy

PRIOR_MIN = 0.05
PRIOR_MAX = 0.95


@dataclass(frozen=True, eq=False)
class AttributePrior:
    attributes: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.attributes),):
            raise ValidationError(f"prior must have one value per attribute, got {v.shape}")
        if not np.isfinite(v).all() or (v <= 0).any() or (v >= 1).any():
            raise ValidationError("prior probabilities must lie strictly in (0, 1)")
        v.setflags(write=False)
        freeze(self, values=v)


def attribute_prior_from_associations(assoc: AssociationMatrix) -> AttributePrior:
    """Column means over categories, clamped to [0.05, 0.95].

    The clamp keeps the posterior ratios bounded when an attribute is on
    (or off) for every category.
    """
    means = assoc.values.mean(axis=0)
    means = np.where(np.isfinite(means), means, 0.5)
    return AttributePrior(assoc.attributes, np.clip(means, PRIOR_MIN, PRIOR_MAX))


def dap_scores(scores: AttributeScoreMatrix, novel_assoc: AssociationMatrix,
               prior: AttributePrior) -> CategoryScoreMatrix:
    """Log-domain attribute-posterior category scores.

    score(x, z) = sum over attributes of
        a_z * log(p(a|x)/p(a)) + (1 - a_z) * log((1-p(a|x))/(1-p(a))).
    Higher is better; scores are comparable across instances for a fixed
    category set. Requires a binary association matrix whose attribute
    axis matches the score matrix and the prior exactly.
    """
    if not novel_assoc.binary:
        raise ValidationError("attribute-posterior scoring needs binary associations")
    if scores.attributes != novel_assoc.attributes or scores.attributes != prior.attributes:
        raise ValidationError("attribute axes of scores, associations, and prior must match")
    P = np.clip(scores.values, PROB_FLOOR, 1.0 - PROB_FLOOR)
    A = novel_assoc.values
    pr = prior.values
    logpos = np.log(P) - np.log(pr)
    logneg = np.log1p(-P) - np.log1p(-pr)
    out = logpos @ A.T + logneg @ (1.0 - A).T
    return CategoryScoreMatrix(scores.instances, novel_assoc.categories, out)


def direct_similarity_scores(known_scores: CategoryScoreMatrix,
                             rel: RelatednessMatrix,
                             top_k: int = 5) -> CategoryScoreMatrix:
    """Novel-category scores as relatedness-weighted sums of known scores.

    ``rel`` rows are novel categories, columns the known categories and
    must match ``known_scores.categories``. Only the ``top_k`` most
    related known categories contribute; their weights are renormalized
    to sum to one.
    """
    if rel.attributes != known_scores.categories:
        raise ValidationError(
            "relatedness columns must match the known category scores")
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    k = min(top_k, len(known_scores.categories))
    n_inst = len(known_scores.instances)
    out = np.zeros((n_inst, len(rel.categories)))
    for i, novel in enumerate(rel.categories):
        r = rel.values[i]
        if not (r > 0).any():
            raise ValidationError(f"unrelatable novel category: {novel!r}")
        top = np.argsort(-r, kind="stable")[:k]
        w = r[top]
        w = w / w.sum()
        out[:, i] = known_scores.values[:, top] @ w
    return CategoryScoreMatrix(known_scores.instances, rel.categories, out)


def hierarchy_transfer(tax: Taxonomy, known_scores: CategoryScoreMatrix,
                       novel_nodes: Mapping[str, str],
                       mode: str = "all") -> CategoryScoreMatrix:
    """Score novel categories from known leaves around taxonomy attachments.

    ``novel_nodes`` maps each novel category to the taxonomy node it
    attaches to. ``leaf`` copies the closest known leaf (tree distance,
    ties broken toward the earlier known category); ``inner`` averages the
    known leaves under the attachment, walking up to the first ancestor
    with any; ``all`` averages the two answers.
    """
    if mode not in ("leaf", "inner", "all"):
        raise ValidationError(f"unknown hierarchy mode: {mode!r}")
    if not (isinstance(novel_nodes, Mapping)
            and all(isinstance(n, str) for n in novel_nodes.values())):
        raise ValidationError("attachments must map novel categories to taxonomy node names, "
                              f"got {novel_nodes!r}")
    if not novel_nodes:
        raise ValidationError("no novel categories to attach")
    known_idx = {c: j for j, c in enumerate(known_scores.categories) if c in tax.parent}
    if not known_idx:
        raise ValidationError("no known categories appear in the taxonomy")
    novel = tuple(novel_nodes)

    def leaf_column(attach: str) -> np.ndarray:
        best = min(known_idx, key=lambda c: (tax.tree_distance(attach, c), known_idx[c]))
        return known_scores.values[:, known_idx[best]]

    def inner_column(attach: str) -> np.ndarray:
        for node in tax.ancestors(attach):
            inside = [c for c in tax.leaf_descendants(node) if c in known_idx]
            if inside:
                cols = [known_scores.values[:, known_idx[c]] for c in inside]
                return np.mean(cols, axis=0)
        raise ValidationError(f"no known leaves reachable from {attach!r}")

    out = np.zeros((len(known_scores.instances), len(novel)))
    for j, cat in enumerate(novel):
        attach = novel_nodes[cat]
        if attach not in tax.parent:
            raise ValidationError(f"attachment is not a taxonomy node: {attach!r}")
        if mode == "leaf":
            out[:, j] = leaf_column(attach)
        elif mode == "inner":
            out[:, j] = inner_column(attach)
        else:
            out[:, j] = 0.5 * (leaf_column(attach) + inner_column(attach))
    return CategoryScoreMatrix(known_scores.instances, novel, out)
