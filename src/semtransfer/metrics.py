"""Ranking and accuracy metrics for zero- and few-shot evaluation.

AUC uses the rank-sum (Mann-Whitney) formulation with midrank tie
correction, so tied scores contribute half credit. Average precision
averages precision at each positive's rank, with ties broken by input
order. The zero-shot evaluator reports both metrics per novel category
under two protocols: novel instances only, or with known-category test
instances mixed in as distractor negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import CategoryScoreMatrix, DatasetSplit, ValidationError

PROTOCOLS = ("novel_only", "with_distractors")


def _checked(scores, positives) -> tuple[np.ndarray, np.ndarray]:
    """Float scores and bool positives, 1-d, of equal length and finite."""
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(positives, dtype=bool)
    if pos.ndim != 1:
        raise ValidationError(f"positives must be 1-d, got shape {pos.shape}")
    if s.shape != pos.shape:
        raise ValidationError("scores and positives must have equal length")
    if not np.isfinite(s).all():
        raise ValidationError("scores must be finite")
    return s, pos


def _average_ranks(s: np.ndarray, order: np.ndarray) -> np.ndarray:
    """1-based ranks of ``s``, tied values sharing the mean of their ranks.

    ``order`` sorts ``s`` descending; the mean ranks do not depend on the
    order within ties.
    """
    sorted_s = s[order]
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    # descending positions start .. end - 1 hold ranks n - end + 1 .. n - start
    ranks[order] = np.repeat(s.size + 0.5 - 0.5 * (starts + ends), ends - starts)
    return ranks


def _auc(s: np.ndarray, pos: np.ndarray, order: np.ndarray) -> float:
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("degenerate AUC: need at least one positive and one negative")
    ranks = _average_ranks(s, order)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _ap(pos: np.ndarray, order: np.ndarray) -> float:
    if not pos.any():
        raise ValidationError("average precision needs at least one positive")
    hits = pos[order]
    cum = np.cumsum(hits)
    ranks = np.arange(1, hits.size + 1)
    return float((cum[hits] / ranks[hits]).mean())


def roc_auc(scores: Sequence[float], positives: Sequence[bool]) -> float:
    """Probability a random positive outscores a random negative."""
    s, pos = _checked(scores, positives)
    return _auc(s, pos, np.argsort(-s, kind="stable"))


def average_precision(scores: Sequence[float], positives: Sequence[bool]) -> float:
    """Mean of precision-at-rank over the positives, descending scores.

    Equal scores keep their input order, so the result is deterministic.
    """
    s, pos = _checked(scores, positives)
    return _ap(pos, np.argsort(-s, kind="stable"))


def _positives(labels: Sequence[str], categories: Sequence[str]) -> np.ndarray:
    """Instances x categories: whether the instance's label is the category."""
    col = {c: j for j, c in enumerate(categories)}
    label_col = np.array([col.get(lab, -1) for lab in labels], dtype=np.int64)
    return label_col[:, None] == np.arange(len(categories))


def mean_ap(scores: CategoryScoreMatrix, truth: Mapping[str, str]) -> float:
    """Average precision per score column, averaged over categories.

    Positives for a column are the instances whose true label equals that
    column's category; every scored instance therefore needs a truth label.
    Labels outside the scored categories act as negatives everywhere.
    """
    if missing := [inst for inst in scores.instances if inst not in truth]:
        raise ValidationError(f"instances without truth labels: {missing[:5]}")
    positives = _positives([truth[inst] for inst in scores.instances], scores.categories)
    aps = []
    for j, cat in enumerate(scores.categories):
        if not positives[:, j].any():
            raise ValidationError(f"category without positives: {cat!r}")
        aps.append(average_precision(scores.values[:, j], positives[:, j]))
    return float(np.mean(aps))


def multiclass_accuracy(scores: CategoryScoreMatrix, truth: Mapping[str, str],
                        instances: Sequence[str] | None = None) -> float:
    """Fraction of rows whose argmax category (first on ties) matches truth."""
    if instances is None:
        instances = [i for i in scores.instances if i in truth]
    if not instances:
        raise ValidationError("no instances to score")
    idx = {inst: i for i, inst in enumerate(scores.instances)}
    for inst in instances:
        if inst not in idx:
            raise ValidationError(f"instance without scores: {inst!r}")
        if inst not in truth:
            raise ValidationError(f"instance without truth label: {inst!r}")
    picks = np.argmax(scores.values[[idx[inst] for inst in instances]], axis=1)
    right = _positives([truth[inst] for inst in instances], scores.categories)
    return int(right[np.arange(len(instances)), picks].sum()) / len(instances)


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    per_category_auc: Mapping[str, float]
    mean_auc: float
    per_category_ap: Mapping[str, float]
    mean_ap: float
    accuracy: float
    counts: Mapping[str, int]


def evaluate_zero_shot(scores: CategoryScoreMatrix, truth: Mapping[str, str],
                       split: DatasetSplit, protocol: str = "novel_only") -> EvalReport:
    """Per-novel-category AUC/AP plus multiclass accuracy on the test set.

    ``novel_only`` ranks only novel-category test instances;
    ``with_distractors`` adds known-category test instances as negatives
    for every novel category. Accuracy is always over novel test rows.
    """
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown protocol: {protocol!r}")
    novel = split.novel_categories
    if extra := set(scores.categories) - set(novel):
        raise ValidationError(f"scored categories outside the novel set: {sorted(extra)}")

    novel_pool: list[str] = []
    distractor_pool: list[str] = []
    for inst, cat in split.test_instances.items():
        if inst not in truth:
            raise ValidationError(f"test instance without truth label: {inst!r}")
        if truth[inst] != cat:
            raise ValidationError(
                f"truth and split disagree on {inst!r}: {truth[inst]!r} vs {cat!r}")
        if cat in novel:
            if cat not in scores.categories:
                raise ValidationError(f"novel test category never scored: {cat!r}")
            novel_pool.append(inst)
        else:
            distractor_pool.append(inst)
    if not novel_pool:
        raise ValidationError("no novel-category test instances")

    pool = novel_pool + (distractor_pool if protocol == "with_distractors" else [])
    idx = {inst: i for i, inst in enumerate(scores.instances)}
    if missing := [inst for inst in pool if inst not in idx]:
        raise ValidationError(f"test instances without scores: {missing[:5]}")
    V = scores.values[[idx[inst] for inst in pool]]
    if not np.isfinite(V).all():
        raise ValidationError("scores must be finite")
    positives = _positives([truth[inst] for inst in pool], scores.categories)

    per_auc: dict[str, float] = {}
    per_ap: dict[str, float] = {}
    for j, cat in enumerate(scores.categories):
        if not positives[:, j].any():
            raise ValidationError(f"category without positives: {cat!r}")
        order = np.argsort(-V[:, j], kind="stable")  # one sort for both metrics
        per_auc[cat] = _auc(V[:, j], positives[:, j], order)
        per_ap[cat] = _ap(positives[:, j], order)

    accuracy = multiclass_accuracy(scores, truth, novel_pool)
    counts = {
        "evaluated_instances": len(pool),
        "novel_test_instances": len(novel_pool),
        "distractor_instances": len(pool) - len(novel_pool),
        "categories": len(scores.categories),
    }
    return EvalReport(protocol, per_category_auc=per_auc,
                      mean_auc=float(np.mean(list(per_auc.values()))), per_category_ap=per_ap,
                      mean_ap=float(np.mean(list(per_ap.values()))), accuracy=accuracy,
                      counts=counts)
