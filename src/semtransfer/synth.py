"""Synthetic benchmarks with known ground truth.

Two generators:

* feature datasets: categories carry distinct binary attribute
  signatures; instances embed a (possibly bit-flipped) signature plus a
  per-category Gaussian offset and instance noise. Because the true
  associations are known exactly, end-to-end recognition quality is
  checkable against construction.
* text corpora: documents realize an exact co-occurrence plan (per-term
  document counts and per-pair joint counts), so mined hit-count
  statistics can be compared against closed-form expectations.

All randomness flows through one explicitly seeded PCG64 generator per
call; equal seeds give equal outputs across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    AssociationMatrix,
    DatasetSplit,
    FeatureMatrix,
    ValidationError,
)
from .relatedness import tokenize


@dataclass(frozen=True)
class SynthConfig:
    n_known: int = 6
    n_novel: int = 2
    n_attributes: int = 12
    feature_dim: int = 12
    train_per_known: int = 30
    test_per_novel: int = 40
    distractor_per_known: int = 0
    fewshot_per_novel: int = 0
    flip_noise: float = 0.0
    cluster_noise: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_known < 1 or self.n_novel < 1:
            raise ValidationError("need at least one known and one novel category")
        if self.n_attributes < 1:
            raise ValidationError("need at least one attribute")
        if self.feature_dim < self.n_attributes:
            raise ValidationError(
                f"feature_dim {self.feature_dim} < n_attributes {self.n_attributes}")
        if self.train_per_known < 1 or self.test_per_novel < 1:
            raise ValidationError("need at least one train and one test instance per category")
        if self.distractor_per_known < 0 or self.fewshot_per_novel < 0:
            raise ValidationError("instance counts must be non-negative")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.flip_noise < 1.0):
            raise ValidationError(f"flip_noise must lie in [0, 1), got {self.flip_noise}")
        if not 0.0 <= self.cluster_noise < np.inf:
            raise ValidationError(f"cluster_noise must be finite and >= 0, got {self.cluster_noise}")
        n_cats = self.n_known + self.n_novel
        if 2 ** self.n_attributes < n_cats + 1:
            raise ValidationError(
                f"{self.n_attributes} attributes cannot give {n_cats} distinct non-zero signatures")


@dataclass(frozen=True, eq=False)
class SynthDataset:
    features: FeatureMatrix
    labels: dict[str, str]
    associations: AssociationMatrix
    split: DatasetSplit


def _sample_signatures(rng: np.random.Generator, n_known: int, n_novel: int,
                       m: int) -> np.ndarray:
    """Distinct non-zero binary rows; known-block columns non-constant when possible."""
    n = n_known + n_novel
    fallback = None
    for _ in range(2000):
        sig = rng.integers(0, 2, size=(n, m)).astype(float)
        if (sig.sum(axis=1) == 0).any() or len({tuple(r) for r in sig}) < n:
            continue
        if fallback is None:
            fallback = sig
        known = sig[:n_known]
        col_sums = known.sum(axis=0)
        if ((col_sums > 0) & (col_sums < n_known)).all():
            return sig
    if fallback is not None:
        return fallback
    raise ValidationError("could not sample distinct category signatures")


def gen_dataset(config: SynthConfig = SynthConfig()) -> SynthDataset:
    """Generate features, labels, true associations, and an evaluation split.

    Instance order is fixed: known training blocks, then novel few-shot
    blocks, then novel test blocks, then known distractor blocks. Ids are
    sequential in that order, so a seed pins the whole dataset.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    known = tuple(f"k{i:02d}" for i in range(config.n_known))
    novel = tuple(f"n{i:02d}" for i in range(config.n_novel))
    attributes = tuple(f"a{j:02d}" for j in range(config.n_attributes))
    cats = known + novel
    m, d = config.n_attributes, config.feature_dim

    signatures = _sample_signatures(rng, config.n_known, config.n_novel, m)
    offsets = rng.normal(0.0, config.cluster_noise, size=(len(cats), d))
    noise_sd = 0.5 * config.cluster_noise

    instances: list[str] = []
    labels: dict[str, str] = {}
    rows: list[np.ndarray] = []

    def draw(cat_idx: int) -> np.ndarray:
        sig = signatures[cat_idx].copy()
        if config.flip_noise > 0.0:
            flips = rng.random(m) < config.flip_noise
            sig = np.where(flips, 1.0 - sig, sig)
        x = np.zeros(d)
        x[:m] = sig
        x += offsets[cat_idx]
        if noise_sd > 0.0:
            x += rng.normal(0.0, noise_sd, size=d)
        return x

    def emit(cat_idx: int, count: int, bucket: dict[str, str]) -> None:
        cat = cats[cat_idx]
        for _ in range(count):
            inst = f"i{len(instances):05d}"
            instances.append(inst)
            labels[inst] = cat
            bucket[inst] = cat
            rows.append(draw(cat_idx))

    train: dict[str, str] = {}
    fewshot: dict[str, str] = {}
    test: dict[str, str] = {}
    for i in range(config.n_known):
        emit(i, config.train_per_known, train)
    for i in range(config.n_novel):
        emit(config.n_known + i, config.fewshot_per_novel, fewshot)
    for i in range(config.n_novel):
        emit(config.n_known + i, config.test_per_novel, test)
    for i in range(config.n_known):
        emit(i, config.distractor_per_known, test)

    features = FeatureMatrix(tuple(instances), np.vstack(rows))
    assoc = AssociationMatrix(cats, attributes, signatures, binary=True)
    split = DatasetSplit(
        known_categories=frozenset(known),
        novel_categories=frozenset(novel),
        train_instances=train,
        test_instances=test,
        fewshot_instances=fewshot,
    )
    return SynthDataset(features=features, labels=labels, associations=assoc, split=split)


# ---------------------------------------------------------------------------
# Corpus generation from an exact co-occurrence plan


@dataclass(frozen=True, eq=False)
class CorpusPlan:
    """Document counts to realize exactly.

    ``category_counts[c]`` and ``attribute_counts[a]`` fix how many
    documents mention each term; ``joint_counts[(c, a)]`` how many mention
    both. Terms must not share tokens, or the realized hit counts would
    drift from the plan.
    """

    category_counts: Mapping[str, int]
    attribute_counts: Mapping[str, int]
    joint_counts: Mapping[tuple[str, str], int] = field(default_factory=dict)
    filler_docs: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.category_counts or not self.attribute_counts:
            raise ValidationError("plan needs categories and attributes")
        for name, counts in (("category", self.category_counts),
                             ("attribute", self.attribute_counts)):
            for term, cnt in counts.items():
                if cnt < 0:
                    raise ValidationError(f"negative {name} count for {term!r}")
        if self.filler_docs < 0:
            raise ValidationError("filler_docs must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        joint_by_cat: dict[str, int] = {}
        joint_by_attr: dict[str, int] = {}
        for (c, a), cnt in self.joint_counts.items():
            if cnt < 0:
                raise ValidationError(f"negative joint count for {(c, a)!r}")
            if c not in self.category_counts:
                raise ValidationError(f"joint pair uses unknown category {c!r}")
            if a not in self.attribute_counts:
                raise ValidationError(f"joint pair uses unknown attribute {a!r}")
            joint_by_cat[c] = joint_by_cat.get(c, 0) + cnt
            joint_by_attr[a] = joint_by_attr.get(a, 0) + cnt
        for joint, counts in ((joint_by_cat, self.category_counts),
                              (joint_by_attr, self.attribute_counts)):
            for term, total in joint.items():
                if total > counts[term]:
                    raise ValidationError(
                        f"infeasible plan: joint documents for {term!r} exceed its count")
        token_owner: dict[str, str] = {}
        for term in list(self.category_counts) + list(self.attribute_counts):
            toks = tokenize(term)
            if not toks:
                raise ValidationError(f"plan term has no tokens: {term!r}")
            for tok in toks:
                if token_owner.get(tok, term) != term:
                    raise ValidationError(
                        f"plan terms share token {tok!r}: {token_owner[tok]!r} and {term!r}")
                token_owner[tok] = term
        if self.filler_docs and "filler" in token_owner:
            raise ValidationError("plan terms collide with the filler token")

    def dice(self, category: str, attribute: str) -> float:
        """Closed-form document-level Dice for a planned pair."""
        if category not in self.category_counts:
            raise ValidationError(f"unknown category {category!r}")
        if attribute not in self.attribute_counts:
            raise ValidationError(f"unknown attribute {attribute!r}")
        joint = self.joint_counts.get((category, attribute), 0)
        denom = self.category_counts[category] + self.attribute_counts[attribute]
        if denom == 0:
            return 0.0
        return 2.0 * joint / denom


def gen_corpus(plan: CorpusPlan) -> list[tuple[str, str]]:
    """Documents realizing the plan exactly: one "c a" document per joint
    unit, single-term documents for the remainders, optional fillers.
    Document order is shuffled by the plan seed; ids stay sequential."""
    joint_by_cat: dict[str, int] = {}
    joint_by_attr: dict[str, int] = {}
    texts: list[str] = []
    for (c, a), cnt in plan.joint_counts.items():
        joint_by_cat[c] = joint_by_cat.get(c, 0) + cnt
        joint_by_attr[a] = joint_by_attr.get(a, 0) + cnt
        texts.extend([f"{c} {a}"] * cnt)
    for c, total in plan.category_counts.items():
        texts.extend([c] * (total - joint_by_cat.get(c, 0)))
    for a, total in plan.attribute_counts.items():
        texts.extend([a] * (total - joint_by_attr.get(a, 0)))
    texts.extend(["filler"] * plan.filler_docs)
    if not texts:
        raise ValidationError("plan produces an empty corpus")
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    order = rng.permutation(len(texts))
    return [(f"d{i:05d}", texts[j]) for i, j in enumerate(order)]


def corpus_plan_from_associations(assoc: AssociationMatrix,
                                  docs_per_pair: int = 3,
                                  filler_docs: int = 0,
                                  seed: int = 0) -> CorpusPlan:
    """Plan whose mined Dice scores recover the binary associations.

    Every associated pair gets ``docs_per_pair`` joint documents and term
    counts equal to docs_per_pair times the term's association degree, so
    dice(c, a) = 2 / (deg(c) + deg(a)) > 0 exactly for associated pairs
    and 0 elsewhere.
    """
    if not assoc.binary:
        raise ValidationError("corpus planning needs binary associations")
    if docs_per_pair < 1:
        raise ValidationError(f"docs_per_pair must be >= 1, got {docs_per_pair}")
    V = assoc.values
    cat_counts = {c: int(V[i].sum()) * docs_per_pair
                  for i, c in enumerate(assoc.categories)}
    attr_counts = {a: int(V[:, j].sum()) * docs_per_pair
                   for j, a in enumerate(assoc.attributes)}
    joint = {(c, a): docs_per_pair
             for i, c in enumerate(assoc.categories)
             for j, a in enumerate(assoc.attributes)
             if V[i, j] > 0}
    return CorpusPlan(category_counts=cat_counts, attribute_counts=attr_counts,
                      joint_counts=joint, filler_docs=filler_docs, seed=seed)
