"""Shared domain types: identifiers, matrix containers, dataset splits."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np


class ValidationError(ValueError):
    """A domain invariant or precondition was violated."""


class ParseError(Exception):
    """An input file or document could not be parsed."""


def clean_identifier(identifier: str) -> str:
    """Trim surrounding whitespace; identifiers are case-sensitive."""
    ident = str(identifier).strip()
    if not ident:
        raise ValidationError("empty identifier")
    return ident


def freeze(obj, **fields) -> None:
    """Set ``fields`` of a frozen dataclass instance, as its __post_init__ may."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _clean_ids(ids: Iterable[str], axis: str) -> tuple[str, ...]:
    out = tuple(clean_identifier(i) for i in ids)
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate {axis} identifiers")
    return out


def _clean_values(values, shape: tuple[int, int], what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AssociationMatrix:
    """Category x attribute association strengths in [0, 1].

    In binary mode entries are restricted to {0, 1}; a category row with no
    nonzero entry is reported as a warning, not an error.
    """

    categories: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray
    binary: bool = False

    def __post_init__(self):
        cats = _clean_ids(self.categories, "category")
        attrs = _clean_ids(self.attributes, "attribute")
        vals = _clean_values(self.values, (len(cats), len(attrs)), "association matrix")
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValidationError("association entries must lie in [0, 1]")
        if self.binary:
            if not np.all((vals == 0.0) | (vals == 1.0)):
                raise ValidationError("binary association entries must be 0 or 1")
            empty = [cats[i] for i in np.flatnonzero(vals.sum(axis=1) == 0)]
            if empty:
                warnings.warn(
                    f"categories with no associated attribute: {', '.join(empty)}",
                    stacklevel=2,
                )
        # lookup maps built once; training looks up one category per label
        freeze(self, categories=cats, attributes=attrs, values=vals,
               _category_rows={c: i for i, c in enumerate(cats)},
               _attribute_columns={a: j for j, a in enumerate(attrs)})

    def category_index(self, category: str) -> int:
        try:
            return self._category_rows[category]
        except KeyError:
            raise ValidationError(f"unknown category: {category!r}") from None

    def attribute_index(self, attribute: str) -> int:
        try:
            return self._attribute_columns[attribute]
        except KeyError:
            raise ValidationError(f"unknown attribute: {attribute!r}") from None


@dataclass(frozen=True, eq=False)
class AttributeScoreMatrix:
    """Instance x attribute probabilities, entries in [0, 1]."""

    instances: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        insts = _clean_ids(self.instances, "instance")
        attrs = _clean_ids(self.attributes, "attribute")
        vals = _clean_values(self.values, (len(insts), len(attrs)), "attribute scores")
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValidationError("attribute scores must lie in [0, 1]")
        freeze(self, instances=insts, attributes=attrs, values=vals)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Instance x dimension dense feature matrix with finite entries."""

    instances: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        insts = _clean_ids(self.instances, "instance")
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != len(insts):
            raise ValidationError(
                f"feature matrix: expected {len(insts)} rows, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("feature matrix: non-finite entries")
        arr.setflags(write=False)
        freeze(self, instances=insts, values=arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


VALID_MEASURES = (
    "dice_hit",
    "dice_snippet",
    "lin",
    "esa",
    "tfidf",
    "fused",
)


@dataclass(frozen=True, eq=False)
class RelatednessMatrix:
    """Dense real-valued relatedness scores with a measure tag.

    Rows are categories and columns attributes by convention, but the
    container is also used for novel x known category relatedness.
    """

    categories: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray
    measure: str = "fused"

    def __post_init__(self):
        cats = _clean_ids(self.categories, "category")
        attrs = _clean_ids(self.attributes, "attribute")
        vals = _clean_values(self.values, (len(cats), len(attrs)), "relatedness matrix")
        if np.any(vals < 0.0):
            raise ValidationError("relatedness entries must be nonnegative")
        if self.measure not in VALID_MEASURES:
            raise ValidationError(f"unknown relatedness measure: {self.measure!r}")
        freeze(self, categories=cats, attributes=attrs, values=vals)


@dataclass(frozen=True, eq=False)
class CategoryScoreMatrix:
    """Instance x category real scores."""

    instances: tuple[str, ...]
    categories: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        insts = _clean_ids(self.instances, "instance")
        cats = _clean_ids(self.categories, "category")
        vals = _clean_values(self.values, (len(insts), len(cats)), "category scores")
        freeze(self, instances=insts, categories=cats, values=vals)


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Known/novel category split with train, test, and few-shot label maps.

    Invariants (checked by :func:`validate_split`, not the constructor, so
    broken splits can be diagnosed): known and novel categories are
    disjoint, train labels reference known categories, few-shot labels
    reference novel categories, and few-shot instances are not test
    instances.
    """

    known_categories: frozenset[str]
    novel_categories: frozenset[str]
    train_instances: Mapping[str, str]
    test_instances: Mapping[str, str]
    fewshot_instances: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        freeze(self, known_categories=frozenset(self.known_categories),
               novel_categories=frozenset(self.novel_categories),
               train_instances=dict(self.train_instances), test_instances=dict(self.test_instances),
               fewshot_instances=dict(self.fewshot_instances))


def validate_split(split: DatasetSplit, assoc: AssociationMatrix | None = None) -> list[str]:
    """Check all split invariants, plus category coverage in ``assoc`` if given.

    Returns a list of human-readable violations; empty means the split is
    consistent. Purely diagnostic, never raises.
    """
    violations = []
    for cat in sorted(split.known_categories & split.novel_categories):
        violations.append(f"category both known and novel: {cat}")
    for inst, cat in split.train_instances.items():
        if cat not in split.known_categories:
            violations.append(f"train instance {inst} labeled with non-known category {cat}")
    for inst, cat in split.fewshot_instances.items():
        if cat not in split.novel_categories:
            violations.append(f"few-shot instance {inst} labeled with non-novel category {cat}")
    for inst in sorted(set(split.fewshot_instances) & set(split.test_instances)):
        violations.append(f"instance both few-shot and test: {inst}")
    if assoc is not None:
        for cat in sorted((split.known_categories | split.novel_categories)
                          - set(assoc.categories)):
            violations.append(f"split category missing from associations: {cat}")
    return violations
