"""Shared domain types: identifiers, labelled matrices, dataset splits."""

from __future__ import annotations

import warnings
from dataclasses import Field, dataclass, field, fields, replace
from typing import ClassVar, Iterable, Mapping, Sequence

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


def clean_ids(ids: Iterable[str], what: str) -> tuple[str, ...]:
    """Cleaned identifiers, rejected if two of them are equal."""
    out = tuple(clean_identifier(i) for i in ids)
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate identifiers in {what}")
    return out


def positions(axis: Sequence[str], ids: Iterable[str], name: str) -> list[int]:
    """Position of each of ``ids`` in ``axis``; a missing one is an error naming it."""
    index = {r: i for i, r in enumerate(axis)}
    try:
        return [index[r] for r in ids]
    except KeyError as exc:
        raise ValidationError(f"not in {name}: {exc.args[0]!r}") from None


def freeze(obj, **fields) -> None:
    """Set ``fields`` of a frozen dataclass instance, as its __post_init__ may."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class LabelledMatrix:
    """A 2-D float matrix whose axes are tuples of unique identifiers.

    A kind declares its identifier axes as the fields before ``values`` and
    its tags (such as ``binary``) after it. The axes are cleaned; ``values``
    becomes a read-only array that must be finite, fit the axes and lie in
    the closed interval ``RANGE``. ``KIND`` is the kind's TSV ``type`` tag.
    A kind with one axis (features) has free columns.
    """

    KIND: ClassVar[str]
    RANGE: ClassVar[tuple[float, float]] = (-np.inf, np.inf)

    @classmethod
    def layout(cls) -> tuple[list[Field], list[Field]]:
        """The axis fields (before ``values``) and the tag fields (after it)."""
        fs = fields(cls)
        at = [f.name for f in fs].index("values")
        return list(fs[:at]), list(fs[at + 1:])

    def __post_init__(self):
        axes = {f.name: clean_ids(getattr(self, f.name), f.name) for f in self.layout()[0]}
        shape = tuple(map(len, axes.values()))
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[:len(shape)] != shape:
            want = " x ".join(f"{n} {name}" for name, n in zip(axes, shape))
            raise ValidationError(f"{self.KIND}: expected {want}, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError(f"{self.KIND}: non-finite entries")
        lo, hi = self.RANGE
        if np.any(vals < lo) or np.any(vals > hi):
            raise ValidationError(f"{self.KIND} entries must lie in [{lo:g}, {hi:g}]")
        vals.setflags(write=False)
        freeze(self, values=vals, **axes)

    def take(self, ids: Sequence[str]):
        """The same matrix restricted to the rows named by ``ids``, in that order,
        without repeating the warnings that the source matrix already gave."""
        axis = self.layout()[0][0].name
        rows = positions(getattr(self, axis), ids, axis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return replace(self, **{axis: tuple(ids), "values": self.values[rows]})


@dataclass(frozen=True, eq=False)
class AssociationMatrix(LabelledMatrix):
    """Category x attribute association strengths in [0, 1].

    In binary mode entries are restricted to {0, 1}; a category row with no
    nonzero entry is reported as a warning, not an error.
    """

    KIND = "association"
    RANGE = (0.0, 1.0)

    categories: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray
    binary: bool = False

    def __post_init__(self):
        super().__post_init__()
        cats, vals = self.categories, self.values
        if self.binary:
            if not np.all((vals == 0.0) | (vals == 1.0)):
                raise ValidationError("binary association entries must be 0 or 1")
            empty = [cats[i] for i in np.flatnonzero(vals.sum(axis=1) == 0)]
            if empty:
                warnings.warn(f"categories with no associated attribute: {', '.join(empty)}",
                              stacklevel=3)  # the caller of the generated __init__
        # built once; training looks up one category per label
        freeze(self, _category_rows={c: i for i, c in enumerate(cats)})

    def category_index(self, category: str) -> int:
        try:
            return self._category_rows[category]
        except KeyError:
            raise ValidationError(f"unknown category: {category!r}") from None


@dataclass(frozen=True, eq=False)
class AttributeScoreMatrix(LabelledMatrix):
    """Instance x attribute probabilities, entries in [0, 1]."""

    KIND = "attribute_scores"
    RANGE = (0.0, 1.0)

    instances: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class FeatureMatrix(LabelledMatrix):
    """Instance x dimension dense feature matrix with finite entries."""

    KIND = "features"

    instances: tuple[str, ...]
    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]


VALID_MEASURES = ("dice_hit", "dice_snippet", "esa", "lin", "tfidf", "signature")


@dataclass(frozen=True, eq=False)
class RelatednessMatrix(LabelledMatrix):
    """Dense nonnegative relatedness scores with a measure tag, None if untagged.

    Rows are categories and columns attributes by convention, but the
    container is also used for novel x known category relatedness.
    """

    KIND = "relatedness"
    RANGE = (0.0, np.inf)

    categories: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray
    measure: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.measure is not None and self.measure not in VALID_MEASURES:
            raise ValidationError(f"unknown relatedness measure: {self.measure!r}")


@dataclass(frozen=True, eq=False)
class CategoryScoreMatrix(LabelledMatrix):
    """Instance x category real scores."""

    KIND = "category_scores"

    instances: tuple[str, ...]
    categories: tuple[str, ...]
    values: np.ndarray


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
