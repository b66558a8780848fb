"""File formats: TSV matrices, JSONL corpora, taxonomy TSV pairs, JSON models and reports.

All TSVs are UTF-8 and tab-separated. Matrix files put row identifiers in
the first column and leave the first header cell empty; numbers carry 9
significant digits. Lines starting with '#' are ``key=value`` metadata
comments.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    DatasetSplit,
    FeatureMatrix,
    ParseError,
    RelatednessMatrix,
)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_json(path) -> dict:
    """Read a file holding one JSON object."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON with sorted keys, two-space indents and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_number(value: float) -> str:
    return f"{value:.9g}"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ParseError(f"expected true/false, got {text!r}")
    return text == "true"


def write_matrix_tsv(path, row_ids: Sequence[str], col_ids: Sequence[str],
                     values: np.ndarray, tags: Mapping[str, str] | None = None) -> None:
    values = np.asarray(values, dtype=float)
    lines = [f"# {key}={val}" for key, val in (tags or {}).items()]
    lines.append("\t" + "\t".join(col_ids))
    row_format = "%s" + "\t%.9g" * values.shape[1]  # the same digits as format_number
    lines.extend(row_format % (rid, *row) for rid, row in zip(row_ids, values.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_tsv(path):
    """Read a matrix TSV, returning (row_ids, col_ids, values, tags)."""
    text = _read_text(path)
    tags: dict[str, str] = {}
    header = None
    row_ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                tags[key.strip()] = val.strip()
            continue
        cells = line.split("\t")
        if header is None:
            if cells[0] != "":
                raise ParseError(f"{path}:{lineno}: first header cell must be empty")
            header = cells[1:]
            continue
        if len(cells) != len(header) + 1:
            raise ParseError(f"{path}:{lineno}: expected {len(header) + 1} cells, got {len(cells)}")
        row_ids.append(cells[0])
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if header is None:
        raise ParseError(f"{path}: missing header row")
    values = np.array(rows, dtype=float).reshape(len(row_ids), len(header))
    return row_ids, header, values, tags


def write_association(path, assoc: AssociationMatrix) -> None:
    tags = {"type": "association", "binary": "true" if assoc.binary else "false"}
    write_matrix_tsv(path, assoc.categories, assoc.attributes, assoc.values, tags)


def read_association(path) -> AssociationMatrix:
    rows, cols, values, tags = read_matrix_tsv(path)
    binary = _parse_bool(tags.get("binary", "false"))
    return AssociationMatrix(tuple(rows), tuple(cols), values, binary=binary)


def write_relatedness(path, rel: RelatednessMatrix) -> None:
    tags = {"type": "relatedness", "measure": rel.measure}
    write_matrix_tsv(path, rel.categories, rel.attributes, rel.values, tags)


def read_relatedness(path) -> RelatednessMatrix:
    rows, cols, values, tags = read_matrix_tsv(path)
    return RelatednessMatrix(tuple(rows), tuple(cols), values, measure=tags.get("measure", "fused"))


def write_attribute_scores(path, scores: AttributeScoreMatrix) -> None:
    write_matrix_tsv(path, scores.instances, scores.attributes, scores.values,
                     {"type": "attribute_scores"})


def read_attribute_scores(path) -> AttributeScoreMatrix:
    rows, cols, values, _ = read_matrix_tsv(path)
    return AttributeScoreMatrix(tuple(rows), tuple(cols), values)


def write_features(path, features: FeatureMatrix) -> None:
    dims = tuple(f"x{i}" for i in range(features.dim))
    write_matrix_tsv(path, features.instances, dims, features.values, {"type": "features"})


def read_features(path) -> FeatureMatrix:
    rows, _, values, _ = read_matrix_tsv(path)
    return FeatureMatrix(tuple(rows), values)


def write_category_scores(path, scores: CategoryScoreMatrix) -> None:
    tags = {"type": "category_scores", "normalized": "false"}
    write_matrix_tsv(path, scores.instances, scores.categories, scores.values, tags)


def read_category_scores(path) -> CategoryScoreMatrix:
    rows, cols, values, _ = read_matrix_tsv(path)
    return CategoryScoreMatrix(tuple(rows), tuple(cols), values)


def write_labels(path, labels: Mapping[str, str]) -> None:
    """Instance -> category map as a two-column TSV."""
    lines = ["\tcategory", *(f"{inst}\t{cat}" for inst, cat in labels.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path) -> dict[str, str]:
    text = _read_text(path)
    labels: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#") or line.startswith("\t"):
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 cells, got {len(cells)}")
        if cells[0] in labels:
            raise ParseError(f"{path}:{lineno}: duplicate instance {cells[0]!r}")
        labels[cells[0]] = cells[1]
    return labels


def write_corpus_jsonl(path, documents: Sequence[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text in documents:
            fh.write(json.dumps({"id": doc_id, "text": text}, sort_keys=True) + "\n")


def read_corpus_jsonl(path) -> list[tuple[str, str]]:
    text = _read_text(path)
    docs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise ParseError(f"{path}:{lineno}: corpus lines need 'id' and 'text' fields")
        docs.append((str(obj["id"]), str(obj["text"])))
    return docs


def read_taxonomy(edges_path, probs_path):
    """Read the edge-list / probability TSV pair into a Taxonomy."""
    from .relatedness import Taxonomy

    parent: dict[str, str | None] = {}
    for lineno, line in enumerate(_read_text(edges_path).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ParseError(f"{edges_path}:{lineno}: expected child<TAB>parent")
        child, par = cells
        if child in parent:
            raise ParseError(f"{edges_path}:{lineno}: duplicate child {child!r}")
        parent[child] = par
        parent.setdefault(par, None)

    prob: dict[str, float] = {}
    for lineno, line in enumerate(_read_text(probs_path).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ParseError(f"{probs_path}:{lineno}: expected node<TAB>probability")
        try:
            prob[cells[0]] = float(cells[1])
        except ValueError as exc:
            raise ParseError(f"{probs_path}:{lineno}: {exc}") from exc
    return Taxonomy(parent=parent, prob=prob)


def write_split(path, split: DatasetSplit) -> None:
    doc = {
        "known_categories": sorted(split.known_categories),
        "novel_categories": sorted(split.novel_categories),
        "train_instances": dict(sorted(split.train_instances.items())),
        "test_instances": dict(sorted(split.test_instances.items())),
        "fewshot_instances": dict(sorted(split.fewshot_instances.items())),
    }
    write_json(path, doc)


def read_split(path) -> DatasetSplit:
    doc = read_json(path)
    required = {"known_categories", "novel_categories", "train_instances", "test_instances"}
    missing = required - set(doc)
    if missing:
        raise ParseError(f"{path}: missing split fields: {sorted(missing)}")
    for key in ("known_categories", "novel_categories"):
        if not isinstance(doc[key], list) or not all(isinstance(c, str) for c in doc[key]):
            raise ParseError(f"{path}: {key} must be a list of category names")
    for key in ("train_instances", "test_instances", "fewshot_instances"):
        labels = doc.get(key, {})
        if not isinstance(labels, dict) or not all(isinstance(c, str) for c in labels.values()):
            raise ParseError(f"{path}: {key} must map instance names to category names")
    return DatasetSplit(
        known_categories=frozenset(doc["known_categories"]),
        novel_categories=frozenset(doc["novel_categories"]),
        train_instances=doc["train_instances"],
        test_instances=doc["test_instances"],
        fewshot_instances=doc.get("fewshot_instances", {}),
    )


def save_model(path, model) -> None:
    """Serialize an AttributeModel to JSON."""
    doc = {
        "attributes": list(model.attributes),
        "weights": model.weights.tolist(),
        "biases": model.biases.tolist(),
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        "metadata": dict(model.metadata),
    }
    write_json(path, doc)


def load_model(path):
    from .classify import AttributeModel

    doc = read_json(path)
    try:
        attributes = tuple(doc["attributes"])
        arrays = {key: np.array(doc[key], dtype=float)
                  for key in ("weights", "biases", "feature_mean", "feature_std")}
    except KeyError as exc:
        raise ParseError(f"{path}: missing model field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model field: {exc}") from exc
    return AttributeModel(attributes=attributes, metadata=doc.get("metadata", {}), **arrays)

