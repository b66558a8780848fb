"""File formats: matrix, labels and taxonomy TSVs, JSONL corpora, JSON splits, models and reports.

Every file is UTF-8 without a byte-order mark; one that is not is a ParseError.
TSVs are tab-separated, and their blank lines, '#' lines and header lines
(whose first cell is empty) hold no data.

Every matrix kind of :mod:`semtransfer.core` is written by
:func:`write_matrix` and read by :func:`read_matrix`. A matrix TSV starts
with ``# key=value`` tags: ``type`` names the kind, and each field the kind
declares after ``values`` (``binary``, ``measure``) is one more tag,
omitted when None. Category scores also carry ``normalized=false``. The
reader rejects a ``type`` naming another kind and accepts a file without
one. Then come a header of column identifiers (``x0``, ``x1``, ... for
features) and one line per row: its identifier, then its numbers with 9
significant digits.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

import numpy as np

from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    DatasetSplit,
    FeatureMatrix,
    LabelledMatrix,
    ParseError,
    RelatednessMatrix,
    ValidationError,
    clean_identifier,
)

M = TypeVar("M", bound=LabelledMatrix)
# tags a kind writes that hold no field
_CONSTANT_TAGS = {"category_scores": {"normalized": "false"}}


def _lines(path):
    r"""(line number, line) of each line of a UTF-8 file, read a line at a time.

    A line ends at "\n" only, and a "\r" before it is dropped, so a line may
    hold a raw U+2028, U+0085 or lone "\r".
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1 and line.startswith("\ufeff"):
                    raise ParseError(f"{path}: starts with a UTF-8 byte-order mark")
                yield lineno, line.removesuffix("\n").removesuffix("\r")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc


def read_json(path) -> dict:
    """Read a file holding one JSON object."""
    try:
        doc = json.loads("\n".join(line for _, line in _lines(path)))
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


def _parse_bool(path, text: str) -> bool:
    if text not in ("true", "false"):
        raise ParseError(f"{path}: expected true/false, got {text!r}")
    return text == "true"


def write_matrix_tsv(path, row_ids: Sequence[str], col_ids: Sequence[str],
                     values: np.ndarray, tags: Mapping[str, str] | None = None) -> None:
    """Write a matrix TSV a row at a time, holding no copy of its whole text."""
    values = np.asarray(values, dtype=float)
    row_format = "%s" + "\t%.9g" * values.shape[1] + "\n"  # the same digits as format_number
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={val}\n" for key, val in (tags or {}).items())
        fh.write("\t" + "\t".join(col_ids) + "\n")
        fh.writelines(row_format % (rid, *row.tolist()) for rid, row in zip(row_ids, values))


def read_matrix_tsv(path):
    """Read a matrix TSV, returning (row_ids, col_ids, values, tags)."""
    tags: dict[str, str] = {}
    header = None
    row_ids: list[str] = []
    rows: list[tuple[int, str]] = []
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                tags[key.strip()] = val.strip()
        elif header is None:
            cells = line.split("\t")
            if cells[0] != "":
                raise ParseError(f"{path}:{lineno}: first header cell must be empty")
            header = cells[1:]
        elif (n_cells := line.count("\t") + 1) != len(header) + 1:
            raise ParseError(f"{path}:{lineno}: expected {len(header) + 1} cells, got {n_cells}")
        else:
            row_id, _, numbers = line.partition("\t")
            row_ids.append(row_id)
            rows.append((lineno, numbers))
    if header is None:
        raise ParseError(f"{path}: missing header row")
    return row_ids, header, _numbers(path, rows, len(header)), tags


def _numbers(path, rows: list[tuple[int, str]], width: int) -> np.ndarray:
    """The ``width`` tab-separated numbers of each (line number, text) row.

    One ``np.loadtxt`` call parses every cell, so a cell must be an ASCII
    decimal number (``float()`` would also read ``1_0`` and non-ASCII
    digits). Only if that call fails, or a row is empty or not ASCII, are
    the cells checked one by one, to name the first bad one: loadtxt would
    skip an empty row as a blank line and strip non-ASCII whitespace such
    as U+2028 around a cell.
    """
    texts = [text for _, text in rows]
    if not texts:
        return np.empty((0, width))
    try:
        if "" in texts or not all(map(str.isascii, texts)):
            raise ValueError("empty or non-ASCII cell")
        return np.loadtxt(texts, delimiter="\t", comments=None, ndmin=2)
    except ValueError as exc:
        bad = next(((lineno, cell) for lineno, text in rows
                    for cell in text.split("\t") if not _is_number(cell)), None)
        raise ParseError(f"{path}:{bad[0]}: not a number: {bad[1]!r}" if bad
                         else f"{path}: {exc}") from None


def _is_number(cell: str) -> bool:
    try:
        return (cell.isascii() and cell != ""
                and np.loadtxt([cell], delimiter="\t", comments=None).size == 1)
    except ValueError:
        return False


def write_matrix(path, m: LabelledMatrix) -> None:
    """Write a matrix of any kind, tagged with its kind and its tag fields."""
    axes, tag_fields = m.layout()
    tags = {"type": m.KIND}
    for f in tag_fields:
        value = getattr(m, f.name)
        if value is not None:
            tags[f.name] = ("true" if value else "false") if f.type == "bool" else str(value)
    tags.update(_CONSTANT_TAGS.get(m.KIND, {}))
    rows, *cols = (getattr(m, f.name) for f in axes)
    cols = cols[0] if cols else [f"x{i}" for i in range(m.values.shape[1])]
    write_matrix_tsv(path, rows, cols, m.values, tags)


def read_matrix(path, kind: type[M]) -> M:
    """Read a ``kind`` matrix; a ``type`` tag that names another kind is a ParseError."""
    rows, cols, values, tags = read_matrix_tsv(path)
    if tags.get("type", kind.KIND) != kind.KIND:
        raise ParseError(f"{path}: type={tags['type']}, expected type={kind.KIND}")
    axes, tag_fields = kind.layout()
    extra = {f.name: _parse_bool(path, tags[f.name]) if f.type == "bool" else tags[f.name]
             for f in tag_fields if f.name in tags}
    return kind(*(tuple(rows), tuple(cols))[:len(axes)], values, **extra)


# one name per matrix kind, for library callers
write_association = write_relatedness = write_attribute_scores = write_matrix
write_features = write_category_scores = write_matrix
read_association = partial(read_matrix, kind=AssociationMatrix)
read_relatedness = partial(read_matrix, kind=RelatednessMatrix)
read_attribute_scores = partial(read_matrix, kind=AttributeScoreMatrix)
read_features = partial(read_matrix, kind=FeatureMatrix)
read_category_scores = partial(read_matrix, kind=CategoryScoreMatrix)


def _tsv_rows(path, width: int, what: str):
    """(line number, cells) of each data line of a ``width``-column TSV, skipping
    blank lines, '#' comments and headers (lines whose first cell is empty)."""
    for lineno, line in _lines(path):
        if not line.strip() or line.startswith(("#", "\t")):
            continue
        cells = line.split("\t")
        if len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {what}, got {len(cells)} cells")
        yield lineno, cells


def write_labels(path, labels: Mapping[str, str]) -> None:
    """Instance -> category map as a two-column TSV, written a row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\tcategory\n")
        fh.writelines(f"{inst}\t{cat}\n" for inst, cat in labels.items())


def read_labels(path) -> dict[str, str]:
    """Instance -> category map; both cells are trimmed, like every matrix axis."""
    labels: dict[str, str] = {}
    for lineno, cells in _tsv_rows(path, 2, "instance<TAB>category"):
        try:
            inst, cat = map(clean_identifier, cells)
        except ValidationError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if inst in labels:
            raise ParseError(f"{path}:{lineno}: duplicate instance {inst!r}")
        labels[inst] = cat
    return labels


def write_corpus_jsonl(path, documents: Sequence[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text in documents:
            fh.write(json.dumps({"id": doc_id, "text": text}, sort_keys=True) + "\n")


def read_corpus_jsonl(path) -> list[tuple[str, str]]:
    """(id, text) of each document of a JSONL corpus, read a line at a time."""
    docs: list[tuple[str, str]] = []
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not (isinstance(obj, dict)
                and all(isinstance(obj.get(k), str) for k in ("id", "text"))):
            raise ParseError(f"{path}:{lineno}: corpus lines need string 'id' and 'text' fields")
        docs.append((obj["id"], obj["text"]))
    return docs


def read_taxonomy(edges_path, probs_path):
    """Read the edge-list / probability TSV pair into a Taxonomy."""
    from .relatedness import Taxonomy

    parent: dict[str, str | None] = {}
    children: set[str] = set()  # a node named as a parent may have its own edge later
    for lineno, (child, par) in _tsv_rows(edges_path, 2, "child<TAB>parent"):
        if child in children:
            raise ParseError(f"{edges_path}:{lineno}: duplicate child {child!r}")
        children.add(child)
        parent[child] = par
        parent.setdefault(par, None)

    rows: dict[str, tuple[int, str]] = {}  # node -> (line number, probability cell)
    for lineno, (node, value) in _tsv_rows(probs_path, 2, "node<TAB>probability"):
        if node in rows:
            raise ParseError(f"{probs_path}:{lineno}: duplicate node {node!r}")
        rows[node] = lineno, value
    probs = _numbers(probs_path, list(rows.values()), 1)[:, 0].tolist()
    return Taxonomy(parent=parent, prob=dict(zip(rows, probs)))


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

