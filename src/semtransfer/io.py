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
from collections import Counter
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TypeVar

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
# every ASCII control character but the tab that separates cells
_CONTROL = bytes([*range(9), *range(10, 32), 127])


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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
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
    r"""Read a matrix TSV, returning (row_ids, col_ids, values, tags).

    One ``np.loadtxt`` call parses the rows as they are read, so the first
    bad line in file order is named. The row it fails on (it reads no
    further), and a row that is empty or holds a character other than
    printable ASCII and its tabs, have their cells checked by :func:`_number`:
    loadtxt would skip an empty row and strip ``\v``, ``\x1c`` or U+2028.
    """
    tags: dict[str, str] = {}
    header = None
    row_ids: list[str] = []
    row = (0, "")  # (line number, cells) of the last row read

    def rows() -> Iterator[str]:
        nonlocal header, row
        for lineno, line in _lines(path):
            if not line.strip():
                continue
            if line.startswith("#"):
                key, eq, val = line.lstrip("#").partition("=")
                if eq:
                    tags[key.strip()] = val.strip()
            elif header is None:
                cells = line.split("\t")
                if cells[0] != "":
                    raise ParseError(f"{path}:{lineno}: first header cell must be empty")
                header = cells[1:]
            elif (n_cells := line.count("\t") + 1) != len(header) + 1:
                raise ParseError(f"{path}:{lineno}: expected {len(header) + 1} cells, got {n_cells}")
            else:
                row_id, _, text = line.partition("\t")
                row_ids.append(row_id)
                row = lineno, text
                if not (text and text.isascii()  # translate drops control characters
                        and len(text.encode().translate(None, _CONTROL)) == len(text)):
                    raise ValueError("empty cell or control character")
                yield text

    texts = rows()
    try:
        first = next(texts, None)  # loadtxt warns about input without rows
        values = np.empty(0) if first is None else np.loadtxt(
            chain([first], texts), delimiter="\t", comments=None)
    except ValueError as exc:
        for cell in row[1].split("\t"):
            _number(path, row[0], cell)
        raise ParseError(f"{path}:{row[0]}: {exc}") from None
    if header is None:
        raise ParseError(f"{path}: missing header row")
    return row_ids, header, values.reshape(len(row_ids), len(header)), tags


def _number(path, lineno: int, cell: str) -> float:
    """The value of a number cell: an ASCII decimal number, ``inf`` or ``nan``,
    with optional spaces around it, as ``np.loadtxt`` reads it (``float()``
    alone would also read ``1_0``, non-ASCII digits and other whitespace)."""
    if cell.isascii() and cell.isprintable() and "_" not in cell:
        try:
            return float(cell)
        except ValueError:
            pass
    raise ParseError(f"{path}:{lineno}: not a number: {cell!r}")


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


def _tsv_rows(path, what: str, ids: int = 2):
    """(line number, cells) of each data line of a two-column TSV, skipping
    blank lines, '#' comments and headers (lines whose first cell is empty).
    The first ``ids`` cells are identifiers, trimmed like every matrix axis."""
    for lineno, line in _lines(path):
        if not line.strip() or line.startswith(("#", "\t")):
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ParseError(f"{path}:{lineno}: expected {what}, got {len(cells)} cells")
        try:
            cells[:ids] = map(clean_identifier, cells[:ids])
        except ValidationError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        yield lineno, cells


def write_labels(path, labels: Mapping[str, str]) -> None:
    """Instance -> category map as a two-column TSV, written a row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\tcategory\n")
        fh.writelines(f"{inst}\t{cat}\n" for inst, cat in labels.items())


def read_labels(path) -> dict[str, str]:
    """Instance -> category map; both cells are trimmed, like every matrix axis."""
    labels: dict[str, str] = {}
    for lineno, (inst, cat) in _tsv_rows(path, "instance<TAB>category"):
        if inst in labels:
            raise ParseError(f"{path}:{lineno}: duplicate instance {inst!r}")
        labels[inst] = cat
    return labels


def write_corpus_jsonl(path, documents: Sequence[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text in documents:
            fh.write(json.dumps({"id": doc_id, "text": text}, sort_keys=True) + "\n")


def read_corpus_jsonl(path) -> Iterator[tuple[str, str]]:
    """(id, text) of each document of a JSONL corpus, yielded a line at a time."""
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not (isinstance(obj, dict)
                and all(isinstance(obj.get(k), str) for k in ("id", "text"))):
            raise ParseError(f"{path}:{lineno}: corpus lines need string 'id' and 'text' fields")
        yield obj["id"], obj["text"]


def read_taxonomy(edges_path, probs_path):
    """Read the edge-list / probability TSV pair into a Taxonomy; node names are trimmed."""
    from .relatedness import Taxonomy

    parent: dict[str, str | None] = {}
    children: set[str] = set()  # a node named as a parent may have its own edge later
    for lineno, (child, par) in _tsv_rows(edges_path, "child<TAB>parent"):
        if child in children:
            raise ParseError(f"{edges_path}:{lineno}: duplicate child {child!r}")
        children.add(child)
        parent[child] = par
        parent.setdefault(par, None)

    prob: dict[str, float] = {}
    for lineno, (node, value) in _tsv_rows(probs_path, "node<TAB>probability", ids=1):
        if node in prob:
            raise ParseError(f"{probs_path}:{lineno}: duplicate node {node!r}")
        prob[node] = _number(probs_path, lineno, value)
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
    """Read a split JSON; every category name, instance id and label is trimmed,
    like every TSV id."""
    doc = read_json(path)
    required = {"known_categories", "novel_categories", "train_instances", "test_instances"}
    missing = required - set(doc)
    if missing:
        raise ParseError(f"{path}: missing split fields: {sorted(missing)}")
    fields = {}
    try:
        for key in ("known_categories", "novel_categories"):
            if not isinstance(doc[key], list) or not all(isinstance(c, str) for c in doc[key]):
                raise ParseError(f"{path}: {key} must be a list of category names")
            fields[key] = [clean_identifier(c) for c in doc[key]]
        for key in ("train_instances", "test_instances", "fewshot_instances"):
            labels = doc.get(key, {})
            if not isinstance(labels, dict) or not all(isinstance(c, str) for c in labels.values()):
                raise ParseError(f"{path}: {key} must map instance names to category names")
            fields[key] = {clean_identifier(i): clean_identifier(c) for i, c in labels.items()}
            if len(fields[key]) != len(labels):
                dup = next(i for i, n in Counter(map(clean_identifier, labels)).items() if n > 1)
                raise ParseError(f"{path}: {key}: duplicate instance {dup!r} after trimming")
    except ValidationError as exc:
        raise ParseError(f"{path}: {key}: {exc}") from None
    return DatasetSplit(**fields)


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

