"""Semantic relatedness between category and attribute terms.

Four pluggable measures over different evidence sources:

* ``dice_hit``      -- Dice coefficient on document hit counts.
* ``dice_snippet``  -- Dice coefficient on sliding token windows.
* ``lin``           -- information-theoretic similarity on a probability
                       annotated taxonomy.
* ``esa``           -- cosine of tf-idf concept vectors.

The corpus is one flat token-id array, and the corpus measures use NumPy
alone: each sums a weight over the pairs of entries that share a key (a
token, a document or a block of windows), found by one join and summed with
``bincount``. Dice counts the windows two terms share from the overlaps of
their runs of consecutive windows within each block; ``dice_snippet``
without a window is ``dice_hit``.
The module also has a tf*idf association miner for per-category script
text and binarization policies that turn a real-valued relatedness matrix
into a binary association matrix.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .core import (AssociationMatrix, RelatednessMatrix, ValidationError, clean_identifier,
                   clean_ids, freeze)

_STRIP = string.punctuation


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    No stemming; empty fragments (pure punctuation) are dropped.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True, eq=False)
class CorpusIndex:
    """The corpus as one flat token-id array plus document offsets.

    Document d is ``tokens[doc_ptr[d]:doc_ptr[d + 1]]``. ``postings`` maps each
    token to its id, in order of first appearance.
    """

    doc_ids: tuple[str, ...]
    tokens: np.ndarray
    doc_ptr: np.ndarray
    postings: Mapping[str, int]

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def doc_tokens(self) -> tuple[tuple[str, ...], ...]:
        """Each document's tokens, rebuilt from the flat arrays."""
        vocab = np.array(list(self.postings), dtype=object)
        return tuple(map(tuple, np.split(vocab[self.tokens], self.doc_ptr[1:-1])))


def build_corpus_index(documents: Sequence[tuple[str, str]]) -> CorpusIndex:
    """Index (doc_id, text) pairs for the co-occurrence measures.

    Tokens are those of :func:`tokenize`, which lowercases before splitting;
    lowercasing never makes or removes whitespace, so each distinct word is
    lowercased and stripped once instead.
    """
    if not documents:
        raise ValidationError("empty corpus")
    doc_ids: dict[str, None] = {}
    for doc_id, _ in documents:
        doc_id = clean_identifier(doc_id)
        if doc_id in doc_ids:
            raise ValidationError(f"duplicate document id: {doc_id!r}")
        doc_ids[doc_id] = None
    split = [text.split() for _, text in documents]
    words = list(chain.from_iterable(split))
    # distinct words in first-appearance order, so token ids are too; an
    # all-punctuation word maps to -1 and is dropped
    postings: dict[str, int] = {}
    word_token = {w: postings.setdefault(t, len(postings)) if (t := w.lower().strip(_STRIP))
                  else -1 for w in dict.fromkeys(words)}
    token_of_word = np.fromiter(map(word_token.__getitem__, words), np.int64, len(words))
    keep = token_of_word >= 0
    doc_of_token = np.repeat(np.arange(len(doc_ids)), list(map(len, split)))[keep]
    doc_ptr = np.searchsorted(doc_of_token, np.arange(len(doc_ids) + 1))
    return CorpusIndex(tuple(doc_ids), token_of_word[keep], doc_ptr, postings)


def _ranges(start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``arange(start[i], start[i] + n[i])`` for each i, concatenated."""
    return np.repeat(start - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _join(a_key: np.ndarray, b_key: np.ndarray):
    """Every pair (p, q) of entries with ``a_key[p] == b_key[q]`` (``b_key``
    sorted), listed in the order of ``a_key``, then of ``b_key``. Memory is
    O(entries + pairs). The corpus measures sum a weight per pair with
    ``bincount``, so each sum accumulates in the order of ``a_key``."""
    lo = np.searchsorted(b_key, a_key, side="left")
    n = np.searchsorted(b_key, a_key, side="right") - lo
    return np.repeat(np.arange(len(a_key)), n), _ranges(lo, n)


def _term_tokens(term: str) -> list[str]:
    toks = tokenize(term)
    if not toks:
        raise ValidationError(f"term has no tokens: {term!r}")
    return toks


def _select_tokens(index: CorpusIndex, terms: Sequence[str]):
    """Token lists of ``terms``, their distinct tokens that occur in the
    corpus (sorted), and the (term, token, multiplicity) entries of the
    terms x those tokens matrix, sorted by term then token."""
    toks = [_term_tokens(t) for t in terms]
    tokens = sorted({t for ts in toks for t in ts if t in index.postings})
    col = {t: j for j, t in enumerate(tokens)}
    key = np.array([i * len(tokens) + col[t] for i, ts in enumerate(toks)
                    for t in ts if t in col], dtype=np.int64)
    key, mult = np.unique(key, return_counts=True)
    return toks, tokens, (key // len(tokens), key % len(tokens), mult.astype(float))


def _occurrences(index: CorpusIndex, tokens: Sequence[str]):
    """Token (position in ``tokens``), document and in-document position of
    every occurrence of ``tokens``, ordered by token, then corpus position.
    One lookup over the flat token array finds them."""
    local = np.full(len(index.postings), -1, dtype=np.int64)
    local[[index.postings[t] for t in tokens]] = np.arange(len(tokens))
    flat = np.flatnonzero(local[index.tokens] >= 0)
    tok = local[index.tokens[flat]]
    doc = np.searchsorted(index.doc_ptr, flat, side="right") - 1
    # a stable sort of the narrowest integer type is a radix sort
    order = np.argsort(tok.astype(np.min_scalar_type(len(tokens))), kind="stable")
    return tok[order], doc[order], (flat - index.doc_ptr[doc])[order]


def _term_windows(index: CorpusIndex, terms: Sequence[str], window: int | None):
    """(term, block, first, last) runs of the consecutive windows of
    ``window`` tokens that hold each term; a term's runs never overlap.

    A document of n tokens has max(1, n - window + 1) windows, and an empty
    one has none; ``window=None`` makes each document one window. Each
    document's windows are numbered from the start of a block of ``window``
    numbers, and runs are split at block ends, so two runs overlap only
    within one block. A term has at most a few runs per block for each of
    its tokens, so pairing runs by block stays linear in the windows. A
    multi-word term is in a window when each of its tokens is.
    """
    toks, tokens, (term, col, _) = _select_tokens(index, terms)
    lengths = np.diff(index.doc_ptr)
    window = window or max(int(lengths.max()), 1)
    n_win = np.where(lengths > 0, np.maximum(lengths - window + 1, 1), 0)
    blocks = -(-n_win // window)
    first = window * (np.cumsum(blocks) - blocks)
    tok, doc, pos = _occurrences(index, tokens)
    # the windows holding position p of a document are p - window + 1 .. p,
    # clipped to the document; per token both ends never decrease, so a span
    # that starts after the previous one's end starts a new run
    lo = first[doc] + np.maximum(pos - window + 1, 0)
    hi = first[doc] + np.minimum(pos, n_win[doc] - 1)
    start = np.flatnonzero((np.diff(tok, prepend=-1) != 0) | (lo > np.r_[-2, hi[:-1]] + 1))
    tok, lo, hi = tok[start], lo[start], np.maximum.reduceat(hi, start)
    # sweep each term's token runs, +1 where one starts and -1 after it ends:
    # the term is in the windows that all of its distinct tokens cover
    p, q = _join(col, tok)
    n = int(window * blocks.sum()) + 1
    at = np.concatenate([term[p] * n + lo[q], term[p] * n + hi[q] + 1])
    order = np.argsort(at, kind="stable")  # merges the sorted runs of starts and ends
    at, cover = at[order], np.cumsum(np.repeat([1, -1], len(p))[order])
    need = np.array([len(set(ts)) for ts in toks])
    full = np.flatnonzero((cover[:-1] == need[at[:-1] // n]) & (at[1:] > at[:-1]))
    (term, lo), hi = np.divmod(at[full], n), at[full + 1] % n - 1
    nb = hi // window - lo // window + 1
    run, block = np.repeat(np.arange(len(lo)), nb), _ranges(lo // window, nb)
    return (term[run], block, np.maximum(lo[run], block * window),
            np.minimum(hi[run], block * window + window - 1))


def _dice(both: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    """Dice coefficient 2|x & y| / (|x| + |y|) from the overlaps ``both`` of
    every set x (rows) with every set y (columns) and the set sizes; zero
    where both sets are empty."""
    size = size_a[:, None] + size_b[None, :]
    out = np.zeros(both.shape)
    np.divide(2.0 * both, size, out=out, where=size > 0)
    return out


def _pair_sums(term: np.ndarray, key: np.ndarray, n: int, m: int, weight) -> np.ndarray:
    """The n x m sums of ``weight(p, q)`` over every pair of an entry p of a
    row term (``term < n``) and an entry q of a column term (``term - n``)
    with the same key. Each cell adds its pairs in the order of its row
    entries."""
    a = np.flatnonzero(term < n)
    b = np.flatnonzero(term >= n)
    b = b[np.argsort(key[b], kind="stable")]
    p, q = _join(key[a], key[b])
    p, q = a[p], b[q]
    return np.bincount(term[p] * m + term[q] - n, weights=weight(p, q),
                       minlength=n * m).reshape(n, m)


def dice_hitcount(index: CorpusIndex, a: str, b: str) -> float:
    """Dice coefficient over the documents that contain each term."""
    return float(mine_relatedness(index, [a], [b], "dice_hit").values[0, 0])


def dice_snippet(index: CorpusIndex, a: str, b: str, window: int | None = 20) -> float:
    """Dice coefficient over sliding windows of ``window`` tokens.

    ``window=None`` degrades to whole documents, which is :func:`dice_hitcount`.
    """
    return float(mine_relatedness(index, [a], [b], "dice_snippet", window=window).values[0, 0])


def signature_relatedness(assoc: AssociationMatrix, rows: Sequence[str],
                          cols: Sequence[str]) -> RelatednessMatrix:
    """Dice overlap of binary attribute signatures, ``rows`` x ``cols`` categories."""
    if not assoc.binary:
        raise ValidationError("similarity transfer needs binary associations")
    at = {c: i for i, c in enumerate(assoc.categories)}
    a = assoc.values[[at[c] for c in rows]]
    b = assoc.values[[at[c] for c in cols]]
    values = _dice(a @ b.T, a.sum(axis=1), b.sum(axis=1))
    return RelatednessMatrix(tuple(rows), tuple(cols), values, measure="signature")


# ---------------------------------------------------------------------------
# Taxonomy-based similarity


@dataclass(frozen=True, eq=False)
class Taxonomy:
    """Rooted tree with per-node occurrence probabilities.

    ``parent`` maps every node to its parent; the single root maps to None.
    ``prob`` maps every node to p in (0, 1], with p(root) == 1 and children
    never more probable than their parents.
    """

    parent: Mapping[str, str | None]
    prob: Mapping[str, float]
    _children: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    root: str = field(init=False)

    def __post_init__(self):
        parent = dict(self.parent)
        if not parent:
            raise ValidationError("empty taxonomy")
        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValidationError(f"taxonomy needs exactly one root, found {len(roots)}")
        for node, par in parent.items():
            if par is not None and par not in parent:
                raise ValidationError(f"parent of {node!r} is unknown node {par!r}")
        root = roots[0]
        # Walking to the root must terminate for every node.
        for node in parent:
            seen = set()
            cur: str | None = node
            while cur is not None:
                if cur in seen:
                    raise ValidationError(f"cycle in taxonomy at {cur!r}")
                seen.add(cur)
                cur = parent[cur]
        prob = dict(self.prob)
        if missing := set(parent) - set(prob):
            raise ValidationError(f"missing probabilities for nodes: {sorted(missing)}")
        if extra := set(prob) - set(parent):
            raise ValidationError(f"probabilities for unknown nodes: {sorted(extra)}")
        for node, p in prob.items():
            if not (0.0 < p <= 1.0) or not math.isfinite(p):
                raise ValidationError(f"probability of {node!r} outside (0, 1]: {p}")
        if abs(prob[root] - 1.0) > 1e-12:
            raise ValidationError(f"root probability must be 1, got {prob[root]}")
        for node, par in parent.items():
            if par is not None and prob[node] > prob[par] + 1e-12:
                raise ValidationError(
                    f"{node!r} more probable than its parent {par!r}")
        children: dict[str, list[str]] = {n: [] for n in parent}
        for node, par in parent.items():
            if par is not None:
                children[par].append(node)
        freeze(self, parent=parent, prob=prob, root=root,
               _children={n: tuple(c) for n, c in children.items()})

    def _require(self, node: str) -> None:
        if node not in self.parent:
            raise ValidationError(f"unknown taxonomy node: {node!r}")

    def ancestors(self, node: str) -> list[str]:
        """Path from node up to and including the root."""
        self._require(node)
        path = [node]
        while (par := self.parent[path[-1]]) is not None:
            path.append(par)
        return path

    def lca(self, a: str, b: str) -> str:
        above_a = set(self.ancestors(a))
        for node in self.ancestors(b):
            if node in above_a:
                return node
        return self.root

    def tree_distance(self, a: str, b: str) -> int:
        join = self.lca(a, b)
        pa = self.ancestors(a)
        pb = self.ancestors(b)
        return pa.index(join) + pb.index(join)

    def leaf_descendants(self, node: str) -> list[str]:
        """Leaves under ``node`` (the node itself if it is a leaf)."""
        self._require(node)
        out: list[str] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            kids = self._children[cur]
            if kids:
                stack.extend(reversed(kids))
            else:
                out.append(cur)
        return out


def lin_relatedness(tax: Taxonomy, a: str, b: str) -> float:
    """2 log p(lcs) / (log p(a) + log p(b)), zero when only the root joins them."""
    p_join = max(tax.prob[tax.lca(a, b)], 1e-12)
    pa = max(tax.prob[a], 1e-12)
    pb = max(tax.prob[b], 1e-12)
    denom = math.log(pa) + math.log(pb)
    if denom == 0.0:
        return 0.0
    return 2.0 * math.log(p_join) / denom


# ---------------------------------------------------------------------------
# ESA: concept-vector cosine


def _esa(index: CorpusIndex, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
    """Cosine of summed tf-idf concept vectors, clipped to [0, 1].

    A term's concept vector sums the tf-idf document rows of its tokens (tf
    is the raw in-document count, idf is log(#docs / df)). Terms with equal
    token lists give exactly 1 and terms without any weight give 0.

    Every sum runs in the order that ``scipy.sparse``'s CSR products use, so
    the values are bit for bit those of ``select @ tfidf`` and its cross
    products, a formulation the tests keep as an oracle.
    """
    toks, tokens, (sel_term, sel_col, mult) = _select_tokens(index, [*rows, *cols])
    tok, doc, _ = _occurrences(index, tokens)
    key, count = np.unique(tok * index.n_docs + doc, return_counts=True)
    tok, doc = np.divmod(key, index.n_docs)
    idf = np.array([math.log(index.n_docs / d) for d in np.bincount(tok, minlength=len(tokens))])
    # concept vectors, summed in the order a CSR product inserts their
    # entries: per term, its tokens ascending, each token's documents ascending
    p, q = _join(sel_col, tok)
    key, first, inverse = np.unique(sel_term[p] * index.n_docs + doc[q],
                                    return_index=True, return_inverse=True)
    v = np.bincount(inverse, weights=mult[p] * (count * idf[tok])[q])
    # CSR keeps each row in reverse order of insertion and drops zero sums
    # (a token in every document has idf 0)
    stored = np.argsort(first)[::-1]
    stored = stored[v[stored] != 0]
    (term, doc), v = np.divmod(key[stored], index.n_docs), v[stored]
    n, m = len(rows), len(cols)
    cross = _pair_sums(term, doc, n, m, lambda p, q: v[p] * v[q])
    # an elementwise product keeps the order of a CSR matrix whose rows are
    # all sorted and reverses any other's; the squared norms add up in it
    if np.any((term[1:] == term[:-1]) & (doc[1:] <= doc[:-1])):
        term, v = term[::-1], v[::-1]
    starts = np.flatnonzero(np.diff(term, prepend=-1))
    norms = np.zeros(len(toks))
    if starts.size:
        norms[term[starts]] = np.sqrt(np.add.reduceat(v * v, starts))
    denom = np.outer(norms[:n], norms[n:])
    cos = np.zeros(denom.shape)
    np.divide(cross, denom, out=cos, where=denom > 0)
    cos = np.clip(cos, 0.0, 1.0)
    same = np.array([[ta == tb for tb in toks[n:]] for ta in toks[:n]], dtype=bool)
    cos[same.reshape(denom.shape) & (denom > 0)] = 1.0
    return cos


def esa_relatedness(index: CorpusIndex, a: str, b: str) -> float:
    """Cosine similarity of summed tf-idf concept vectors, clipped to [0, 1]."""
    return float(mine_relatedness(index, [a], [b], "esa").values[0, 0])


# ---------------------------------------------------------------------------
# tf*idf association mining from per-category script text


def _phrase_count(tokens: list[str], phrase: list[str]) -> int:
    m = len(phrase)
    return sum(tokens[i] == phrase[0] and tokens[i:i + m] == phrase
               for i in range(len(tokens) - m + 1))


def tfidf_associations(script_docs: Mapping[str, Sequence[str]],
                       attribute_vocab: Sequence[str]) -> RelatednessMatrix:
    """Mine category-attribute strengths from per-category text collections.

    Entry (y, a) = (occurrences of a in y's text / y's token count) *
    log(#categories / #categories mentioning a). Attributes mentioned
    nowhere get zero everywhere.
    """
    if not script_docs:
        raise ValidationError("no script text given")
    categories = clean_ids(script_docs, "categories")
    attributes = clean_ids(attribute_vocab, "attributes")
    if not attributes:
        raise ValidationError("empty attribute vocabulary")
    phrases = [_term_tokens(a) for a in attributes]

    cat_tokens = [list(chain.from_iterable(map(tokenize, docs))) for docs in script_docs.values()]
    for cat, toks in zip(script_docs, cat_tokens):
        if not toks:
            raise ValidationError(f"category without script text: {cat!r}")

    counts = np.array([[_phrase_count(toks, phrase) for phrase in phrases]
                       for toks in cat_tokens], dtype=float)
    # an attribute mentioned nowhere has only zero counts, so its idf is moot
    idf = np.array([math.log(len(categories) / df) if df else 0.0
                    for df in (counts > 0).sum(axis=0)])
    lengths = np.array([len(t) for t in cat_tokens], dtype=float)
    values = counts / lengths[:, None] * idf
    return RelatednessMatrix(categories, attributes, values, measure="tfidf")


# ---------------------------------------------------------------------------
# Whole-matrix mining, binarization


def mine_relatedness(index: CorpusIndex, categories: Sequence[str],
                     attributes: Sequence[str], measure: str, *,
                     window: int | None = 20,
                     taxonomy: Taxonomy | None = None) -> RelatednessMatrix:
    """Fill a categories x attributes matrix with one relatedness measure."""
    categories = clean_ids(categories, "categories")
    attributes = clean_ids(attributes, "attributes")
    if measure in ("dice_hit", "dice_snippet"):
        if measure == "dice_hit":
            window = None
        elif window is not None and window < 1:
            raise ValidationError(f"window must be >= 1 or None, got {window}")
        # a category and an attribute share the overlaps of their runs
        term, block, lo, hi = _term_windows(index, categories + attributes, window)
        n, m = len(categories), len(attributes)
        both = _pair_sums(term, block, n, m, lambda p, q: np.maximum(
            np.minimum(hi[p], hi[q]) - np.maximum(lo[p], lo[q]) + 1, 0))
        size = np.bincount(term, weights=hi - lo + 1, minlength=n + m)
        values = _dice(both, size[:n], size[n:])
    elif measure == "esa":
        values = _esa(index, categories, attributes)
    elif measure == "lin":
        if taxonomy is None:
            raise ValidationError("lin measure needs a taxonomy")
        values = np.array([[lin_relatedness(taxonomy, c, a) for a in attributes]
                           for c in categories]).reshape(len(categories), len(attributes))
    else:
        raise ValidationError(f"unknown relatedness measure: {measure!r}")
    return RelatednessMatrix(categories, attributes, values, measure=measure)


def binarize(rel: RelatednessMatrix, policy: str, *, k: int | None = None,
             threshold: float | None = None) -> AssociationMatrix:
    """Turn real-valued relatedness into binary associations.

    ``per_attribute_topk`` marks the k strongest categories per attribute
    (ties resolved toward earlier categories), ``global_threshold`` marks
    entries >= threshold, ``per_attribute_mean`` marks entries at or above
    their column mean.
    """
    values = rel.values
    out = np.zeros_like(values)
    if policy == "per_attribute_topk":
        if k is None or k < 1:
            raise ValidationError("per_attribute_topk needs k >= 1")
        kk = min(k, values.shape[0])
        for j in range(values.shape[1]):
            top = np.argsort(-values[:, j], kind="stable")[:kk]
            out[top, j] = 1.0
    elif policy == "global_threshold":
        if threshold is None:
            raise ValidationError("global_threshold needs a threshold")
        out = (values >= threshold).astype(float)
    elif policy == "per_attribute_mean":
        means = values.mean(axis=0, keepdims=True)
        out = (values >= means).astype(float)
    else:
        raise ValidationError(f"unknown binarize policy: {policy!r}")
    return AssociationMatrix(rel.categories, rel.attributes, out, binary=True)
