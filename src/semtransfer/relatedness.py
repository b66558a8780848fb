"""Semantic relatedness between category and attribute terms.

Five pluggable measures over different evidence sources:

* ``dice_hit``      -- Dice coefficient on document hit counts.
* ``dice_snippet``  -- Dice coefficient on sliding token windows.
* ``lin``           -- information-theoretic similarity on a probability
                       annotated taxonomy.
* ``esa``           -- cosine of tf-idf concept vectors.
* ``tfidf``         -- tf*idf of attribute phrases in each category's text,
                       the documents whose id prefix names the category.

The corpus is one flat token-id array, and the corpus measures use NumPy
alone. Dice and ESA sum a weight over the pairs of entries that share a key
(a token, a document or a block of windows), found by one join and summed
with ``bincount``; Dice counts the windows two terms share from the overlaps
of their runs of consecutive windows within each block, and ``dice_snippet``
without a window is ``dice_hit``. ``tfidf`` follows each phrase token by
token from the occurrences of its first token. Binarization policies turn a
real-valued relatedness matrix into a binary association matrix.
"""

from __future__ import annotations

import math
import string
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (VALID_MEASURES, AssociationMatrix, RelatednessMatrix, ValidationError,
                   clean_identifier, clean_ids, freeze)

_STRIP = string.punctuation

MEASURES = tuple(m for m in VALID_MEASURES if m != "signature")  # the minable ones
POLICIES = ("per_attribute_topk", "global_threshold", "per_attribute_mean")


def _token(word: str) -> str:
    """A word lowercased and stripped of surrounding punctuation; '' if nothing is left."""
    return word.lower().strip(_STRIP)


def tokenize(text: str) -> list[str]:
    """Split on whitespace, lowercase, strip surrounding punctuation.

    No stemming; empty fragments (pure punctuation) are dropped.
    """
    return [tok for tok in map(_token, text.split()) if tok]


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


class _WordTokens(dict):
    """Word -> token id, filled in on a word's first lookup: the word's
    :func:`_token` is taken once, and a new token takes the next id in
    ``postings``, so ids follow first appearance. An all-punctuation word
    maps to -1."""

    def __init__(self):
        super().__init__()
        self.postings: dict[str, int] = {}

    def __missing__(self, word: str) -> int:
        token = _token(word)
        self[word] = tid = self.postings.setdefault(token, len(self.postings)) if token else -1
        return tid


def build_corpus_index(documents: Sequence[tuple[str, str]]) -> CorpusIndex:
    """Index (doc_id, text) pairs for the co-occurrence measures.

    Tokens are those of :func:`tokenize`, but each distinct word's token is
    taken once. Only one document's words are held at a time, so the index
    costs 8 bytes per token plus the vocabulary.
    """
    if not documents:
        raise ValidationError("empty corpus")
    doc_ids: dict[str, None] = {}
    for doc_id, _ in documents:
        doc_id = clean_identifier(doc_id)
        if doc_id in doc_ids:
            raise ValidationError(f"duplicate document id: {doc_id!r}")
        doc_ids[doc_id] = None
    # a known word's lookup stays in C; an all-punctuation word's -1 is dropped
    word_token = _WordTokens()
    ids = array("q")
    n_words = []
    for _, text in documents:
        words = text.split()
        ids.extend(map(word_token.__getitem__, words))
        n_words.append(len(words))
    token_of_word = np.frombuffer(ids, dtype=np.int64)
    keep = token_of_word >= 0
    # a document keeps its words less the dropped ones that fall in it
    word_end = np.cumsum(n_words)
    dropped = np.bincount(np.searchsorted(word_end, np.flatnonzero(~keep), side="right"),
                          minlength=len(n_words))
    doc_ptr = np.concatenate([[0], word_end - np.cumsum(dropped)])
    return CorpusIndex(tuple(doc_ids), token_of_word[keep], doc_ptr, word_token.postings)


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
    a, b = assoc.take(rows).values, assoc.take(cols).values
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
        return next(node for node in self.ancestors(b) if node in above_a)

    def tree_distance(self, a: str, b: str) -> int:
        join = self.lca(a, b)
        return self.ancestors(a).index(join) + self.ancestors(b).index(join)

    def leaf_descendants(self, node: str) -> list[str]:
        """Leaves under ``node`` (the node itself if it is a leaf)."""
        self._require(node)
        out: list[str] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            if kids := self._children[cur]:
                stack.extend(reversed(kids))
            else:
                out.append(cur)
        return out


def lin_relatedness(tax: Taxonomy, a: str, b: str) -> float:
    """2 log p(lcs) / (log p(a) + log p(b)), zero when only the root joins them."""
    p_join, pa, pb = (max(tax.prob[n], 1e-12) for n in (tax.lca(a, b), a, b))
    denom = math.log(pa) + math.log(pb)
    # adding 0.0 turns the -0.0 of a join with p(lcs) = 1 into 0.0
    return 2.0 * math.log(p_join) / denom + 0.0 if denom else 0.0


# ---------------------------------------------------------------------------
# ESA: concept-vector cosine


def _esa(index: CorpusIndex, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
    """Cosine of summed tf-idf concept vectors, clipped to [0, 1].

    A term's concept vector sums the tf-idf document rows of its tokens (tf
    is the raw in-document count, idf is log(#docs / df)). Terms with equal
    token lists give exactly 1 and terms without any weight give 0.

    Every sum runs in ascending order: a concept vector's over its tokens,
    the cross products' and the norms' over documents.
    """
    toks, tokens, (sel_term, sel_col, mult) = _select_tokens(index, [*rows, *cols])
    tok, doc, _ = _occurrences(index, tokens)
    key, count = np.unique(tok * index.n_docs + doc, return_counts=True)
    tok, doc = np.divmod(key, index.n_docs)
    idf = np.array([math.log(index.n_docs / d) for d in np.bincount(tok, minlength=len(tokens))])
    # concept vectors: each (term, document) entry adds its tokens ascending
    p, q = _join(sel_col, tok)
    key, inverse = np.unique(sel_term[p] * index.n_docs + doc[q], return_inverse=True)
    v = np.bincount(inverse, weights=mult[p] * (count * idf[tok])[q])
    # zero sums are dropped (a token in every document has idf 0)
    (term, doc), v = np.divmod(key[v != 0], index.n_docs), v[v != 0]
    n, m = len(rows), len(cols)
    cross = _pair_sums(term, doc, n, m, lambda p, q: v[p] * v[q])
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
# tf*idf of attribute phrases in per-category text


def _tfidf(index: CorpusIndex, categories: Sequence[str], attributes: Sequence[str]) -> np.ndarray:
    """(occurrences of an attribute in a category's text / the category's
    token count) * log(#categories / #categories mentioning the attribute).

    A category's text is the documents whose id up to the first ``/`` names
    it; other documents are ignored. A phrase occurs where its tokens follow
    each other within one document, overlapping occurrences included.
    """
    if not (categories and attributes):
        raise ValidationError("tfidf needs categories and attributes")
    phrases = [_term_tokens(a) for a in attributes]
    row = {c: i for i, c in enumerate(categories)}
    cat = np.array([row.get(d.split("/", 1)[0], -1) for d in index.doc_ids], dtype=np.int64)
    doc_len = np.diff(index.doc_ptr)
    lengths = np.bincount(cat[cat >= 0], weights=doc_len[cat >= 0], minlength=len(categories))
    if (empty := np.flatnonzero(lengths == 0)).size:
        raise ValidationError(f"category without script text: {categories[empty[0]]!r}")
    # each phrase's token ids: -2 for a token the corpus lacks, -1 past its end
    ids = np.full((len(phrases), max(map(len, phrases))), -1, dtype=np.int64)
    for j, phrase in enumerate(phrases):
        ids[j, :len(phrase)] = [index.postings.get(t, -2) for t in phrase]
    # a phrase may start at each occurrence of its first token whose document
    # is a category's and has room for the rest; a start stays while each of
    # the phrase's next tokens matches
    firsts = sorted({p[0] for p in phrases} & index.postings.keys())
    col = {t: i for i, t in enumerate(firsts)}
    tok, doc, pos = _occurrences(index, firsts)
    phrase, q = _join(np.array([col.get(p[0], -1) for p in phrases]), tok)
    doc, at = doc[q], (index.doc_ptr[doc] + pos)[q]
    keep = (cat[doc] >= 0) & (at + (ids[phrase] != -1).sum(axis=1) <= index.doc_ptr[doc + 1])
    phrase, doc, at = phrase[keep], doc[keep], at[keep]
    for k in range(1, ids.shape[1]):
        want = ids[phrase, k]
        keep = (want == -1) | (index.tokens[np.minimum(at + k, len(index.tokens) - 1)] == want)
        phrase, doc, at = phrase[keep], doc[keep], at[keep]
    counts = np.bincount(cat[doc] * len(phrases) + phrase,
                         minlength=len(categories) * len(phrases)).reshape(len(categories), -1)
    # an attribute mentioned nowhere has only zero counts, so its idf is moot
    idf = np.array([math.log(len(categories) / df) if df else 0.0
                    for df in (counts > 0).sum(axis=0)])
    return counts / lengths[:, None] * idf


# ---------------------------------------------------------------------------
# Whole-matrix mining, binarization


def mine_relatedness(index: CorpusIndex | None, categories: Sequence[str],
                     attributes: Sequence[str], measure: str, *,
                     window: int | None = 20,
                     taxonomy: Taxonomy | None = None) -> RelatednessMatrix:
    """Fill a categories x attributes matrix with one measure; only ``lin`` needs no index."""
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
    elif measure == "tfidf":
        values = _tfidf(index, categories, attributes)
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
    if policy == "per_attribute_topk":
        if k is None or k < 1:
            raise ValidationError("per_attribute_topk needs k >= 1")
        out = np.zeros_like(values)
        np.put_along_axis(out, np.argsort(-values, axis=0, kind="stable")[:k], 1.0, axis=0)
    elif policy == "global_threshold":
        if threshold is None:
            raise ValidationError("global_threshold needs a threshold")
        out = (values >= threshold).astype(float)
    elif policy == "per_attribute_mean":
        out = (values >= values.mean(axis=0, keepdims=True)).astype(float)
    else:
        raise ValidationError(f"unknown binarize policy: {policy!r}")
    return AssociationMatrix(rel.categories, rel.attributes, out, binary=True)
