"""Semantic relatedness between category and attribute terms.

Four pluggable measures over different evidence sources:

* ``dice_hit``      -- Dice coefficient on document hit counts.
* ``dice_snippet``  -- Dice coefficient on sliding token windows.
* ``lin``           -- information-theoretic similarity on a probability
                       annotated taxonomy.
* ``esa``           -- cosine of tf-idf concept vectors.

The corpus is one flat token-id array whose token x document counts back
every corpus measure. Dice works on 0/1 term x context rows, a context
being a document or a sliding window, and fills a whole matrix with one
sparse product; ``dice_snippet`` without a window is ``dice_hit``. The
module also has a tf*idf association miner for per-category script text
and binarization policies that turn a real-valued relatedness matrix into
a binary association matrix.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .core import AssociationMatrix, RelatednessMatrix, ValidationError, clean_identifier

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
    """The corpus as one flat token-id array plus its token x document counts.

    Document d is ``tokens[doc_ptr[d]:doc_ptr[d + 1]]``. ``postings`` maps each
    token to its id (in order of first appearance), its row of ``counts``.
    """

    doc_ids: tuple[str, ...]
    tokens: np.ndarray
    doc_ptr: np.ndarray
    postings: Mapping[str, int]
    counts: sp.csr_array

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
    tokens = token_of_word[keep]
    doc_of_token = np.repeat(np.arange(len(doc_ids)), list(map(len, split)))[keep]
    doc_ptr = np.searchsorted(doc_of_token, np.arange(len(doc_ids) + 1))
    # repeated (token, document) entries are summed into in-document counts
    counts = sp.csr_array((np.ones(len(tokens)), (tokens, doc_of_token)),
                          shape=(len(postings), len(doc_ids)))
    return CorpusIndex(tuple(doc_ids), tokens, doc_ptr, postings, counts)


def _term_tokens(term: str) -> list[str]:
    toks = tokenize(term)
    if not toks:
        raise ValidationError(f"term has no tokens: {term!r}")
    return toks


def _select_tokens(index: CorpusIndex, terms: Sequence[str]):
    """Token lists of ``terms``, their distinct tokens that occur in the
    corpus, and the terms x those tokens matrix of token multiplicities."""
    toks = [_term_tokens(t) for t in terms]
    tokens = sorted({t for ts in toks for t in ts if t in index.postings})
    col = {t: j for j, t in enumerate(tokens)}
    pairs = [(i, col[t]) for i, ts in enumerate(toks) for t in ts if t in col]
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    select = sp.csr_array((np.ones(len(pairs)), (i, j)), shape=(len(terms), len(tokens)))
    return toks, tokens, select


def _token_rows(index: CorpusIndex, tokens: Sequence[str]) -> sp.csr_array:
    return index.counts[[index.postings[t] for t in tokens]]


def _window_contexts(index: CorpusIndex, tokens: Sequence[str], window: int) -> sp.csr_array:
    """0/1 matrix of ``tokens`` x every sliding window of the corpus.

    A document of n tokens has max(1, n - window + 1) windows, numbered
    consecutively across documents; an empty document has none. The query
    tokens' positions come from one lookup over the flat token array.
    """
    lengths = np.diff(index.doc_ptr)
    n_win = np.where(lengths > 0, np.maximum(lengths - window + 1, 1), 0)
    first = np.cumsum(n_win) - n_win
    local = np.full(len(index.postings), -1, dtype=np.int64)
    local[[index.postings[t] for t in tokens]] = np.arange(len(tokens))
    flat = np.flatnonzero(local[index.tokens] >= 0)
    tok = local[index.tokens[flat]]
    doc = np.searchsorted(index.doc_ptr, flat, side="right") - 1
    pos = flat - index.doc_ptr[doc]
    order = np.argsort(tok, kind="stable")
    tok, doc, pos = tok[order], doc[order], pos[order]
    # the windows holding position p of a document are p - window + 1 .. p,
    # clipped to the document; per token both ends never decrease, so
    # starting each span after the previous one's end removes overlaps
    lo = first[doc] + np.maximum(pos - window + 1, 0)
    hi = first[doc] + np.minimum(pos, n_win[doc] - 1)
    same = tok[1:] == tok[:-1]
    lo[1:][same] = np.maximum(lo[1:][same], hi[:-1][same] + 1)
    size = np.maximum(hi - lo + 1, 0)
    ids = np.repeat(lo - (np.cumsum(size) - size), size) + np.arange(size.sum())
    per_token = np.bincount(tok, weights=size, minlength=len(tokens)).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(per_token)])
    return sp.csr_array((np.ones(len(ids)), ids, indptr), shape=(len(tokens), int(n_win.sum())))


def _term_contexts(index: CorpusIndex, terms: Sequence[str],
                  window: int | None) -> sp.csr_array:
    """0/1 matrix of ``terms`` x contexts: whole documents when ``window`` is
    None, else sliding windows of ``window`` tokens. A multi-word term is in
    a context when every one of its tokens is."""
    toks, tokens, select = _select_tokens(index, terms)
    if window is None:
        contexts = _token_rows(index, tokens)
        contexts.data[:] = 1.0
    else:
        contexts = _window_contexts(index, tokens, window)
    hits = select @ contexts
    need = np.repeat([len(ts) for ts in toks], np.diff(hits.indptr))
    hits.data = (hits.data == need).astype(float)
    hits.eliminate_zeros()
    return hits


def _dice(a, b) -> np.ndarray:
    """Dice coefficient 2|x & y| / (|x| + |y|) of every 0/1 row x of ``a``
    with every row y of ``b``; zero where both rows are empty."""
    a, b = sp.csr_array(a), sp.csr_array(b)
    both = (a @ b.T).toarray()
    size = a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :]
    out = np.zeros(both.shape)
    np.divide(2.0 * both, size, out=out, where=size > 0)
    return out


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
    values = _dice(assoc.values[[at[c] for c in rows]], assoc.values[[at[c] for c in cols]])
    return RelatednessMatrix(tuple(rows), tuple(cols), values, measure="fused")


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
        missing = set(parent) - set(prob)
        if missing:
            raise ValidationError(f"missing probabilities for nodes: {sorted(missing)}")
        extra = set(prob) - set(parent)
        if extra:
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
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_children",
                           {n: tuple(c) for n, c in children.items()})

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

    def children(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return self._children[node]

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
    """
    toks, tokens, select = _select_tokens(index, [*rows, *cols])
    tfidf = _token_rows(index, tokens)
    df = np.diff(tfidf.indptr)
    tfidf.data *= np.repeat([math.log(index.n_docs / d) for d in df], df)
    vectors = select @ tfidf
    norms = np.sqrt((vectors * vectors).sum(axis=1))
    n = len(rows)
    denom = np.outer(norms[:n], norms[n:])
    cos = np.zeros(denom.shape)
    np.divide((vectors[:n] @ vectors[n:].T).toarray(), denom, out=cos, where=denom > 0)
    cos = np.clip(cos, 0.0, 1.0)
    same = np.array([[ta == tb for tb in toks[n:]] for ta in toks[:n]], dtype=bool)
    cos[same.reshape(denom.shape) & (denom > 0)] = 1.0
    return cos


def esa_relatedness(index: CorpusIndex, a: str, b: str) -> float:
    """Cosine similarity of summed tf-idf concept vectors, clipped to [0, 1]."""
    return float(mine_relatedness(index, [a], [b], "esa").values[0, 0])


# ---------------------------------------------------------------------------
# tf*idf association mining from per-category script text


def _phrase_count(tokens: Sequence[str], phrase: Sequence[str]) -> int:
    n, m = len(tokens), len(phrase)
    if m == 0 or n < m:
        return 0
    first = phrase[0]
    hits = 0
    for i in range(n - m + 1):
        if tokens[i] == first and list(tokens[i:i + m]) == list(phrase):
            hits += 1
    return hits


def tfidf_associations(script_docs: Mapping[str, Sequence[str]],
                       attribute_vocab: Sequence[str]) -> RelatednessMatrix:
    """Mine category-attribute strengths from per-category text collections.

    Entry (y, a) = (occurrences of a in y's text / y's token count) *
    log(#categories / #categories mentioning a). Attributes mentioned
    nowhere get zero everywhere.
    """
    if not script_docs:
        raise ValidationError("no script text given")
    categories = tuple(clean_identifier(c) for c in script_docs)
    if len(set(categories)) != len(categories):
        raise ValidationError("duplicate category in script collection")
    attributes = tuple(clean_identifier(a) for a in attribute_vocab)
    if len(set(attributes)) != len(attributes):
        raise ValidationError("duplicate attribute in vocabulary")
    if not attributes:
        raise ValidationError("empty attribute vocabulary")
    phrases = [tuple(_term_tokens(a)) for a in attributes]

    cat_tokens = [list(chain.from_iterable(map(tokenize, docs))) for docs in script_docs.values()]
    for cat, toks in zip(script_docs, cat_tokens):
        if not toks:
            raise ValidationError(f"category without script text: {cat!r}")

    counts = np.zeros((len(categories), len(attributes)))
    for i, toks in enumerate(cat_tokens):
        for j, phrase in enumerate(phrases):
            counts[i, j] = _phrase_count(toks, phrase)
    df = (counts > 0).sum(axis=0)
    n_cat = len(categories)
    values = np.zeros_like(counts)
    lengths = np.array([len(t) for t in cat_tokens], dtype=float)
    for j in range(len(attributes)):
        if df[j] == 0:
            continue
        idf = math.log(n_cat / df[j])
        values[:, j] = counts[:, j] / lengths * idf
    return RelatednessMatrix(categories, attributes, values, measure="tfidf")


# ---------------------------------------------------------------------------
# Whole-matrix mining, binarization


def mine_relatedness(index: CorpusIndex, categories: Sequence[str],
                     attributes: Sequence[str], measure: str, *,
                     window: int | None = 20,
                     taxonomy: Taxonomy | None = None) -> RelatednessMatrix:
    """Fill a categories x attributes matrix with one relatedness measure."""
    categories = tuple(clean_identifier(c) for c in categories)
    attributes = tuple(clean_identifier(a) for a in attributes)
    if len(set(categories)) != len(categories):
        raise ValidationError("duplicate category term")
    if len(set(attributes)) != len(attributes):
        raise ValidationError("duplicate attribute term")
    if measure in ("dice_hit", "dice_snippet"):
        if measure == "dice_hit":
            window = None
        elif window is not None and window < 1:
            raise ValidationError(f"window must be >= 1 or None, got {window}")
        contexts = _term_contexts(index, categories + attributes, window)
        values = _dice(contexts[:len(categories)], contexts[len(categories):])
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
