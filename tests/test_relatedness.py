import gc
import math
import string
import time
import tracemalloc
import weakref
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp

from semtransfer import (
    AssociationMatrix,
    Taxonomy,
    ValidationError,
    binarize,
    build_corpus_index,
    dice_hitcount,
    dice_snippet,
    esa_relatedness,
    lin_relatedness,
    mine_relatedness,
    tokenize,
)
from semtransfer import RelatednessMatrix
from semtransfer.relatedness import MEASURES, POLICIES, _term_windows, signature_relatedness


def brute_dice_docs(docs, a, b):
    """Oracle: scan raw documents for term containment."""
    def contains(text, term):
        toks = set(tokenize(text))
        return all(t in toks for t in tokenize(term))

    da = {i for i, (_, text) in enumerate(docs) if contains(text, a)}
    db = {i for i, (_, text) in enumerate(docs) if contains(text, b)}
    denom = len(da) + len(db)
    return 0.0 if denom == 0 else 2.0 * len(da & db) / denom


def brute_dice_windows(docs, a, b, window):
    """Oracle: enumerate every sliding window explicitly."""
    ta, tb = tokenize(a), tokenize(b)
    na = nb = nab = 0
    for _, text in docs:
        toks = tokenize(text)
        if not toks:
            continue
        if window is None:
            spans = [toks]
        else:
            spans = [toks[i:i + window] for i in range(max(1, len(toks) - window + 1))]
        for span in spans:
            s = set(span)
            ha = all(t in s for t in ta)
            hb = all(t in s for t in tb)
            na += ha
            nb += hb
            nab += ha and hb
    denom = na + nb
    return 0.0 if denom == 0 else 2.0 * nab / denom


def whole_corpus_index(docs):
    """Oracle: the whole-corpus formulation of the index, which splits every
    document first and so holds every word of the corpus at once. Returns
    (tokens, doc_ptr, postings)."""
    split = [text.split() for _, text in docs]
    words = list(chain.from_iterable(split))
    postings: dict[str, int] = {}
    word_token = {w: postings.setdefault(t, len(postings))
                  if (t := w.lower().strip(string.punctuation)) else -1
                  for w in dict.fromkeys(words)}
    token_of_word = np.fromiter(map(word_token.__getitem__, words), np.int64, len(words))
    keep = token_of_word >= 0
    doc_of_token = np.repeat(np.arange(len(docs)), list(map(len, split)))[keep]
    doc_ptr = np.searchsorted(doc_of_token, np.arange(len(docs) + 1))
    return token_of_word[keep], doc_ptr, postings


def sparse_measure(docs, rows, cols, measure, window=None):
    """Oracle: the scipy.sparse formulation of dice_hit, dice_snippet and esa.

    A CSR token x document count matrix, 0/1 token x context rows (documents,
    or every sliding window enumerated), term x context hits from one sparse
    product and Dice from another; ESA sums tf-idf rows into concept vectors
    with ``select @ tfidf``. The NumPy measures must equal it bit for bit.
    """
    doc_toks = [tokenize(text) for _, text in docs]
    ids: dict[str, int] = {}
    for toks in doc_toks:
        for t in toks:
            ids.setdefault(t, len(ids))
    term_toks = [tokenize(t) for t in [*rows, *cols]]
    tokens = sorted({t for ts in term_toks for t in ts if t in ids})
    col = {t: j for j, t in enumerate(tokens)}
    pairs = [(i, col[t]) for i, ts in enumerate(term_toks) for t in ts if t in col]
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    select = sp.csr_array((np.ones(len(pairs)), (i, j)), shape=(len(term_toks), len(tokens)))
    flat = [(ids[t], d) for d, toks in enumerate(doc_toks) for t in toks]
    t, d = np.array(flat, dtype=np.int64).reshape(-1, 2).T
    counts = sp.csr_array((np.ones(len(flat)), (t, d)), shape=(len(ids), len(docs)))
    token_rows = counts[[ids[t] for t in tokens]]
    n = len(rows)
    if measure == "esa":
        df = np.diff(token_rows.indptr)
        token_rows.data *= np.repeat([math.log(len(docs) / d) for d in df], df)
        vectors = select @ token_rows
        vectors.sort_indices()
        norms = np.sqrt((vectors * vectors).sum(axis=1))
        denom = np.outer(norms[:n], norms[n:])
        cos = np.zeros(denom.shape)
        np.divide((vectors[:n] @ vectors[n:].T).toarray(), denom, out=cos, where=denom > 0)
        cos = np.clip(cos, 0.0, 1.0)
        same = np.array([[ta == tb for tb in term_toks[n:]] for ta in term_toks[:n]], dtype=bool)
        cos[same.reshape(denom.shape) & (denom > 0)] = 1.0
        return cos
    if window is None:
        contexts = token_rows
        contexts.data[:] = 1.0
    else:
        spans = [toks[s:s + window] for toks in doc_toks if toks
                 for s in range(max(1, len(toks) - window + 1))]
        entries = sorted({(col[t], w) for w, span in enumerate(spans) for t in span if t in col})
        t, w = np.array(entries, dtype=np.int64).reshape(-1, 2).T
        contexts = sp.csr_array((np.ones(len(entries)), (t, w)), shape=(len(tokens), len(spans)))
    hits = select @ contexts
    need = np.repeat([len(ts) for ts in term_toks], np.diff(hits.indptr))
    hits.data = (hits.data == need).astype(float)
    hits.eliminate_zeros()
    a, b = hits[:n], hits[n:]
    both = (a @ b.T).toarray()
    size = a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :]
    out = np.zeros(both.shape)
    np.divide(2.0 * both, size, out=out, where=size > 0)
    return out


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("The Bear, (quickly) ran!") == ["the", "bear", "quickly", "ran"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... --- !!!") == []

    def test_inner_punctuation_kept(self):
        assert tokenize("it's a sea-otter") == ["it's", "a", "sea-otter"]


class TestCorpusIndex:
    # Unicode whitespace (no-break, em space, file separator, line separator,
    # next line), dotted capital I, capital sharp s, Greek sigma whose final
    # form depends on what follows it within the word, interior and
    # surrounding punctuation, punctuation-only chunks, empty documents.
    TEXTS = [
        "Bear\u00a0polar\u2003BEAR\x1cclaw",
        "\u0130stanbul \u1e9eTRASSE stra\u00dfe",
        "\u03a3\u039f\u03a6\u039f\u03a3 \u039f\u0394\u039f\u03a3, "
        "\u039f\u0394\u039f\u03a3.\u0391 \u03a3 \u03c3\u03bf\u03c6\u03bf\u03c3",
        "(bear) bear, 'ice' don't e-mail ... -- !!",
        "",
        "   \n\t ",
        "... ?!",
        "fur\u2028ice\u0085swim FUR \u0130",
    ]

    def test_matches_tokenize_oracle(self):
        docs = [(f"d{i}", t) for i, t in enumerate(self.TEXTS)]
        idx = build_corpus_index(docs)
        expected = [tokenize(t) for t in self.TEXTS]
        assert [list(toks) for toks in idx.doc_tokens] == expected
        first = list(dict.fromkeys(t for toks in expected for t in toks))
        assert list(idx.postings) == first
        assert [idx.postings[t] for t in first] == list(range(len(first)))
        oracle = np.zeros((len(first), len(docs)))
        for d, toks in enumerate(expected):
            for t in toks:
                oracle[idx.postings[t], d] += 1
        counts = np.zeros_like(oracle)
        doc_of_token = np.repeat(np.arange(idx.n_docs), np.diff(idx.doc_ptr))
        np.add.at(counts, (idx.tokens, doc_of_token), 1)
        np.testing.assert_array_equal(counts, oracle)
        for a, b in [("bear", "claw"), ("\u03bf\u03b4\u03bf\u03c2", "\u03c3"),
                     ("fur", "ice swim"), ("\u0130stanbul", "stra\u00dfe")]:
            assert dice_hitcount(idx, a, b) == brute_dice_docs(docs, a, b)
            for window in (1, 2, 3):
                assert dice_snippet(idx, a, b, window=window) == \
                    brute_dice_windows(docs, a, b, window)

    def test_only_empty_documents(self):
        idx = build_corpus_index([("d0", ""), ("d1", "... !!")])
        assert idx.doc_tokens == ((), ())
        assert (len(idx.postings), idx.n_docs) == (0, 2)
        assert idx.tokens.size == 0 and idx.doc_ptr.tolist() == [0, 0, 0]
        assert dice_snippet(idx, "a", "b", window=2) == 0.0

    # case and punctuation variants, punctuation-only words, Unicode whitespace
    WORDS = ["bear", "Bear,", "BEAR", "(bear)", "otter", "Otter.", "ice", "'ice'", "sea-otter",
             "\u0130ce", "...", "--", "!", "fur", "FUR!", "claw"]
    SPACES = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "\u2028", "\u0085"]

    def _random_corpus(self, seed):
        rng = np.random.default_rng(seed)
        docs = []
        for d in range(int(rng.integers(1, 40))):
            n = int(rng.integers(0, 30)) if rng.random() > 0.2 else 0
            words = rng.choice(self.WORDS, size=n)
            gaps = rng.choice(self.SPACES, size=n + 1)
            docs.append((f"d{d}", "".join(chain.from_iterable(zip(gaps, words))) + gaps[-1]))
        # "bear" first appears through a variant, in a later document
        return [("first", "otter otter ..."), ("variant", "-- Bear, ice"), *docs,
                ("plain", "bear bear Bear"), ("blank", "\u3000\u2029")]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_whole_corpus_oracle(self, seed):
        docs = self._random_corpus(seed)
        idx = build_corpus_index(docs)
        tokens, doc_ptr, postings = whole_corpus_index(docs)
        assert idx.tokens.dtype == tokens.dtype == np.int64
        assert idx.doc_ptr.dtype == doc_ptr.dtype == np.int64
        np.testing.assert_array_equal(idx.tokens, tokens)
        np.testing.assert_array_equal(idx.doc_ptr, doc_ptr)
        assert list(idx.postings.items()) == list(postings.items())
        assert list(idx.postings)[:3] == ["otter", "bear", "ice"]

    @pytest.mark.parametrize("seed", range(3))
    def test_iterator_is_indexed_in_one_pass(self, seed):
        docs = self._random_corpus(seed)
        idx, once = build_corpus_index(docs), build_corpus_index(iter(docs))
        np.testing.assert_array_equal(once.tokens, idx.tokens)
        np.testing.assert_array_equal(once.doc_ptr, idx.doc_ptr)
        assert (once.doc_ids, list(once.postings.items())) == \
            (idx.doc_ids, list(idx.postings.items()))

    def test_id_is_checked_as_it_arrives(self):
        # a corpus file's later lines are never read once an id repeats
        def documents():
            yield "d0", "a"
            yield " d0", "b"
            raise AssertionError("read past the repeated id")

        with pytest.raises(ValidationError, match="duplicate document id: 'd0'"):
            build_corpus_index(documents())

    def test_peak_memory_per_word(self):
        # the index holds one document's words at a time, not every word of
        # the corpus as a str object (about 98 traced bytes per word), and
        # derives its document offsets from per-document counts, not from a
        # document number per word (about 29 bytes per word)
        rng = np.random.default_rng(0)
        vocab = np.array([f"w{i}" for i in range(2000)] + self.WORDS)
        p = 1.0 / np.arange(1, len(vocab) + 1)
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=60, p=p / p.sum())))
                for d in range(2000)]
        n_words = sum(len(text.split()) for _, text in docs)
        assert n_words >= 100_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            idx = build_corpus_index(docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.n_docs == len(docs)
        assert (peak - base) / n_words <= 25


class TestDiceHitcount:
    def test_hand_value(self):
        # 4 docs mention x, 5 mention y, 3 mention both: 2*3/(4+5)
        docs = []
        for i in range(3):
            docs.append((f"b{i}", "x y"))
        docs.append(("x0", "x only"))
        docs += [("y0", "y fill"), ("y1", "y fill")]
        idx = build_corpus_index(docs)
        assert dice_hitcount(idx, "x", "y") == pytest.approx(2 * 3 / (4 + 5), abs=0)

    def test_matches_document_scan_oracle(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(12)]
        docs = []
        for d in range(60):
            n = rng.integers(1, 9)
            docs.append((f"d{d}", " ".join(rng.choice(vocab, size=n))))
        docs += [("empty", ""), ("punct", "... !!")]
        idx = build_corpus_index(docs)
        for _ in range(100):
            a, b = rng.choice(vocab, size=2)
            assert dice_hitcount(idx, a, b) == brute_dice_docs(docs, a, b)
        # the whole-matrix path, with multi-word and absent terms
        terms = vocab + ["w1 w2", "w3 w4 w5", "yeti", "w0 yeti"]
        rel = mine_relatedness(idx, terms, terms[::-1], "dice_hit")
        for i, a in enumerate(terms):
            for j, b in enumerate(terms[::-1]):
                assert rel.values[i, j] == brute_dice_docs(docs, a, b)

    def test_symmetry_and_unit_range(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(8)]
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=5))) for d in range(30)]
        idx = build_corpus_index(docs)
        for _ in range(50):
            a, b = rng.choice(vocab, size=2)
            v = dice_hitcount(idx, a, b)
            assert v == dice_hitcount(idx, b, a)
            assert 0.0 <= v <= 1.0

    def test_self_dice_is_one_when_present(self):
        idx = build_corpus_index([("d0", "bear"), ("d1", "otter")])
        assert dice_hitcount(idx, "bear", "bear") == 1.0

    def test_absent_terms_give_zero(self):
        idx = build_corpus_index([("d0", "bear")])
        assert dice_hitcount(idx, "yeti", "unicorn") == 0.0

    def test_multiword_term_needs_all_tokens(self):
        idx = build_corpus_index([("d0", "polar bear swims"), ("d1", "bear cave")])
        # "polar bear" only matches d0
        assert dice_hitcount(idx, "polar bear", "swims") == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_corpus_index([])

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValidationError):
            build_corpus_index([("d0", "a"), ("d0", "b")])

    def test_empty_term_rejected(self):
        idx = build_corpus_index([("d0", "a")])
        with pytest.raises(ValidationError):
            dice_hitcount(idx, "...", "a")


class TestDiceSnippet:
    def test_hand_value_window_two(self):
        # windows of "a b c a": [a b] [b c] [c a]; both terms share only [a b]
        idx = build_corpus_index([("d0", "a b c a")])
        assert dice_snippet(idx, "a", "b", window=2) == pytest.approx(0.5, abs=0)

    def test_matches_window_enumeration_oracle(self):
        rng = np.random.default_rng(101)
        vocab = [f"w{i}" for i in range(10)]
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=rng.integers(1, 15))))
                for d in range(40)]
        # empty documents, and documents shorter than every window above 2
        docs[3:3] = [("empty", ""), ("punct", "--"), ("short", "w1 w2"), ("one", "w3")]
        idx = build_corpus_index(docs)
        terms = vocab + ["w1 w2", "w2 w1 w3", "yeti", "w0 yeti"]
        for window in (1, 3, 5, None):
            for _ in range(40):
                a, b = rng.choice(vocab, size=2)
                assert dice_snippet(idx, a, b, window) == brute_dice_windows(docs, a, b, window)
            rel = mine_relatedness(idx, terms, terms[::-1], "dice_snippet", window=window)
            for i, a in enumerate(terms):
                for j, b in enumerate(terms[::-1]):
                    assert rel.values[i, j] == brute_dice_windows(docs, a, b, window)

    def test_unbounded_window_equals_hitcount(self):
        rng = np.random.default_rng(55)
        vocab = [f"w{i}" for i in range(9)]
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=rng.integers(1, 20))))
                for d in range(50)]
        idx = build_corpus_index(docs)
        for _ in range(200):
            a, b = rng.choice(vocab, size=2)
            assert dice_snippet(idx, a, b, None) == dice_hitcount(idx, a, b)

    def test_window_grows_toward_document_level(self):
        # wider windows can only add co-occurrences for adjacent terms
        idx = build_corpus_index([("d0", "a x x x b"), ("d1", "a b")])
        narrow = dice_snippet(idx, "a", "b", window=2)
        wide = dice_snippet(idx, "a", "b", window=5)
        assert narrow <= wide

    def test_zero_window_rejected(self):
        idx = build_corpus_index([("d0", "a")])
        with pytest.raises(ValidationError):
            dice_snippet(idx, "a", "a", window=0)


class TestLin:
    def _tax(self):
        return Taxonomy(
            parent={"root": None, "mid": "root", "n1": "mid", "n2": "mid", "far": "root"},
            prob={"root": 1.0, "mid": 0.25, "n1": 0.0625, "n2": 0.0625, "far": 0.5},
        )

    def test_hand_value(self):
        # 2 log 0.25 / (log 0.0625 + log 0.0625) = 0.5
        assert lin_relatedness(self._tax(), "n1", "n2") == pytest.approx(0.5, abs=1e-12)

    def test_identity_is_one(self):
        assert lin_relatedness(self._tax(), "n1", "n1") == pytest.approx(1.0, abs=1e-12)

    def test_root_join_gives_zero(self):
        assert lin_relatedness(self._tax(), "n1", "far") == 0.0
        assert math.copysign(1.0, lin_relatedness(self._tax(), "n1", "far")) == 1.0

    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            lin_relatedness(self._tax(), "n1", "ghost")

    def test_taxonomy_validation(self):
        with pytest.raises(ValidationError):  # two roots
            Taxonomy(parent={"a": None, "b": None}, prob={"a": 1.0, "b": 1.0})
        with pytest.raises(ValidationError):  # root prob must be one
            Taxonomy(parent={"a": None}, prob={"a": 0.5})
        with pytest.raises(ValidationError):  # child above parent
            Taxonomy(parent={"a": None, "b": "a", "c": "b"},
                     prob={"a": 1.0, "b": 0.1, "c": 0.2})
        with pytest.raises(ValidationError):  # cycle
            Taxonomy(parent={"a": None, "b": "c", "c": "b"},
                     prob={"a": 1.0, "b": 0.5, "c": 0.5})
        with pytest.raises(ValidationError, match="parent of 'b' is unknown node 'ghost'"):
            Taxonomy(parent={"a": None, "b": "ghost"}, prob={"a": 1.0, "b": 0.5})

    def test_validation_is_linear_in_depth(self):
        # a walk from each node to the root with a fresh set took 3.6 s here
        n = 8000
        parent = {"n0": None, **{f"n{i}": f"n{i - 1}" for i in range(1, n)}}
        prob = dict.fromkeys(parent, 1.0)
        start = time.perf_counter()
        assert Taxonomy(parent=parent, prob=prob).root == "n0"
        assert time.perf_counter() - start < 0.5
        # the chain's tail, hung from a three-node cycle, never reaches the root
        parent.update({"c0": "c2", "c1": "c0", "c2": "c1", "n4000": "c1"})
        with pytest.raises(ValidationError, match="cycle in taxonomy at 'c1'"):
            Taxonomy(parent=parent, prob=dict.fromkeys(parent, 1.0))

    def test_tree_distance(self):
        tax = self._tax()
        assert tax.tree_distance("n1", "n2") == 2
        assert tax.tree_distance("n1", "far") == 3
        assert tax.tree_distance("n1", "n1") == 0

    def test_leaf_descendants(self):
        tax = self._tax()
        assert set(tax.leaf_descendants("mid")) == {"n1", "n2"}
        assert tax.leaf_descendants("far") == ["far"]


class TestEsa:
    def _docs(self):
        return [
            ("d0", "bear claw claw forest"),
            ("d1", "otter river fish"),
            ("d2", "bear forest den"),
            ("d3", "fish river water"),
        ]

    def test_identical_terms_give_exactly_one(self):
        idx = build_corpus_index(self._docs())
        assert esa_relatedness(idx, "bear", "bear") == 1.0
        assert esa_relatedness(idx, "Bear", "bear  ") == 1.0

    def test_disjoint_concepts_give_zero(self):
        idx = build_corpus_index(self._docs())
        # bear and otter never share a document
        assert esa_relatedness(idx, "bear", "otter") == 0.0

    def test_matches_manual_tfidf_cosine(self):
        docs = self._docs()
        idx = build_corpus_index(docs)
        # independent reconstruction of the concept vectors
        texts = [d[1].split() for d in docs]
        n = len(texts)

        def vec(term):
            df = sum(term in t for t in texts)
            out = np.array([t.count(term) for t in texts], dtype=float)
            return out * (math.log(n / df) if df else 0.0)

        va, vb = vec("claw"), vec("forest")
        want = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        assert 0.0 < want < 1.0
        got = esa_relatedness(idx, "claw", "forest")
        assert got == pytest.approx(want, abs=1e-12)

    def test_unseen_term_gives_zero(self):
        idx = build_corpus_index(self._docs())
        assert esa_relatedness(idx, "yeti", "bear") == 0.0

    def test_range(self):
        rng = np.random.default_rng(17)
        vocab = [f"w{i}" for i in range(10)]
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=6))) for d in range(25)]
        idx = build_corpus_index(docs)
        for _ in range(60):
            a, b = rng.choice(vocab, size=2)
            assert 0.0 <= esa_relatedness(idx, a, b) <= 1.0


def mine_tfidf(script_docs, attributes):
    """tfidf of ``attributes`` over {category: [text, ...]}, one document per text."""
    docs = [(f"{c}/{i}", text) for c, texts in script_docs.items() for i, text in enumerate(texts)]
    index = build_corpus_index(docs or [("none", "")])
    return mine_relatedness(index, list(script_docs), attributes, "tfidf")


def tfidf_oracle(docs, categories, attributes):
    """Phrase counts per document, summed per category, under the formula
    ``counts / lengths[:, None] * idf``."""
    counts = np.zeros((len(categories), len(attributes)))
    lengths = np.zeros(len(categories))
    for doc_id, text in docs:
        prefix = doc_id.split("/", 1)[0]
        if prefix not in categories:
            continue
        i = categories.index(prefix)
        toks = tokenize(text)
        lengths[i] += len(toks)
        for j, attr in enumerate(attributes):
            phrase = tokenize(attr)
            counts[i, j] += sum(toks[s:s + len(phrase)] == phrase
                                for s in range(len(toks) - len(phrase) + 1))
    idf = np.array([math.log(len(categories) / df) if df else 0.0
                    for df in (counts > 0).sum(axis=0)])
    return counts / lengths[:, None] * idf


class TestTfidfAssociations:
    def test_hand_value(self):
        # category X: 5 tokens, one "claw" -> tf 0.2; only 1 of 2 categories
        # mentions it -> idf log 2
        rel = mine_tfidf(
            {"X": ["claw den rock tree moss"], "Y": ["river fish water reed mud"]},
            ["claw"])
        i = rel.categories.index("X")
        j = rel.attributes.index("claw")
        assert rel.values[i, j] == pytest.approx(0.2 * math.log(2), abs=1e-12)
        assert rel.values[rel.categories.index("Y"), j] == 0.0

    def test_attribute_in_every_category_gets_zero_idf(self):
        rel = mine_tfidf({"X": ["claw claw"], "Y": ["claw den"]}, ["claw"])
        assert np.all(rel.values == 0.0)

    def test_unseen_attribute_is_zero_everywhere(self):
        rel = mine_tfidf({"X": ["den"], "Y": ["river"]}, ["wings"])
        assert np.all(rel.values == 0.0)

    def test_multiword_attribute_counts_contiguous_occurrences(self):
        rel = mine_tfidf(
            {"X": ["long tail swims long tail"], "Y": ["tail long nothing here now"]},
            ["long tail"])
        # X has 2 contiguous matches of 5 tokens; Y has none (wrong order)
        x = rel.categories.index("X")
        y = rel.categories.index("Y")
        j = rel.attributes.index("long tail")
        assert rel.values[x, j] == pytest.approx((2 / 5) * math.log(2), abs=1e-12)
        assert rel.values[y, j] == 0.0

    def test_category_without_text_rejected(self):
        with pytest.raises(ValidationError):
            mine_tfidf({"X": [], "Y": ["den"]}, ["claw"])

    def test_phrase_is_counted_within_one_document(self):
        rel = mine_tfidf({"X": ["a long", "tail b"], "Y": ["long tail"]}, ["long tail"])
        assert rel.values[0, 0] == 0.0
        assert rel.values[1, 0] == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_overlapping_occurrences_count(self):
        rel = mine_tfidf({"X": ["a a a"], "Y": ["b"]}, ["a a"])
        assert rel.values[0, 0] == pytest.approx((2 / 3) * math.log(2), abs=1e-12)

    def test_empty_term_lists_rejected(self):
        with pytest.raises(ValidationError):
            mine_tfidf({"X": ["den"]}, [])
        with pytest.raises(ValidationError):
            mine_tfidf({}, ["den"])

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_document_counts_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(4 + seed)]
        categories = [f"c{i}" for i in range(2 + seed % 3)]
        docs = [(f"{rng.choice(categories + ['other'])}/{d}",
                 " ".join(rng.choice(vocab, size=rng.integers(0, 12))))
                for d in range(20)]
        docs += [(f"{c}/pad", " ".join(rng.choice(vocab, size=3))) for c in categories]
        # multi-word phrases, repeated tokens ("w0 w0") and absent tokens
        attributes = ["w0", "w0 w0", "w1 w2", "w2 w1 w2", "absent", "w1 absent",
                      *dict.fromkeys(" ".join(rng.choice(vocab, size=rng.integers(1, 4)))
                                     for _ in range(8))]
        attributes = list(dict.fromkeys(attributes))
        rel = mine_relatedness(build_corpus_index(docs), categories, attributes, "tfidf")
        want = tfidf_oracle(docs, categories, attributes)
        assert rel.values.tobytes() == want.tobytes()


class TestMineRelatedness:
    def test_fills_full_matrix(self):
        docs = [("d0", "bear claw"), ("d1", "otter fin"), ("d2", "bear fin")]
        idx = build_corpus_index(docs)
        rel = mine_relatedness(idx, ["bear", "otter"], ["claw", "fin"], "dice_hit")
        assert rel.categories == ("bear", "otter")
        assert rel.attributes == ("claw", "fin")
        assert rel.values[0, 0] == dice_hitcount(idx, "bear", "claw")
        assert rel.measure == "dice_hit"

    def test_unknown_measure_rejected(self):
        idx = build_corpus_index([("d0", "a")])
        with pytest.raises(ValidationError):
            mine_relatedness(idx, ["a"], ["b"], "bogus")

    def test_lin_requires_taxonomy(self):
        idx = build_corpus_index([("d0", "a")])
        with pytest.raises(ValidationError):
            mine_relatedness(idx, ["a"], ["b"], "lin")

    def test_every_declared_measure_and_policy_is_dispatched(self):
        idx = build_corpus_index([("bear/0", "bear claw"), ("otter/0", "otter fin")])
        tax = Taxonomy({"root": None, "bear": "root", "claw": "bear", "otter": "root"},
                       {"root": 1.0, "bear": 0.5, "claw": 0.25, "otter": 0.5})
        for measure in MEASURES:
            rel = mine_relatedness(idx, ["bear", "otter"], ["claw"], measure, taxonomy=tax)
            assert rel.measure == measure
            assert rel.values[0, 0] > rel.values[1, 0] == 0
        for policy in POLICIES:
            with pytest.warns(UserWarning, match="otter"):
                assoc = binarize(rel, policy, k=1, threshold=rel.values[0, 0])
            assert assoc.values.tolist() == [[1.0], [0.0]]

    def test_lin_reads_no_index(self):
        tax = Taxonomy({"root": None, "bear": "root", "claw": "bear"},
                       {"root": 1.0, "bear": 0.5, "claw": 0.25})
        rel = mine_relatedness(None, ["bear"], ["claw"], "lin", taxonomy=tax)
        assert rel.values[0, 0] == lin_relatedness(tax, "bear", "claw")

    def test_index_is_collected_after_mining(self):
        idx = build_corpus_index([("d0", "bear claw"), ("d1", "otter fin bear")])
        for measure in ("dice_hit", "dice_snippet", "esa"):
            mine_relatedness(idx, ["bear", "otter"], ["claw", "fin"], measure, window=2)
        ref = weakref.ref(idx)
        del idx
        gc.collect()
        assert ref() is None


class TestMatchesSparseOracle:
    # multi-word terms, repeated-token terms, absent tokens and terms
    TERMS = ["w1 w2", "w2 w1 w3", "w4 w4", "w1 w2 w1", "w5 w6 w7 w0", "yeti", "w0 yeti"]

    def _corpus(self, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(9)]
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=rng.integers(1, 25))))
                for d in range(50)]
        docs[5:5] = [("empty", ""), ("punct", "... !!"), ("one", "w3")]
        return docs, vocab

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("measure,window", [("dice_hit", None), ("dice_snippet", 1),
                                                ("dice_snippet", 2), ("dice_snippet", 20),
                                                ("dice_snippet", None), ("esa", None)])
    def test_bitwise_equal(self, seed, measure, window):
        docs, vocab = self._corpus(seed)
        rows = vocab[:5] + self.TERMS[:4]
        cols = vocab[3:] + self.TERMS[3:]
        idx = build_corpus_index(docs)
        got = mine_relatedness(idx, rows, cols, measure, window=window).values
        want = sparse_measure(docs, rows, cols, measure, window)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.any()

    @pytest.mark.parametrize("window", [3, 7])
    def test_documents_much_longer_than_the_window(self, window):
        # dense and sparse words, so runs merge, cross block ends and stay short
        rng = np.random.default_rng(window)
        vocab = [f"w{i}" for i in range(9)]
        p = np.array([0.4, 0.2, 0.1, 0.1, 0.08, 0.06, 0.03, 0.02, 0.01])
        docs = [(f"d{d}", " ".join(rng.choice(vocab, size=rng.integers(1, 300), p=p)))
                for d in range(12)]
        rows, cols = vocab[:5] + self.TERMS[:4], vocab[3:] + self.TERMS[3:]
        got = mine_relatedness(build_corpus_index(docs), rows, cols, "dice_snippet",
                               window=window).values
        assert np.array_equal(got, sparse_measure(docs, rows, cols, "dice_snippet", window))

    def test_windows_at_least_the_longest_document_mean_whole_documents(self):
        # 10**14 windows per document would overflow the int64 window
        # numbering, and 10**20 does not fit an int64
        docs, vocab = self._corpus(4)
        rows, cols = vocab[:5] + self.TERMS[:4], vocab[3:] + self.TERMS[3:]
        idx = build_corpus_index(docs)
        longest = max(len(tokenize(text)) for _, text in docs)
        want = mine_relatedness(idx, rows, cols, "dice_snippet", window=None).values
        for window in (longest, longest + 1, 10**14, 10**20):
            got = mine_relatedness(idx, rows, cols, "dice_snippet", window=window).values
            assert got.tobytes() == want.tobytes()
        shorter = mine_relatedness(idx, rows, cols, "dice_snippet", window=longest - 1).values
        assert not np.array_equal(shorter, want)

    def test_runs_per_block_stay_few_in_long_documents(self):
        # each term 300 times in one 10,000-token document, 21 or more tokens
        # apart, and "w" nearly everywhere: pairing whole-document runs would
        # give 300 x 300 pairs a cell
        rng = np.random.default_rng(0)
        toks = np.array(["w"] * 10_000, dtype=object)
        for t in range(3):
            toks[rng.choice(450, size=300, replace=False) * 22 + t] = f"t{t}"
        term, block, lo, hi = _term_windows(build_corpus_index([("d", " ".join(toks))]),
                                            ["t0", "t1", "t2 t1", "w"], 20)
        assert np.bincount(term * (block.max() + 1) + block).max() <= 2
        assert (hi - lo + 1).sum() > 300 * 20 * 2

    def test_esa_with_a_word_in_every_document(self):
        # "the" has idf 0, so "the w1 w2 w3" weighs 0 where w1..w3 are absent
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(30)]
        docs = [(f"d{d}", "the " + " ".join(rng.choice(vocab, size=rng.integers(1, 12))))
                for d in range(200)]
        rows, cols = vocab[:6], ["the w1 w2 w3", "w4 the", "the", *vocab[6:12]]
        got = mine_relatedness(build_corpus_index(docs), rows, cols, "esa").values
        assert np.array_equal(got, sparse_measure(docs, rows, cols, "esa"))

    def test_esa_of_sorted_concept_vectors(self):
        # tokens a < b < c each in one document, in descending document order,
        # so every concept vector's CSR row is already sorted
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = rng.integers(1, 6, size=3)
            docs = [("d0", "c " * k[0] + "z"), ("d1", "b " * k[1]), ("d2", "a " * k[2]),
                    ("d3", "q")]
            got = mine_relatedness(build_corpus_index(docs), ["a b c"], ["z", "q"], "esa")
            assert np.array_equal(got.values, sparse_measure(docs, ["a b c"], ["z", "q"], "esa"))


class TestSignatureRelatedness:
    def _assoc(self):
        values = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]], dtype=float)
        with pytest.warns(UserWarning, match="no associated attribute"):
            return AssociationMatrix(("x", "y", "empty"), ("a", "b", "c", "d"), values,
                                     binary=True)

    def test_hand_value(self):
        rel = signature_relatedness(self._assoc(), ["x"], ["y", "x"])
        assert rel.values.tolist() == [[2 * 1 / (2 + 2), 1.0]]

    def test_empty_signature_gives_zero(self):
        rel = signature_relatedness(self._assoc(), ["empty", "x"], ["empty", "x", "y"])
        assert rel.values.tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5]]

    def test_needs_binary_associations(self):
        assoc = AssociationMatrix(("x",), ("a",), np.array([[0.5]]), binary=False)
        with pytest.raises(ValidationError):
            signature_relatedness(assoc, ["x"], ["x"])

    def test_tagged_signature(self):
        assert signature_relatedness(self._assoc(), ["x"], ["y"]).measure == "signature"


class TestBinarize:
    def _rel(self):
        values = np.array([
            [0.9, 0.1, 0.5],
            [0.8, 0.1, 0.5],
            [0.1, 0.7, 0.2],
        ])
        return RelatednessMatrix(("c0", "c1", "c2"), ("a0", "a1", "a2"), values)

    def test_topk_marks_exactly_k_per_attribute(self):
        assoc = binarize(self._rel(), "per_attribute_topk", k=2)
        assert assoc.binary
        assert np.array_equal(assoc.values.sum(axis=0), [2, 2, 2])

    def test_topk_ties_prefer_earlier_categories(self):
        # a2 column ties c0 and c1 at 0.5; both beat c2, so k=1 keeps c0
        assoc = binarize(self._rel(), "per_attribute_topk", k=1)
        assert assoc.values[0, 2] == 1.0
        assert assoc.values[1, 2] == 0.0

    @pytest.mark.filterwarnings("ignore:categories with no associated attribute")
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_topk_equals_a_stable_sort_per_column(self, k):
        rng = np.random.default_rng(k)
        values = rng.integers(0, 3, size=(5, 9)) / 2.0  # heavily tied
        rel = RelatednessMatrix(tuple(f"c{i}" for i in range(5)),
                                tuple(f"a{j}" for j in range(9)), values)
        want = np.zeros_like(values)
        for j in range(values.shape[1]):
            want[np.argsort(-values[:, j], kind="stable")[:k], j] = 1.0
        got = binarize(rel, "per_attribute_topk", k=k).values
        assert got.tobytes() == want.tobytes()

    def test_topk_caps_at_category_count(self):
        assoc = binarize(self._rel(), "per_attribute_topk", k=10)
        assert np.all(assoc.values == 1.0)

    def test_global_threshold(self):
        assoc = binarize(self._rel(), "global_threshold", threshold=0.5)
        assert np.array_equal(assoc.values, self._rel().values >= 0.5)

    def test_per_attribute_mean(self):
        rel = self._rel()
        assoc = binarize(rel, "per_attribute_mean")
        want = rel.values >= rel.values.mean(axis=0, keepdims=True)
        assert np.array_equal(assoc.values.astype(bool), want)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValidationError):
            binarize(self._rel(), "per_attribute_topk")
        for threshold in (None, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="finite threshold"):
                binarize(self._rel(), "global_threshold", threshold=threshold)
        with pytest.raises(ValidationError):
            binarize(self._rel(), "bogus_policy")
