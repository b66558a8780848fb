"""Workload inputs, generated from a seed and written as files.

The program under test only ever sees these files: the pipeline workloads
run ``semtransfer pipeline`` in ``data`` mode, and ``corpus-mine`` runs
``semtransfer mine --corpus``. The truth each job is checked against
(the planted associations, or the labels inside the dataset) stays in the
benchmark process.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from semtransfer import io
from semtransfer.synth import SynthConfig, gen_dataset


def write_pipeline_inputs(out: Path, seed: int, synth: dict, config: dict) -> None:
    """Dataset files plus a pipeline config that reads them (``data`` mode)."""
    ds = gen_dataset(SynthConfig(seed=seed, **synth))
    io.write_features(out / "features.tsv", ds.features)
    io.write_labels(out / "labels.tsv", ds.labels)
    io.write_association(out / "associations.tsv", ds.associations)
    io.write_split(out / "split.json", ds.split)
    doc = {"seed": seed,
           "data": {"features": "features.tsv", "labels": "labels.tsv",
                    "associations": "associations.tsv", "split": "split.json"},
           **config}
    (out / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")


def gen_mining_corpus(seed: int, *, n_docs: int, doc_len: int, vocab: int,
                      n_categories: int, n_attributes: int, density: float,
                      plants_per_doc: int, plant_radius: int, strays_per_doc: float,
                      topical_frac: float):
    """Documents of Zipf filler with planted category-attribute co-occurrences.

    Each category is associated with about ``density`` of the attributes.
    A topical document mentions one category term and, within
    ``plant_radius`` tokens of it, ``plants_per_doc`` of that category's
    attribute terms. Every document also gets Poisson(``strays_per_doc``)
    attribute mentions at random positions, so mined relatedness has false
    positives and the binarized associations are not perfect.

    Returns (documents, categories, attributes, truth) where truth is the
    categories x attributes 0/1 matrix of planted associations.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    categories = [f"c{i:02d}" for i in range(n_categories)]
    attributes = [f"a{j:02d}" for j in range(n_attributes)]
    words = np.array([f"w{i:04d}" for i in range(vocab)], dtype=object)
    zipf = 1.0 / np.arange(1, vocab + 1)
    zipf /= zipf.sum()

    truth = (rng.random((n_categories, n_attributes)) < density).astype(float)
    for i in range(n_categories):  # every category gets at least one attribute
        if not truth[i].any():
            truth[i, rng.integers(n_attributes)] = 1.0
    for j in range(n_attributes):  # and every attribute at least one category
        if not truth[:, j].any():
            truth[rng.integers(n_categories), j] = 1.0
    linked = [np.flatnonzero(row) for row in truth]

    tokens = words[rng.choice(vocab, size=(n_docs, doc_len), p=zipf)]
    offsets = np.array([o for o in range(-plant_radius, plant_radius + 1) if o != 0])
    docs = []
    for d in range(n_docs):
        toks = tokens[d]
        if rng.random() < topical_frac:
            c = int(rng.integers(n_categories))
            pos = int(rng.integers(plant_radius, doc_len - plant_radius))
            toks[pos] = categories[c]
            picks = rng.choice(linked[c], size=min(plants_per_doc, len(linked[c])),
                               replace=False)
            spots = pos + rng.choice(offsets, size=len(picks), replace=False)
            toks[spots] = [attributes[a] for a in picks]
        n_stray = int(rng.poisson(strays_per_doc))
        if n_stray:
            spots = rng.choice(doc_len, size=n_stray, replace=False)
            toks[spots] = [attributes[a] for a in rng.integers(n_attributes, size=n_stray)]
        docs.append((f"d{d:05d}", " ".join(toks)))
    return docs, categories, attributes, truth


def write_mining_inputs(out: Path, seed: int, corpus: dict) -> np.ndarray:
    """Corpus JSONL and terms JSON; returns the planted association matrix."""
    docs, categories, attributes, truth = gen_mining_corpus(seed, **corpus)
    io.write_corpus_jsonl(out / "corpus.jsonl", docs)
    terms = {"categories": categories, "attributes": attributes}
    (out / "terms.json").write_text(json.dumps(terms, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return truth
