"""Command-line interface.

Subcommands cover each pipeline step (mine, assoc, train, zeroshot, pst,
eval, synth) plus an end-to-end ``pipeline`` driver configured by one
JSON file. Exit codes: 0 success, 2 parse or I/O failure, 3 validation
failure, 4 non-convergence under --strict. Errors go to stderr as a
single JSON line with ``error``, ``code``, and ``stage`` fields. All
outputs are deterministic functions of inputs and seeds, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

from . import io
from .classify import TrainConfig, predict_attribute_scores, train_attribute_classifiers
from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    FeatureMatrix,
    ParseError,
    RelatednessMatrix,
    ValidationError,
    validate_split,
)
from .metrics import PROTOCOLS, evaluate_zero_shot
from .propagate import KERNELS, PropagationConfig, pst
from .relatedness import (
    binarize,
    build_corpus_index,
    mine_relatedness,
    signature_relatedness,
    tfidf_associations,
)
from .synth import SynthConfig, corpus_plan_from_associations, gen_corpus, gen_dataset
from .transfer import (
    attribute_prior_from_associations,
    dap_scores,
    direct_similarity_scores,
    hierarchy_transfer,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4

_PARSE_ERRORS = (ParseError, OSError, json.JSONDecodeError)


@contextmanager
def _stage(name: str):
    """Tag an error raised inside a pipeline stage with the stage's name."""
    try:
        yield
    except (ValidationError, *_PARSE_ERRORS) as exc:
        exc.stage = name
        raise


def _load_terms(path) -> tuple[list[str], list[str]]:
    doc = io.read_json(path)
    for key in ("categories", "attributes"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"{path}: terms file needs a {key!r} list")
    return [str(t) for t in doc["categories"]], [str(t) for t in doc["attributes"]]


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if unknown := set(section) - allowed:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object")
    _check_keys(sec, allowed, name)
    return dict(sec)


_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}


def _typed(sec: dict, key: str, default, annotation: str, where: str):
    """``sec[key]`` (or ``default``), rejected unless its JSON type matches
    ``annotation``, such as ``"int | None"``."""
    value = sec.get(key, default)
    if isinstance(value, bool) or not isinstance(
            value, tuple(_JSON_TYPES[t] for t in annotation.split(" | "))):
        raise ValidationError(f"{where} {key} must be {annotation}, got {value!r}")
    return value


def _config_path(base: Path, sec: dict, key: str, where: str) -> Path:
    """Path ``sec[key]``, which must be given as a string, resolved against ``base``."""
    if key not in sec:
        raise ValidationError(f"{where} section needs {key!r}")
    return base / _typed(sec, key, None, "str", where)


def _from_section(cls, cfg: dict, name: str, **defaults):
    """Build a config dataclass from section ``name``, whose keys must be
    field names and whose values must match the fields' JSON types."""
    fields = dataclasses.fields(cls)
    sec = {**defaults, **_section(cfg, name, {f.name for f in fields})}
    for f in fields:
        if f.name in sec:
            _typed(sec, f.name, None, f.type, name)
    return cls(**sec)


# ---------------------------------------------------------------------------
# Stages: one implementation each, called by the subcommands and by ``pipeline``


def _write_dataset(out: Path, ds) -> None:
    io.write_matrix(out / "features.tsv", ds.features)
    io.write_labels(out / "labels.tsv", ds.labels)
    io.write_matrix(out / "associations.tsv", ds.associations)
    io.write_split(out / "split.json", ds.split)


def _write_corpus(out: Path, assoc: AssociationMatrix, docs_per_pair: int,
                  filler_docs: int, seed: int) -> list[tuple[str, str]]:
    """A corpus whose mined Dice scores recover ``assoc``, written to ``corpus.jsonl``."""
    corpus = gen_corpus(corpus_plan_from_associations(
        assoc, docs_per_pair=docs_per_pair, filler_docs=filler_docs, seed=seed))
    io.write_corpus_jsonl(out / "corpus.jsonl", corpus)
    return corpus


def _mine(corpus, categories, attributes, measure: str, window: int | None,
          taxonomy_edges=None, taxonomy_probs=None):
    """Relatedness of every category-attribute pair under ``measure``.

    ``tfidf`` groups the documents by the id prefix before the first ``/``;
    ``lin`` needs both taxonomy files; window 0 means whole documents.
    """
    if measure == "tfidf":
        groups: dict[str, list[str]] = {}
        for doc_id, text in corpus:
            groups.setdefault(doc_id.split("/", 1)[0], []).append(text)
        return tfidf_associations({c: groups.get(c, []) for c in categories}, attributes)
    taxonomy = None
    if measure == "lin":
        if not (taxonomy_edges and taxonomy_probs):
            raise ValidationError("lin measure needs taxonomy edges and probabilities")
        taxonomy = io.read_taxonomy(taxonomy_edges, taxonomy_probs)
    return mine_relatedness(build_corpus_index(corpus), categories, attributes, measure,
                            window=window or None, taxonomy=taxonomy)


def _check_split(split, assoc=None) -> None:
    """Raise on any :func:`validate_split` violation, naming the first five."""
    if violations := validate_split(split, assoc):
        raise ValidationError(f"{len(violations)} split violations: "
                              + "; ".join(violations[:5]))


def _transfer(attr_scores, assoc, split, method="dap", *, top_k=5, taxonomy=None,
              attachments=None, mode="all") -> CategoryScoreMatrix:
    """Novel-category scores by ``dap``, ``sim`` or ``hier`` transfer.

    ``assoc`` holds both the known and the novel categories. As in DAP, the
    attribute prior comes from the known (training) categories.
    """
    known = [c for c in assoc.categories if c in split.known_categories]
    novel = [c for c in assoc.categories if c in split.novel_categories]
    if not known or not novel:
        raise ValidationError("associations must cover known and novel categories")
    known_assoc = assoc.take(known)
    prior = attribute_prior_from_associations(known_assoc)
    if method == "dap":
        return dap_scores(attr_scores, assoc.take(novel), prior)
    if method not in ("sim", "hier"):
        raise ValidationError(f"unknown transfer method: {method!r}")
    known_scores = dap_scores(attr_scores, known_assoc, prior)
    if method == "sim":
        return direct_similarity_scores(known_scores, signature_relatedness(assoc, novel, known),
                                        top_k=top_k)
    return hierarchy_transfer(taxonomy, known_scores, attachments, mode=mode)


def _evaluate(scores, truth, split, protocol) -> dict:
    """Evaluation report per protocol; ``"both"`` runs both protocols, and
    :func:`evaluate_zero_shot` rejects any other unknown protocol. The reports
    are written with sorted keys, so their field order does not matter."""
    protocols = PROTOCOLS if protocol == "both" else [protocol]
    return {p: dataclasses.asdict(evaluate_zero_shot(scores, truth, split, p)) for p in protocols}


def _cap_warnings(model=None, propagation=None) -> list[str]:
    """One line, with numbers, for each stage that stopped at its iteration cap."""
    lines = []
    if model is not None:
        meta = model.metadata
        cap = meta["config"]["max_iters"]
        capped = sum(n >= cap for n in meta["iterations"])
        if capped:
            lines.append(f"{capped} of {len(meta['iterations'])} attribute classifiers hit "
                         f"max_iters={cap}; largest gradient norm "
                         f"{max(meta['grad_norm']):.3g} (tol {meta['config']['tol']:g})")
    if propagation is not None and not propagation.converged:
        lines.append(f"propagation stopped after {propagation.iterations} sweeps "
                     "without converging")
    return lines


def _report_caps(lines: list[str], strict: bool) -> int:
    """Warn once per line; under --strict any of them means exit 4."""
    for line in lines:
        warnings.warn(line)
    return EXIT_NO_CONVERGENCE if lines and strict else EXIT_OK


# ---------------------------------------------------------------------------
# Single-step commands


def cmd_mine(args) -> int:
    categories, attributes = _load_terms(args.terms)
    rel = _mine(io.read_corpus_jsonl(args.corpus), categories, attributes, args.measure,
                args.window, args.taxonomy_edges, args.taxonomy_probs)
    io.write_matrix(args.out, rel)
    return EXIT_OK


def cmd_assoc(args) -> int:
    rel = io.read_matrix(args.relatedness, RelatednessMatrix)
    assoc = binarize(rel, args.policy, k=args.k, threshold=args.threshold)
    io.write_matrix(args.out, assoc)
    return EXIT_OK


def cmd_train(args) -> int:
    features = io.read_matrix(args.features, FeatureMatrix)
    assoc = io.read_matrix(args.assoc, AssociationMatrix)
    split = io.read_split(args.split)
    _check_split(split, assoc)
    model = train_attribute_classifiers(features, split.train_instances, assoc,
                                        _from_flags(TrainConfig, args))
    io.save_model(args.out, model)
    return _report_caps(_cap_warnings(model=model), args.strict)


def cmd_zeroshot(args) -> int:
    model = io.load_model(args.model)
    features = io.read_matrix(args.features, FeatureMatrix)
    assoc = io.read_matrix(args.assoc, AssociationMatrix)
    split = io.read_split(args.split)
    _check_split(split, assoc)
    zs = _transfer(predict_attribute_scores(model, features), assoc, split)
    io.write_matrix(args.out, zs)
    return EXIT_OK


def cmd_pst(args) -> int:
    zs = io.read_matrix(args.zeroshot, CategoryScoreMatrix)
    vectors = io.read_matrix(args.vectors, AttributeScoreMatrix)
    fewshot = io.read_labels(args.fewshot) if args.fewshot else {}
    result = pst(zs, vectors, fewshot, _from_flags(PropagationConfig, args))
    io.write_matrix(args.out, result.scores)
    if args.predictions:
        io.write_labels(args.predictions, result.predictions)
    return _report_caps(_cap_warnings(propagation=result), args.strict)


def cmd_eval(args) -> int:
    scores = io.read_matrix(args.scores, CategoryScoreMatrix)
    truth = io.read_labels(args.truth)
    split = io.read_split(args.split)
    # a few-shot instance that is also a test instance would be scored on its own label
    _check_split(split)
    doc = _evaluate(scores, truth, split, args.protocol)
    io.write_json(args.out, doc if args.protocol == "both" else doc[args.protocol])
    return EXIT_OK


def cmd_synth(args) -> int:
    ds = gen_dataset(_from_flags(SynthConfig, args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_dataset(out, ds)
    if args.corpus_docs_per_pair > 0:
        _write_corpus(out, ds.associations, args.corpus_docs_per_pair,
                      args.corpus_filler_docs, args.seed)
        io.write_json(out / "terms.json", {"categories": list(ds.associations.categories),
                                           "attributes": list(ds.associations.attributes)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# End-to-end pipeline


_TOP_KEYS = {"output_dir", "seed", "synth", "data", "corpus", "mine", "assoc",
             "train", "transfer", "pst", "eval"}


def cmd_pipeline(args) -> int:
    with _stage("config"):
        cfg = io.read_json(args.config)
        _check_keys(cfg, _TOP_KEYS, "config")
        # paths inside the config resolve against the config file itself;
        # the --out-dir flag resolves against the working directory as usual
        base = Path(args.config).resolve().parent
        if args.out_dir:
            out = Path(args.out_dir)
        elif cfg.get("output_dir"):
            out = _config_path(base, cfg, "output_dir", "config")
        else:
            raise ValidationError("no output directory (config output_dir or --out-dir)")
        out.mkdir(parents=True, exist_ok=True)
        seed = _typed(cfg, "seed", 0, "int", "config")

    with _stage("data"):
        if ("synth" in cfg) == ("data" in cfg):
            raise ValidationError("config needs exactly one of 'synth' or 'data'")
        if "synth" in cfg:
            ds = gen_dataset(_from_section(SynthConfig, cfg, "synth", seed=seed))
            _write_dataset(out, ds)
            features, labels, base_assoc, split = ds.features, ds.labels, ds.associations, ds.split
        else:
            keys = ("features", "labels", "associations", "split")
            sec = _section(cfg, "data", set(keys))
            path = {key: _config_path(base, sec, key, "data") for key in keys}
            features = io.read_matrix(path["features"], FeatureMatrix)
            labels = io.read_labels(path["labels"])
            base_assoc = io.read_matrix(path["associations"], AssociationMatrix)
            split = io.read_split(path["split"])
        _check_split(split, base_assoc)

    corpus = None
    with _stage("corpus"):
        if "corpus" in cfg:
            sec = _section(cfg, "corpus", {"path", "docs_per_pair", "filler_docs"})
            if "path" in sec:
                corpus = io.read_corpus_jsonl(_config_path(base, sec, "path", "corpus"))
            else:
                corpus = _write_corpus(out, base_assoc,
                                       _typed(sec, "docs_per_pair", 3, "int", "corpus"),
                                       _typed(sec, "filler_docs", 0, "int", "corpus"), seed)

    rel = None
    with _stage("mine"):
        if "mine" in cfg:
            if corpus is None:
                raise ValidationError("mining needs a corpus section")
            sec = _section(cfg, "mine",
                           {"measure", "window", "taxonomy_edges", "taxonomy_probs"})
            taxonomy = [_config_path(base, sec, key, "mine") if key in sec else None
                        for key in ("taxonomy_edges", "taxonomy_probs")]
            rel = _mine(corpus, base_assoc.categories, base_assoc.attributes,
                        _typed(sec, "measure", "dice_hit", "str", "mine"),
                        _typed(sec, "window", 20, "int | None", "mine"), *taxonomy)
            io.write_matrix(out / "relatedness.tsv", rel)

    with _stage("assoc"):
        if rel is not None:
            if "assoc" not in cfg:
                raise ValidationError("mined relatedness needs an assoc section to binarize")
            sec = _section(cfg, "assoc", {"policy", "k", "threshold"})
            if "policy" not in sec:
                raise ValidationError("assoc section needs a policy")
            assoc = binarize(rel, sec["policy"], k=_typed(sec, "k", None, "int | None", "assoc"),
                             threshold=_typed(sec, "threshold", None, "float | None", "assoc"))
            io.write_matrix(out / "associations_mined.tsv", assoc)
        else:
            if "assoc" in cfg:
                raise ValidationError("assoc section given but nothing was mined")
            assoc = base_assoc

    with _stage("train"):
        tconfig = _from_section(TrainConfig, cfg, "train")
        model = train_attribute_classifiers(features, split.train_instances, assoc, tconfig)
        io.save_model(out / "model.json", model)

    with _stage("score"):
        attr_scores = predict_attribute_scores(model, features)
        io.write_matrix(out / "attribute_scores.tsv", attr_scores)

    with _stage("transfer"):
        sec = _section(cfg, "transfer", {"method", "top_k", "taxonomy_edges",
                                         "taxonomy_probs", "attachments", "mode"})
        method = sec.get("method", "dap")
        taxonomy = None
        if method == "hier":
            taxonomy = io.read_taxonomy(_config_path(base, sec, "taxonomy_edges", "transfer"),
                                        _config_path(base, sec, "taxonomy_probs", "transfer"))
        zeroshot = _transfer(attr_scores, assoc, split, method,
                             top_k=_typed(sec, "top_k", 5, "int", "transfer"), taxonomy=taxonomy,
                             attachments=sec.get("attachments"), mode=sec.get("mode", "all"))
        io.write_matrix(out / "zeroshot_scores.tsv", zeroshot)

    pst_result = None
    with _stage("pst"):
        if "pst" in cfg:
            pconfig = _from_section(PropagationConfig, cfg, "pst")
            rows = [inst for inst in features.instances
                    if inst in split.fewshot_instances or inst in split.test_instances]
            if not rows:
                raise ValidationError("no few-shot or test instances to propagate over")
            pst_result = pst(zeroshot.take(rows), attr_scores.take(rows),
                             split.fewshot_instances, pconfig)
            io.write_matrix(out / "pst_scores.tsv", pst_result.scores)
            io.write_labels(out / "pst_predictions.tsv", pst_result.predictions)

    with _stage("eval"):
        protocol = _section(cfg, "eval", {"protocol"}).get("protocol", "novel_only")
        results = {"zeroshot": _evaluate(zeroshot, labels, split, protocol)}
        if pst_result is not None:
            results["pst"] = _evaluate(pst_result.scores, labels, split, protocol)
        io.write_json(out / "report.json", {
            "seed": seed,
            "converged": {
                "train": not _cap_warnings(model=model),
                "pst": None if pst_result is None else pst_result.converged,
            },
            "results": results,
        })

    return _report_caps(_cap_warnings(model, pst_result), args.strict)


# ---------------------------------------------------------------------------
# Parser


def _add_config_flags(p, cls, **choices) -> None:
    """One flag per field of config dataclass ``cls``, defaulting to the field's default."""
    for f in dataclasses.fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                       type={"int": int, "str": str}.get(f.type, float),
                       choices=choices.get(f.name))


def _from_flags(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtransfer",
        description="Zero- and few-shot category recognition from attribute knowledge.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine a relatedness matrix from a corpus")
    p.add_argument("--corpus", required=True, help="JSONL documents with id/text fields")
    p.add_argument("--terms", required=True, help="JSON with categories/attributes lists")
    p.add_argument("--measure", required=True,
                   choices=["dice_hit", "dice_snippet", "esa", "lin", "tfidf"])
    p.add_argument("--window", type=int, default=20,
                   help="snippet window in tokens; 0 means whole documents")
    p.add_argument("--taxonomy-edges", help="child<TAB>parent edge list (lin)")
    p.add_argument("--taxonomy-probs", help="node<TAB>probability list (lin)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_mine)

    p = sub.add_parser("assoc", help="binarize relatedness into associations")
    p.add_argument("--relatedness", required=True)
    p.add_argument("--policy", required=True,
                   choices=["per_attribute_topk", "global_threshold", "per_attribute_mean"])
    p.add_argument("--k", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_assoc)

    p = sub.add_parser("train", help="train per-attribute classifiers")
    p.add_argument("--features", required=True)
    p.add_argument("--assoc", required=True)
    p.add_argument("--split", required=True, help="split JSON; fits on its train_instances")
    _add_config_flags(p, TrainConfig)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any classifier hits the iteration cap")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("zeroshot", help="score novel categories from attribute evidence")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--assoc", required=True, help="known and novel category associations")
    p.add_argument("--split", required=True, help="split JSON; known categories give the prior")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_zeroshot)

    p = sub.add_parser("pst", help="refine scores by graph label propagation")
    p.add_argument("--zeroshot", required=True, help="category score TSV")
    p.add_argument("--vectors", required=True, help="attribute score TSV (graph coordinates)")
    p.add_argument("--fewshot", help="labels TSV of clamped instances")
    _add_config_flags(p, PropagationConfig, kernel=KERNELS)
    p.add_argument("--predictions", help="also write argmax labels TSV here")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if propagation does not converge")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_pst)

    p = sub.add_parser("eval", help="evaluate category scores against truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--protocol", choices=[*PROTOCOLS, "both"], default="novel_only")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    _add_config_flags(p, SynthConfig)
    p.add_argument("--corpus-docs-per-pair", type=int, default=0,
                   help="if > 0, also write a corpus realizing the associations")
    p.add_argument("--corpus-filler-docs", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("pipeline", help="run the full pipeline from one JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="overrides output_dir from the config")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any stage stops at its iteration cap")
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings that the active filters let through are held back, so that a
    # failure prints one JSON line and anything else prints each distinct one
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.handler(args)
        except (ValidationError, *_PARSE_ERRORS) as exc:
            stage = getattr(exc, "stage", None)
            code = EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_PARSE
            print(json.dumps({"error": f"{stage}: {exc}" if stage else str(exc), "code": code,
                              "stage": stage or args.command}, sort_keys=True), file=sys.stderr)
            return code
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
