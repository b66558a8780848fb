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
    positions,
    validate_split,
)
from .metrics import PROTOCOLS, evaluate_zero_shot
from .propagate import KERNELS, PropagationConfig, pst
from .relatedness import (
    MEASURES,
    POLICIES,
    binarize,
    build_corpus_index,
    mine_relatedness,
    signature_relatedness,
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
        if bad := [t for t in doc[key] if not isinstance(t, str)]:
            raise ParseError(f"{path}: {key} terms must be strings, got {json.dumps(bad[0])}")
    return doc["categories"], doc["attributes"]


_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None),
               "dict": dict, "path": str}


def _section(cfg: dict, name: str, schema: dict, base: Path | None = None) -> dict:
    """Section ``name`` of ``cfg`` (``cfg`` itself for ``"config"``), every key
    of ``schema`` filled in.

    ``schema`` maps each key to its JSON type, such as ``"int | None"``, and
    its default, where ``...`` marks a required key. A ``"path"`` is a string
    resolved against ``base``. ``"any"`` leaves the check to the section's stage.
    """
    sec = cfg if name == "config" else cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object")
    if unknown := set(sec) - set(schema):
        raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
    out = {}
    for key, (annotation, default) in schema.items():
        if key not in sec and default is ...:
            raise ValidationError(f"{name} section needs {key!r}")
        value = out[key] = sec.get(key, default)
        if key not in sec or annotation == "any":
            continue
        if isinstance(value, bool) or not isinstance(
                value, tuple(_JSON_TYPES[t] for t in annotation.split(" | "))):
            raise ValidationError(f"{name} {key} must be {annotation}, got {value!r}")
        if annotation == "path":
            out[key] = base / value
    return out


def _from_section(cls, cfg: dict, name: str, **defaults):
    """Config dataclass ``cls`` from section ``name``, whose keys are its fields,
    typed and defaulted as the fields are unless ``defaults`` overrides them."""
    return cls(**_section(cfg, name, {f.name: (f.type, defaults.get(f.name, f.default))
                                      for f in dataclasses.fields(cls)}))


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


_TAXONOMY = dict.fromkeys(("taxonomy_edges", "taxonomy_probs"), ("path", None))


def _taxonomy(who: str, taxonomy_edges, taxonomy_probs):
    """The taxonomy in the edge and probability files that ``who`` needs."""
    paths = (taxonomy_edges, taxonomy_probs)
    if missing := [key for key, path in zip(_TAXONOMY, paths) if not path]:
        raise ValidationError(f"{who} needs {' and '.join(missing)}")
    return io.read_taxonomy(*paths)


def _mine(read_corpus, categories, attributes, measure: str, window: int | None,
          taxonomy_edges=None, taxonomy_probs=None):
    """Relatedness of every category-attribute pair under ``measure``.

    ``lin`` needs both taxonomy files and no corpus; the other measures index
    the documents ``read_corpus()`` returns. Window 0 means whole documents.
    """
    index = taxonomy = None
    if measure == "lin":
        taxonomy = _taxonomy("lin measure", taxonomy_edges, taxonomy_probs)
    elif measure in MEASURES:
        if read_corpus is None:
            raise ValidationError(f"{measure} needs a corpus")
        index = build_corpus_index(read_corpus())
    return mine_relatedness(index, categories, attributes, measure,
                            window=window or None, taxonomy=taxonomy)


def _check_split(split, assoc=None) -> None:
    """Raise on any :func:`validate_split` violation, naming the first five."""
    if violations := validate_split(split, assoc):
        raise ValidationError(f"{len(violations)} split violations: "
                              + "; ".join(violations[:5]))


def _transfer(attr_scores, assoc, split, method="dap", *, top_k=5, taxonomy_edges=None,
              taxonomy_probs=None, attachments=None, mode="all") -> CategoryScoreMatrix:
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
    taxonomy = _taxonomy("hier transfer", taxonomy_edges, taxonomy_probs)
    return hierarchy_transfer(taxonomy, known_scores, attachments, mode=mode)


def _pst(zeroshot, vectors, split, config):
    """PST over the few-shot and test rows of ``zeroshot``, in its order, with
    the few-shot labels clamped; ``vectors`` holds their graph coordinates."""
    rows = [inst for inst in zeroshot.instances
            if inst in split.fewshot_instances or inst in split.test_instances]
    if not rows:
        raise ValidationError("no few-shot or test instances to propagate over")
    # name the input that lacks a row
    positions(zeroshot.instances, split.fewshot_instances, "zero-shot scores")
    positions(vectors.instances, rows, "attribute scores")
    return pst(zeroshot.take(rows), vectors, split.fewshot_instances, config)


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
        lines.append(f"propagation stopped after {propagation.iterations} sweeps without "
                     f"converging; final change {propagation.delta:.3g} "
                     f"(tol {propagation.tol:g})")
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
    read_corpus = (lambda: io.read_corpus_jsonl(args.corpus)) if args.corpus else None
    rel = _mine(read_corpus, categories, attributes, args.measure,
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
    split = io.read_split(args.split)
    _check_split(split)
    result = _pst(zs, vectors, split, _from_flags(PropagationConfig, args))
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


def cmd_pipeline(args) -> int:
    with _stage("config"):
        cfg = io.read_json(args.config)
        # paths inside the config resolve against the config file itself;
        # the --out-dir flag resolves against the working directory as usual
        base = Path(args.config).resolve().parent
        sections = ("synth", "data", "corpus", "mine", "assoc", "train", "transfer", "pst", "eval")
        top = _section(cfg, "config", {"output_dir": ("str", ""), "seed": ("int", 0),
                                       **dict.fromkeys(sections, ("any", None))})
        if not (args.out_dir or top["output_dir"]):
            raise ValidationError("no output directory (config output_dir or --out-dir)")
        out = Path(args.out_dir) if args.out_dir else base / top["output_dir"]
        out.mkdir(parents=True, exist_ok=True)
        seed = top["seed"]

    with _stage("data"):
        if ("synth" in cfg) == ("data" in cfg):
            raise ValidationError("config needs exactly one of 'synth' or 'data'")
        if "synth" in cfg:
            ds = gen_dataset(_from_section(SynthConfig, cfg, "synth", seed=seed))
            _write_dataset(out, ds)
            features, labels, base_assoc, split = ds.features, ds.labels, ds.associations, ds.split
        else:
            path = _section(cfg, "data", dict.fromkeys(
                ("features", "labels", "associations", "split"), ("path", ...)), base)
            features = io.read_matrix(path["features"], FeatureMatrix)
            labels = io.read_labels(path["labels"])
            base_assoc = io.read_matrix(path["associations"], AssociationMatrix)
            split = io.read_split(path["split"])
        _check_split(split, base_assoc)

    corpus = None
    with _stage("corpus"):
        if "corpus" in cfg:
            sec = _section(cfg, "corpus", {"path": ("path", None), "docs_per_pair": ("int", 3),
                                           "filler_docs": ("int", 0)}, base)
            if sec["path"] is not None:
                corpus = io.read_corpus_jsonl(sec["path"])
            else:
                corpus = _write_corpus(out, base_assoc, sec["docs_per_pair"],
                                       sec["filler_docs"], seed)

    rel = None
    with _stage("mine"):
        if "mine" in cfg:
            sec = _section(cfg, "mine", {"measure": ("str", "dice_hit"),
                                         "window": ("int | None", 20), **_TAXONOMY}, base)
            rel = _mine(None if corpus is None else lambda: corpus,
                        base_assoc.categories, base_assoc.attributes, **sec)
            io.write_matrix(out / "relatedness.tsv", rel)

    with _stage("assoc"):
        if rel is not None:
            if "assoc" not in cfg:
                raise ValidationError("mined relatedness needs an assoc section to binarize")
            assoc = binarize(rel, **_section(cfg, "assoc", {
                "policy": ("str", ...), "k": ("int | None", None),
                "threshold": ("float | None", None)}))
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
        zeroshot = _transfer(attr_scores, assoc, split, **_section(cfg, "transfer", {
            "method": ("str", "dap"), "top_k": ("int", 5), **_TAXONOMY,
            "attachments": ("dict", None), "mode": ("str", "all")}, base))
        io.write_matrix(out / "zeroshot_scores.tsv", zeroshot)

    pst_result = None
    with _stage("pst"):
        if "pst" in cfg:
            pst_result = _pst(zeroshot, attr_scores, split,
                              _from_section(PropagationConfig, cfg, "pst"))
            io.write_matrix(out / "pst_scores.tsv", pst_result.scores)
            io.write_labels(out / "pst_predictions.tsv", pst_result.predictions)

    with _stage("eval"):
        protocol = _section(cfg, "eval", {"protocol": ("str", "novel_only")})["protocol"]
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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 2, one JSON line); subparsers inherit this."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semtransfer",
        description="Zero- and few-shot category recognition from attribute knowledge.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine a relatedness matrix from a corpus")
    p.add_argument("--corpus", help="JSONL documents with id/text fields (all measures but lin)")
    p.add_argument("--terms", required=True, help="JSON with categories/attributes lists")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("--window", type=int, default=20,
                   help="snippet window in tokens; 0 means whole documents")
    p.add_argument("--taxonomy-edges", help="child<TAB>parent edge list (lin)")
    p.add_argument("--taxonomy-probs", help="node<TAB>probability list (lin)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_mine)

    p = sub.add_parser("assoc", help="binarize relatedness into associations")
    p.add_argument("--relatedness", required=True)
    p.add_argument("--policy", required=True, choices=POLICIES)
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
    p.add_argument("--split", required=True,
                   help="split JSON; propagates over its few-shot and test instances")
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
    args = None
    # warnings that the active filters let through are held back, so that a
    # failure prints one JSON line and anything else prints each distinct one
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            code = args.handler(args)
        except (ValidationError, *_PARSE_ERRORS) as exc:
            stage = getattr(exc, "stage", None)
            code = EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_PARSE
            print(json.dumps({"error": f"{stage}: {exc}" if stage else str(exc), "code": code,
                              "stage": stage or getattr(args, "command", "usage")},
                             sort_keys=True), file=sys.stderr)
            return code
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
