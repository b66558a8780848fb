import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import semtransfer.io as sio
from semtransfer import AttributeScoreMatrix, CategoryScoreMatrix, TrainConfig
from semtransfer.cli import build_parser, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.err


def last_error(err):
    lines = [ln for ln in err.strip().splitlines() if ln.startswith("{")]
    assert lines, f"no JSON error line in stderr: {err!r}"
    return json.loads(lines[-1])


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code = main([
        "synth", "--n-known", "4", "--n-novel", "2", "--n-attributes", "8",
        "--feature-dim", "8", "--train-per-known", "10", "--test-per-novel", "10",
        "--fewshot-per-novel", "2", "--cluster-noise", "0.2", "--seed", "5",
        "--corpus-docs-per-pair", "3", "--out-dir", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_all_artifacts(self, synth_dir):
        for name in ("features.tsv", "labels.tsv", "associations.tsv",
                     "split.json", "corpus.jsonl", "terms.json"):
            assert (synth_dir / name).exists(), name

    def test_artifacts_parse_back(self, synth_dir):
        features = sio.read_features(synth_dir / "features.tsv")
        labels = sio.read_labels(synth_dir / "labels.tsv")
        assert set(features.instances) == set(labels)
        assoc = sio.read_association(synth_dir / "associations.tsv")
        assert assoc.binary


class TestStepChain:
    def test_full_chain(self, synth_dir, tmp_path, capsys):
        rel = tmp_path / "rel.tsv"
        code, _ = run(capsys, "mine", "--corpus", synth_dir / "corpus.jsonl",
                      "--terms", synth_dir / "terms.json",
                      "--measure", "dice_hit", "--out", rel)
        assert code == 0

        assoc = tmp_path / "assoc.tsv"
        code, _ = run(capsys, "assoc", "--relatedness", rel,
                      "--policy", "global_threshold", "--threshold", "0.05",
                      "--out", assoc)
        assert code == 0
        # mined associations recover the generating ones exactly
        mined = sio.read_association(assoc)
        truth = sio.read_association(synth_dir / "associations.tsv")
        assert np.array_equal(mined.values, truth.values)

        model = tmp_path / "model.json"
        code, _ = run(capsys, "train", "--features", synth_dir / "features.tsv",
                      "--assoc", assoc, "--split", synth_dir / "split.json",
                      "--max-iters", "300", "--out", model)
        assert code == 0

        zs = tmp_path / "zeroshot.tsv"
        code, _ = run(capsys, "zeroshot", "--model", model,
                      "--features", synth_dir / "features.tsv",
                      "--assoc", assoc, "--split", synth_dir / "split.json", "--out", zs)
        assert code == 0
        split = sio.read_split(synth_dir / "split.json")

        # graph coordinates: predicted attribute scores for the same instances
        from semtransfer import predict_attribute_scores
        feats = sio.read_features(synth_dir / "features.tsv")
        attr_scores = predict_attribute_scores(sio.load_model(model), feats)
        vectors = tmp_path / "attr_scores.tsv"
        sio.write_attribute_scores(vectors, attr_scores)

        fewshot = tmp_path / "fewshot.tsv"
        sio.write_labels(fewshot, split.fewshot_instances)

        pst_out = tmp_path / "pst.tsv"
        preds = tmp_path / "preds.tsv"
        code, _ = run(capsys, "pst", "--zeroshot", zs, "--vectors", vectors,
                      "--fewshot", fewshot, "--k", "8", "--rho", "0.15",
                      "--predictions", preds, "--out", pst_out)
        assert code == 0
        assert set(sio.read_labels(preds)) == set(feats.instances)

        report = tmp_path / "report.json"
        code, _ = run(capsys, "eval", "--scores", zs,
                      "--truth", synth_dir / "labels.tsv",
                      "--split", synth_dir / "split.json",
                      "--protocol", "both", "--out", report)
        assert code == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"novel_only", "with_distractors"}
        assert 0.0 <= doc["novel_only"]["accuracy"] <= 1.0

    def test_snippet_window_zero_means_whole_document(self, synth_dir, tmp_path, capsys):
        hit = tmp_path / "hit.tsv"
        snip = tmp_path / "snip.tsv"
        run(capsys, "mine", "--corpus", synth_dir / "corpus.jsonl",
            "--terms", synth_dir / "terms.json", "--measure", "dice_hit",
            "--out", hit)
        run(capsys, "mine", "--corpus", synth_dir / "corpus.jsonl",
            "--terms", synth_dir / "terms.json", "--measure", "dice_snippet",
            "--window", "0", "--out", snip)
        a = sio.read_relatedness(hit)
        b = sio.read_relatedness(snip)
        assert np.array_equal(a.values, b.values)

    def test_train_and_zeroshot_reproduce_the_pipeline(self, synth_dir, tmp_path, capsys):
        code, _ = run(capsys, "pipeline", "--config", data_config(synth_dir))
        assert code == 0
        inputs = ["--features", synth_dir / "features.tsv",
                  "--assoc", synth_dir / "associations.tsv", "--split", synth_dir / "split.json"]
        code, _ = run(capsys, "train", *inputs, "--max-iters", "50",
                      "--out", tmp_path / "model.json")
        assert code == 0
        code, _ = run(capsys, "zeroshot", "--model", tmp_path / "model.json", *inputs,
                      "--out", tmp_path / "zeroshot_scores.tsv")
        assert code == 0
        for name in ("model.json", "zeroshot_scores.tsv"):
            assert (tmp_path / name).read_bytes() == (synth_dir / "run" / name).read_bytes(), name

    def test_pipeline_mines_tfidf_as_the_mine_command_does(self, synth_dir, tmp_path, capsys):
        # tfidf groups documents by their id prefix: name each after its first term
        docs = sio.read_corpus_jsonl(synth_dir / "corpus.jsonl")
        sio.write_corpus_jsonl(synth_dir / "scripts.jsonl",
                               [(f"{text.split()[0]}/{doc_id}", text) for doc_id, text in docs])
        code, _ = run(capsys, "mine", "--corpus", synth_dir / "scripts.jsonl",
                      "--terms", synth_dir / "terms.json", "--measure", "tfidf",
                      "--out", tmp_path / "relatedness.tsv")
        assert code == 0
        config = data_config(synth_dir, corpus={"path": "scripts.jsonl"},
                             mine={"measure": "tfidf"},
                             assoc={"policy": "per_attribute_topk", "k": 2})
        code, _ = run(capsys, "pipeline", "--config", config)
        assert code == 0
        mined = (synth_dir / "run" / "relatedness.tsv").read_bytes()
        assert mined == (tmp_path / "relatedness.tsv").read_bytes()


# how many classifiers capped, and how far the worst was from tol
CAP_WARNING = (r"^warning: 8 of 8 attribute classifiers hit max_iters=1; "
               r"largest gradient norm \d(\.\d+)?(e[+-]\d+)? \(tol 1e-06\)$")


class TestErrorContract:
    def test_missing_file_exits_2_with_json_error(self, tmp_path, capsys):
        code, err = run(capsys, "assoc", "--relatedness", tmp_path / "nope.tsv",
                        "--policy", "per_attribute_mean", "--out", tmp_path / "o.tsv")
        assert code == 2
        payload = last_error(err)
        assert payload["code"] == 2
        assert payload["stage"] == "assoc"
        assert "nope.tsv" in payload["error"]

    def test_validation_failure_exits_3(self, synth_dir, tmp_path, capsys):
        rel = tmp_path / "rel.tsv"
        run(capsys, "mine", "--corpus", synth_dir / "corpus.jsonl",
            "--terms", synth_dir / "terms.json", "--measure", "dice_hit",
            "--out", rel)
        # top-k policy without k is a validation error
        code, err = run(capsys, "assoc", "--relatedness", rel,
                        "--policy", "per_attribute_topk", "--out", tmp_path / "o.tsv")
        assert code == 3
        assert last_error(err)["code"] == 3

    def test_strict_train_exits_4_when_capped(self, synth_dir, tmp_path, capsys):
        code, err = run(capsys, "train", "--features", synth_dir / "features.tsv",
                        "--assoc", synth_dir / "associations.tsv",
                        "--split", synth_dir / "split.json",
                        "--max-iters", "1", "--strict", "--out", tmp_path / "m.json")
        assert code == 4
        assert "warning" in err

    def test_unstrict_train_warns_but_succeeds(self, synth_dir, tmp_path, capsys):
        code, err = run(capsys, "train", "--features", synth_dir / "features.tsv",
                        "--assoc", synth_dir / "associations.tsv",
                        "--split", synth_dir / "split.json",
                        "--max-iters", "1", "--out", tmp_path / "m.json")
        assert code == 0
        assert re.search(CAP_WARNING, err, re.M), err

    def test_pipeline_cap_warnings_give_numbers(self, synth_dir, capsys):
        config = data_config(synth_dir, train={"max_iters": 1},
                             pst={"k": 8, "max_iters": 1})
        code, err = run(capsys, "pipeline", "--config", config)
        assert code == 0
        assert re.search(CAP_WARNING, err, re.M), err
        assert "warning: propagation stopped after 1 sweeps without converging" in err

    @pytest.mark.parametrize("protocol,want", [("novel_only", 0), ("bogus", 3)])
    def test_python_warnings_keep_the_stderr_contract(self, synth_dir, capsys, protocol, want):
        # top-1 mining leaves n00 without an attribute, which core warns about
        config = data_config(synth_dir, corpus={"docs_per_pair": 2}, mine={"measure": "dice_hit"},
                             assoc={"policy": "per_attribute_topk", "k": 1},
                             eval={"protocol": protocol})
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code, err = run(capsys, "pipeline", "--config", config)
        assert code == want
        assert escaped == []  # Python would print these to stderr
        lines = err.strip().splitlines()
        if want:
            assert len(lines) == 1, err
            assert json.loads(lines[0])["code"] == want
        else:
            assert lines == ["warning: categories with no associated attribute: n00"]

    def test_warnings_follow_the_interpreter_filters(self, tmp_path):
        # under Python's default filters a DeprecationWarning raised by library
        # code stays hidden, while a UserWarning still prints as one line
        (tmp_path / "chatty.py").write_text(
            "import warnings\n"
            "def handler(args):\n"
            "    warnings.warn('old call', DeprecationWarning)\n"
            "    warnings.warn('heads up')\n"
            "    return 0\n")
        probe = ("import sys, chatty, semtransfer.cli as cli\n"
                 "cli.cmd_assoc = chatty.handler\n"
                 "sys.exit(cli.main(['assoc', '--relatedness', 'r', '--policy',"
                 " 'per_attribute_mean', '--out', 'o']))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(sio.__file__).resolve().parents[1]),
                                             str(tmp_path)])
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             cwd=tmp_path, env=env, timeout=120)
        assert (out.returncode, out.stderr) == (0, "warning: heads up\n")


def pipeline_config(tmp_path, **overrides):
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "seed": 11,
        "synth": {"n_known": 4, "n_novel": 2, "n_attributes": 8, "feature_dim": 8,
                  "train_per_known": 10, "test_per_novel": 10,
                  "fewshot_per_novel": 2, "cluster_noise": 0.2},
        "corpus": {"docs_per_pair": 3},
        "mine": {"measure": "dice_hit"},
        "assoc": {"policy": "global_threshold", "threshold": 0.05},
        "train": {"max_iters": 300},
        "transfer": {"method": "dap"},
        "pst": {"k": 8, "rho": 0.15, "alpha": 0.8},
        "eval": {"protocol": "both"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestPipeline:
    def test_runs_and_writes_report(self, tmp_path, capsys):
        config = pipeline_config(tmp_path)
        code, _ = run(capsys, "pipeline", "--config", config)
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "zeroshot" in report["results"]
        assert "pst" in report["results"]
        assert report["seed"] == 11

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        config = pipeline_config(tmp_path)
        run(capsys, "pipeline", "--config", config)
        first = (tmp_path / "out" / "report.json").read_bytes()
        code, _ = run(capsys, "pipeline", "--config", config,
                      "--out-dir", tmp_path / "out2")
        assert code == 0
        second = (tmp_path / "out2" / "report.json").read_bytes()
        assert first == second

    def test_config_paths_resolve_against_config_file(self, synth_dir, tmp_path,
                                                      capsys, monkeypatch):
        # bare filenames in the config must resolve next to the config file,
        # not against whatever directory the command runs from
        cfg = {
            "output_dir": "run",
            "seed": 5,
            "data": {"features": "features.tsv", "labels": "labels.tsv",
                     "associations": "associations.tsv", "split": "split.json"},
            "train": {"max_iters": 100},
            "transfer": {"method": "dap"},
            "eval": {"protocol": "novel_only"},
        }
        config = synth_dir / "config.json"
        config.write_text(json.dumps(cfg))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, _ = run(capsys, "pipeline", "--config", config)
        assert code == 0
        assert (synth_dir / "run" / "report.json").exists()
        assert not (elsewhere / "run").exists()

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        config = pipeline_config(tmp_path, typo_section={"x": 1})
        code, err = run(capsys, "pipeline", "--config", config)
        assert code == 3
        assert "typo_section" in last_error(err)["error"]

    def test_alpha_out_of_range_names_propagation_stage(self, tmp_path, capsys):
        config = pipeline_config(tmp_path,
                                 pst={"k": 8, "rho": 0.15, "alpha": 1.0})
        code, err = run(capsys, "pipeline", "--config", config)
        assert code == 3
        payload = last_error(err)
        assert payload["stage"] == "pst"
        assert "alpha" in payload["error"]

    def test_broken_config_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, err = run(capsys, "pipeline", "--config", path)
        assert code == 2
        assert last_error(err)["code"] == 2

    def test_sim_transfer_method(self, tmp_path, capsys):
        config = pipeline_config(tmp_path, transfer={"method": "sim", "top_k": 3})
        code, _ = run(capsys, "pipeline", "--config", config)
        assert code == 0

    def test_synth_and_data_together_rejected(self, tmp_path, capsys):
        config = pipeline_config(tmp_path, data={"features": "x", "labels": "x",
                                                 "associations": "x", "split": "x"})
        code, err = run(capsys, "pipeline", "--config", config)
        assert code == 3
        assert last_error(err)["stage"] == "data"


def test_cli_import_skips_unused_scipy_modules(tmp_path):
    # Mining is NumPy only, so neither importing the CLI nor ``mine`` with any
    # measure loads SciPy. Only PST's kNN graph needs ``scipy.sparse``; its
    # distances are computed without ``scipy.spatial``, the logistic function
    # is NumPy's, and the sweeps need no sparse solver.
    rng = np.random.default_rng(3)
    instances = tuple(f"i{k}" for k in range(12))
    sio.write_category_scores(tmp_path / "zs.tsv", CategoryScoreMatrix(
        instances, ("c0", "c1"), rng.random((12, 2))))
    sio.write_attribute_scores(tmp_path / "vectors.tsv", AttributeScoreMatrix(
        instances, ("a0", "a1", "a2"), rng.random((12, 3))))
    sio.write_corpus_jsonl(tmp_path / "corpus.jsonl", [
        ("c0/0", "c0 has stripes and x"), ("c1/0", "c1 swims with y y"), ("c0/1", "x y c0")])
    (tmp_path / "terms.json").write_text(json.dumps({"categories": ["c0", "c1"],
                                                     "attributes": ["x", "y"]}))
    (tmp_path / "edges.tsv").write_text("c0\troot\nc1\troot\nx\tc0\ny\tc1\n")
    (tmp_path / "probs.tsv").write_text("root\t1\nc0\t0.5\nc1\t0.5\nx\t0.2\ny\t0.3\n")
    probe = (
        "import sys, semtransfer.cli as cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print('import', loaded())\n"
        "for m in ('dice_hit', 'dice_snippet', 'esa', 'lin', 'tfidf'):\n"
        "    code = cli.main(['mine', '--corpus', 'corpus.jsonl', '--terms', 'terms.json',"
        " '--measure', m, '--window', '2', '--taxonomy-edges', 'edges.tsv',"
        " '--taxonomy-probs', 'probs.tsv', '--out', m + '.tsv'])\n"
        "    print(m, code, loaded())\n"
        "code = cli.main(['pst', '--zeroshot', 'zs.tsv', '--vectors', 'vectors.tsv',"
        " '--k', '3', '--out', 'pst.tsv'])\n"
        "print('pst', code, [m for m in ('scipy.sparse', 'scipy.sparse.linalg', 'scipy.spatial',"
        " 'scipy.special') if m in sys.modules])\n")
    src = str(Path(sio.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                         timeout=120)
    assert out.stdout.splitlines() == [
        "import []", *(f"{m} 0 []" for m in ("dice_hit", "dice_snippet", "esa", "lin", "tfidf")),
        "pst 0 ['scipy.sparse']"]
    assert all((tmp_path / f"{m}.tsv").exists() for m in ("esa", "lin", "tfidf", "pst"))


def test_train_flag_defaults_are_train_config_defaults():
    args = build_parser().parse_args(["train", "--features", "f", "--assoc", "a",
                                      "--split", "s", "--out", "m"])
    assert TrainConfig(l2=args.l2, max_iters=args.max_iters, tol=args.tol) == TrainConfig()


def data_config(data_dir, split="split.json", **overrides):
    cfg = {
        "output_dir": "run",
        "seed": 5,
        "data": {"features": "features.tsv", "labels": "labels.tsv",
                 "associations": "associations.tsv", "split": split},
        "train": {"max_iters": 50},
        "transfer": {"method": "dap"},
        "pst": {"k": 8, "rho": 0.15, "alpha": 0.8},
        "eval": {"protocol": "novel_only"},
    }
    cfg.update(overrides)
    path = data_dir / "config.json"
    path.write_text(json.dumps(cfg))
    return path


HIER_TRANSFER = {"method": "hier", "taxonomy_edges": "edges.tsv", "taxonomy_probs": "probs.tsv",
                 "attachments": {"n00": "g0", "n01": "g1"}, "mode": "all"}


def write_taxonomy(data_dir):
    """The taxonomy files of ``HIER_TRANSFER``: the known categories in two groups."""
    # a node may only be named as a parent after its own edge
    parents = {"g0": "root", "g1": "root", "k00": "g0", "k01": "g0", "k02": "g1", "k03": "g1"}
    probs = {"root": 1.0, "g0": 0.5, "g1": 0.5, "k00": 0.25, "k01": 0.25, "k02": 0.25,
             "k03": 0.25}
    (data_dir / "edges.tsv").write_text("".join(f"{c}\t{p}\n" for c, p in parents.items()))
    (data_dir / "probs.tsv").write_text("".join(f"{n}\t{p}\n" for n, p in probs.items()))


class TestInputValidation:
    def test_fewshot_instance_in_test_pool_exits_3(self, synth_dir, capsys):
        doc = json.loads((synth_dir / "split.json").read_text())
        inst, cat = next(iter(doc["fewshot_instances"].items()))
        doc["test_instances"][inst] = cat
        (synth_dir / "leaky.json").write_text(json.dumps(doc))
        code, err = run(capsys, "pipeline", "--config", data_config(synth_dir, "leaky.json"))
        assert code == 3
        payload = last_error(err)
        assert payload["stage"] == "data"
        assert inst in payload["error"]

    def test_eval_of_leaky_split_exits_3(self, synth_dir, tmp_path, capsys):
        # a few-shot instance that is also a test instance would be scored
        # against the label it was given
        doc = json.loads((synth_dir / "split.json").read_text())
        inst, cat = next(iter(doc["fewshot_instances"].items()))
        doc["test_instances"][inst] = cat
        (synth_dir / "leaky.json").write_text(json.dumps(doc))
        instances = tuple(doc["test_instances"])
        categories = tuple(sorted(doc["novel_categories"]))
        scores = tmp_path / "scores.tsv"
        sio.write_category_scores(scores, CategoryScoreMatrix(
            instances, categories, np.random.default_rng(0).random((len(instances),
                                                                    len(categories)))))
        argv = ["eval", "--scores", scores, "--truth", synth_dir / "labels.tsv",
                "--out", tmp_path / "report.json", "--split"]
        code, _ = run(capsys, *argv, synth_dir / "split.json")
        assert code == 0
        code, err = run(capsys, *argv, synth_dir / "leaky.json")
        assert code == 3
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        payload = json.loads(lines[0])
        assert payload["stage"] == "eval"
        assert inst in payload["error"]

    @staticmethod
    def _split_with_list(d):
        doc = json.loads((d / "split.json").read_text())
        doc["train_instances"] = list(doc["train_instances"])
        (d / "bad_split.json").write_text(json.dumps(doc))
        return ["pipeline", "--config", data_config(d, "bad_split.json")]

    @staticmethod
    def _model(d, doc):
        (d / "model.json").write_text(json.dumps(doc))
        return ["zeroshot", "--model", d / "model.json", "--features", d / "features.tsv",
                "--assoc", d / "associations.tsv", "--split", d / "split.json",
                "--out", d / "zs.tsv"]

    @pytest.mark.parametrize("case", ["split_list", "ragged_weights", "model_list",
                                      "string_max_iters", "string_docs_per_pair",
                                      "string_filler_docs", "string_window",
                                      "string_top_k", "string_assoc_k",
                                      "string_threshold", "path_output_dir",
                                      "path_data_labels", "path_corpus",
                                      "path_mine_taxonomy", "path_transfer_taxonomy",
                                      "train_lr", "train_zero_l2", "train_cli_zero_l2",
                                      "attachments_list", "attachments_string"])
    def test_malformed_input_gives_one_json_error(self, synth_dir, capsys, case):
        def mined(corpus, mine, assoc):
            return ["pipeline", "--config", data_config(
                synth_dir, corpus={"docs_per_pair": 2, **corpus},
                mine={"measure": "dice_snippet", **mine},
                assoc={"policy": "per_attribute_topk", "k": 2, **assoc})]

        def hier(attachments):
            write_taxonomy(synth_dir)
            return ["pipeline", "--config", data_config(
                synth_dir, transfer={**HIER_TRANSFER, "attachments": attachments})]

        model = {"attributes": ["a0", "a1"], "weights": [[0.0, 1.0], [2.0]],
                 "biases": [0.0, 0.0], "feature_mean": [0.0, 0.0], "feature_std": [1.0, 1.0]}
        argv = {
            "split_list": lambda: self._split_with_list(synth_dir),
            "ragged_weights": lambda: self._model(synth_dir, model),
            "model_list": lambda: self._model(synth_dir, [model]),
            "string_max_iters": lambda: ["pipeline", "--config", data_config(
                synth_dir, train={"max_iters": "x"})],
            "string_docs_per_pair": lambda: mined({"docs_per_pair": "x"}, {}, {}),
            "string_filler_docs": lambda: mined({"filler_docs": "x"}, {}, {}),
            "string_window": lambda: mined({}, {"window": "x"}, {}),
            "string_assoc_k": lambda: mined({}, {}, {"k": "x"}),
            "string_threshold": lambda: mined({}, {}, {"policy": "global_threshold",
                                                     "threshold": "x"}),
            "string_top_k": lambda: ["pipeline", "--config", data_config(
                synth_dir, transfer={"method": "sim", "top_k": "x"})],
            "path_output_dir": lambda: ["pipeline", "--config", data_config(
                synth_dir, output_dir=5)],
            "path_data_labels": lambda: ["pipeline", "--config", data_config(
                synth_dir, data={"features": "features.tsv", "labels": 5,
                                 "associations": "associations.tsv", "split": "split.json"})],
            "path_corpus": lambda: ["pipeline", "--config", data_config(
                synth_dir, corpus={"path": 5})],
            "path_mine_taxonomy": lambda: mined({}, {"measure": "lin", "taxonomy_edges": "e.tsv",
                                                     "taxonomy_probs": 5}, {}),
            "path_transfer_taxonomy": lambda: ["pipeline", "--config", data_config(
                synth_dir, transfer={"method": "hier", "taxonomy_edges": ["e.tsv"],
                                     "taxonomy_probs": "p.tsv", "attachments": {}})],
            "train_lr": lambda: ["pipeline", "--config", data_config(
                synth_dir, train={"max_iters": 50, "lr": 0.1})],
            "train_zero_l2": lambda: ["pipeline", "--config", data_config(
                synth_dir, train={"l2": 0})],
            "train_cli_zero_l2": lambda: ["train", "--features", synth_dir / "features.tsv",
                                          "--assoc", synth_dir / "associations.tsv",
                                          "--split", synth_dir / "split.json",
                                          "--l2", "0", "--out", synth_dir / "m.json"],
            "attachments_list": lambda: hier(["x"]),
            "attachments_string": lambda: hier("n00"),
        }[case]()
        code, err = run(capsys, *argv)
        assert code in (2, 3)
        if case.startswith(("string_", "path_", "train_", "attachments_")):
            assert code == 3
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["code"] == code




def one_json_error(code, err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["code"] == code
    return json.loads(lines[0])


def mined_relatedness(synth_dir, path):
    code = main(["mine", "--corpus", str(synth_dir / "corpus.jsonl"),
                 "--terms", str(synth_dir / "terms.json"), "--measure", "dice_hit",
                 "--out", str(path)])
    assert code == 0
    return path


class TestInputFiles:
    def test_matrix_of_another_kind_exits_2(self, synth_dir, tmp_path, capsys):
        rel = mined_relatedness(synth_dir, tmp_path / "rel.tsv")
        code, err = run(capsys, "train", "--features", synth_dir / "features.tsv",
                        "--assoc", rel, "--split", synth_dir / "split.json",
                        "--out", tmp_path / "model.json")
        assert code == 2
        assert "type=relatedness" in one_json_error(code, err)["error"]
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("family", ["tsv", "jsonl", "json"])
    def test_invalid_utf8_exits_2(self, synth_dir, tmp_path, capsys, family):
        rel = mined_relatedness(synth_dir, tmp_path / "rel.tsv")
        target = {"tsv": rel, "jsonl": synth_dir / "corpus.jsonl",
                  "json": synth_dir / "terms.json"}[family]
        data = target.read_bytes()
        target.write_bytes(data[:5] + b"\xff" + data[5:])
        argv = (["assoc", "--relatedness", rel, "--policy", "per_attribute_mean"]
                if family == "tsv" else
                ["mine", "--corpus", synth_dir / "corpus.jsonl", "--terms",
                 synth_dir / "terms.json", "--measure", "dice_hit"])
        code, err = run(capsys, *argv, "--out", tmp_path / "out.tsv")
        assert code == 2
        assert "UTF-8" in one_json_error(code, err)["error"]


def _mutate_matrix(data: bytes, mutation: str, pick: int, byte: int) -> bytes:
    """``data``, a matrix TSV, broken by ``mutation`` at a place chosen by ``pick``."""
    lines = data.decode().splitlines()
    header = [ln.startswith("#") for ln in lines].index(False)
    row = header + 1 + pick % (len(lines) - header - 1)
    cells = lines[row].split("\t")
    if mutation == "truncate":
        return data[:pick % len(data)]
    if mutation == "flip":
        at = pick % len(data)
        return data[:at] + bytes([data[at] ^ (byte or 1)]) + data[at + 1:]
    if mutation == "bom":
        return b"\xef\xbb\xbf" + data
    if mutation == "crlf":
        return data.replace(b"\n", b"\r\n")
    if mutation == "cells":
        cells = cells[:-1] if byte % 2 else cells + ["0.5"]
    elif mutation in ("nan", "inf", "-inf"):
        cells[1 + byte % (len(cells) - 1)] = mutation
    elif mutation == "duplicate_row":
        cells[0] = lines[row + 1 if row + 1 < len(lines) else row - 1].split("\t")[0]
    lines[row] = "\t".join(cells)
    return ("\n".join(lines) + "\n").encode()


# Mutations that always leave a broken file; the others may leave a valid one.
BREAKING = ("cells", "nan", "inf", "-inf", "duplicate_row", "bom")
MUTATIONS = (*BREAKING, "truncate", "flip", "crlf")


@settings(derandomize=True, database=None, deadline=None, max_examples=6,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(places=st.fixed_dictionaries({m: st.tuples(st.integers(0, 10**6), st.integers(0, 255))
                                     for m in MUTATIONS}))
def test_mutated_matrix_files_keep_the_exit_contract(synth_dir, capsys, places):
    # the one matrix reader serves every kind; relatedness and category scores
    # go in through assoc and eval
    rel = synth_dir / "rel.tsv"
    if not rel.exists():
        mined_relatedness(synth_dir, rel)
        split = json.loads((synth_dir / "split.json").read_text())
        sio.write_category_scores(synth_dir / "scores.tsv", CategoryScoreMatrix(
            tuple(split["test_instances"]), tuple(sorted(split["novel_categories"])),
            np.random.default_rng(0).random((len(split["test_instances"]),
                                             len(split["novel_categories"])))))
    cases = {rel: ["assoc", "--policy", "per_attribute_topk", "--k", "2",
                   "--out", synth_dir / "a.tsv", "--relatedness"],
             synth_dir / "scores.tsv": ["eval", "--truth", synth_dir / "labels.tsv",
                                        "--split", synth_dir / "split.json",
                                        "--out", synth_dir / "r.json", "--scores"]}
    for path, argv in cases.items():
        data = path.read_bytes()
        bad = synth_dir / "bad.tsv"
        for mutation, (pick, byte) in places.items():
            bad.write_bytes(_mutate_matrix(data, mutation, pick, byte))
            code, err = run(capsys, *argv, bad)
            assert code in ((2, 3) if mutation in BREAKING else (0, 2, 3)), (mutation, err)
            if code:
                one_json_error(code, err)


# Wrong JSON types and shapes: scalars of every type, and lists and objects of them.
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
                | st.text(max_size=3))
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2)
               | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2))

# A data-mode config that sets every key the pipeline reads, except ``corpus.path``
# (which replaces the generated corpus), on inputs from ``synth_dir``.
FUZZ_CONFIG = {
    "output_dir": "run",
    "seed": 5,
    "data": {"features": "features.tsv", "labels": "labels.tsv",
             "associations": "associations.tsv", "split": "split.json"},
    "corpus": {"docs_per_pair": 1, "filler_docs": 1},
    "mine": {"measure": "dice_snippet", "window": 5, "taxonomy_edges": "edges.tsv",
             "taxonomy_probs": "probs.tsv"},
    "assoc": {"policy": "per_attribute_topk", "k": 2, "threshold": 0.1},
    "train": {"l2": 0.3, "max_iters": 10, "tol": 1e-6},
    "transfer": {**HIER_TRANSFER, "top_k": 3},
    "pst": {"k": 4, "kernel": "gaussian", "sigma": None, "alpha": 0.8, "tol": 1e-6,
            "max_iters": 50, "rho": 0.15},
    "eval": {"protocol": "both"},
}
FUZZ_TARGETS = ([(None, key) for key in ("synth", *FUZZ_CONFIG)] + [("corpus", "path")]
                + [(sec, key) for sec, keys in FUZZ_CONFIG.items() if isinstance(keys, dict)
                   for key in keys])


# An example runs the pipeline once per target, so a failure is reported as
# drawn rather than shrunk.
@settings(derandomize=True, database=None, deadline=None, max_examples=4,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries({target: JSON_VALUES for target in FUZZ_TARGETS}))
def test_mistyped_config_values_keep_the_exit_contract(synth_dir, capsys, values):
    # one run per target, so every example covers every section and key
    write_taxonomy(synth_dir)
    for (section, key), value in values.items():
        cfg = json.loads(json.dumps(FUZZ_CONFIG))
        (cfg if section is None else cfg[section])[key] = value
        path = synth_dir / "config.json"
        path.write_text(json.dumps(cfg))
        code, err = run(capsys, "pipeline", "--config", path)
        assert code in (0, 2, 3, 4), (section, key, value)
        if code:
            lines = err.strip().splitlines()
            assert len(lines) == 1, (section, key, value, err)
            assert json.loads(lines[0])["code"] == code
