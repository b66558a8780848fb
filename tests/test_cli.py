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
from semtransfer import (AssociationMatrix, AttributeScoreMatrix, CategoryScoreMatrix,
                         DatasetSplit, TrainConfig)
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

        pst_out = tmp_path / "pst.tsv"
        preds = tmp_path / "preds.tsv"
        code, _ = run(capsys, "pst", "--zeroshot", zs, "--vectors", vectors,
                      "--split", synth_dir / "split.json", "--k", "8", "--rho", "0.15",
                      "--predictions", preds, "--out", pst_out)
        assert code == 0
        assert set(sio.read_labels(preds)) == {*split.fewshot_instances, *split.test_instances}

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

    def test_pst_reproduces_the_pipeline(self, synth_dir, tmp_path, capsys):
        code, _ = run(capsys, "pipeline", "--config", data_config(synth_dir))
        assert code == 0
        piped = synth_dir / "run"
        code, _ = run(capsys, "pst", "--zeroshot", piped / "zeroshot_scores.tsv",
                      "--vectors", piped / "attribute_scores.tsv",
                      "--split", synth_dir / "split.json", "--k", "8", "--rho", "0.15",
                      "--alpha", "0.8", "--predictions", tmp_path / "pst_predictions.tsv",
                      "--out", tmp_path / "pst_scores.tsv")
        assert code == 0
        ours, theirs = (sio.read_category_scores(d / "pst_scores.tsv") for d in (tmp_path, piped))
        assert (ours.instances, ours.categories) == (theirs.instances, theirs.categories)
        # the inputs were written with 9 significant digits, the pipeline's were not
        np.testing.assert_allclose(ours.values, theirs.values, rtol=1e-7)
        name = "pst_predictions.tsv"
        assert (tmp_path / name).read_bytes() == (piped / name).read_bytes()

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


    def test_tfidf_counts_no_phrase_across_documents(self, tmp_path, capsys):
        sio.write_corpus_jsonl(tmp_path / "corpus.jsonl",
                               [("X/0", "a long"), ("X/1", "tail b"), ("Y/0", "long tail")])
        (tmp_path / "terms.json").write_text(json.dumps({"categories": ["X", "Y"],
                                                         "attributes": ["long tail"]}))
        code, _ = run(capsys, "mine", "--corpus", tmp_path / "corpus.jsonl",
                      "--terms", tmp_path / "terms.json", "--measure", "tfidf",
                      "--out", tmp_path / "rel.tsv")
        assert code == 0
        rel = sio.read_relatedness(tmp_path / "rel.tsv")
        assert rel.values[0, 0] == 0.0
        assert rel.values[1, 0] > 0.0


# how many classifiers capped, and how far the worst was from tol
CAP_WARNING = (r"^warning: 8 of 8 attribute classifiers hit max_iters=1; "
               r"largest gradient norm \d(\.\d+)?(e[+-]\d+)? \(tol 1e-06\)$")


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["mine", "--measure", "bogus", "--corpus", "c.jsonl", "--terms", "t.json",
         "--out", "o.tsv"],
        [],
        ["assoc", "--relatedness", "r.tsv", "--out", "o.tsv"],
        ["assoc", "--relatedness", "r.tsv", "--policy", "per_attribute_topk", "--k", "x",
         "--out", "o.tsv"],
        ["eval", "--scores", "s.tsv", "--truth", "t.tsv", "--split", "s.json",
         "--out", "o.json", "--bogus"],
    ])
    def test_usage_errors_exit_2_with_one_json_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert json.loads(lines[0])["code"] == 2
        assert json.loads(lines[0])["stage"] == "usage"

    @pytest.mark.parametrize("argv", [["--help"], ["mine", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: semtransfer" in capsys.readouterr().out

    def test_lin_duplicate_probability_node_exits_2(self, tmp_path, capsys):
        sio.write_corpus_jsonl(tmp_path / "corpus.jsonl", [("d0", "x y")])
        (tmp_path / "terms.json").write_text(json.dumps({"categories": ["x"],
                                                         "attributes": ["y", "z"]}))
        (tmp_path / "edges.tsv").write_text("x\troot\ny\tx\nz\troot\n")
        probs = "root\t1\nx\t0.5\ny\t0.25\nz\t0.5\n"
        (tmp_path / "probs.tsv").write_text(probs)
        argv = ["mine", "--corpus", tmp_path / "corpus.jsonl", "--terms", tmp_path / "terms.json",
                "--measure", "lin", "--taxonomy-edges", tmp_path / "edges.tsv",
                "--taxonomy-probs", tmp_path / "probs.tsv", "--out", tmp_path / "lin.tsv"]
        code, _ = run(capsys, *argv)
        assert code == 0
        # x and z join only at the root, which gives +0, written as "0"
        cells = (tmp_path / "lin.tsv").read_text().splitlines()[-1].split("\t")
        assert cells[0] == "x" and cells[2] == "0"
        (tmp_path / "probs.tsv").write_text(probs + "y\t0.1\n")
        code, err = run(capsys, *argv)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "probs.tsv:5: duplicate node 'y'" in last_error(err)["error"]

    @pytest.mark.parametrize("key", ["categories", "attributes"])
    @pytest.mark.parametrize("term", [None, 1, ["bear"]])
    def test_non_string_term_exits_2(self, tmp_path, capsys, key, term):
        # stringified, a null term would be mined as the word "None"
        sio.write_corpus_jsonl(tmp_path / "corpus.jsonl", [("d0", "None bear"), ("d1", "None")])
        terms = {"categories": ["bear"], "attributes": ["none"]}
        terms[key] = [*terms[key], term]
        (tmp_path / "terms.json").write_text(json.dumps(terms))
        code, err = run(capsys, "mine", "--corpus", tmp_path / "corpus.jsonl",
                        "--terms", tmp_path / "terms.json", "--measure", "dice_hit",
                        "--out", tmp_path / "rel.tsv")
        lines = err.strip().splitlines()
        assert (code, len(lines)) == (2, 1), err
        assert json.loads(lines[0])["error"] == (
            f"{tmp_path / 'terms.json'}: {key} terms must be strings, got {json.dumps(term)}")
        assert not (tmp_path / "rel.tsv").exists()

    @pytest.mark.parametrize("key", ["categories", "attributes"])
    @pytest.mark.parametrize("term", ["bear\tcub", "bear\ncub"])
    def test_term_that_no_tsv_reader_could_split_exits_3(self, tmp_path, capsys, key, term):
        # written raw, the term would leave a relatedness TSV that assoc cannot read
        sio.write_corpus_jsonl(tmp_path / "corpus.jsonl", [("d0", "bear cub fur"), ("d1", "fur")])
        terms = {"categories": ["bear"], "attributes": ["fur"]}
        terms[key] = [*terms[key], term]
        (tmp_path / "terms.json").write_text(json.dumps(terms))
        code, err = run(capsys, "mine", "--corpus", tmp_path / "corpus.jsonl",
                        "--terms", tmp_path / "terms.json", "--measure", "dice_hit",
                        "--out", tmp_path / "rel.tsv")
        assert one_json_error(3, err) == {
            "code": 3, "stage": "mine",
            "error": f"{key}: identifier holds a tab or a newline: {term!r}"}
        assert not (tmp_path / "rel.tsv").exists()

    @pytest.mark.parametrize("cell", ["0_25", "\u0660.\u0662\u0665"])
    def test_lin_probability_that_is_not_an_ascii_number_exits_2(self, tmp_path, capsys, cell):
        # float() reads both, "0_25" as 25; probabilities follow the matrix-cell grammar
        (tmp_path / "terms.json").write_text(json.dumps({"categories": ["x"],
                                                         "attributes": ["y"]}))
        (tmp_path / "edges.tsv").write_text("x\troot\ny\tx\n")
        (tmp_path / "probs.tsv").write_text(f"root\t1\nx\t0.5\ny\t{cell}\n", encoding="utf-8")
        code, err = run(capsys, "mine", "--terms", tmp_path / "terms.json", "--measure", "lin",
                        "--taxonomy-edges", tmp_path / "edges.tsv",
                        "--taxonomy-probs", tmp_path / "probs.tsv", "--out", tmp_path / "lin.tsv")
        assert one_json_error(2, err)["error"] == (
            f"{tmp_path / 'probs.tsv'}:3: not a number: {cell!r}")
        assert not (tmp_path / "lin.tsv").exists()

    def test_lin_touches_no_corpus(self, tmp_path, capsys):
        # lin reads only the taxonomy: a corpus it could not index, or none, changes nothing
        sio.write_corpus_jsonl(tmp_path / "corpus.jsonl", [("d", "x y"), ("d", "y z")])
        (tmp_path / "terms.json").write_text(json.dumps({"categories": ["x"],
                                                         "attributes": ["y", "z"]}))
        (tmp_path / "edges.tsv").write_text("x\troot\ny\tx\nz\troot\n")
        (tmp_path / "probs.tsv").write_text("root\t1\nx\t0.5\ny\t0.25\nz\t0.5\n")
        argv = ["mine", "--terms", tmp_path / "terms.json", "--measure", "lin",
                "--taxonomy-edges", tmp_path / "edges.tsv",
                "--taxonomy-probs", tmp_path / "probs.tsv", "--out"]
        with_corpus = run(capsys, *argv, tmp_path / "a.tsv", "--corpus", tmp_path / "corpus.jsonl")
        without = run(capsys, *argv, tmp_path / "b.tsv")
        assert with_corpus == without == (0, "")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    @pytest.mark.parametrize("measure", ["dice_hit", "dice_snippet", "esa", "tfidf"])
    def test_corpus_measure_without_corpus_exits_3(self, synth_dir, tmp_path, capsys, measure):
        code, err = run(capsys, "mine", "--terms", synth_dir / "terms.json",
                        "--measure", measure, "--out", tmp_path / "rel.tsv")
        lines = err.strip().splitlines()
        assert (code, len(lines)) == (3, 1), err
        assert json.loads(lines[0])["error"] == f"{measure} needs a corpus"

    def test_pipeline_corpus_measure_without_corpus_exits_3(self, synth_dir, capsys):
        config = data_config(synth_dir, mine={"measure": "esa"},
                             assoc={"policy": "per_attribute_topk", "k": 2})
        code, err = run(capsys, "pipeline", "--config", config)
        lines = err.strip().splitlines()
        assert (code, len(lines)) == (3, 1), err
        assert json.loads(lines[0]) == {"code": 3, "error": "mine: esa needs a corpus",
                                        "stage": "mine"}

    def test_singular_training_exits_3(self, tmp_path, capsys):
        # noise-free clusters give collinear features, which an l2 of 1e-20 cannot regularize
        data = tmp_path / "s0"
        assert run(capsys, "synth", "--out-dir", data, "--seed", "3",
                   "--cluster-noise", "0")[0] == 0
        code, err = run(capsys, "train", "--features", data / "features.tsv",
                        "--assoc", data / "associations.tsv", "--split", data / "split.json",
                        "--l2", "1e-20", "--out", tmp_path / "m.json")
        lines = err.strip().splitlines()
        assert (code, len(lines)) == (3, 1), err
        payload = json.loads(lines[0])
        assert payload["stage"] == "train"
        assert "attribute 'a00'" in payload["error"] and "l2=1e-20" in payload["error"]
        assert not (tmp_path / "m.json").exists()

    def test_zeroshot_warns_once_about_empty_rows(self, synth_dir, tmp_path, capsys):
        inputs = ["--features", synth_dir / "features.tsv", "--split", synth_dir / "split.json"]
        code, _ = run(capsys, "train", *inputs, "--assoc", synth_dir / "associations.tsv",
                      "--out", tmp_path / "model.json")
        assert code == 0
        assoc = sio.read_association(synth_dir / "associations.tsv")
        values = np.array(assoc.values)
        values[[assoc.category_index("k00"), assoc.category_index("n00")]] = 0.0
        with pytest.warns(UserWarning):
            empty = AssociationMatrix(assoc.categories, assoc.attributes, values, binary=True)
        sio.write_matrix(tmp_path / "empty.tsv", empty)
        code, err = run(capsys, "zeroshot", "--model", tmp_path / "model.json", *inputs,
                        "--assoc", tmp_path / "empty.tsv", "--out", tmp_path / "zs.tsv")
        assert code == 0
        assert err.splitlines() == ["warning: categories with no associated attribute: k00, n00"]

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

    def test_pst_cap_warning_gives_numbers_as_in_the_pipeline(self, synth_dir, tmp_path,
                                                                capsys):
        config = data_config(synth_dir, pst={"k": 8, "rho": 0.15, "max_iters": 1})
        code, err = run(capsys, "pipeline", "--config", config)
        assert code == 0
        lines = [ln for ln in err.splitlines() if "propagation" in ln]
        assert len(lines) == 1 and re.fullmatch(
            r"warning: propagation stopped after 1 sweeps without converging; "
            r"final change \d(\.\d+)?(e[+-]\d+)? \(tol 1e-06\)", lines[0]), err
        piped = synth_dir / "run"
        code, err = run(capsys, "pst", "--zeroshot", piped / "zeroshot_scores.tsv",
                        "--vectors", piped / "attribute_scores.tsv",
                        "--split", synth_dir / "split.json", "--k", "8", "--rho", "0.15",
                        "--max-iters", "1", "--out", tmp_path / "pst.tsv")
        assert code == 0
        assert err.splitlines() == lines

    def test_lin_without_probabilities_exits_3(self, tmp_path, capsys):
        (tmp_path / "terms.json").write_text(json.dumps({"categories": ["x"],
                                                         "attributes": ["y"]}))
        (tmp_path / "edges.tsv").write_text("x\troot\ny\tx\n")
        code, err = run(capsys, "mine", "--terms", tmp_path / "terms.json", "--measure", "lin",
                        "--taxonomy-edges", tmp_path / "edges.tsv", "--out", tmp_path / "lin.tsv")
        assert one_json_error(code, err) == {"code": 3, "stage": "mine",
                                             "error": "lin measure needs taxonomy_probs"}

    def test_hier_pipeline_without_edges_exits_3(self, synth_dir, capsys):
        write_taxonomy(synth_dir)
        transfer = {k: v for k, v in HIER_TRANSFER.items() if k != "taxonomy_edges"}
        code, err = run(capsys, "pipeline", "--config", data_config(synth_dir, transfer=transfer))
        assert one_json_error(code, err) == {
            "code": 3, "stage": "transfer", "error": "transfer: hier transfer needs taxonomy_edges"}

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
    # measure loads SciPy. PST's kNN graph and its sweeps are NumPy CSR arrays,
    # its distances are computed without ``scipy.spatial`` and the logistic
    # function is NumPy's, so neither ``pst`` nor a synth pipeline with a
    # ``pst`` section loads SciPy either. The Gaussian kernel's median
    # heuristic partitions its distances itself, so nothing loads ``numpy.ma``,
    # which ``np.median`` imports.
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
    sio.write_split(tmp_path / "split.json", DatasetSplit(
        frozenset({"k0"}), frozenset({"c0", "c1"}), {}, dict.fromkeys(instances, "c0")))
    probe = (
        "import sys, semtransfer.cli as cli\n"
        "def loaded(): return sorted(m for m in sys.modules\n"
        "                            if m.split('.')[0] == 'scipy'\n"
        "                            or m.split('.')[:2] == ['numpy', 'ma'])\n"
        "print('import', loaded())\n"
        "for m in ('dice_hit', 'dice_snippet', 'esa', 'lin', 'tfidf'):\n"
        "    code = cli.main(['mine', '--corpus', 'corpus.jsonl', '--terms', 'terms.json',"
        " '--measure', m, '--window', '2', '--taxonomy-edges', 'edges.tsv',"
        " '--taxonomy-probs', 'probs.tsv', '--out', m + '.tsv'])\n"
        "    print(m, code, loaded())\n"
        "code = cli.main(['pst', '--zeroshot', 'zs.tsv', '--vectors', 'vectors.tsv',"
        " '--split', 'split.json', '--k', '3', '--out', 'pst.tsv'])\n"
        "print('pst', code, loaded())\n"
        "code = cli.main(['pipeline', '--config', 'config.json'])\n"
        "print('pipeline', code, loaded())\n")
    pipeline_config(tmp_path, output_dir=str(tmp_path / "run"))
    src = str(Path(sio.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                         timeout=120)
    assert out.stdout.splitlines() == [
        "import []", *(f"{m} 0 []" for m in ("dice_hit", "dice_snippet", "esa", "lin", "tfidf")),
        "pst 0 []", "pipeline 0 []"]
    assert all((tmp_path / f"{m}.tsv").exists() for m in ("esa", "lin", "tfidf", "pst"))
    assert (tmp_path / "run" / "pst_scores.tsv").exists()


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
    parents = {"g0": "root", "g1": "root", "k00": "g0", "k01": "g0", "k02": "g1", "k03": "g1"}
    probs = {"root": 1.0, "g0": 0.5, "g1": 0.5, "k00": 0.25, "k01": 0.25, "k02": 0.25,
             "k03": 0.25}
    (data_dir / "edges.tsv").write_text("".join(f"{c}\t{p}\n" for c, p in parents.items()))
    (data_dir / "probs.tsv").write_text("".join(f"{n}\t{p}\n" for n, p in probs.items()))


def write_leaky_split(data_dir) -> str:
    """``split.json`` with one few-shot instance also a test instance, as
    ``leaky.json``; returns that instance."""
    doc = json.loads((data_dir / "split.json").read_text())
    inst, cat = next(iter(doc["fewshot_instances"].items()))
    doc["test_instances"][inst] = cat
    (data_dir / "leaky.json").write_text(json.dumps(doc))
    return inst


class TestInputValidation:
    def test_fewshot_instance_in_test_pool_exits_3(self, synth_dir, capsys):
        inst = write_leaky_split(synth_dir)
        code, err = run(capsys, "pipeline", "--config", data_config(synth_dir, "leaky.json"))
        assert code == 3
        payload = last_error(err)
        assert payload["stage"] == "data"
        assert inst in payload["error"]

    def test_eval_of_leaky_split_exits_3(self, synth_dir, tmp_path, capsys):
        # a few-shot instance that is also a test instance would be scored
        # against the label it was given
        inst = write_leaky_split(synth_dir)
        doc = json.loads((synth_dir / "leaky.json").read_text())
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

    def test_pst_of_leaky_split_exits_3(self, synth_dir, capsys):
        inst = write_leaky_split(synth_dir)
        write_pst_inputs(synth_dir)
        argv = ["pst", "--zeroshot", synth_dir / "pst_zeroshot.tsv",
                "--vectors", synth_dir / "pst_vectors.tsv", "--k", "4",
                "--out", synth_dir / "pst.tsv", "--split"]
        assert run(capsys, *argv, synth_dir / "split.json") == (0, "")
        code, err = run(capsys, *argv, synth_dir / "leaky.json")
        payload = one_json_error(code, err)
        assert (code, payload["stage"]) == (3, "pst")
        assert f"instance both few-shot and test: {inst}" in payload["error"]

    @pytest.mark.parametrize("name, kind, label", [
        ("pst_zeroshot.tsv", CategoryScoreMatrix, "zero-shot scores"),
        ("pst_vectors.tsv", AttributeScoreMatrix, "attribute scores"),
    ])
    def test_pst_names_the_input_that_lacks_a_fewshot_row(self, synth_dir, capsys,
                                                          name, kind, label):
        write_pst_inputs(synth_dir)
        fewshot = next(iter(json.loads((synth_dir / "split.json").read_text())
                            ["fewshot_instances"]))
        scores = sio.read_matrix(synth_dir / name, kind)
        sio.write_matrix(synth_dir / name,
                         scores.take([i for i in scores.instances if i != fewshot]))
        code, err = run(capsys, "pst", "--zeroshot", synth_dir / "pst_zeroshot.tsv",
                        "--vectors", synth_dir / "pst_vectors.tsv", "--k", "4",
                        "--split", synth_dir / "split.json", "--out", synth_dir / "pst.tsv")
        payload = one_json_error(code, err)
        assert (code, payload["stage"]) == (3, "pst")
        assert payload["error"] == f"not in {label}: {fewshot!r}"

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

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11", "0x1", "", " ", "0.5\u2028",
                                      "\x85 1", "\xa00.5"])
    def test_matrix_cell_that_is_not_an_ascii_number_exits_2(self, synth_dir, tmp_path,
                                                            capsys, cell):
        # float() reads "1_0", non-ASCII digits and a number next to non-ASCII
        # whitespace; the matrix reader does not
        rel = mined_relatedness(synth_dir, tmp_path / "rel.tsv")
        lines = rel.read_text().splitlines()
        cells = lines[-2].split("\t")
        cells[2] = cell
        lines[-2] = "\t".join(cells)
        rel.write_text("\n".join(lines) + "\n")
        code, err = run(capsys, "assoc", "--relatedness", rel, "--policy",
                        "per_attribute_mean", "--out", tmp_path / "assoc.tsv")
        assert one_json_error(2, err)["error"] == f"{rel}:{len(lines) - 1}: not a number: {cell!r}"
        assert not (tmp_path / "assoc.tsv").exists()

    @pytest.mark.parametrize("labels, code, error", [
        ("i0 \tn0\ni1\t n1\u2028\n", 0, None),
        ("i0\tn0\n \tn1\n", 2, "2: empty identifier"),
        ("i0\tn0\ni1\tn1\ni0 \tn1\n", 2, "3: duplicate instance 'i0'"),
    ], ids=["trimmed", "empty", "duplicate"])
    def test_label_ids_are_trimmed_like_matrix_ids(self, tmp_path, capsys, labels, code, error):
        (tmp_path / "scores.tsv").write_text(
            "# type=category_scores\n\tn0\tn1\ni0\t0.75\t0.25\ni1\t0.25\t0.75\n")
        (tmp_path / "split.json").write_text(json.dumps({
            "known_categories": ["k0"], "novel_categories": ["n0", "n1"],
            "train_instances": {}, "test_instances": {"i0": "n0", "i1": "n1"}}))
        (tmp_path / "labels.tsv").write_text(labels, encoding="utf-8")
        got, err = run(capsys, "eval", "--scores", tmp_path / "scores.tsv", "--truth",
                       tmp_path / "labels.tsv", "--split", tmp_path / "split.json",
                       "--out", tmp_path / "report.json")
        if error is None:
            assert (got, err) == (code, "")
            assert json.loads((tmp_path / "report.json").read_text())["accuracy"] == 1.0
        else:
            assert one_json_error(code, err)["error"] == f"{tmp_path / 'labels.tsv'}:{error}"


def _mutate(data: bytes, mutation: str, pick: int, byte: int) -> bytes:
    """``data``, a TSV, JSONL or JSON file, broken by ``mutation`` at a place chosen
    by ``pick``. Line mutations leave '#' lines and the line after them (a header) alone."""
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


def write_category_scores(data_dir):
    """Random scores of the test instances for the novel categories, as ``scores.tsv``."""
    split = json.loads((data_dir / "split.json").read_text())
    sio.write_category_scores(data_dir / "scores.tsv", CategoryScoreMatrix(
        tuple(split["test_instances"]), tuple(sorted(split["novel_categories"])),
        np.random.default_rng(0).random((len(split["test_instances"]),
                                         len(split["novel_categories"])))))


def write_pst_inputs(data_dir):
    """Random zero-shot scores and graph coordinates of every instance, as
    ``pst_zeroshot.tsv`` and ``pst_vectors.tsv``."""
    split = json.loads((data_dir / "split.json").read_text())
    instances = tuple(sio.read_labels(data_dir / "labels.tsv"))
    rng = np.random.default_rng(0)
    sio.write_category_scores(data_dir / "pst_zeroshot.tsv", CategoryScoreMatrix(
        instances, tuple(sorted(split["novel_categories"])),
        rng.random((len(instances), len(split["novel_categories"])))))
    sio.write_attribute_scores(data_dir / "pst_vectors.tsv", AttributeScoreMatrix(
        instances, ("a0", "a1", "a2"), rng.random((len(instances), 3))))


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
        write_category_scores(synth_dir)
    cases = {rel: ["assoc", "--policy", "per_attribute_topk", "--k", "2",
                   "--out", synth_dir / "a.tsv", "--relatedness"],
             synth_dir / "scores.tsv": ["eval", "--truth", synth_dir / "labels.tsv",
                                        "--split", synth_dir / "split.json",
                                        "--out", synth_dir / "r.json", "--scores"]}
    for path, argv in cases.items():
        data = path.read_bytes()
        bad = synth_dir / "bad.tsv"
        for mutation, (pick, byte) in places.items():
            bad.write_bytes(_mutate(data, mutation, pick, byte))
            code, err = run(capsys, *argv, bad)
            assert code in ((2, 3) if mutation in BREAKING else (0, 2, 3)), (mutation, err)
            if code:
                one_json_error(code, err)


# The mutations every reader gets; the TSV readers must reject the first two,
# and every reader a byte-order mark.
READER_MUTATIONS = ("cells", "duplicate_row", "truncate", "flip", "bom", "crlf")


@settings(derandomize=True, database=None, deadline=None, max_examples=6,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(places=st.fixed_dictionaries({m: st.tuples(st.integers(0, 10**6), st.integers(0, 255))
                                     for m in READER_MUTATIONS}))
def test_mutated_input_files_keep_the_exit_contract(synth_dir, capsys, places):
    # labels, taxonomy, corpus, split and model files, each through a command that reads it
    d = synth_dir
    if not (d / "model.json").exists():
        write_taxonomy(d)
        write_category_scores(d)
        write_pst_inputs(d)
        (d / "lin_terms.json").write_text(json.dumps({"categories": ["k00", "k01"],
                                                      "attributes": ["k02", "g1"]}))
        assert main(["train", "--features", str(d / "features.tsv"), "--assoc",
                     str(d / "associations.tsv"), "--split", str(d / "split.json"),
                     "--out", str(d / "model.json")]) == 0
    evaluate = ["eval", "--scores", d / "scores.tsv", "--out", d / "r.json"]
    lin = ["mine", "--terms", d / "lin_terms.json", "--measure", "lin", "--out", d / "lin.tsv"]
    cases = [
        ("labels.tsv", [*evaluate, "--split", d / "split.json", "--truth"]),
        ("split.json", [*evaluate, "--truth", d / "labels.tsv", "--split"]),
        ("split.json", ["pst", "--zeroshot", d / "pst_zeroshot.tsv", "--vectors",
                        d / "pst_vectors.tsv", "--k", "4", "--out", d / "pst.tsv", "--split"]),
        ("edges.tsv", [*lin, "--taxonomy-probs", d / "probs.tsv", "--taxonomy-edges"]),
        ("probs.tsv", [*lin, "--taxonomy-edges", d / "edges.tsv", "--taxonomy-probs"]),
        ("corpus.jsonl", ["mine", "--terms", d / "terms.json", "--measure", "dice_snippet",
                          "--window", "5", "--out", d / "rel.tsv", "--corpus"]),
        ("model.json", ["zeroshot", "--features", d / "features.tsv", "--assoc",
                        d / "associations.tsv", "--split", d / "split.json",
                        "--out", d / "zs.tsv", "--model"]),
    ]
    for name, argv in cases:
        data = (d / name).read_bytes()
        bad = d / f"bad_{name}"
        for mutation, (pick, byte) in places.items():
            bad.write_bytes(_mutate(data, mutation, pick, byte))
            code, err = run(capsys, *argv, bad)
            breaking = mutation == "bom" or (name.endswith(".tsv")
                                             and mutation in READER_MUTATIONS[:2])
            assert code in ((2, 3) if breaking else (0, 2, 3)), (name, mutation, err)
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
