"""The benchmark harness still drives the program: probe jobs on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_probe(tmp_path, commands) -> dict:
    """Counts of one probe job through ``perfbench/job.py``."""
    record = tmp_path / "record.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"commands": commands, "mode": "probe", "job": "test/1",
                                "result": str(record)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "job.py"), str(spec)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(record.read_text())["counts"]


def test_probe_job_counts_a_snippet_mine(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": text}) + "\n"
        for i, text in enumerate(["bear claw den", "otter fin river bear", "", "fin"])))
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps({"categories": ["bear", "otter"], "attributes": ["claw", "fin"]}))
    counts = run_probe(tmp_path, [["mine", "--corpus", str(corpus), "--terms", str(terms),
                                   "--measure", "dice_snippet", "--window", "2",
                                   "--out", str(tmp_path / "dice_snippet.tsv")]])
    assert counts["relatedness.vocab"] == 6
    # windows of 2 tokens: 2 + 3 + 0 + 1
    assert counts["relatedness.windows"] == 6


def test_probe_job_counts_a_pipeline_with_fewshot_labels(tmp_path):
    k = 4
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5,
        "synth": {"n_known": 4, "n_novel": 3, "n_attributes": 8, "feature_dim": 8,
                  "train_per_known": 10, "test_per_novel": 10, "fewshot_per_novel": 2},
        "train": {"max_iters": 50},
        "pst": {"k": k, "rho": 0.2, "alpha": 0.8},
    }))
    out = tmp_path / "out"
    counts = run_probe(tmp_path, [["pipeline", "--config", str(config), "--out-dir", str(out)]])
    split = json.loads((out / "split.json").read_text())
    fewshot, test = len(split["fewshot_instances"]), len(split["test_instances"])
    assert fewshot == 6
    assert counts["propagate.nodes"] == fewshot + test
    assert counts["propagate.edges"] > 0
    assert counts["propagate.deg_min"] >= k
    assert counts["propagate.clamped"] == fewshot
    assert counts["classify.attributes"] == 8
    assert counts["propagate.sweeps"] >= 1


def test_probe_job_counts_the_bytes_of_every_file_read_and_written(tmp_path):
    """The io layer of the benchmark sees the matrix reader and writer."""
    from semtransfer import SynthConfig, gen_dataset
    import semtransfer.io as sio

    ds = gen_dataset(SynthConfig(n_known=4, n_novel=3, n_attributes=8, feature_dim=8,
                                 train_per_known=10, test_per_novel=10, fewshot_per_novel=2,
                                 seed=5))
    data = {"features": tmp_path / "features.tsv", "labels": tmp_path / "labels.tsv",
            "associations": tmp_path / "associations.tsv", "split": tmp_path / "split.json"}
    sio.write_features(data["features"], ds.features)
    sio.write_labels(data["labels"], ds.labels)
    sio.write_association(data["associations"], ds.associations)
    sio.write_split(data["split"], ds.split)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {k: str(p) for k, p in data.items()},
                                  "train": {"max_iters": 50}, "pst": {"k": 4}}))
    rel = tmp_path / "rel.tsv"
    rel.write_text("# type=relatedness\n\ta\tb\nc\t0.5\t0\nd\t0.25\t1\n")

    out, assoc = tmp_path / "out", tmp_path / "assoc.tsv"
    counts = run_probe(tmp_path, [
        ["pipeline", "--config", str(config), "--out-dir", str(out)],
        ["assoc", "--relatedness", str(rel), "--policy", "per_attribute_mean",
         "--out", str(assoc)],
    ])
    assert {p.name for p in out.iterdir()} >= {"attribute_scores.tsv", "zeroshot_scores.tsv",
                                                "pst_scores.tsv"}
    read = [config, *data.values(), rel]
    written = [*out.iterdir(), assoc]
    assert counts["io.read_bytes"] == sum(p.stat().st_size for p in read)
    assert counts["io.write_bytes"] == sum(p.stat().st_size for p in written)
