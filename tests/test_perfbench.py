"""The benchmark harness still drives the program: one probe job on a tiny corpus."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_probe_job_counts_a_snippet_mine(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": text}) + "\n"
        for i, text in enumerate(["bear claw den", "otter fin river bear", "", "fin"])))
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps({"categories": ["bear", "otter"], "attributes": ["claw", "fin"]}))
    record = tmp_path / "record.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "commands": [["mine", "--corpus", str(corpus), "--terms", str(terms),
                      "--measure", "dice_snippet", "--window", "2",
                      "--out", str(tmp_path / "dice_snippet.tsv")]],
        "mode": "probe", "job": "test/1", "result": str(record)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "job.py"), str(spec)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = json.loads(record.read_text())["counts"]
    assert counts["relatedness.vocab"] == 6
    # windows of 2 tokens: 2 + 3 + 0 + 1
    assert counts["relatedness.windows"] == 6
