"""The README's worked example and Python API example give the figures it quotes."""

import json
import re
from pathlib import Path

import pytest

import semtransfer as st
from semtransfer.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README text from heading ``title`` up to the next heading of any level."""
    start = README.index(f"\n{title}\n")
    end = re.compile(r"^#+ ", re.M).search(README, start + len(title) + 2)
    return README[start:end.start() if end else None]


def code_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def figures(pattern: str, text: str) -> list[float]:
    found = re.search(pattern, " ".join(text.split()))
    assert found, f"README no longer says {pattern!r}"
    return [float(g) for g in found.groups()]


def test_worked_example_gives_the_quoted_accuracies(tmp_path, capsys):
    text = section("### Worked example")
    config = json.loads(code_blocks(text, "json")[0])
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(tmp_path / "config.json")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / config["output_dir"] / "report.json").read_text())
    zeroshot, pst = figures(r"novel accuracy from (\d\.\d\d) to (\d\.\d\d)", text)
    results = report["results"]
    assert round(results["zeroshot"]["novel_only"]["accuracy"], 2) == zeroshot
    assert round(results["pst"]["novel_only"]["accuracy"], 2) == pst


@pytest.mark.filterwarnings("ignore:categories with no associated attribute")
def test_python_api_example_gives_the_quoted_figures(capsys):
    text = section("## Python API")
    namespace: dict = {}
    for block in code_blocks(text, "python"):
        exec(block, namespace)
    capsys.readouterr()
    auc, accuracy, pst_accuracy = figures(
        r"reaches (\d\.\d\d) mean AUC and (\d\.\d\d) accuracy .*? "
        r"propagation lifts the accuracy to (\d\.\d\d)", text)
    report = namespace["report"]
    assert round(report.mean_auc, 2) == auc
    assert round(report.accuracy, 2) == accuracy
    refined = st.evaluate_zero_shot(namespace["result"].scores, namespace["ds"].labels,
                                    namespace["ds"].split, "novel_only")
    assert round(refined.accuracy, 2) == pst_accuracy


def test_config_reference_names_the_keys_each_stage_checks(tmp_path, capsys):
    # a list in place of any key the table names is rejected by that key's
    # stage as a wrong type or shape, never as an unknown key
    rows = re.findall(r"^\| (top level|`\w+`) \| ([^|]+) \|", section("### Config reference"),
                      re.M)
    base = {"output_dir": "run", "corpus": {}, "mine": {},
            "assoc": {"policy": "per_attribute_mean"},
            "synth": {"n_known": 2, "n_novel": 1, "n_attributes": 4, "feature_dim": 4,
                      "train_per_known": 5, "test_per_novel": 5}}
    checked = []
    for where, keys in rows:
        for key in re.findall(r"`(\w+)`", keys):
            cfg = json.loads(json.dumps(base))
            if where == "top level":
                cfg[key] = []
                stage = "config" if key in ("output_dir", "seed") else key
            else:
                stage = where.strip("`")
                cfg.setdefault(stage, {})[key] = []
                if stage == "data":
                    del cfg["synth"]
            (tmp_path / "config.json").write_text(json.dumps(cfg))
            code = main(["pipeline", "--config", str(tmp_path / "config.json")])
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert code == 3 and "unknown" not in error["error"], (where, key, error)
            assert error["stage"] == {"synth": "data"}.get(stage, stage), (where, key, error)
            checked.append(key)
    assert len(checked) == 53  # as many keys as the pipeline declares
