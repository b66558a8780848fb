"""semtransfer benchmark: closed-loop jobs of the ``semtransfer`` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program comes from ``src/``.
Set-up generates the workload's inputs from ``--seed`` as files
(``N_SETS`` input sets, each timed). Then jobs run one at a time, each in a
fresh interpreter (``job.py``) that imports ``semtransfer.cli`` once and
calls ``main(argv)`` per command, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics from untraced jobs.
``--trace 1`` alternates untraced and traced jobs on the same inputs,
then runs one probe job (tracemalloc and counters), and reports the
per-layer metrics. ``--workload all`` runs every workload round-robin in
both modes and reports everything, prefixed by workload name.

Every job must exit 0, produce parseable outputs, and produce artifacts
byte-identical to every other job on the same inputs, traced or not.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from job import WRITERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
JOB = Path(__file__).resolve().parent / "job.py"
N_SETS = 5          # input sets per run; jobs cycle through them
JOB_TIMEOUT = 60    # seconds before a job is killed and counted as failed
MEASURES = ("dice_hit", "dice_snippet", "esa")
PIPELINE_ARTIFACTS = ("model.json", "attribute_scores.tsv", "zeroshot_scores.tsv",
                      "pst_scores.tsv", "pst_predictions.tsv", "report.json")

# ``target`` names the per-layer metrics each workload is meant to stress
# (their summed self time should be the largest); ``steady`` names layers
# predicted not to move on it. The pipeline datasets use 16-20 novel
# categories and little label noise so that their quality, averaged over
# N_SETS datasets, does not swing much from seed to seed.
WORKLOADS = {
    "zsl-train": {
        "kind": "pipeline",
        "synth": {"n_known": 30, "n_novel": 20, "n_attributes": 48, "feature_dim": 64,
                  "train_per_known": 100, "test_per_novel": 30,
                  "distractor_per_known": 5, "fewshot_per_novel": 2, "flip_noise": 0.1},
        "config": {"train": {"max_iters": 300}, "transfer": {"method": "dap"},
                   "pst": {"k": 10, "rho": 0.15, "alpha": 0.8},
                   "eval": {"protocol": "both"}},
        "size": "3000 train x 64 dims, 48 attributes, 790 PST nodes",
        "target": ["classify.train_s"],
        "steady": ["propagate.graph_s", "relatedness"],
    },
    "fewshot-graph": {
        "kind": "pipeline",
        "synth": {"n_known": 10, "n_novel": 16, "n_attributes": 24, "feature_dim": 24,
                  "train_per_known": 30, "test_per_novel": 300,
                  "distractor_per_known": 40, "fewshot_per_novel": 2, "flip_noise": 0.05},
        "config": {"train": {"max_iters": 200}, "transfer": {"method": "dap"},
                   "pst": {"k": 15, "rho": 0.15, "alpha": 0.8},
                   "eval": {"protocol": "both"}},
        "size": "300 train x 24 dims, 24 attributes, 5232 PST nodes",
        "target": ["propagate.graph_s"],
        "steady": ["classify.train_s", "relatedness"],
    },
    "corpus-mine": {
        "kind": "mine",
        "corpus": {"n_docs": 4000, "doc_len": 80, "vocab": 3000, "n_categories": 40,
                   "n_attributes": 64, "density": 0.25, "plants_per_doc": 2,
                   "plant_radius": 8, "strays_per_doc": 4.0, "topical_frac": 0.8},
        "size": "4000 docs x 80 tokens, 3000-word Zipf filler, 40 x 64 terms",
        "target": ["relatedness.index_s", "relatedness.mine_s.dice_hit",
                   "relatedness.mine_s.dice_snippet", "relatedness.mine_s.esa"],
        "steady": ["classify", "propagate", "transfer", "metrics"],
    },
}

# Per-layer metric -> the span names (``layer.function``) whose durations it
# sums. Spans of mine_relatedness carry the measure in brackets.
SPAN_METRICS = {
    "classify.train_s": ("classify.train_attribute_classifiers",),
    "classify.predict_s": ("classify.predict_attribute_scores",),
    "propagate.graph_s": ("propagate.build_knn_graph",),
    "propagate.seed_s": ("propagate.seed_from_zeroshot", "propagate.clamp_fewshot"),
    "propagate.sweep_s": ("propagate.propagate",),
    "metrics.eval_s": ("metrics.evaluate_zero_shot",),
    "relatedness.index_s": ("relatedness.build_corpus_index",),
    **{f"relatedness.mine_s.{m}": (f"relatedness.mine_relatedness[{m}]",) for m in MEASURES},
}
PEAK_METRICS = {
    "classify.peak_mb": "classify.train_attribute_classifiers",
    "propagate.graph_peak_mb": "propagate.build_knn_graph",
    "relatedness.peak_mb.dice_snippet": "relatedness.mine_relatedness[dice_snippet]",
    "relatedness.peak_mb.esa": "relatedness.mine_relatedness[esa]",
}
COUNT_METRICS = ("relatedness.docs", "relatedness.windows", "relatedness.vocab",
                 "relatedness.pairs", "classify.grad_evals", "classify.grad_norm_max",
                 "propagate.sweeps", "propagate.nodes", "propagate.edges",
                 "propagate.deg_min", "propagate.deg_median", "propagate.clamped")
PER_LAYER = ("cli.import_s", "cli.main_s", "cli.self_s", "cli.teardown_s", "cli.cpu_s",
             "io.read_s", "io.write_s", "io.read_mb", "io.write_mb",
             *SPAN_METRICS, *PEAK_METRICS, *COUNT_METRICS,
             "classify.capped_frac", "transfer.s", "trace.overhead_frac")
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s", "ok_frac", "score_auc", "label_f1")


class BenchError(Exception):
    """A job failed one of the output gates."""


def unit_of(name: str) -> str:
    if name == "classify.grad_norm_max":
        return "1"
    if name.endswith("_mb") or ".peak_mb." in name:
        return "MB"
    if name.endswith(("_s", ".s")) or ".mine_s." in name:
        return "s"
    if name.endswith(("_frac", "_auc", "_f1")):
        return "frac"
    return "count"


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# Jobs


class Job:
    """One finished job process: wall time, rusage, exit code and record."""

    def __init__(self, wall: float, rusage, code: int, record: dict | None, out: Path):
        self.wall = wall
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0  # Linux reports KiB
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.code = code
        self.record = record
        self.out = out


def job_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_job(commands: list[list[str]], mode: str, job_dir: Path, job_id: str) -> Job:
    (job_dir / "out").mkdir(parents=True)
    spec = {"commands": commands, "mode": mode, "job": job_id,
            "result": str(job_dir / "record.json")}
    (job_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(job_dir / "log.txt", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(JOB), str(job_dir / "spec.json")],
                                cwd=ROOT, env=job_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(JOB_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    record = None
    if (job_dir / "record.json").exists():
        record = json.loads((job_dir / "record.json").read_text(encoding="utf-8"))
    return Job(wall, rusage, proc.returncode, record, job_dir / "out")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs for one workload, its job commands, and its output gates."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work / name
        self.sets: list[Path] = []
        self.truth: list = []             # per set: planted associations (mine only)
        self.setup_times: list[float] = []
        self.digests: dict[int, dict] = {}  # per set: artifacts of the first good job
        self.quality: dict[int, dict] = {}  # per set: quality of those artifacts
        self.jobs = 0
        self.failed = 0
        self.plain: list[Job] = []        # untraced jobs of the end-to-end phase
        self.pairs: list[tuple[Job, Job]] = []  # (untraced, traced) on the same inputs
        self.probe: Job | None = None

    def setup(self) -> None:
        import inputs
        for i in range(N_SETS):
            d = self.work / f"inputs{i}"
            d.mkdir(parents=True)
            set_seed = self.seed * 16 + i
            start = time.perf_counter()
            if self.spec["kind"] == "pipeline":
                inputs.write_pipeline_inputs(d, set_seed, self.spec["synth"],
                                             self.spec["config"])
                self.truth.append(None)
            else:
                self.truth.append(inputs.write_mining_inputs(d, set_seed, self.spec["corpus"]))
            self.setup_times.append(time.perf_counter() - start)
            self.sets.append(d)

    def commands(self, i: int, out: Path) -> list[list[str]]:
        d = self.sets[i]
        if self.spec["kind"] == "pipeline":
            return [["pipeline", "--config", str(d / "config.json"), "--out-dir", str(out)]]
        out_cmds = []
        for m in MEASURES:
            argv = ["mine", "--corpus", str(d / "corpus.jsonl"), "--terms",
                    str(d / "terms.json"), "--measure", m, "--out", str(out / f"{m}.tsv")]
            if m == "dice_snippet":
                argv += ["--window", "20"]
            out_cmds.append(argv)
        return out_cmds

    def run(self, i: int, mode: str) -> Job | None:
        """Run one job on input set ``i``; None if it failed a gate."""
        self.jobs += 1
        job_dir = self.work / f"job{self.jobs:04d}-{mode}"
        out = job_dir / "out"
        job = run_job(self.commands(i, out), mode, job_dir, f"{self.name}/{self.jobs}")
        try:
            self.check(i, job)
        except BenchError as exc:
            self.failed += 1
            log = (job_dir / "log.txt").read_text(encoding="utf-8", errors="replace")
            print(f"FAILED: {exc}\n{log[-2000:]}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(job_dir)
        return job

    def check(self, i: int, job: Job) -> None:
        if job.code != 0 or job.record is None:
            raise BenchError(f"{self.name} job {self.jobs} exited {job.code}")
        if self.spec["kind"] == "pipeline":
            missing = [a for a in PIPELINE_ARTIFACTS if not (job.out / a).exists()]
        else:
            missing = [f"{m}.tsv" for m in MEASURES if not (job.out / f"{m}.tsv").exists()]
        if missing:
            raise BenchError(f"{self.name} job {self.jobs} wrote no {missing}")
        found = digest(job.out)
        if i not in self.digests:
            self.quality[i] = self.score(i, job.out)
            self.digests[i] = found
        elif found != self.digests[i]:
            changed = sorted(k for k in found if found[k] != self.digests[i].get(k))
            raise BenchError(f"{self.name} job {self.jobs}: artifacts differ from an "
                             f"earlier job on the same inputs: {changed}")

    def score(self, i: int, out: Path) -> dict:
        """Quality of one job's outputs against the truth of input set ``i``."""
        if self.spec["kind"] == "pipeline":
            try:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                zs_auc = float(report["results"]["zeroshot"]["novel_only"]["mean_auc"])
                pst_acc = float(report["results"]["pst"]["novel_only"]["accuracy"])
            except (ValueError, KeyError, TypeError) as exc:
                raise BenchError(f"{self.name}: unreadable report.json: {exc!r}") from exc
            return {"zs_auc": zs_auc, "pst_acc": pst_acc,
                    "score_auc": zs_auc, "label_f1": pst_acc}
        return score_mining(out, self.sets[i], self.truth[i])


def score_mining(out: Path, inputs_dir: Path, truth) -> dict:
    """F1 of per_attribute_mean associations and mean per-attribute AUC of the
    mined relatedness against the planted associations, averaged over measures."""
    import numpy as np
    from semtransfer import io
    from semtransfer.core import ParseError, ValidationError
    from semtransfer.metrics import roc_auc
    from semtransfer.relatedness import binarize

    terms = json.loads((inputs_dir / "terms.json").read_text(encoding="utf-8"))
    f1s, aucs = [], []
    for m in MEASURES:
        try:
            rel = io.read_relatedness(out / f"{m}.tsv")
        except (ParseError, ValidationError) as exc:
            raise BenchError(f"corpus-mine: unreadable {m}.tsv: {exc}") from exc
        if list(rel.categories) != terms["categories"] or \
                list(rel.attributes) != terms["attributes"]:
            raise BenchError(f"corpus-mine: {m}.tsv axes do not match the terms")
        pred = binarize(rel, "per_attribute_mean").values
        tp = float((pred * truth).sum())
        precision = tp / max(pred.sum(), 1.0)
        recall = tp / truth.sum()
        f1s.append(0.0 if tp == 0 else 2 * precision * recall / (precision + recall))
        cols = [j for j in range(truth.shape[1]) if 0 < truth[:, j].sum() < truth.shape[0]]
        aucs.append(float(np.mean([roc_auc(rel.values[:, j], truth[:, j] > 0) for j in cols])))
    f1 = float(np.mean(f1s))
    return {"assoc_f1": f1, "score_auc": float(np.mean(aucs)), "label_f1": f1}


# ---------------------------------------------------------------------------
# Phases


def run_untraced(workloads: list[Workload], seconds: float) -> None:
    """Closed loop, one job at a time, workloads round-robin, for ``seconds``
    and at least one job per input set."""
    start = time.perf_counter()
    k = 0
    while k < N_SETS or time.perf_counter() - start < seconds:
        for w in workloads:
            job = w.run(k % N_SETS, "plain")
            if job is not None:
                w.plain.append(job)
        k += 1


def run_traced(workloads: list[Workload], seconds: float) -> None:
    """Pairs of untraced and traced jobs on the same inputs, alternating which
    goes first, for ``seconds``; then one probe job per workload."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for w in workloads:
            modes = ("plain", "trace") if k % 2 == 0 else ("trace", "plain")
            jobs = {mode: w.run(k % N_SETS, mode) for mode in modes}
            if None not in jobs.values():
                w.pairs.append((jobs["plain"], jobs["trace"]))
        k += 1
    for w in workloads:
        w.probe = w.run(0, "probe")


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(w: Workload) -> dict[str, float]:
    qualities = list(w.quality.values())
    attempted = len(w.plain) + w.failed
    return {
        "wall_s": statistics.median(j.wall for j in w.plain) if w.plain else 0.0,
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in w.plain) if w.plain else 0.0,
        "setup_s": statistics.median(w.setup_times),
        "ok_frac": len(w.plain) / attempted if attempted else 0.0,
        "score_auc": statistics.fmean(q["score_auc"] for q in qualities) if qualities else 0.0,
        "label_f1": statistics.fmean(q["label_f1"] for q in qualities) if qualities else 0.0,
    }


def _group(name: str, group_of: dict[str, str]) -> str:
    layer = name.split(".", 1)[0]
    if layer == "io":
        return "io.write_s" if name.startswith(WRITERS) else "io.read_s"
    if layer == "transfer":
        return "transfer.s"
    return group_of.get(name, f"{layer}.other")


def span_times(job: Job) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times of one traced job, and self times grouped the same way.

    A metric sums the spans it names; ``io.*_s`` and ``transfer.s`` sum the
    outermost spans of their layer. A span's self time is its duration
    minus its children's.
    """
    rec = job.record
    spans = rec["spans"]
    import_s = rec["import"][1] - rec["import"][0]
    main_s = sum(c["end"] - c["start"] for c in rec["calls"])
    group_of = {n: metric for metric, names in SPAN_METRICS.items() for n in names}
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    times = dict.fromkeys([*SPAN_METRICS, "io.read_s", "io.write_s", "transfer.s"], 0.0)
    selfs: dict[str, float] = {}
    top = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        key = _group(name, group_of)
        layer = name.split(".", 1)[0]
        outer = parent < 0 or spans[parent][0].split(".", 1)[0] != layer
        if name in group_of or (outer and key in times):
            times[key] += end - start
        selfs[key] = selfs.get(key, 0.0) + (end - start) - children[idx]
        top += (end - start) if parent < 0 else 0.0
    cli = {"cli.import_s": import_s, "cli.main_s": main_s,
           "cli.self_s": main_s - top, "cli.teardown_s": job.wall - import_s - main_s,
           "cli.cpu_s": job.cpu_s}
    selfs.update({k: cli[k] for k in ("cli.import_s", "cli.self_s", "cli.teardown_s")})
    return {**cli, **times}, selfs


def per_layer(w: Workload) -> dict[str, float]:
    """Medians over the traced jobs, counts and peaks from the probe job."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    if w.pairs:
        samples = [span_times(traced)[0] for _, traced in w.pairs]
        for key in samples[0]:
            out[key] = statistics.median(s[key] for s in samples)
        plain = statistics.median(p.wall for p, _ in w.pairs)
        out["trace.overhead_frac"] = statistics.median(t.wall for _, t in w.pairs) / plain - 1
    if w.probe is not None:
        counts = w.probe.record["counts"]
        peaks = w.probe.record["peaks_mb"]
        out.update({k: float(counts[k]) for k in COUNT_METRICS if k in counts})
        out.update({k: peaks[span] for k, span in PEAK_METRICS.items() if span in peaks})
        out["io.read_mb"] = counts.get("io.read_bytes", 0) / 2**20
        out["io.write_mb"] = counts.get("io.write_bytes", 0) / 2**20
        if counts.get("classify.attributes"):
            out["classify.capped_frac"] = counts["classify.capped"] / counts["classify.attributes"]
    return out


def self_time_ranking(w: Workload) -> tuple[list[tuple[str, float]], bool]:
    """Median self time per group over traced jobs, largest first, and whether
    the workload's target layer (summed) has the largest self time."""
    samples = [span_times(traced)[1] for _, traced in w.pairs]
    keys = sorted({k for s in samples for k in s})
    ranking = sorted(((k, statistics.median(s.get(k, 0.0) for s in samples)) for k in keys),
                     key=lambda kv: -kv[1])
    target = sum(v for k, v in ranking if k in w.spec["target"])
    others = [v for k, v in ranking if k not in w.spec["target"]]
    return ranking, target > max(others, default=0.0)


# ---------------------------------------------------------------------------
# Report


def machine_record() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # thread settings as found in the environment; the benchmark sets none
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def describe(values: list[float]) -> str:
    """Median and quartiles as statistics.quantiles gives them, with the count."""
    if len(values) < 2:
        return f"values {values}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(values)}"


def report(w: Workload, trace: bool) -> dict[str, float]:
    """Print one workload's metrics in readable lines; return the contract ones."""
    spec = w.spec
    print(f"# {w.name}: {spec['size']}; target {spec['target']}; "
          f"predicted not to move {spec['steady']}")
    if not trace:
        metrics = end_to_end(w)
        print(f"{w.name} wall_s {describe([j.wall for j in w.plain])} s")
        print(f"{w.name} peak_rss_mb {describe([j.peak_rss_mb for j in w.plain])} MB")
        print(f"{w.name} setup_s {describe(w.setup_times)} s")
        attempted = len(w.plain) + w.failed
        print(f"{w.name} failed_frac {w.failed / max(attempted, 1):.4f} of {attempted} jobs")
        for i, q in sorted(w.quality.items()):
            named = " ".join(f"{k} {v:.4f}" for k, v in q.items()
                             if k not in ("score_auc", "label_f1"))
            print(f"{w.name} inputs{i} {named}")
        for name in END_TO_END:
            print(f"{w.name} {name} = {metrics[name]:.6g} {unit_of(name)}")
        return metrics
    metrics = per_layer(w)
    for name in PER_LAYER:
        print(f"{w.name} {name} = {metrics[name]:.6g} {unit_of(name)}")
    if w.pairs:
        ranking, ok = self_time_ranking(w)
        print(f"{w.name} self time: " + ", ".join(f"{k} {v:.3f}" for k, v in ranking[:6]))
        print(f"{w.name} target layer has the largest self time: {ok}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "semtransfer" / "cli.py").is_file():
        print(f"error: no semtransfer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        import semtransfer.cli  # noqa: F401  (warm the import before set-up is timed)
        workloads = [Workload(name, args.seed, WORK) for name in names]
        for w in workloads:
            w.setup()
        # compile bytecode and warm the file cache before the first timed job
        subprocess.run([sys.executable, "-c", "import semtransfer.cli"], cwd=ROOT, check=True,
                       env=job_env())
        print("# machine " + json.dumps(machine_record(), sort_keys=True))
        phases = [False, True] if args.workload == "all" else [bool(args.trace)]
        metrics: dict[str, dict] = {}
        for trace in phases:
            (run_traced if trace else run_untraced)(workloads, args.seconds)
            for w in workloads:
                prefix = f"{w.name}." if args.workload == "all" else ""
                for k, v in report(w, trace).items():
                    metrics[prefix + k] = {"value": v, "unit": unit_of(k)}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = sum(w.failed for w in workloads)
    print(json.dumps({"correct": failed == 0, "attempted": sum(w.jobs for w in workloads),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
