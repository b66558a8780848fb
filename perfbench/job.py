"""One benchmark job: a fresh interpreter that imports ``semtransfer.cli``
once and calls ``main(argv)`` for each command of the job, as the
``semtransfer`` command would.

    python3 job.py SPEC.json

SPEC holds ``commands`` (a list of argv lists), ``mode`` and ``result``
(where to write this job's JSON record). Modes:

* ``plain`` -- no instrumentation beyond timing the import and each call.
* ``trace`` -- spans around every package function where the CLI looks it
  up at call time (see ``_targets``), kept in memory and written with the
  record when the job ends.
* ``probe`` -- the same wrappers, but instead of timing they run
  ``tracemalloc`` inside the memory-heavy functions and read counters from
  arguments and results. Its timings are meaningless; it only feeds the
  ``*.peak_mb`` metrics and the counts.

Wrapping happens from outside: the program itself is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

# Where the CLI resolves names at call time: ``semtransfer.cli`` holds the
# ``from .x import y`` names and its own helpers, ``io`` is called as a
# module attribute, and ``pst`` calls its helpers through the globals of
# ``semtransfer.propagate``. Names that are missing are skipped, so a later
# refactor that moves a helper only drops its span.
CLI_HELPERS = {"_signature_relatedness": "transfer"}
IO_PREFIXES = ("read_", "write_", "save_", "load_")
WRITERS = ("io.write_", "io.save_")
PST_HELPERS = ("build_knn_graph", "seed_from_zeroshot", "clamp_fewshot", "propagate")
# Functions the probe pass runs under tracemalloc.
MEMORY = {"propagate.build_knn_graph", "relatedness.mine_relatedness",
          "classify.train_attribute_classifiers"}


def _span_name(layer: str, fn, args, kwargs) -> str:
    name = f"{layer}.{fn.__name__}"
    if fn.__name__ == "mine_relatedness":
        measure = args[3] if len(args) > 3 else kwargs.get("measure")
        name += f"[{measure}]"
    return name


class Tracer:
    """Spans as (name, start, end, parent index); one job id per process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def record(self) -> dict:
        return {"job": self.job_id, "spans": self.spans}


class Probe:
    """Peak traced memory inside ``MEMORY`` functions plus per-layer counts."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.peaks: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._io_depth = 0

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, fn, args, kwargs):
        base = name.split("[")[0]
        is_io = base.startswith("io.")
        # bytes of the file each outermost io call reads or writes
        io_key = None
        if is_io and self._io_depth == 0:
            io_key = "io.write_bytes" if base.startswith(WRITERS) else "io.read_bytes"
        if io_key == "io.read_bytes":
            self._add(io_key, _size(args[0]))
        traced = base in MEMORY and not tracemalloc.is_tracing()
        if traced:
            tracemalloc.start()
        self._io_depth += is_io
        try:
            result = fn(*args, **kwargs)
        finally:
            self._io_depth -= is_io
            if traced:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
        if io_key == "io.write_bytes":
            self._add(io_key, _size(args[0]))
        counter = getattr(self, "_count_" + base.split(".", 1)[1], None)
        if counter is not None:
            counter(result, args, kwargs)
        return result

    def _count_build_corpus_index(self, index, args, kwargs):
        self.counts["relatedness.docs"] = index.n_docs
        self.counts["relatedness.vocab"] = len(index.postings)

    def _count_mine_relatedness(self, rel, args, kwargs):
        self._add("relatedness.pairs", rel.values.size)
        measure = args[3] if len(args) > 3 else kwargs.get("measure")
        window = kwargs.get("window", 20)
        if measure == "dice_snippet":
            lengths = [len(t) for t in args[0].doc_tokens]
            if window is None:
                self._add("relatedness.windows", sum(1 for n in lengths if n))
            else:
                self._add("relatedness.windows",
                          sum(max(1, n - window + 1) for n in lengths if n))

    def _count_train_attribute_classifiers(self, model, args, kwargs):
        import numpy as np
        classify = importlib.import_module("semtransfer.classify")
        features, labels, assoc = args[:3]
        iters = list(model.metadata["iterations"])
        cap = model.metadata["config"]["max_iters"]
        l2 = model.metadata["config"]["l2"]
        self._add("classify.grad_evals", sum(iters) + len(iters))
        self._add("classify.attributes", len(iters))
        self._add("classify.capped", sum(n >= cap for n in iters))
        # gradient norm at stop, recomputed with the public loss function
        inst_index = {inst: i for i, inst in enumerate(features.instances)}
        rows = [inst_index[inst] for inst in labels]
        targets = assoc.values[[assoc.category_index(c) for c in labels.values()]]
        X = (features.values[rows] - model.feature_mean) / model.feature_std
        worst = 0.0
        for j in range(len(model.attributes)):
            _, gw, gb = classify.logistic_loss_and_grad(
                model.weights[j], float(model.biases[j]), X, targets[:, j], l2)
            worst = max(worst, float(np.sqrt(gw @ gw + gb * gb)))
        self.counts["classify.grad_norm_max"] = max(
            self.counts.get("classify.grad_norm_max", 0.0), worst)

    def _count_build_knn_graph(self, graph, args, kwargs):
        import numpy as np
        deg = graph.W.getnnz(axis=1)
        self._add("propagate.nodes", graph.n)
        self._add("propagate.edges", graph.W.nnz // 2)
        self.counts["propagate.deg_min"] = float(deg.min())
        self.counts["propagate.deg_median"] = float(np.median(deg))

    def _count_clamp_fewshot(self, seeds, args, kwargs):
        self._add("propagate.clamped", len(seeds.clamped))

    def _count_propagate(self, result, args, kwargs):
        self._add("propagate.sweeps", result.iterations)

    def record(self) -> dict:
        return {"job": self.job_id, "peaks_mb": self.peaks, "counts": self.counts}


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def _layer(obj) -> str | None:
    """Package module that defines ``obj``, or None if it is not a function of ours."""
    if inspect.isfunction(obj) and obj.__module__.startswith("semtransfer."):
        return obj.__module__.rsplit(".", 1)[1]
    return None


def _targets():
    """(namespace, name, layer) for every function the CLI looks up at call time.

    Modules come from importlib: ``import semtransfer.propagate as m`` would
    give the function, because the package ``__init__`` shadows the
    submodule with the function of the same name.
    """
    cli = importlib.import_module("semtransfer.cli")
    for name, obj in vars(cli).items():
        layer = _layer(obj)
        if layer not in (None, "cli"):
            yield cli, name, layer
        elif name in CLI_HELPERS:
            yield cli, name, CLI_HELPERS[name]
    io = importlib.import_module("semtransfer.io")
    for name, obj in vars(io).items():
        if _layer(obj) == "io" and name.startswith(IO_PREFIXES):
            yield io, name, "io"
    propagate = importlib.import_module("semtransfer.propagate")
    for name in PST_HELPERS:
        yield propagate, name, "propagate"


def install(recorder) -> None:
    for namespace, name, layer in list(_targets()):
        fn = getattr(namespace, name, None)
        if _layer(fn) is None:
            continue

        def wrapper(*args, _fn=fn, _in=layer, **kwargs):
            return recorder.call(_span_name(_in, _fn, args, kwargs), _fn, args, kwargs)

        setattr(namespace, name, functools.wraps(fn)(wrapper))


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    cli = importlib.import_module("semtransfer.cli")
    t1 = time.perf_counter()
    recorder = {"trace": Tracer, "probe": Probe}.get(spec["mode"])
    if recorder is not None:
        recorder = recorder(spec["job"])
        install(recorder)
    calls = []
    for argv in spec["commands"]:
        start = time.perf_counter()
        code = cli.main(argv)
        calls.append({"argv": argv, "code": code, "start": start,
                      "end": time.perf_counter()})
    record = {"import": [t0, t1], "calls": calls}
    if recorder is not None:
        record.update(recorder.record())
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if all(c["code"] == 0 for c in calls) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
