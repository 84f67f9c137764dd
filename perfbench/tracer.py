"""Span tracer for the benchmark's traced run.

The tracer wraps ``uprop`` functions at the places their callers look them
up (modules bind imported names at import time, so each binding is
patched separately) and records one span per call: name, start, end,
parent span and the benchmark operation that caused it. Spans stay in
memory; ``dump`` writes them out when the run ends. Nothing in ``src/`` is
changed: every wrapper lives here and is removed by ``uninstall``.

``layer_metrics`` turns the spans into the per-layer metrics listed in
``BENCHMARK.json``. A metric whose span names have no patch point left
(because a later refactor renamed or removed the function) is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from pathlib import Path
from time import perf_counter

# span name -> the (module, attribute) bindings that callers look up
PATCH_POINTS = {
    "forecaster.train": [("uprop", "train"), ("uprop.cli", "train")],
    "forecaster.filter_series": [("uprop", "filter_series"),
                                 ("uprop.evaluate", "filter_series")],
    "forecaster.step": [("uprop.forecaster", "step"), ("uprop.novelty", "step"),
                        ("uprop.baselines", "step")],
    "forecaster.encode_input": [("uprop.forecaster", "encode_input"),
                                ("uprop.novelty", "encode_input")],
    "nn.fused_stack_step": [("uprop.forecaster", "fused_stack_step")],
    "nn.fuse_stack": [("uprop.forecaster", "fuse_stack")],
    "nn.adam_step": [("uprop.forecaster", "adam_step")],
    "tensor.backward": [("uprop.tensor", "backward")],
    "prob.nll": [("uprop.evaluate", "nll")],
    "prob.kl": [("uprop.novelty", "kl")],
    "baselines.filter_series_imputed": [("uprop.evaluate", "filter_series_imputed")],
    "baselines.mc_rollout": [("uprop", "mc_rollout")],
    "novelty.forecast_from_origin": [("uprop", "forecast_from_origin"),
                                     ("uprop.cli", "forecast_from_origin")],
    "novelty.score_series": [("uprop", "score_series"), ("uprop.cli", "score_series")],
    "evaluate.evaluate_grid": [("uprop", "evaluate_grid"),
                               ("uprop.cli", "evaluate_grid")],
    "evaluate.normalize": [("uprop.evaluate", "normalize")],
    "data.load_csv": [("uprop.cli", "load_csv")],
    "data.save_csv": [("uprop.cli", "save_csv")],
    "checkpoint.save": [("uprop.cli", "save_checkpoint")],
    "checkpoint.load": [("uprop.cli", "load_checkpoint")],
    "cli.train": [("uprop.cli", "cmd_train")],
    "cli.forecast": [("uprop.cli", "cmd_forecast")],
    "cli.detect": [("uprop.cli", "cmd_detect")],
    "cli.evaluate": [("uprop.cli", "cmd_evaluate")],
}


def _graph_size(root) -> int:
    """Exact number of tape nodes reachable from ``root``."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _digest(series, stats) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (series.values, series.mask, stats.mean, stats.std):
        h.update(arr.tobytes())
    h.update(str(series.t0).encode())
    return h.hexdigest()


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, note]
        self.op = None
        self.missing = set()     # span names with no patch point left
        self._stack = []
        self._patches = []
        self._series_keys = {}   # id(series) -> (series, key); keeps ids unique
        self._merges = 0

    def record(self, name, start, end, note=None):
        """Add a span measured outside a wrapper (e.g. an import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, note])

    def wrap(self, owner, attr, name, note=None, classify=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [classify(args) if classify else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every patch point that still exists."""
        import uprop.tensor
        notes = self._notes()
        for name, points in PATCH_POINTS.items():
            found = 0
            for module_name, attr in points:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                if not callable(getattr(owner, attr, None)):
                    continue
                classify = None
                if name == "nn.fused_stack_step":
                    var = uprop.tensor.Var
                    classify = lambda args: ("nn.fused_stack_step.tape"
                                             if isinstance(args[0].layers[0].w, var)
                                             else "nn.fused_stack_step.frozen")
                self.wrap(owner, attr, name, note=notes.get(name), classify=classify)
                found += 1
            if not found:
                self.missing.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _series_key(self, series) -> int:
        entry = self._series_keys.setdefault(id(series),
                                             (series, len(self._series_keys)))
        return entry[1]

    def _notes(self):
        def arg(args, kwargs, i, name):
            return args[i] if len(args) > i else kwargs[name]

        return {
            "forecaster.train": lambda a, kw, r: len(arg(a, kw, 0, "windows"))
            * arg(a, kw, 1, "config").epochs,
            "tensor.backward": lambda a, kw, r: _graph_size(arg(a, kw, 0, "root")),
            "baselines.filter_series_imputed":
                lambda a, kw, r: arg(a, kw, 1, "series").steps,
            "novelty.forecast_from_origin": lambda a, kw, r: (
                self._series_key(arg(a, kw, 1, "series")),
                arg(a, kw, 2, "origin"), arg(a, kw, 3, "k")),
            "evaluate.evaluate_grid": lambda a, kw, r: r.cells.size,
            "evaluate.normalize": lambda a, kw, r: _digest(arg(a, kw, 0, "series"),
                                                           arg(a, kw, 1, "stats")),
            "data.load_csv": lambda a, kw, r: r.steps,
            "data.save_csv": lambda a, kw, r: arg(a, kw, 0, "series").steps,
            "checkpoint.save": lambda a, kw, r: Path(arg(a, kw, 1, "path")).stat().st_size,
        }

    def dump(self, path):
        """Write the spans as JSON lines (perf_counter seconds of the process
        that recorded them; spans merged from a CLI child keep its clock)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "note": note}) + "\n")

    def merge(self, path):
        """Append spans dumped by a traced child process.

        Series keys are local to the child, so they are made unique per
        merged file before they join this process's keys.
        """
        base = len(self.spans)
        self._merges += 1
        with open(path) as fh:
            for line in fh:
                s = json.loads(line)
                parent = s["parent"] + base if s["parent"] >= 0 else -1
                note = s["note"]
                if s["name"] == "novelty.forecast_from_origin":
                    note = (f"{self._merges}:{note[0]}", note[1], note[2])
                self.spans.append([s["name"], s["start"], s["end"], parent,
                                   self.op, note])


def layer_metrics(tracer: Tracer, overhead_share: float):
    """Per-layer metrics from the spans, and the names of the absent ones."""
    spans = tracer.spans
    n = len(spans)
    count, dur, child = {}, {}, [0.0] * n
    for name, start, end, parent, _, _ in spans:
        count[name] = count.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + (end - start)
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]

    def under(ancestor):
        """Index of the nearest ``ancestor`` span above each span, or -1."""
        out = [-1] * n
        for i, span in enumerate(spans):
            p = span[3]
            if p >= 0:
                out[i] = p if spans[p][0] == ancestor else out[p]
        return out

    def notes(name):
        return [s[5] for s in spans if s[0] == name]

    def steps_under(ancestor):
        anc = under(ancestor)
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == "forecaster.step" and anc[i] >= 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def c(name):
        return count.get(name, 0)

    def d(name):
        return dur.get(name, 0.0)

    in_train = under("forecaster.train")
    fuse_in_train = sum(s[2] - s[1] for i, s in enumerate(spans)
                        if s[0] == "nn.fuse_stack" and in_train[i] >= 0)
    batches = c("nn.adam_step")

    useful, last_origin = 0, {}
    for key, origin, k in notes("novelty.forecast_from_origin"):
        prev = last_origin.get(key)
        fresh = origin - prev if prev is not None and origin > prev else origin + 1
        useful += fresh + k - 1
        last_origin[key] = origin
    ffo_steps = steps_under("novelty.forecast_from_origin")
    saves = notes("checkpoint.save")

    metrics = {
        "tensor.backward_ms_per_batch": (
            ratio(d("tensor.backward"), c("tensor.backward")) * 1e3,
            ["tensor.backward"]),
        "tensor.backward_share": (
            ratio(d("tensor.backward"), d("forecaster.train")),
            ["tensor.backward", "forecaster.train"]),
        "tensor.tape_nodes_per_window": (
            ratio(sum(notes("tensor.backward")), sum(notes("forecaster.train"))),
            ["tensor.backward", "forecaster.train"]),
        "nn.fused_stack_step.tape.calls": (
            c("nn.fused_stack_step.tape"), ["nn.fused_stack_step"]),
        "nn.fused_stack_step.tape.us": (
            ratio(d("nn.fused_stack_step.tape"), c("nn.fused_stack_step.tape")) * 1e6,
            ["nn.fused_stack_step"]),
        "nn.fused_stack_step.frozen.calls": (
            c("nn.fused_stack_step.frozen"), ["nn.fused_stack_step"]),
        "nn.fused_stack_step.frozen.us": (
            ratio(d("nn.fused_stack_step.frozen"),
                  c("nn.fused_stack_step.frozen")) * 1e6,
            ["nn.fused_stack_step"]),
        "nn.fuse_stack_ms_per_batch": (
            ratio(fuse_in_train, batches) * 1e3,
            ["nn.fuse_stack", "nn.adam_step", "forecaster.train"]),
        "nn.adam_step_ms_per_batch": (
            ratio(d("nn.adam_step"), batches) * 1e3, ["nn.adam_step"]),
        "forecaster.step.calls": (c("forecaster.step"), ["forecaster.step"]),
        "forecaster.step.self_us": (
            ratio(self_time.get("forecaster.step", 0.0), c("forecaster.step")) * 1e6,
            ["forecaster.step"]),
        "forecaster.encode_input.us": (
            ratio(d("forecaster.encode_input"), c("forecaster.encode_input")) * 1e6,
            ["forecaster.encode_input"]),
        "forecaster.train_forward_self_ms_per_batch": (
            ratio(d("forecaster.train") - d("tensor.backward") - d("nn.adam_step")
                  - fuse_in_train, batches) * 1e3,
            ["forecaster.train", "tensor.backward", "nn.adam_step", "nn.fuse_stack"]),
        "prob.nll.calls": (c("prob.nll"), ["prob.nll"]),
        "prob.nll.us": (ratio(d("prob.nll"), c("prob.nll")) * 1e6, ["prob.nll"]),
        "prob.kl.calls": (c("prob.kl"), ["prob.kl"]),
        "prob.kl.us": (ratio(d("prob.kl"), c("prob.kl")) * 1e6, ["prob.kl"]),
        "baselines.filter_series_imputed.steps_per_s": (
            ratio(sum(notes("baselines.filter_series_imputed")),
                  d("baselines.filter_series_imputed")),
            ["baselines.filter_series_imputed"]),
        "baselines.mc_rollout.step_calls": (
            ratio(steps_under("baselines.mc_rollout"), c("baselines.mc_rollout")),
            ["baselines.mc_rollout", "forecaster.step"]),
        "novelty.forecast_from_origin.step_calls_per_call": (
            ratio(ffo_steps, c("novelty.forecast_from_origin")),
            ["novelty.forecast_from_origin", "forecaster.step"]),
        "novelty.forecast_from_origin.useful_ratio": (
            ratio(useful, ffo_steps),
            ["novelty.forecast_from_origin", "forecaster.step"]),
        "novelty.score_series.step_calls_per_window": (
            ratio(steps_under("novelty.score_series"), c("novelty.score_series")),
            ["novelty.score_series", "forecaster.step"]),
        "evaluate.cell_ms": (
            ratio(d("evaluate.evaluate_grid"), sum(notes("evaluate.evaluate_grid"))) * 1e3,
            ["evaluate.evaluate_grid"]),
        "evaluate.normalize.useful_ratio": (
            ratio(len(set(notes("evaluate.normalize"))), c("evaluate.normalize")),
            ["evaluate.normalize"]),
        "data.load_csv.rows_per_s": (
            ratio(sum(notes("data.load_csv")), d("data.load_csv")), ["data.load_csv"]),
        "data.save_csv.rows_per_s": (
            ratio(sum(notes("data.save_csv")), d("data.save_csv")), ["data.save_csv"]),
        "checkpoint.save_ms": (
            ratio(d("checkpoint.save"), c("checkpoint.save")) * 1e3, ["checkpoint.save"]),
        "checkpoint.bytes": (ratio(sum(saves), len(saves)), ["checkpoint.save"]),
        "checkpoint.load_ms": (
            ratio(d("checkpoint.load"), c("checkpoint.load")) * 1e3, ["checkpoint.load"]),
        "cli.import_s": (ratio(d("cli.import"), c("cli.import")), []),
        "trace.overhead_share": (overhead_share, []),
    }
    for command in ("train", "forecast", "detect", "evaluate"):
        name = f"cli.{command}"
        metrics[f"{name}.self_s"] = (ratio(self_time.get(name, 0.0), c(name)), [name])
    absent = [name for name, (_, needs) in metrics.items()
              if tracer.missing.intersection(needs)]
    return ({name: value for name, (value, _) in metrics.items() if name not in absent},
            absent)
