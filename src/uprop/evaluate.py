"""Evaluation grid: per-point one-step NLL per (missing rate, training
lookahead, missing-input method), plus difference tables against
uncertainty propagation.
Each (rate, lookahead) pair filters its windows under all its methods as
one batch per window length; the cells equal per-window passes bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py wraps filter_series_imputed and nll where this module
# binds them, and tests/test_bench_hooks.py requires both bindings to stay
from .baselines import filter_series_imputed, impute_noise  # noqa: F401
from .data import emulate_missing, normalize
from .errors import ConfigError
from .forecaster import UPropModel, _filter_batch
from .prob import DistVector, nll

METHODS = ("uprop", "mean", "sample")


@dataclass
class EvalGrid:
    """Rows = missing rates, columns = training lookaheads, per method."""

    rates: list
    lookaheads: list
    methods: list
    cells: np.ndarray  # (n_rates, n_lookaheads, n_methods)

    def cell(self, rate, lookahead, method) -> float:
        return float(self.cells[self.rates.index(rate),
                                self.lookaheads.index(lookahead),
                                self.methods.index(method)])

    def difference(self, method: str) -> np.ndarray:
        """(method - uprop) per-point NLL table, shape (rates, lookaheads)."""
        m = self.methods.index(method)
        u = self.methods.index("uprop")
        return self.cells[:, :, m] - self.cells[:, :, u]


def derive_seed(seed: int, *parts) -> int:
    """Stable per-cell seed from the run seed and cell coordinates."""
    text = ":".join([str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _window_sums(model: UPropModel, truths: list, inputs: list, methods: list,
                 sample_seed) -> np.ndarray:
    """Per (method, window): the NLL of the one-step forecasts of rows
    1..T-1 against the truth, summed over each row's dimensions and then
    over the rows in order. Windows of one length filter as one batch,
    each method a block of rows; ``sample_seed(wi)`` seeds the draws of
    window ``wi`` under "sample"."""
    sums = np.zeros((len(methods), len(truths)))
    lengths = {}
    for wi, series in enumerate(inputs):
        lengths.setdefault(series.steps, []).append(wi)
    for length, windows in lengths.items():
        if length < 2:   # nothing to score
            continue
        rows = [(m, wi) for m in methods for wi in windows]
        values = np.stack([inputs[wi].values for _, wi in rows], axis=1)
        mask = np.stack([inputs[wi].mask for _, wi in rows], axis=1)
        noise = np.stack([impute_noise(inputs[wi].mask, sample_seed(wi)) if m == "sample"
                          else np.zeros(inputs[wi].mask.shape) for m, wi in rows], axis=1)
        mu, sigma = _filter_batch(model, values, mask, [m for m, _ in rows], noise)
        truth = np.stack([truths[wi].values for _, wi in rows], axis=1)
        points = nll(DistVector._unchecked(mu[:-1], sigma[:-1]), truth[1:])
        total = np.zeros(len(rows))
        for row in points:   # step by step, as a running sum would
            total += row
        sums[:, windows] = total.reshape(len(methods), len(windows))
    return sums


def evaluate_grid(models: dict, test_windows: list, rates: list,
                  methods: list = list(METHODS), seed: int = 0) -> EvalGrid:
    """Run the full grid; ``models`` maps lookahead -> trained UPropModel.

    Missingness is emulated per (rate, window) with seeds derived from the
    run seed, identically across lookaheads and methods, so cells in a row
    see the same degraded data.
    """
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown evaluation method {method!r}")
    lookaheads = sorted(models)
    cells = np.zeros((len(rates), len(lookaheads), len(methods)))
    # each window normalized once per distinct NormStats (models trained on
    # the same windows share them), each degradation once per (rate, stats),
    # and shared by every model and method that uses those stats
    key = {k: models[k].norm.mean.tobytes() + models[k].norm.std.tobytes()
           for k in lookaheads}
    stats = {key[k]: models[k].norm for k in lookaheads}
    truths = {s: [normalize(w, norm) for w in test_windows]
              for s, norm in stats.items()}
    for ri, rate in enumerate(rates):
        # one degradation per (rate, window), shared across columns
        degraded = [
            emulate_missing(w, rate, derive_seed(seed, "missing", rate, wi))
            if rate > 0 else w
            for wi, w in enumerate(test_windows)
        ]
        normed = {s: [normalize(d, norm) for d in degraded]
                  for s, norm in stats.items()}
        for ki, k in enumerate(lookaheads):
            truth, inputs = truths[key[k]], normed[key[k]]
            sums = _window_sums(
                models[k], truth, inputs, methods,
                lambda wi: derive_seed(seed, "impute", rate, k, "sample", wi))
            count = sum(t.dims * (t.steps - 1) for t in truth)
            for mi in range(len(methods)):
                total = 0.0
                for s in sums[mi]:
                    total += float(s)
                cells[ri, ki, mi] = total / count
    return EvalGrid(rates=list(rates), lookaheads=lookaheads,
                    methods=list(methods), cells=cells)
