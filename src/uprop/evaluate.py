"""Evaluation grid: per-point one-step NLL per (missing rate, training
lookahead, missing-input method), plus difference tables against
uncertainty propagation.
Each model (lookahead) filters the windows of every rate under all its
methods as one batch per window length, so a grid of any number of rates
is one batched scan per model and window length; the cells equal
per-window passes bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py wraps filter_series_imputed and nll where this module
# binds them, and tests/test_bench_hooks.py requires both bindings to stay
from .baselines import filter_series_imputed, impute_noise  # noqa: F401
from .data import _check_missing_rate, emulate_missing, normalize
from .errors import ConfigError, DataError
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
    window ``wi`` under "sample". The lists may repeat a window, as the
    grid's truths do once per rate."""
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
        preds = _filter_batch(model, values, mask, [m for m, _ in rows], noise)
        truth = np.stack([truths[wi].values for _, wi in rows], axis=1)
        points = nll(DistVector._of_row(preds[:-1]), truth[1:])
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
    see the same degraded data. A ``DataError`` is raised, before any
    work, when a rate is outside [0, 1) or no test window has the two
    rows a one-step forecast needs.
    """
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown evaluation method {method!r}")
    for rate in rates:
        _check_missing_rate(rate)
    if not any(w.steps >= 2 for w in test_windows):
        raise DataError("evaluate_grid needs a test window of two rows or more: "
                        "with fewer there is no one-step forecast to score")
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
    # one degradation per (rate, window), shared across columns; rate-major
    degraded = [
        emulate_missing(w, rate, derive_seed(seed, "missing", rate, wi))
        if rate > 0 else w
        for rate in rates for wi, w in enumerate(test_windows)
    ]
    normed = {s: [normalize(d, norm) for d in degraded]
              for s, norm in stats.items()}
    n_windows = len(test_windows)
    for ki, k in enumerate(lookaheads):
        # every (rate, window) of the model in one call: one batch per
        # window length, whatever the number of rates
        truth = truths[key[k]]
        sums = _window_sums(
            models[k], truth * len(rates), normed[key[k]], methods,
            lambda j: derive_seed(seed, "impute", rates[j // n_windows], k, "sample",
                                  j % n_windows))
        count = sum(t.dims * (t.steps - 1) for t in truth)
        for ri in range(len(rates)):
            for mi in range(len(methods)):
                total = 0.0
                for s in sums[mi, ri * n_windows:(ri + 1) * n_windows]:
                    total += float(s)
                cells[ri, ki, mi] = total / count
    return EvalGrid(rates=list(rates), lookaheads=lookaheads,
                    methods=list(methods), cells=cells)
