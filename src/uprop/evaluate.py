"""Evaluation grid: per-point one-step NLL per (missing rate, training
lookahead, missing-input method), plus difference tables against
uncertainty propagation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .baselines import ImputePolicy, filter_series_imputed
from .data import TimeSeries, emulate_missing, normalize
from .errors import ConfigError
from .forecaster import UPropModel, filter_series
from .prob import nll

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


def score_filter_pass(steps: list, truth: TimeSeries) -> tuple[float, int]:
    """Sum of per-point NLL of one-step forecasts against the truth.

    The forecast recorded at step t is for row t+1; rows 1..T-1 are scored
    on every dimension. Returns (nll sum, number of points).
    """
    total, count = 0.0, 0
    for t in range(1, truth.steps):
        belief = steps[t - 1].forecast.steps[0]
        total += nll(belief, truth.values[t])
        count += truth.dims
    return total, count


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
            model, inputs = models[k], normed[key[k]]
            for mi, method in enumerate(methods):
                total, count = 0.0, 0
                for wi, (truth, series) in enumerate(zip(truths[key[k]], inputs)):
                    if method == "uprop":
                        steps = filter_series(model, series)
                    else:
                        policy = ImputePolicy(
                            kind=method,
                            seed=derive_seed(seed, "impute", rate, k, method, wi))
                        steps = filter_series_imputed(model, series, policy)
                    s, c = score_filter_pass(steps, truth)
                    total += s
                    count += c
                cells[ri, ki, mi] = total / count
    return EvalGrid(rates=list(rates), lookaheads=lookaheads,
                    methods=list(methods), cells=cells)
