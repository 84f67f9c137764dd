"""Novelty signals: predicted volatility, observation surprise, and the
KL divergence between forecasts of the same time point made from a recent
and a stale origin, plus empirical-quantile threshold calibration.

Forecasts from an origin resume from the filter state of the model's
previous ``forecast_from_origin`` call when the series still begins with
the rows that call consumed, so a backtest that walks forward through a
stream filters each row once. KL scoring resumes every origin from the
per-row snapshots of a single filter pass, and steps the near and the far
forecasts of all targets as two batches; each row of a batch is bitwise
the forecast stepped alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeries, _is_a
from .errors import ConfigError, DataError, ShapeError
from .forecaster import (DistVector, Forecast, UPropModel, _check_horizon,
                         _inputs, _scan, _self_feed)
from .prob import kl, nll

SCORE_KINDS = ("volatility", "surprise", "kl")


@dataclass
class NoveltyScore:
    t: int
    kind: str
    value: float
    flagged: bool = False

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.kind == "kl" and self.value < 0.0:
            raise ValueError("kl novelty scores are nonnegative")


@dataclass
class Threshold:
    cutoff: float
    quantile: float = 0.99

    def __post_init__(self):
        if not _is_a(self.cutoff, float):
            raise ConfigError(f"threshold cutoff must be a finite number, "
                              f"got {self.cutoff!r}")
        _check_quantile(self.quantile)


def _check_quantile(quantile: float) -> None:
    if not 0.5 < quantile < 1.0:
        raise ConfigError(f"calibration quantile must be in (0.5, 1), got {quantile}")


def _check_offsets(near_offset: int, far_offset: int) -> None:
    if not (_is_a(near_offset, int) and _is_a(far_offset, int)):
        raise ConfigError("offsets must be integers, "
                          f"got near={near_offset!r}, far={far_offset!r}")
    if near_offset < 1 or far_offset < near_offset:
        raise ConfigError("offsets must satisfy far_offset >= near_offset >= 1, "
                          f"got near={near_offset}, far={far_offset}")


def volatility_score(forecast: Forecast) -> float:
    """Mean predicted scale at the first forecast step."""
    if forecast.horizon < 1:
        raise ValueError("forecast has no steps")
    return float(forecast.steps[0].sigma.mean())


def surprise_score(belief: DistVector, x: np.ndarray,
                   mask: np.ndarray | None = None) -> float:
    """Per-point NLL of the realized values, averaged over observed dims.
    An observed value that is not finite is a ``DataError``."""
    x = np.asarray(x, dtype=np.float64)
    if mask is None:
        mask = ~np.isnan(x)
    mask = np.asarray(mask, dtype=bool)
    if x.shape != (belief.dims,) or mask.shape != x.shape:
        raise ShapeError(f"surprise score of a {belief.dims}-dim belief needs x and mask "
                         f"of shape ({belief.dims},), got {x.shape} and {mask.shape}")
    if not mask.any():
        raise ValueError("surprise score undefined: all dimensions missing")
    if not np.all(np.isfinite(x[mask])):
        raise DataError(f"surprise score needs finite observed values, got {x[mask]}")
    sigma = belief.sigma[mask]
    if np.any(sigma == 0.0):
        raise ValueError("surprise score needs strictly positive forecast scales")
    observed = DistVector(mu=belief.mu[mask], sigma=sigma)
    return nll(observed, x[mask]) / np.count_nonzero(mask)


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bits. Unlike ``==`` this tells -0.0 from 0.0
    and matches a NaN to the same NaN, exactly as the inputs built from
    the rows would differ or match."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def forecast_from_origin(model: UPropModel, series: TimeSeries, origin: int,
                         k: int) -> Forecast:
    """k-step forecast from row index ``origin`` (rows 0..origin consumed).

    The filter state at ``origin`` is kept on the model as its one resume
    cursor: the origin, copies of the rows consumed up to it, and the
    pending belief and hidden state there. A later call resumes from the
    cursor when its origin is not earlier and its series starts with
    exactly those rows, bit for bit, under the same frozen weights and
    sigma floor; it then filters only the rows after the cursor. Any
    other call (an earlier origin, another series, a consumed value or
    mask cell edited in place, a weight refresh) filters from a zero
    state, and both ways step the same arithmetic, so the forecast is the
    same bit for bit. A model holds at most one cursor, with one copy of
    the consumed rows. The cursor is a tuple that is replaced, never
    changed, so a call racing another on the same model, or one whose
    rows were edited, can only miss it and re-filter.
    """
    if not _is_a(origin, int):
        raise ValueError(f"origin must be an integer, got {origin!r}")
    if origin < 0 or origin >= series.steps:
        raise ValueError(f"origin {origin} outside series of length {series.steps}")
    _check_horizon(k)
    cursor, fstack = model._cursor, model._fstack
    floor = model.train_config.sigma_floor
    start, pending, h = 0, None, None
    if cursor is not None:
        c, values, mask, c_pending, c_h, c_fstack, c_floor = cursor
        if (c <= origin and c_fstack is fstack and c_floor == floor
                and _same_rows(series.mask[:c + 1], mask)
                and _same_rows(series.values[:c + 1], values)):
            start, pending, h = c + 1, c_pending, c_h
    rows = slice(start, origin + 1)
    _, preds, h = _scan(model, origin + 1 - start,
                        _inputs(series.values[rows], series.mask[rows]), pending, h)
    if preds:
        pending = preds[-1]
    _, steps = _self_feed(model, pending, h, k)
    # the returned forecast shares ``pending``; the cursor keeps its own copy
    model._cursor = (origin, series.values[:origin + 1].copy(),
                     series.mask[:origin + 1].copy(), pending.copy(),
                     h, fstack, floor)
    return Forecast(origin_t=series.t0 + origin,
                    steps=[DistVector._of_row(row) for row in steps])


def _kl_values(model: UPropModel, preds: list, hiddens: list, targets: range,
               near_offset: int, far_offset: int) -> list:
    """KL(p || q) for each row t in ``targets`` (a step-1 range): p and q
    are the forecasts of row t from the near and the far origin, resumed
    from the per-row (belief, hidden) snapshots of one filter pass, each
    offset's forecasts stepped as one batch. The snapshots are stacked
    once; an offset's origins are one slice of them."""
    if not targets:
        return []
    beliefs = np.stack(preds)
    layers = [np.stack(layer) for layer in zip(*hiddens)]
    pq = []
    for o in (near_offset, far_offset):
        origins = slice(targets.start - o, targets.stop - o)
        h = [layer[origins] for layer in layers]
        row = _self_feed(model, beliefs[origins], h, o)[1][-1]
        pq.append(DistVector._of_row(row))
    return kl(*pq).tolist()


def calibrate_threshold(scores, quantile: float = 0.99) -> Threshold:
    """Empirical quantile (linear interpolation) of >= 100 validation scores."""
    _check_quantile(quantile)
    values = np.asarray([s.value if isinstance(s, NoveltyScore) else s for s in scores],
                        dtype=np.float64)
    if values.size < 100:
        raise DataError(f"calibration needs >= 100 scores, got {values.size}")
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise DataError(f"calibration scores must be finite, got {bad} that are not")
    return Threshold(cutoff=float(np.quantile(values, quantile, method="linear")),
                     quantile=quantile)


def score_series(model: UPropModel, series: TimeSeries, kind: str,
                 near_offset: int = 1, far_offset: int = 8,
                 threshold: Threshold | None = None) -> list:
    """Score every eligible step of a series with one novelty signal."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if kind == "kl":
        _check_offsets(near_offset, far_offset)
    # one filter pass; its per-row snapshots of (pending forecast, hidden
    # state) let every KL origin be resumed without re-filtering
    hiddens = [] if kind == "kl" else None
    _, preds, _ = _scan(model, series.steps, _inputs(series.values, series.mask),
                        snapshots=hiddens)
    scores = []
    if kind == "kl":
        targets = range(far_offset, series.steps)
        values = _kl_values(model, preds, hiddens, targets, near_offset, far_offset)
        scores = [NoveltyScore(t=series.t0 + t, kind=kind, value=v)
                  for t, v in zip(targets, values)]
    else:
        for t in range(1, series.steps):
            pred = DistVector._of_row(preds[t - 1])
            if kind == "volatility":
                value = float(pred.sigma.mean())
            else:
                if not series.mask[t].any():
                    continue
                value = surprise_score(pred, series.values[t], series.mask[t])
            scores.append(NoveltyScore(t=series.t0 + t, kind=kind, value=value))
    if threshold is not None:
        for s in scores:
            s.flagged = s.value > threshold.cutoff
    return scores
