"""Conventional baselines: point imputation of missing inputs and
Monte-Carlo multi-step forecasting.

Both baselines reuse the weights of an uncertainty-propagation model;
only the treatment of missing inputs (or of multi-step feedback) differs,
so comparisons isolate the input handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeries
from .errors import ShapeError
from .forecaster import (DistVector, UPropModel, _consume, _filter,
                         _self_feed)

# imputed values are presented as certain observations; clamp keeps a
# pathological sample from destabilizing the recurrence
IMPUTE_CLAMP = 8.0


@dataclass
class ImputePolicy:
    """Missing-input treatment: replace by forecast mean or by a sample."""

    kind: str = "mean"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("mean", "sample"):
            raise ValueError(f"impute policy must be 'mean' or 'sample', got {self.kind!r}")


def filter_series_imputed(model: UPropModel, series: TimeSeries,
                          policy: ImputePolicy,
                          prior: DistVector | None = None) -> list:
    """Like ``filter_series`` but missing inputs become certain values.

    Mean policy feeds (mu_pending, 0); sample policy feeds (s, 0) with
    s ~ N(mu_pending, sigma_pending), seeded. Values are clamped to
    +-IMPUTE_CLAMP normalized units.
    """
    rng = np.random.default_rng(policy.seed)
    if prior is None:
        prior = DistVector.standard(model.dims)
    elif prior.dims != model.dims:
        raise ShapeError(f"prior dims {prior.dims} != model dims {model.dims}")
    values, mask = series.values, series.mask

    def impute(t, pending):
        fallback = pending if pending is not None else prior
        observed, row = mask[t], values[t]
        if observed.all():
            fill = row
        elif policy.kind == "mean":
            fill = np.clip(fallback.mu, -IMPUTE_CLAMP, IMPUTE_CLAMP)
        else:
            draw = rng.normal(fallback.mu, fallback.sigma)
            fill = np.clip(draw, -IMPUTE_CLAMP, IMPUTE_CLAMP)
        return DistVector(mu=np.where(observed, row, fill), sigma=np.zeros(model.dims))

    return _filter(model, series, impute)[0]


def mc_rollout(model: UPropModel, context: list, k: int, n_samples: int,
               seed: int):
    """Monte-Carlo multi-step forecast for the conventional model.

    Each trajectory consumes the context, then repeatedly samples from the
    predicted belief and feeds the sample as a certain observation.
    Returns (k, N) arrays of per-step empirical means and stds.
    """
    if n_samples < 2:
        raise ValueError(f"mc_rollout needs n_samples >= 2, got {n_samples}")
    pending, h = _consume(model, context)
    trajectories = []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        inputs, beliefs = _self_feed(
            model, pending, h, k,
            lambda j, pred, rng=rng: DistVector.observed(rng.normal(pred.mu, pred.sigma)))
        last = beliefs[-1]
        trajectories.append([inp.mu for inp in inputs]
                            + [rng.normal(last.mu, last.sigma)])
    trajectories = np.array(trajectories)
    return trajectories.mean(axis=0), trajectories.std(axis=0)
