"""Conventional baselines: point imputation of missing inputs and
Monte-Carlo multi-step forecasting.

Both baselines reuse the weights of an uncertainty-propagation model;
only the treatment of missing inputs (or of multi-step feedback) differs,
so comparisons isolate the input handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeries, _check_seed, _is_a
from .forecaster import (IMPUTE_CLAMP, DistVector, UPropModel,  # noqa: F401
                         _check_horizon, _consume, _filter, _self_feed)


@dataclass
class ImputePolicy:
    """Missing-input treatment: replace by forecast mean or by a sample."""

    kind: str = "mean"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("mean", "sample"):
            raise ValueError(f"impute policy must be 'mean' or 'sample', got {self.kind!r}")
        _check_seed(self.seed, "ImputePolicy")


def impute_noise(mask: np.ndarray, seed: int) -> np.ndarray:
    """The standard normals the sample policy reads over a (T, N) mask:
    one row per step with a missing cell, drawn in step order from
    ``default_rng(seed)``, and zeros on the other steps. ``mu + sigma *``
    a row equals the ``rng.normal(mu, sigma)`` drawn at that step, bit for
    bit."""
    noise = np.zeros(mask.shape)
    gaps = ~mask.all(axis=1)
    noise[gaps] = np.random.default_rng(seed).standard_normal(
        (np.count_nonzero(gaps), mask.shape[1]))
    return noise


def filter_series_imputed(model: UPropModel, series: TimeSeries,
                          policy: ImputePolicy,
                          prior: DistVector | None = None) -> list:
    """Like ``filter_series`` but missing inputs become certain values.

    Mean policy feeds (mu_pending, 0); sample policy feeds (s, 0) with
    s ~ N(mu_pending, sigma_pending), seeded. Values are clamped to
    +-IMPUTE_CLAMP normalized units.
    """
    noise = impute_noise(series.mask, policy.seed) if policy.kind == "sample" else None
    return _filter(model, series, prior, policy.kind, noise)[0]


def mc_rollout(model: UPropModel, context: list, k: int, n_samples: int,
               seed: int):
    """Monte-Carlo multi-step forecast for the conventional model.

    Each trajectory consumes the context, then repeatedly samples from the
    predicted belief and feeds the sample as a certain observation.
    Returns (k, N) arrays of per-step empirical means and stds. The
    context is consumed once; the trajectories then step as one batch,
    trajectory i drawing its k standard normal rows from the i-th child of
    ``SeedSequence(seed)``, as a loop over ``rng.normal`` would.
    """
    _check_seed(seed, "mc_rollout")
    if not _is_a(n_samples, int):
        raise ValueError(f"mc_rollout needs an integer n_samples, got {n_samples!r}")
    if n_samples < 2:
        raise ValueError(f"mc_rollout needs n_samples >= 2, got {n_samples}")
    _check_horizon(k)
    pending, h = _consume(model, context)
    noise = np.stack([np.random.default_rng(child).standard_normal((k, model.dims))
                      for child in np.random.SeedSequence(seed).spawn(n_samples)],
                     axis=1)
    pending = np.tile(pending, (n_samples, 1))
    h = [np.tile(layer, (n_samples, 1)) for layer in h]
    n = model.dims
    certain = np.zeros((n_samples, n))
    inputs, rows = _self_feed(
        model, pending, h, k,
        lambda j, row: np.concatenate([row[:, :n] + row[:, n:] * noise[j], certain],
                                      axis=1))
    last = rows[-1]
    # (n_samples, k, N), trajectory-major: the mean and std over axis 0 add
    # the trajectories in order, as over a list of per-trajectory rows
    trajectories = np.stack([x[:, :n] for x in inputs]
                            + [last[:, :n] + last[:, n:] * noise[k - 1]], axis=1)
    return trajectories.mean(axis=0), trajectories.std(axis=0)
