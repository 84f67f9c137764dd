"""Probabilistic multivariate time-series forecasting with deterministic
uncertainty propagation, missing-data handling, baselines, novelty
detection, and an evaluation harness.
"""

from .baselines import ImputePolicy, filter_series_imputed, mc_rollout
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DatasetSplit, NormStats, TimeSeries, denormalize,
                   emulate_missing, load_csv, normalize, save_csv, split,
                   synth_cloud, synth_random_walk, window)
from .evaluate import EvalGrid, evaluate_grid
from .forecaster import (Forecast, TrainConfig, UPropModel, encode_input,
                         filter_series, rollout, step, train)
from .novelty import (NoveltyScore, Threshold, calibrate_threshold,
                      forecast_from_origin, score_series, surprise_score,
                      volatility_score)
from .prob import DistVector, interval95, kl, nll, squash_sigma

__all__ = [
    "DatasetSplit", "DistVector", "EvalGrid", "Forecast", "ImputePolicy",
    "NormStats", "NoveltyScore", "Threshold", "TimeSeries", "TrainConfig",
    "UPropModel", "calibrate_threshold", "denormalize", "emulate_missing",
    "encode_input", "evaluate_grid", "filter_series", "filter_series_imputed",
    "forecast_from_origin", "interval95", "kl", "load_checkpoint", "load_csv",
    "mc_rollout", "nll", "normalize", "rollout", "save_checkpoint", "save_csv",
    "score_series", "split", "squash_sigma", "step", "surprise_score",
    "synth_cloud", "synth_random_walk", "train", "volatility_score", "window",
]

__version__ = "0.1.0"
