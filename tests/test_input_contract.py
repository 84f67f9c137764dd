"""Inputs are refused where they enter, each with a ``DataError``.

One table row per rule: an observed value that is not finite, a
normalization of other dims than the training windows, and one seed rule
(an integer >= 0, no bool) for every public function that takes a seed;
each seed error names the function. A value that is not finite written
into a series' ``values`` after the series is made is refused by every
path that reads it, before any step, so no ``RuntimeWarning`` is raised.
Last, ``step`` called on its own refuses, with a ``ShapeError``, a row or
hidden states that do not fit each other.
"""

import warnings

import numpy as np
import pytest

import uprop as U
from uprop.errors import DataError, ShapeError
from uprop.forecaster import build_model, step


def tiny_model(dims=2):
    config = U.TrainConfig(lookahead=1, epochs=1, window_length=4, n_layers=1,
                           hidden_size=3, dropout=0.0)
    windows = [U.TimeSeries.complete(np.arange(4.0 * dims).reshape(4, dims) + i)
               for i in range(2)]
    return U.train(windows, config)[0]


def windows(n=4, dims=2):
    return [U.TimeSeries.complete(np.full((4, dims), float(i))) for i in range(n)]


REFUSED = {
    "time-series-observed-inf": (
        lambda: U.TimeSeries(values=[[np.inf]], mask=[[True]]),
        r"row t=0, column dim_0: observed value inf is not finite"),
    "time-series-observed-nan": (
        lambda: U.TimeSeries(values=[[1.0, np.nan]], mask=[[True, True]], t0=5),
        r"row t=5, column dim_1: observed value nan is not finite"),
    "surprise-score-observed-inf": (
        lambda: U.surprise_score(U.DistVector(mu=np.zeros(2), sigma=np.ones(2)),
                                 np.array([np.inf, 0.0]), np.array([True, True])),
        r"surprise score needs finite observed values"),
    "train-norm-of-other-dims": (
        lambda: U.train(windows(), U.TrainConfig(lookahead=1, epochs=1, window_length=4,
                                                 n_layers=1, hidden_size=3),
                        U.NormStats(mean=np.zeros(3), std=np.ones(3))),
        r"3 dims .* 2 dims"),
}


@pytest.mark.parametrize("call, says", REFUSED.values(), ids=REFUSED.keys())
def test_refused_where_it_enters(call, says):
    with pytest.raises(DataError, match=says):
        call()


WRITTEN_AFTER = {
    # name: (call, whether the model holds a cursor before the write)
    "filter_series": (lambda m, s: U.filter_series(m, s), False),
    "filter_series_imputed": (
        lambda m, s: U.filter_series_imputed(m, s, U.ImputePolicy("mean")), False),
    "forecast_from_origin": (lambda m, s: U.forecast_from_origin(m, s, 4, 2), False),
    "forecast_from_origin-resumed": (
        lambda m, s: U.forecast_from_origin(m, s, 4, 2), True),
    "score_series-volatility": (lambda m, s: U.score_series(m, s, "volatility"), False),
    "score_series-surprise": (lambda m, s: U.score_series(m, s, "surprise"), False),
    "score_series-kl": (lambda m, s: U.score_series(m, s, "kl", 1, 2), False),
}


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", WRITTEN_AFTER)
def test_an_observed_value_written_after_the_series_is_made_is_refused(name, value):
    call, resumed = WRITTEN_AFTER[name]
    model = tiny_model()
    series = U.TimeSeries.complete(np.linspace(-1.0, 1.0, 12).reshape(6, 2))
    if resumed:
        U.forecast_from_origin(model, series, 2, 1)   # the cursor: rows 0..2
    series.values[3, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match=rf"observed value {value} is not finite"):
            call(model, series)


def test_a_non_finite_cell_that_is_not_observed_is_accepted():
    series = U.TimeSeries(values=[[np.inf, np.nan]], mask=[[False, False]])
    assert not series.mask.any()
    belief = U.DistVector(mu=np.zeros(2), sigma=np.ones(2))
    assert np.isfinite(U.surprise_score(belief, np.array([np.inf, 0.0]),
                                        np.array([False, True])))


SEEDED = {
    "ImputePolicy": lambda seed: U.ImputePolicy("sample", seed=seed),
    "emulate_missing": lambda seed: U.emulate_missing(windows(1)[0], 0.5, seed),
    "split": lambda seed: U.split(windows(), seed=seed),
    "synth_cloud": lambda seed: U.synth_cloud(nodes=1, steps=240, seed=seed),
    "synth_random_walk": lambda seed: U.synth_random_walk(4, seed),
    "mc_rollout": lambda seed: U.mc_rollout(
        tiny_model(), [U.DistVector.observed(np.zeros(2))], 2, 2, seed=seed),
    "evaluate_grid": lambda seed: U.evaluate_grid(
        {1: tiny_model()}, windows(1), rates=[0.5], seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("name", SEEDED)
def test_every_seed_follows_one_rule(name, seed):
    with pytest.raises(DataError, match=rf"{name} needs an integer seed >= 0, got"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_a_valid_seed_is_taken(name):
    SEEDED[name](np.int64(3))


def two_layer_model():
    config = U.TrainConfig(lookahead=1, epochs=1, window_length=4, n_layers=2,
                           hidden_size=8, dropout=0.0)
    return build_model(2, config, U.NormStats(mean=np.zeros(2), std=np.ones(2)),
                       np.random.default_rng(0))


# step called without buffers checks its row and states once; numpy's own
# errors escaped before
STEP_REFUSED = {
    "state-of-wrong-width": (lambda: np.zeros(4), lambda: [np.zeros(8), np.zeros(5)]),
    "batch-rows-one-row-states": (lambda: np.zeros((3, 4)), lambda: [np.zeros(8)] * 2),
    "one-row-batch-states": (lambda: np.zeros(4), lambda: [np.zeros((3, 8))] * 2),
    "list-row": (lambda: [0.0] * 4, lambda: [np.zeros(8)] * 2),
}


@pytest.mark.parametrize("row, states", STEP_REFUSED.values(), ids=STEP_REFUSED.keys())
def test_step_without_buffers_refuses_rows_and_states_that_do_not_fit(row, states):
    with pytest.raises(ShapeError):
        step(two_layer_model(), row(), states())
