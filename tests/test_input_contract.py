"""Inputs are refused where they enter, each with a ``DataError``.

One table row per rule: an observed value that is not finite, a
normalization of other dims than the training windows, and one seed rule
(an integer >= 0, no bool) for every public function that takes a seed;
each seed error names the function.
"""

import numpy as np
import pytest

import uprop as U
from uprop.errors import DataError


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
