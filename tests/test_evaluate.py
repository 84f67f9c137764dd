import numpy as np
import pytest

from uprop import evaluate
from uprop.data import NormStats, TimeSeries
from uprop.errors import ConfigError, DataError
from uprop.evaluate import evaluate_grid

from test_forecaster import small_model


def test_each_model_normalizes_under_its_own_stats(monkeypatch):
    rng = np.random.default_rng(8)
    windows = [TimeSeries.complete(rng.normal(size=(12, 2))) for _ in range(3)]
    shared = NormStats(mean=np.array([0.5, -1.0]), std=np.array([2.0, 0.5]))
    models = {k: small_model(seed=k) for k in (2, 4, 8)}
    models[2].norm = shared
    models[4].norm = NormStats(mean=np.zeros(2), std=np.ones(2))
    models[8].norm = NormStats(mean=shared.mean.copy(), std=shared.std.copy())
    rates = [0.0, 0.5]
    calls, normalize = [], evaluate.normalize

    def counting(series, stats):
        calls.append(stats)
        return normalize(series, stats)

    monkeypatch.setattr(evaluate, "normalize", counting)
    grid = evaluate_grid(models, windows, rates, seed=3)
    # truths once and each rate's degradations once, per model, each under
    # that model's own stats
    assert len(calls) == len(models) * (1 + len(rates)) * len(windows)
    per_model = (1 + len(rates)) * len(windows)
    for i, k in enumerate(sorted(models)):
        assert all(s is models[k].norm for s in calls[i * per_model:(i + 1) * per_model])
    for ki, k in enumerate(sorted(models)):
        alone = evaluate_grid({k: models[k]}, windows, rates, seed=3)
        np.testing.assert_array_equal(grid.cells[:, ki], alone.cells[:, 0])


@pytest.mark.parametrize("rates", [[0.0], [0.0, 0.5], [0.1, 0.3, 0.5, 0.5]])
def test_each_model_filters_its_grid_as_one_batch_per_window_length(rates, monkeypatch):
    rng = np.random.default_rng(4)
    # two scored lengths; a one-row window has nothing to score
    windows = [TimeSeries.complete(rng.normal(size=(n, 2))) for n in (6, 9, 6, 1, 9)]
    models = {k: small_model(seed=k) for k in (2, 4)}
    calls, filter_batch = [], evaluate._filter_batch

    def counting(model, values, *args, **kwargs):
        calls.append((id(model), values.shape))
        return filter_batch(model, values, *args, **kwargs)

    monkeypatch.setattr(evaluate, "_filter_batch", counting)
    evaluate_grid(models, windows, rates, seed=5)
    rows = len(rates) * len(evaluate.METHODS) * 2   # two windows of each length
    assert sorted(calls) == sorted((id(m), (n, rows, 2)) for m in models.values()
                                   for n in (6, 9))


@pytest.mark.parametrize("lengths", [[], [1], [1, 1, 1]])
def test_no_window_of_two_rows_is_a_data_error_before_any_filtering(lengths, monkeypatch):
    windows = [TimeSeries.complete(np.zeros((n, 2))) for n in lengths]
    calls = []
    monkeypatch.setattr(evaluate, "normalize", lambda *a: calls.append(a))
    with pytest.raises(DataError, match="two rows"):
        evaluate_grid({2: small_model()}, windows, [0.0, 0.5])
    assert not calls


@pytest.mark.parametrize("methods", [["bogus"], ["uprop", "median"]])
def test_unknown_method_is_a_config_error_naming_it(methods):
    windows = [TimeSeries.complete(np.zeros((5, 2)))]
    with pytest.raises(ConfigError, match=f"unknown evaluation method {methods[-1]!r}"):
        evaluate_grid({2: small_model()}, windows, rates=[0.0], methods=methods)


@pytest.mark.parametrize("rates", [[float("nan")], [-0.1], [0.0, 1.0]])
def test_a_rate_outside_zero_one_is_a_data_error_before_any_work(rates, monkeypatch):
    # NaN and negative rates would otherwise score undegraded windows
    windows = [TimeSeries.complete(np.zeros((5, 2)))]
    calls = []
    monkeypatch.setattr(evaluate, "normalize", lambda *a: calls.append(a))
    with pytest.raises(DataError, match=r"missing rate must be in \[0, 1\)"):
        evaluate_grid({2: small_model()}, windows, rates)
    assert not calls
