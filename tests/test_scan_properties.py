"""Property tests for the inference scan: every entry point built on it
agrees bitwise with the others, for random small models and masks, and
the open loop (input rows known before the scan starts) is bitwise the
closed loop fed the same rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uprop import forecaster
from uprop.baselines import ImputePolicy, filter_series_imputed
from uprop.data import TimeSeries
from uprop.forecaster import _scan, encode_input, filter_series
from uprop.nn import zero_hidden
from uprop.novelty import forecast_from_origin, score_series
from uprop.prob import kl

from test_batch_properties import same_bits
from test_forecaster import belief_step, small_model

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def model_and_series(draw, complete=False):
    """A model with every weight random (the sigma-input channels too) and
    a series with a random mask."""
    dims = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    model = small_model(dims=dims, hidden=draw(st.integers(1, 6)),
                        layers=draw(st.integers(1, 3)), seed=seed % 1000)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
    model.refresh_frozen()
    steps = draw(st.integers(1, 16))
    values = rng.normal(size=(steps, dims))
    rate = 0.0 if complete else draw(st.sampled_from([0.2, 0.5, 0.9]))
    mask = rng.random((steps, dims)) >= rate
    values[~mask] = np.nan
    return model, TimeSeries(values=values, mask=mask, t0=draw(st.integers(0, 50)))


def assert_same_belief(a, b):
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def reference_forecast(model, series, origin, k):
    """forecast_from_origin written out as a loop over ``step``."""
    h, pred = zero_hidden(model.stack), None
    for t in range(origin + 1):
        inp = encode_input(series.values[t], pending=pred, mask=series.mask[t])
        pred, h = belief_step(model, inp, h)
    preds = [pred]
    for _ in range(k - 1):
        pred, h = belief_step(model, pred, h)
        preds.append(pred)
    return preds


@SETTINGS
@given(model_and_series(), st.data())
def test_forecast_from_origin_is_rollout_from_filter_state(ms, data):
    model, series = ms
    origin = data.draw(st.integers(0, series.steps - 1))
    k = data.draw(st.integers(1, 6))
    fc = forecast_from_origin(model, series, origin, k)
    assert fc.origin_t == series.t0 + origin and fc.horizon == k
    # self-feed from the state filter_series leaves after row origin
    head = TimeSeries(values=series.values[:origin + 1],
                      mask=series.mask[:origin + 1], t0=series.t0)
    records, h, pred = filter_series(model, head, return_state=True)
    want = [pred]
    for _ in range(k - 1):
        pred, h = belief_step(model, pred, h)
        want.append(pred)
    assert_same_belief(records[-1].forecast.steps[0], want[0])
    for got, a, b in zip(fc.steps, want, reference_forecast(model, series, origin, k)):
        assert_same_belief(got, a)
        assert_same_belief(got, b)


@SETTINGS
@given(model_and_series(), st.integers(1, 3), st.integers(0, 4))
def test_kl_scores_equal_kl_of_the_two_origin_forecasts_at_every_t(ms, near, extra):
    model, series = ms
    far = near + extra
    scores = score_series(model, series, "kl", near_offset=near, far_offset=far)
    assert [s.t for s in scores] == [series.t0 + t for t in range(far, series.steps)]
    for s in scores:
        t = s.t - series.t0
        p = forecast_from_origin(model, series, t - near, near).steps[-1]
        q = forecast_from_origin(model, series, t - far, far).steps[-1]
        assert s.value == kl(p, q)


@SETTINGS
@given(model_and_series(complete=True), st.sampled_from(["mean", "sample"]),
       st.integers(0, 100))
def test_imputed_filter_on_complete_data_is_filter_series(ms, kind, seed):
    model, series = ms
    want = filter_series(model, series)
    got = filter_series_imputed(model, series, ImputePolicy(kind=kind, seed=seed))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t
        assert_same_belief(a.input, b.input)
        assert_same_belief(a.forecast.steps[0], b.forecast.steps[0])


@st.composite
def model_and_rows(draw):
    """A model as in :func:`model_and_series` and 0 to 12 input rows, one
    series or a batch: a fully observed series (sigma half 0) or a
    context of beliefs."""
    model, series = draw(model_and_series(complete=True))
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    batch = draw(st.sampled_from([None, 1, 4]))
    shape = (draw(st.integers(0, 12)),) + (() if batch is None else (batch,))
    mu = rng.normal(scale=2.0, size=shape + (model.dims,))
    sigma = (np.zeros(mu.shape) if draw(st.booleans())
             else rng.uniform(0.0, 2.0, mu.shape))
    return model, np.concatenate([mu, sigma], axis=-1), batch


@SETTINGS
@given(model_and_rows())
def test_the_open_loop_is_the_closed_loop_bit_for_bit(mrb):
    model, rows, batch = mrb
    n = rows.shape[0]
    runs = []
    for policy in (rows, lambda t, _: rows[t]):
        snapshots = []
        runs.append(_scan(model, n, policy, h=zero_hidden(model.stack, batch),
                          snapshots=snapshots) + (snapshots,))
    (inputs, preds, h, snaps), (c_inputs, c_preds, c_h, c_snaps) = runs
    assert len(inputs) == len(preds) == len(snaps) == n
    for got, want in ((inputs, c_inputs), (preds, c_preds), (h, c_h)):
        assert len(got) == len(want)
        assert all(same_bits(a, b) for a, b in zip(got, want))
    for got, want in zip(snaps, c_snaps):
        assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "gappy"])
def test_only_a_gappy_filter_calls_step(monkeypatch, complete):
    model = small_model(dims=2, hidden=4, layers=2, seed=8)
    rng = np.random.default_rng(8)
    values = rng.normal(size=(11, 2))
    mask = np.ones(values.shape, bool) if complete else rng.random(values.shape) >= 0.3
    assert mask.all() == complete
    values[~mask] = np.nan
    series = TimeSeries(values=values, mask=mask)
    calls = {"step": 0, "fused_stack_step": 0}
    for name in calls:
        original = getattr(forecaster, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(forecaster, name, counting)
    filter_series(model, series)
    assert calls == {"step": 0 if complete else series.steps,
                     "fused_stack_step": series.steps}
