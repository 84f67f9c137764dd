"""Property tests for the invariants of beliefs that are not re-checked.

``step`` builds its belief without ``DistVector``'s checks, so these
properties pin what the checks would have enforced: every belief any
inference entry point emits has float64 1-D ``mu``/``sigma`` of length
``dims`` and ``sigma >= floor`` (or NaN), for random small models with
large-magnitude weights and inputs too. Also: ``kl >= 0``, and series
survive the CSV plus mask-sidecar round trip bit for bit.
"""

import contextlib
import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uprop import forecaster
from uprop.baselines import ImputePolicy, filter_series_imputed, mc_rollout
from uprop.data import TimeSeries, load_csv, save_csv
from uprop.forecaster import filter_series, rollout
from uprop.novelty import forecast_from_origin
from uprop.prob import DistVector, kl

from test_forecaster import small_model

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def model_and_series(draw):
    """A random model (weights up to 1e3) and a masked series (values up
    to 1e8), with a random prior."""
    dims = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    floor = draw(st.sampled_from([1e-3, 0.5]))
    model = small_model(dims=dims, hidden=draw(st.integers(1, 6)),
                        layers=draw(st.integers(1, 3)), seed=seed % 1000,
                        floor=floor)
    rng = np.random.default_rng(seed)
    weight_scale = draw(st.sampled_from([0.7, 30.0, 1e3]))
    for p in model.parameters():
        p.value[...] = rng.normal(scale=weight_scale, size=p.value.shape)
    model.refresh_frozen()
    steps = draw(st.integers(1, 12))
    values = rng.normal(scale=draw(st.sampled_from([1.0, 1e3, 1e8])),
                        size=(steps, dims))
    mask = rng.random((steps, dims)) >= draw(st.sampled_from([0.0, 0.3, 0.9]))
    values[~mask] = np.nan
    prior = DistVector(mu=rng.normal(size=dims), sigma=rng.uniform(0.0, 3.0, dims))
    return model, TimeSeries(values=values, mask=mask), prior


@contextlib.contextmanager
def emitted_beliefs():
    """Collect every belief ``step`` returns while the block runs; a
    batched belief ((B, N) arrays) is recorded as its B rows."""
    beliefs, original = [], forecaster.step

    def recording(model, inp, h):
        belief, h_next = original(model, inp, h)
        if belief.mu.ndim == 1:
            beliefs.append(belief)
        else:
            beliefs.extend(DistVector._unchecked(mu, sigma)
                           for mu, sigma in zip(belief.mu, belief.sigma))
        return belief, h_next

    forecaster.step = recording
    try:
        yield beliefs
    finally:
        forecaster.step = original


def assert_valid_belief(belief, model):
    for part in (belief.mu, belief.sigma):
        assert isinstance(part, np.ndarray)
        assert part.dtype == np.float64
        assert part.shape == (model.dims,)
    sigma = belief.sigma
    assert np.all((sigma >= model.squash.floor) | np.isnan(sigma)), sigma


@SETTINGS
@given(model_and_series(), st.data())
def test_every_emitted_belief_is_valid(msp, data):
    model, series, prior = msp
    origin = data.draw(st.integers(0, series.steps - 1))
    k = data.draw(st.integers(1, 5))
    context = [prior] * data.draw(st.integers(1, 4))
    with emitted_beliefs() as emitted:
        records = filter_series(model, series, prior)
        returned = [r.forecast.steps[0] for r in records]
        returned += forecast_from_origin(model, series, origin, k).steps
        returned += rollout(model, context, k).steps
        for kind in ("mean", "sample"):
            records = filter_series_imputed(model, series,
                                            ImputePolicy(kind=kind, seed=origin),
                                            prior)
            returned += [r.forecast.steps[0] for r in records]
        mean, std = mc_rollout(model, context, k, n_samples=3, seed=origin)
    assert len(emitted) == (3 * series.steps + origin + 1 + k - 1
                            + len(context) + k - 1 + len(context) + 3 * (k - 1))
    for belief in emitted + returned:
        assert_valid_belief(belief, model)
    assert mean.shape == std.shape == (k, model.dims)
    assert mean.dtype == std.dtype == np.float64


@st.composite
def belief_pairs(draw):
    """Two beliefs: independent, or q a relative perturbation of p as small
    as one rounding step."""
    dims = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = DistVector(mu=rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e4])), size=dims),
                   sigma=10.0 ** rng.uniform(-4, 4, dims))
    eps = draw(st.sampled_from([None, 0.0, 1e-16, 1e-12, 1e-8, 1e-3]))
    if eps is None:
        q = DistVector(mu=rng.normal(size=dims), sigma=10.0 ** rng.uniform(-4, 4, dims))
    else:
        q = DistVector(mu=p.mu + eps * rng.normal(size=dims) * np.abs(p.mu),
                       sigma=p.sigma * (1.0 + eps * rng.normal(size=dims)))
    return p, q


@settings(max_examples=300, deadline=None)
@given(belief_pairs())
def test_kl_is_nonnegative_and_zero_on_itself(pq):
    p, q = pq
    assert kl(p, q) >= 0.0
    assert kl(q, p) >= 0.0
    assert kl(p, p) == 0.0


@st.composite
def series_with_mask(draw):
    steps = draw(st.integers(1, 8))
    dims = draw(st.integers(1, 3))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(cells, min_size=steps * dims,
                                    max_size=steps * dims))).reshape(steps, dims)
    mask = np.array(draw(st.lists(st.booleans(), min_size=steps * dims,
                                  max_size=steps * dims))).reshape(steps, dims)
    values[~mask] = np.nan
    return TimeSeries(values=values, mask=mask, t0=draw(st.integers(-50, 50)))


@SETTINGS
@given(series_with_mask())
def test_csv_and_mask_sidecar_round_trip(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        save_csv(series, path)
        loaded = load_csv(path)
        sidecar = Path(tmp) / "s.mask.csv"
        assert sidecar.exists() == (not series.mask.all())
        if sidecar.exists():
            with sidecar.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["t"] + [f"dim_{d}" for d in range(series.dims)]
            assert [int(r[0]) for r in rows[1:]] == list(
                range(series.t0, series.t0 + series.steps))
            np.testing.assert_array_equal(
                np.array([[c == "1" for c in r[1:]] for r in rows[1:]]), series.mask)
    assert loaded.t0 == series.t0
    np.testing.assert_array_equal(loaded.mask, series.mask)
    # bitwise on observed cells (-0.0 and subnormals included), NaN elsewhere
    assert loaded.values.tobytes() == series.values.tobytes()
