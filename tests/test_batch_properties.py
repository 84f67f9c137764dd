"""Property tests for row independence of the batched inference paths.

The evaluation grid, KL scoring and Monte-Carlo rollouts step many rows
at once, and each row must be bitwise the row stepped alone. These
properties pin that, for random small models and masks: the stacked
matrix product, a batched filter against ``filter_series`` and
``filter_series_imputed``, the pre-drawn sample policy and ``mc_rollout``
against loops over ``step`` and ``rng.normal``, and ``evaluate_grid``
against per-window passes. Every comparison is on the bytes, so a numpy
whose stacked matmul or ``normal`` changes its arithmetic fails here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uprop.baselines import (IMPUTE_CLAMP, ImputePolicy, filter_series_imputed,
                             impute_noise, mc_rollout)
from uprop.data import TimeSeries, emulate_missing
from uprop.evaluate import derive_seed, evaluate_grid
from uprop.forecaster import _feed, _filter_batch, filter_series
from uprop.nn import (GruCell, GruStackParams, fused_stack_step, gate_buffers, matvec,
                      zero_hidden)
from uprop.prob import DistVector, nll

from test_forecaster import belief_step, small_model

SETTINGS = settings(max_examples=30, deadline=None)
KINDS = ("uprop", "mean", "sample")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_model(draw, dims):
    """A small model with every weight random, the sigma inputs too."""
    seed = draw(st.integers(0, 2**32 - 1))
    model = small_model(dims=dims, hidden=draw(st.integers(1, 6)),
                        layers=draw(st.integers(1, 3)), seed=seed % 1000)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
    model.refresh_frozen()
    return model, rng


def random_series(rng, steps, dims, rate):
    values = rng.normal(size=(steps, dims))
    mask = rng.random((steps, dims)) >= rate
    values[~mask] = np.nan
    return TimeSeries(values=values, mask=mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 70), st.integers(1, 64),
       st.integers(0, 2**32 - 1), st.booleans())
def test_matvec_rows_equal_products_row_by_row(m, n, batch, seed, strided):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(m, n))
    x = rng.normal(size=(batch, 2 * n if strided else n))[:, :n]
    got = matvec(w, x)
    assert got.shape == (batch, m)
    for b in range(batch):
        assert same_bits(got[b], w @ x[b])
    assert same_bits(matvec(w, x[0]), w @ x[0])


# (3h, in) and (2N, h) blocks of a cell and a readout, the 3x64 default among them
CELL_SHAPES = st.sampled_from([(192, 64), (192, 6), (6, 64), (96, 32), (96, 4), (4, 32)])


@settings(max_examples=60, deadline=None)
@given(CELL_SHAPES | st.tuples(st.integers(1, 200), st.integers(1, 70)),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_one_row_matvec_into_a_buffer_equals_matmul(shape, stride, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(m, n))
    x = rng.normal(size=stride * n)[::stride]
    out = np.empty(m)
    assert matvec(w, x, out) is out
    assert same_bits(out, w @ x)
    assert same_bits(matvec(w, x), w @ x)


def random_stack(rng, n_in, hidden, layers):
    """A stack with every weight and bias random, some gates saturating."""
    cells = []
    for i in range(layers):
        width = n_in if i == 0 else hidden
        cells.append(GruCell(*(rng.normal(scale=1.5, size=size) for size in
                              [(3 * hidden, width), (3 * hidden, hidden),
                               3 * hidden, hidden])))
    return GruStackParams(cells)


def assert_batched_steps_equal_rows_alone(stack, x, h, steps=2):
    """``steps`` batched stack steps from the input rows ``x`` and states
    ``h``, on one set of buffers, against each row stepped alone on its
    own, on the bytes of every layer's state."""
    batch = gate_buffers(stack.layers, x.shape[:1])
    one = gate_buffers(stack.layers, ())
    rows = [[layer[b] for layer in h] for b in range(x.shape[0])]
    with np.errstate(over="ignore"):
        for _ in range(steps):
            _, h = fused_stack_step(stack, x, h, batch)
            rows = [fused_stack_step(stack, x[b], hb, one)[1] for b, hb in enumerate(rows)]
            for b, hb in enumerate(rows):
                assert all(same_bits(layer[b], hl) for layer, hl in zip(h, hb))


# hidden sizes on both sides of the SIMD widths, which the gate-major
# blocks of a batch split into other tails than one row's (3h,) buffers
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 31, 32, 33, 64]), st.integers(1, 8),
       st.integers(1, 2), st.integers(2, 130), st.integers(0, 2**32 - 1))
def test_batched_cell_steps_equal_each_row_alone(hidden, n_in, layers, batch, seed):
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, n_in, hidden, layers)
    assert_batched_steps_equal_rows_alone(
        stack, rng.normal(scale=3.0, size=(batch, n_in)),
        [rng.normal(size=(batch, hidden)) for _ in range(layers)])


def test_a_deep_wide_batch_steps_each_row_as_alone():
    # the default 3x64 stack on a large batch, where the products dominate
    rng = np.random.default_rng(592)
    stack = random_stack(rng, 6, 64, 3)
    assert_batched_steps_equal_rows_alone(
        stack, rng.normal(size=(592, 6)), [rng.normal(size=(592, 64)) for _ in range(3)])


@SETTINGS
@given(st.data())
def test_feed_rows_equal_np_where_on_one_row_and_on_a_batch(data):
    # on a batch, the first step broadcasts the (2N,) prior to every row
    dims = data.draw(st.integers(1, 4))
    shape = (data.draw(st.integers(1, 6)),) + data.draw(st.sampled_from([(), (1,), (4,)]))
    mask = data.draw(hnp.arrays(bool, shape + (dims,)))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    values = np.where(mask, rng.normal(size=mask.shape), np.nan)
    prior = DistVector(mu=rng.normal(size=dims), sigma=rng.uniform(0.0, 2.0, dims))
    policy = _feed(values, mask, prior, "uprop", None)
    observed = np.concatenate([mask, mask], axis=-1)
    given_rows = np.concatenate([values, np.zeros(values.shape)], axis=-1)
    pending = None
    for t in range(shape[0]):
        x = policy(t, pending)
        fallback = prior.flat() if pending is None else pending
        assert same_bits(x, np.where(observed[t], given_rows[t], fallback))
        pending = rng.normal(size=x.shape)


@st.composite
def model_and_batch(draw):
    """A model and B equal-length series, each with its own method and seed."""
    dims = draw(st.integers(1, 3))
    model, rng = random_model(draw, dims)
    steps = draw(st.integers(1, 14))
    rate = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    batch = draw(st.integers(1, 9))
    series = [random_series(rng, steps, dims, rate) for _ in range(batch)]
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=batch, max_size=batch))
    seeds = draw(st.lists(st.integers(0, 1000), min_size=batch, max_size=batch))
    return model, series, kinds, seeds


@SETTINGS
@given(model_and_batch())
def test_batched_filter_equals_each_series_alone(mb):
    model, series, kinds, seeds = mb
    values = np.stack([s.values for s in series], axis=1)
    mask = np.stack([s.mask for s in series], axis=1)
    noise = np.stack([impute_noise(s.mask, seed) if kind == "sample" else np.zeros(s.mask.shape)
                      for s, kind, seed in zip(series, kinds, seeds)], axis=1)
    belief = DistVector._of_row(_filter_batch(model, values, mask, kinds, noise))
    mu, sigma = belief.mu, belief.sigma
    assert mu.shape == sigma.shape == values.shape
    for b, (s, kind, seed) in enumerate(zip(series, kinds, seeds)):
        if kind == "uprop":
            alone = filter_series(model, s)
        else:
            alone = filter_series_imputed(model, s, ImputePolicy(kind=kind, seed=seed))
        assert same_bits(mu[:, b], np.stack([r.forecast.steps[0].mu for r in alone]))
        assert same_bits(sigma[:, b], np.stack([r.forecast.steps[0].sigma for r in alone]))


def reference_sample_filter(model, series, seed, prior):
    """The sample policy written out as a loop that draws ``rng.normal``
    at each step with a missing cell."""
    rng = np.random.default_rng(seed)
    h, pending, out = zero_hidden(model.stack), None, []
    for row, observed in zip(series.values, series.mask):
        fallback = prior if pending is None else pending
        fill = row
        if not observed.all():
            fill = np.clip(rng.normal(fallback.mu, fallback.sigma),
                           -IMPUTE_CLAMP, IMPUTE_CLAMP)
        inp = DistVector(mu=np.where(observed, row, fill), sigma=np.zeros(model.dims))
        pending, h = belief_step(model, inp, h)
        out.append((inp, pending))
    return out


@SETTINGS
@given(st.data())
def test_sample_policy_equals_a_loop_over_rng_normal(data):
    dims = data.draw(st.integers(1, 3))
    model, rng = random_model(data.draw, dims)
    series = random_series(rng, data.draw(st.integers(1, 16)), dims,
                           data.draw(st.sampled_from([0.2, 0.5, 0.9])))
    prior = DistVector(mu=rng.normal(scale=3.0, size=dims),
                       sigma=rng.uniform(0.0, 5.0, dims))
    seed = data.draw(st.integers(0, 1000))
    got = filter_series_imputed(model, series, ImputePolicy("sample", seed), prior)
    want = reference_sample_filter(model, series, seed, prior)
    assert len(got) == len(want)
    for record, (inp, belief) in zip(got, want):
        assert same_bits(record.input.mu, inp.mu)
        assert same_bits(record.input.sigma, inp.sigma)
        assert same_bits(record.forecast.steps[0].mu, belief.mu)
        assert same_bits(record.forecast.steps[0].sigma, belief.sigma)


def reference_mc_rollout(model, context, k, n_samples, seed):
    """``mc_rollout`` as one loop over ``step`` and ``rng.normal`` per
    trajectory."""
    h, pending = zero_hidden(model.stack), None
    for inp in context:
        pending, h = belief_step(model, inp, h)
    start = (pending, h)
    trajectories = []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        pred, h = start
        path = []
        for _ in range(k - 1):
            draw = rng.normal(pred.mu, pred.sigma)
            path.append(draw)
            pred, h = belief_step(model, DistVector.observed(draw), h)
        path.append(rng.normal(pred.mu, pred.sigma))
        trajectories.append(path)
    trajectories = np.array(trajectories)
    return trajectories.mean(axis=0), trajectories.std(axis=0)


@SETTINGS
@given(st.data())
def test_mc_rollout_equals_a_loop_over_step_and_rng_normal(data):
    dims = data.draw(st.integers(1, 3))
    model, rng = random_model(data.draw, dims)
    context = [DistVector(mu=rng.normal(size=dims), sigma=rng.uniform(0.0, 2.0, dims))
               for _ in range(data.draw(st.integers(1, 6)))]
    k = data.draw(st.integers(1, 6))
    n_samples = data.draw(st.integers(2, 12))
    seed = data.draw(st.integers(0, 2**32 - 1))
    mean, std = mc_rollout(model, context, k, n_samples, seed)
    want_mean, want_std = reference_mc_rollout(model, context, k, n_samples, seed)
    assert same_bits(mean, want_mean)
    assert same_bits(std, want_std)


def reference_grid(models, windows, rates, methods, seed):
    """``evaluate_grid`` as one filter pass per window, scored step by
    step with running sums."""
    lookaheads = sorted(models)
    cells = np.zeros((len(rates), len(lookaheads), len(methods)))
    for ri, rate in enumerate(rates):
        degraded = [emulate_missing(w, rate, derive_seed(seed, "missing", rate, wi))
                    if rate > 0 else w for wi, w in enumerate(windows)]
        for ki, k in enumerate(lookaheads):
            for mi, method in enumerate(methods):
                total, count = 0.0, 0
                for wi, (truth, series) in enumerate(zip(windows, degraded)):
                    if method == "uprop":
                        steps = filter_series(models[k], series)
                    else:
                        policy = ImputePolicy(
                            method, derive_seed(seed, "impute", rate, k, method, wi))
                        steps = filter_series_imputed(models[k], series, policy)
                    window_total = 0.0
                    for t in range(1, truth.steps):
                        window_total += nll(steps[t - 1].forecast.steps[0], truth.values[t])
                        count += truth.dims
                    total += window_total
                cells[ri, ki, mi] = total / count
    return cells


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_evaluate_grid_equals_per_window_passes(data):
    dims = data.draw(st.integers(1, 3))
    models = {}
    for k in (2, 4):
        models[k], rng = random_model(data.draw, dims)
    # one window of two rows or more, so that there is a point to score
    lengths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=6)) + [
        data.draw(st.integers(2, 12))]
    windows = [TimeSeries.complete(rng.normal(size=(n, dims))) for n in lengths]
    methods = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3,
                                 unique=True))
    # repeated rates too: each is its own row of the grid, with the same cells
    rates = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.7]), min_size=1,
                               max_size=4))
    seed = data.draw(st.integers(0, 1000))
    got = evaluate_grid(models, windows, rates, methods, seed)
    assert same_bits(got.cells, reference_grid(models, windows, rates, methods, seed))
