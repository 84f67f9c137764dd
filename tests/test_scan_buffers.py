"""The inference scan steps on buffers that each call owns.

Every belief an entry point returns is a view of a row that no later step
writes, and every hidden state it keeps (the resume cursor, the KL
snapshots) is an array that no step writes in place. So writing into
anything a call returns changes no other returned belief and no later
call, and two threads that scan one model at once each get what one
thread alone gets.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uprop.baselines import mc_rollout
from uprop.data import TimeSeries
from uprop.forecaster import encode_input, filter_series
from uprop.nn import GruCell, fused_cell_forward, gate_buffers, zero_hidden
from uprop.novelty import forecast_from_origin, score_series
from uprop.prob import DistVector, kl

from test_batch_properties import reference_mc_rollout, same_bits
from test_forecaster import belief_step, small_model
from test_scan_properties import assert_same_belief, model_and_series, reference_forecast


def reference_filter(model, series):
    """``filter_series`` as a loop over ``step``: (input, forecast) per row."""
    h, pred, out = zero_hidden(model.stack), None, []
    for t in range(series.steps):
        inp = encode_input(series.values[t], pending=pred, mask=series.mask[t])
        pred, h = belief_step(model, inp, h)
        out.append((inp, pred))
    return out


def reference_kl(model, series, near, far):
    return [kl(reference_forecast(model, series, t - near, near)[-1],
               reference_forecast(model, series, t - far, far)[-1])
            for t in range(far, series.steps)]


def scribble(*arrays):
    for a in arrays:
        a[...] = 9.0


@settings(max_examples=30, deadline=None)
@given(model_and_series(), st.data())
def test_writing_into_returned_beliefs_changes_nothing_else(ms, data):
    model, series = ms
    origin = data.draw(st.integers(0, series.steps - 1))
    k = data.draw(st.integers(1, 4))
    near = data.draw(st.integers(1, 2))
    far = near + data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    context = [DistVector(mu=rng.normal(size=model.dims),
                          sigma=rng.uniform(0.0, 2.0, model.dims)) for _ in range(3)]
    want_filter = reference_filter(model, series)
    want_forecast = reference_forecast(model, series, origin, k)
    want_kl = reference_kl(model, series, near, far)
    want_mc = reference_mc_rollout(model, context, k, 3, origin)

    for _ in range(2):      # the second round runs after every scribble
        records = filter_series(model, series)
        for i, record in enumerate(records):
            scribble(record.input.mu, record.input.sigma,
                     record.forecast.steps[0].mu, record.forecast.steps[0].sigma)
            for later, (inp, pred) in zip(records[i + 1:], want_filter[i + 1:]):
                assert_same_belief(later.input, inp)
                assert_same_belief(later.forecast.steps[0], pred)
        # the same origin twice: the second call resumes from the cursor
        for _ in range(2):
            steps = forecast_from_origin(model, series, origin, k).steps
            for i, belief in enumerate(steps):
                assert_same_belief(belief, want_forecast[i])
                scribble(belief.mu, belief.sigma)
                for later, want in zip(steps[i + 1:], want_forecast[i + 1:]):
                    assert_same_belief(later, want)
        scores = score_series(model, series, "kl", near_offset=near, far_offset=far)
        assert [s.value for s in scores] == want_kl
        mean, std = mc_rollout(model, context, k, 3, origin)
        assert same_bits(mean, want_mc[0]) and same_bits(std, want_mc[1])
        scribble(mean, std)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.sampled_from([(), (1,), (3,), (17,)]),
       st.integers(0, 1000))
def test_a_cell_step_writes_only_its_products_and_returns_a_fresh_state(
        n_in, hidden, shape, seed):
    rng = np.random.default_rng(seed)
    cell = GruCell(n_in, hidden, *(rng.normal(size=size) for size in
                                   [(3 * hidden, n_in), (3 * hidden, hidden),
                                    3 * hidden, hidden]))
    buf = gate_buffers([cell], shape)[0]
    # the buffers hold the cell's own weight arrays, not copies
    assert all(any(entry is w for entry in buf) for w in cell.weights())
    # the products, and for a batch their gate-major copies; one row
    # steps on its products' own contiguous blocks and copies nothing
    a, b, lay = buf[:3]
    assert (lay is None) == (shape == ())
    written = [a, b] if lay is None else [a, b, lay[0], lay[2]]
    if lay is not None:
        assert np.shares_memory(lay[1], a) and np.shares_memory(lay[3], b)
    arrays = [entry for entry in buf if isinstance(entry, np.ndarray)] + list(lay or ())
    # every gate view a step reads is one contiguous block
    assert all(view.flags.c_contiguous for view in buf[3:11])
    read_only = [entry for entry in arrays
                 if not any(np.shares_memory(entry, w) for w in written)]
    kept = [entry.copy() for entry in read_only]
    x = rng.normal(size=shape + (n_in,))
    h = rng.normal(size=shape + (hidden,))
    for _ in range(3):
        inputs = (x.copy(), h.copy())
        h_next = fused_cell_forward(x, h, buf)
        assert same_bits(h_next, fused_cell_forward(x, h, gate_buffers([cell], shape)[0]))
        assert same_bits(x, inputs[0]) and same_bits(h, inputs[1])
        assert all(same_bits(a, b) for a, b in zip(read_only, kept))
        assert not any(np.shares_memory(h_next, a) for a in (*arrays, x, h))
        x, h = rng.normal(size=x.shape), h_next
    # an in-place weight edit is seen by the next step on the same buffers
    cell.u *= 0.5
    assert same_bits(fused_cell_forward(x, h, buf),
                     fused_cell_forward(x, h, gate_buffers([cell], shape)[0]))


def test_threads_scanning_one_model_get_the_single_thread_output():
    model = small_model(dims=2, hidden=5, layers=3, seed=11)
    rng = np.random.default_rng(11)
    series = []
    for _ in range(4):
        values = rng.normal(size=(30, 2))
        mask = rng.random((30, 2)) >= 0.3
        values[~mask] = np.nan
        series.append(TimeSeries(values=values, mask=mask))

    def outputs(s):
        records = filter_series(model, s)
        scores = score_series(model, s, "kl", near_offset=1, far_offset=4)
        rows = [np.concatenate([r.input.flat(), r.forecast.steps[0].flat()])
                for r in records]
        return np.stack(rows).tobytes(), [score.value for score in scores]

    want = [outputs(s) for s in series]
    wrong = []

    def run(i):
        for _ in range(4):
            if outputs(series[i]) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(series))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
