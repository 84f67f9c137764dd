"""The training kernels' work set (``nn.train_buffers``).

``train`` makes one set per call and runs every batch on prefixes of it.
The oracle is a fresh set sized for each batch alone: one set reused
over any sequence of batches must give the same losses and gradients,
byte for byte.
"""

import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_batch_loss import batch, make_model
from uprop import forecaster
from uprop import tensor as tn
from uprop.data import TimeSeries
from uprop.errors import ShapeError
from uprop.forecaster import TrainConfig, _batch_loss
from uprop.nn import (init_gru_stack, train_buffers, window_batch_backward,
                      window_batch_forward, zero_grad)


def loss_and_grads(model, X, anchors, k, masks, work):
    params = model.parameters()
    zero_grad(params)
    loss, losses = _batch_loss(model, X, anchors, k, masks, work)
    tn.backward(loss)
    return [losses] + [p.grad for p in params]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3), hidden=st.integers(1, 6),
       layers=st.integers(1, 3), dropout=st.sampled_from([0.0, 0.3]),
       rows=st.integers(1, 5), L=st.integers(4, 16), seed=st.integers(0, 2**16))
def test_one_set_over_many_batches_equals_a_fresh_set_per_batch(
        data, dims, hidden, layers, dropout, rows, L, seed):
    model = make_model(dims, hidden, layers, dropout, 1, L, seed)
    work = train_buffers(model.stack.layers, rows, L - 1)
    # the first batch stops short of step L - 1 and the second reaches it,
    # so the second reads prefixes the first laid out for another shape
    plan = [(True, data.draw(st.integers(1, L - 2)))]
    plan += [(False, data.draw(st.integers(1, L - 1)))
             for _ in range(data.draw(st.integers(1, 3)))]
    for i, (short, k) in enumerate(plan):
        B = data.draw(st.integers(1, rows))
        top = L - k - 1 if short else L - k
        anchors = data.draw(st.lists(st.integers(1, top), min_size=B, max_size=B))
        if i == 1:
            anchors[-1] = L - k
        X, masks = batch(model, B, L, k, anchors, seed + i)
        got = loss_and_grads(model, X, anchors, k, masks, work)
        want = loss_and_grads(model, X, anchors, k, masks,
                              train_buffers(model.stack.layers, B, L - 1))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("rows, steps, hidden", [(2, 9, 3), (3, 8, 3), (3, 9, 4)],
                         ids=["wider", "longer", "other-layers"])
def test_a_batch_that_does_not_fit_its_set_is_refused(rows, steps, hidden):
    # three windows over max(anchor) + k - 1 = 9 steps
    model = make_model(dims=2, hidden=3, layers=2, dropout=0.0, k=2, L=10, seed=4)
    other = make_model(dims=2, hidden=hidden, layers=2, dropout=0.0, k=2, L=10, seed=4)
    work = train_buffers(other.stack.layers, rows, steps)
    with pytest.raises(ShapeError, match="does not fit a work set"):
        _batch_loss(model, np.zeros((3, 10, 2)), [8, 3, 5], 2, None, work)


def test_rows_of_other_series_than_the_stack_takes_are_refused():
    # layer 0's input region is as wide as the stack's input, so a
    # narrower (x, 0) row would fill it short and silently
    model = make_model(dims=2, hidden=3, layers=1, dropout=0.0, k=2, L=10, seed=4)
    work = train_buffers(model.stack.layers, 3, 9)
    with pytest.raises(ShapeError, match="takes 4 inputs"):
        _batch_loss(model, np.zeros((3, 10, 1)), [8, 3, 5], 2, None, work)


def test_a_loss_whose_set_a_later_forward_overwrote_is_refused():
    # the gradients are formed lazily, from a cache of views of the set,
    # so the first loss's backward would read the second batch's arrays
    model = make_model(dims=2, hidden=3, layers=2, dropout=0.3, k=2, L=10, seed=8)
    work = train_buffers(model.stack.layers, 3, 9)
    X, masks = batch(model, 3, 10, 2, [8, 3, 5], seed=8)
    first, _ = _batch_loss(model, X, [8, 3, 5], 2, masks, work)
    second, _ = _batch_loss(model, X[::-1], [5, 3, 8], 2, masks[::-1], work)
    zero_grad(model.parameters())
    with pytest.raises(ShapeError, match="one backward of its latest forward"):
        tn.backward(first)
    tn.backward(second)


def test_a_loss_whose_set_then_ran_a_forward_of_another_width_is_refused():
    # a batch's state lives on its set, and a batch of another width lays
    # the set out afresh, so the first loss's backward would read the
    # second batch's state through the second batch's layout
    model = make_model(dims=2, hidden=3, layers=2, dropout=0.3, k=2, L=10, seed=10)
    work = train_buffers(model.stack.layers, 3, 9)
    X, masks = batch(model, 3, 10, 2, [8, 3, 5], seed=10)
    X2, masks2 = batch(model, 2, 10, 2, [4, 6], seed=11)
    first, _ = _batch_loss(model, X, [8, 3, 5], 2, masks, work)
    second, losses = _batch_loss(model, X2, [4, 6], 2, masks2, work)
    zero_grad(model.parameters())
    with pytest.raises(ShapeError, match="one backward of its latest forward"):
        tn.backward(first)
    tn.backward(second)
    got = [losses] + [p.grad for p in model.parameters()]
    want = loss_and_grads(model, X2, [4, 6], 2, masks2,
                          train_buffers(model.stack.layers, 2, 9))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_refused_forward_leaves_the_latest_loss_intact():
    # the fit check runs before a forward writes any of its state on the
    # set, so a batch the set cannot hold changes nothing a loss reads
    model = make_model(dims=2, hidden=3, layers=2, dropout=0.3, k=2, L=10, seed=12)
    work = train_buffers(model.stack.layers, 3, 9)
    X, masks = batch(model, 3, 10, 2, [8, 3, 5], seed=12)
    wide, wide_masks = batch(model, 4, 10, 2, [2, 2, 2, 2], seed=13)
    loss, losses = _batch_loss(model, X, [8, 3, 5], 2, masks, work)
    with pytest.raises(ShapeError, match="does not fit a work set"):
        _batch_loss(model, wide, [2, 2, 2, 2], 2, wide_masks, work)
    zero_grad(model.parameters())
    tn.backward(loss)
    got = [losses] + [p.grad for p in model.parameters()]
    want = loss_and_grads(model, X, [8, 3, 5], 2, masks,
                          train_buffers(model.stack.layers, 3, 9))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_cache_serves_one_backward():
    # the backward forms the factors in place over the candidate and
    # U_n h + b_hn that the forward left in the step gradients' slots
    model = make_model(dims=2, hidden=3, layers=1, dropout=0.0, k=2, L=10, seed=9)
    work = train_buffers(model.stack.layers, 3, 9)
    X, _ = batch(model, 3, 10, 2, [8, 3, 5], seed=9)
    _, cache = window_batch_forward(model.stack, model.readout, 1e-3, X, [8, 3, 5], 2,
                                    None, work)
    window_batch_backward(cache)
    with pytest.raises(ShapeError, match="one backward of its latest forward"):
        window_batch_backward(cache)


def test_a_warm_set_allocates_no_step_array():
    # the peak of what a warm batch allocates stays below one (T, B, h)
    # array, so no such block is made; at N = 1, T * B = 3808 and h = 64
    # what is still allocated per batch (the (T, B, 2N) readout arrays,
    # the weight-sized transposes and gradients, numpy's ufunc buffers)
    # peaks at about seven tenths of one
    L, k, B, hidden = 120, 4, 32, 64
    model = make_model(dims=1, hidden=hidden, layers=2, dropout=0.3, k=k, L=L, seed=5)
    X, masks = batch(model, B, L, k, [L - k] * B, seed=5)
    work = train_buffers(model.stack.layers, B, L - 1)
    loss_and_grads(model, X, [L - k] * B, k, masks, work)
    tracemalloc.start()
    try:
        loss_and_grads(model, X, [L - k] * B, k, masks, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (L - 1) * B * hidden * 8, peak


def test_the_set_holds_only_what_the_step_loops_read():
    # one batch of 16 windows over 119 steps at the default 3x64 shape on
    # (x, 0) rows of 3 series: 1 350 floats per step and window, 2 566
    # with regions for the c-gradients (rebuilt from d_a after the step
    # loop), the update-gate factor, the candidate and U_n h + b_hn (all
    # three in d_a's slot of their step, until its gradients overwrite
    # them) and the masked outputs (a (B, h) scratch per step, rebuilt in
    # the one temp region of all layers)
    cells = init_gru_stack(6, 64, 3, np.random.default_rng(0)).layers
    work = train_buffers(cells, 16, 119)
    assert set(work.regions) == {"xin", "masks", "hs", "rz", "d_a", "temp"}
    assert work.flat.nbytes < 21_000_000, work.flat.nbytes


def test_gradients_are_fresh_arrays_not_views_of_the_set():
    model = make_model(dims=2, hidden=4, layers=3, dropout=0.3, k=3, L=12, seed=6)
    X, masks = batch(model, 4, 12, 3, [9, 2, 6, 4], seed=6)
    work = train_buffers(model.stack.layers, 4, 11)
    grads = loss_and_grads(model, X, [9, 2, 6, 4], 3, masks, work)[1:]
    assert not any(np.may_share_memory(g, work.flat) for g in grads)


@pytest.mark.parametrize("n_windows, batch_size, rows", [(10, 4, 4), (3, 32, 3)],
                         ids=["short-last-batch", "fewer-windows-than-a-batch"])
def test_train_makes_one_set_per_call_and_unmaps_it_on_return(
        monkeypatch, n_windows, batch_size, rows):
    made = []

    def counting(cells, rows, steps):
        work = train_buffers(cells, rows, steps)
        mapping = work.flat.base.obj
        assert isinstance(mapping, mmap.mmap)
        made.append(((rows, steps), weakref.ref(mapping)))
        return work

    monkeypatch.setattr(forecaster, "train_buffers", counting)
    rng = np.random.default_rng(7)
    windows = [TimeSeries.complete(rng.normal(size=(12, 2))) for _ in range(n_windows)]
    cfg = TrainConfig(lookahead=2, window_length=12, epochs=3, batch_size=batch_size,
                      n_layers=2, hidden_size=3, dropout=0.3)
    forecaster.train(windows, cfg)
    assert [shape for shape, _ in made] == [(rows, 11)]
    assert made[0][1]() is None
