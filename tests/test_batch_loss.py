"""The fused training op: ``_batch_loss`` and its hand-written BPTT.

Oracles: central finite differences (the tolerance of acceptance
criterion 1), the batch-of-one calls of the same op, and a loop over the
unfused reference GRU (``gru_reference.gru_stack_step``, with the same
dropout masks) that scores each window on its own.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gru_reference import gru_stack_step
from uprop import tensor as tn
from uprop.data import NormStats
from uprop.forecaster import (TrainConfig, _batch_loss, _context_masks,
                              build_model)
from uprop.nn import (dropout_mask, freeze_linear, train_buffers, zero_grad,
                      zero_hidden)
from uprop.prob import LN_2PI, squash_sigma


def make_model(dims, hidden, layers, dropout, k, L, seed):
    cfg = TrainConfig(lookahead=k, window_length=L, n_layers=layers,
                      hidden_size=hidden, dropout=dropout, seed=seed)
    rng = np.random.default_rng(seed)
    model = build_model(dims, cfg, NormStats(mean=np.zeros(dims),
                                             std=np.ones(dims)), rng)
    # give the sigma-input columns weight, so the fed-back sigma matters
    model.stack.layers[0].w.value[:, dims:] = rng.uniform(-0.5, 0.5, size=(3 * hidden, dims))
    return model


def batch(model, B, L, k, anchors, seed):
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(B, L, model.dims))
    masks = [_context_masks(model, a, rng) for a in anchors]
    return X, None if masks[0] is None else masks


def fresh_batch_loss(model, X, anchors, k, masks):
    """``_batch_loss`` on a fresh work set sized for this batch alone."""
    B, L = np.shape(X)[:2]
    return _batch_loss(model, X, anchors, k, masks,
                       train_buffers(model.stack.layers, B, L - 1))


def loss_and_grads(model, X, anchors, k, masks):
    params = model.parameters()
    zero_grad(params)
    loss, losses = fresh_batch_loss(model, X, anchors, k, masks)
    tn.backward(loss)
    return float(loss.value), losses, [p.grad.copy() for p in params]


def loop_losses(model, X, anchors, k, masks):
    """Each window scored alone by stepping the unfused reference GRU."""
    readout = freeze_linear(model.readout)
    N = model.dims
    out = []
    for b, (x, anchor) in enumerate(zip(X, anchors)):
        h = zero_hidden(model.stack)
        for t in range(anchor):
            row_masks = None if masks is None else list(masks[b][t])
            top, h = gru_stack_step(model.stack, np.concatenate([x[t], np.zeros(N)]),
                                    h, row_masks)
        total = 0.0
        for j in range(k):
            raw = readout.weight @ top + readout.bias
            mu, sigma = raw[:N], squash_sigma(raw[N:], model.train_config.sigma_floor)
            z = (x[anchor + j] - mu) / sigma
            total += np.sum(np.log(sigma)) + 0.5 * np.sum(z * z) + N * 0.5 * LN_2PI
            top, h = gru_stack_step(model.stack, np.concatenate([mu, sigma]), h)
        out.append(total / (k * N))
    return np.array(out)


def test_gradients_match_finite_differences():
    L, k, anchors = 9, 3, [2, 6, 4]
    model = make_model(dims=2, hidden=3, layers=2, dropout=0.2, k=k, L=L, seed=7)
    X, masks = batch(model, 3, L, k, anchors, seed=7)
    assert masks is not None and not all(np.all(m > 0) for m in masks)
    _, _, grads = loss_and_grads(model, X, anchors, k, masks)

    def loss_value():
        loss, _ = fresh_batch_loss(model, X, anchors, k, masks)
        return float(loss.value)

    eps, worst = 1e-5, 0.0
    for p, grad in zip(model.parameters(), grads):
        flat, grad = p.value.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_value()
            flat[i] = orig - eps
            lm = loss_value()
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6))
    assert worst <= 1e-4


def check_against_batches_of_one(model, X, anchors, k, masks):
    loss, losses, grads = loss_and_grads(model, X, anchors, k, masks)
    singles = [loss_and_grads(model, X[b:b + 1], [a], k,
                              None if masks is None else [masks[b]])
               for b, a in enumerate(anchors)]
    np.testing.assert_allclose(losses, [s[0] for s in singles], rtol=1e-12)
    assert np.isclose(loss, np.mean(losses), rtol=1e-12, atol=0.0)
    for i, grad in enumerate(grads):
        mean = np.mean([s[2][i] for s in singles], axis=0)
        np.testing.assert_allclose(grad, mean, rtol=1e-12,
                                   atol=1e-12 * np.abs(mean).max())
    np.testing.assert_allclose(losses, loop_losses(model, X, anchors, k, masks),
                               rtol=1e-12)


def test_batch_equals_mean_of_batches_of_one_and_the_inference_loop():
    L, k, anchors = 30, 4, [5, 26, 12, 1, 19]
    model = make_model(dims=3, hidden=6, layers=3, dropout=0.3, k=k, L=L, seed=3)
    X, masks = batch(model, len(anchors), L, k, anchors, seed=3)
    check_against_batches_of_one(model, X, anchors, k, masks)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3), hidden=st.integers(1, 6),
       layers=st.integers(1, 3), dropout=st.sampled_from([0.0, 0.4]),
       k=st.integers(1, 5), B=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_random_shapes_match_batches_of_one_and_the_inference_loop(
        data, dims, hidden, layers, dropout, k, B, seed):
    L = k + data.draw(st.integers(1, 12))
    anchors = data.draw(st.lists(st.integers(1, L - k), min_size=B, max_size=B))
    model = make_model(dims, hidden, layers, dropout, k, L, seed)
    X, masks = batch(model, B, L, k, anchors, seed)
    check_against_batches_of_one(model, X, anchors, k, masks)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3), hidden=st.integers(1, 6),
       layers=st.integers(1, 3), dropout=st.sampled_from([0.0, 0.4]),
       k=st.integers(1, 5), B=st.integers(1, 5), seed=st.integers(0, 2**16),
       equal=st.booleans())
def test_late_anchors_match_batches_of_one_and_the_inference_loop(
        data, dims, hidden, layers, dropout, k, B, seed, equal):
    # every anchor sits far past step 1, so the readouts before the first
    # scored one, which the batch skips, form a long prefix; either all
    # anchors are equal or one sits at L - k
    L = k + data.draw(st.integers(10, 24))
    anchor = st.integers((L - k) // 2 + 1, L - k)
    if equal:
        anchors = [data.draw(anchor)] * B
    else:
        anchors = [L - k] + data.draw(st.lists(anchor, min_size=B - 1, max_size=B - 1))
    model = make_model(dims, hidden, layers, dropout, k, L, seed)
    X, masks = batch(model, B, L, k, anchors, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_against_batches_of_one(model, X, anchors, k, masks)


def test_context_masks_follow_the_per_row_draw_order():
    # training draws a window's masks row by row, gap by gap
    model = make_model(dims=2, hidden=5, layers=3, dropout=0.25, k=2, L=10, seed=1)
    got = _context_masks(model, 4, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    want = [[dropout_mask(5, 0.25, rng) for _ in range(2)] for _ in range(4)]
    np.testing.assert_array_equal(got, np.array(want))


def test_no_per_op_tape():
    # the loss is one node over the weights, whatever the window length
    model = make_model(dims=2, hidden=4, layers=2, dropout=0.0, k=3, L=60, seed=2)
    X, _ = batch(model, 4, 60, 3, [50, 40, 30, 57], seed=2)
    loss, _ = fresh_batch_loss(model, X, [50, 40, 30, 57], 3, None)
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    # the loss, the 4 fused weights of each layer, and the readout's
    # weight and bias
    assert len(seen) == 1 + 2 * 4 + 2


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_a_pass_leaves_every_weight_unchanged(layers, dropout):
    # the forward reads the weights through copies it negates in part,
    # and the backward reads the model's own arrays: a negated view
    # would write the model's weights, and the second batch would then
    # read them changed
    model = make_model(dims=2, hidden=4, layers=layers, dropout=dropout, k=2, L=10, seed=3)
    params = model.parameters()
    before = [p.value.tobytes() for p in params]
    work = train_buffers(model.stack.layers, 3, 9)
    for i, anchors in enumerate([[8, 3, 5], [2, 6]]):
        X, masks = batch(model, len(anchors), 10, 2, anchors, seed=3 + i)
        zero_grad(params)
        loss, _ = _batch_loss(model, X, anchors, 2, masks, work)
        tn.backward(loss)
        assert [p.value.tobytes() for p in params] == before
