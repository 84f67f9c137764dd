import math
from types import SimpleNamespace

import numpy as np
import pytest

import gru_reference as ref
from uprop import nn
from uprop.errors import ShapeError
from uprop.tensor import Var


def make_cell(input_size, hidden_size, rng=None):
    """A numpy cell: all zeros, or the initialisation drawn from ``rng``."""
    if rng is None:
        rows = 3 * hidden_size
        return nn.GruCell(input_size, hidden_size, np.zeros((rows, input_size)),
                          np.zeros((rows, hidden_size)), np.zeros(rows),
                          np.zeros(hidden_size))
    return nn.fuse_stack(nn.init_gru_stack(input_size, hidden_size, 1, 0.0, rng)).layers[0]


def scalar_cell_oracle(cell, x, h):
    """Step-by-step scalar re-implementation of the cell equations."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    hs = cell.hidden_size
    cell = SimpleNamespace(input_size=cell.input_size, **nn.gate_blocks(cell))
    out = []
    for i in range(hs):
        wr = sum(cell.W_r[i][j] * x[j] for j in range(cell.input_size))
        ur = sum(cell.U_r[i][j] * h[j] for j in range(hs))
        r = sig(wr + ur + cell.b_r[i])
        wz = sum(cell.W_z[i][j] * x[j] for j in range(cell.input_size))
        uz = sum(cell.U_z[i][j] * h[j] for j in range(hs))
        z = sig(wz + uz + cell.b_z[i])
        wn = sum(cell.W_n[i][j] * x[j] for j in range(cell.input_size))
        un = sum(cell.U_n[i][j] * h[j] for j in range(hs))
        n = math.tanh(wn + cell.b_in[i] + r * (un + cell.b_hn[i]))
        out.append((1.0 - z) * n + z * h[i])
    return np.array(out)


def test_zero_params_halve_hidden_state():
    cell = make_cell(3, 4)
    v = np.array([0.2, -0.4, 0.6, 0.8])
    h_next = ref.gru_cell_forward(cell, np.array([1.0, 2.0, 3.0]), v)
    np.testing.assert_allclose(h_next, 0.5 * v)


def test_zero_params_zero_hidden_fixed_point():
    cell = make_cell(2, 3)
    h_next = ref.gru_cell_forward(cell, np.array([5.0, -5.0]), np.zeros(3))
    np.testing.assert_allclose(h_next, np.zeros(3))


def test_cell_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    cell = make_cell(4, 6, rng)
    for _ in range(5):
        x = rng.normal(size=4)
        h = rng.normal(size=6) * 0.5
        got = ref.gru_cell_forward(cell, x, h)
        want = scalar_cell_oracle(cell, x, h)
        np.testing.assert_allclose(got, want, atol=1e-12)
        fused = nn.fused_cell_forward(x, h, nn.gate_buffers([cell])[0])
        np.testing.assert_allclose(fused, want, atol=1e-12)


def test_fused_cell_matches_plain_cell():
    rng = np.random.default_rng(12)
    cell = make_cell(3, 5, rng)
    x, h = rng.normal(size=3), rng.normal(size=5) * 0.3
    np.testing.assert_allclose(nn.fused_cell_forward(x, h, nn.gate_buffers([cell])[0]),
                               ref.gru_cell_forward(cell, x, h), atol=1e-12)


def test_fused_stack_step_matches_reference_stack_with_dropout():
    # a stack built with dropout steps without it at inference; the
    # training forward's masked arithmetic is checked in test_batch_loss
    rng = np.random.default_rng(18)
    stack = nn.init_gru_stack(3, 5, 3, 0.5, rng)
    fused = nn.fuse_stack(stack)
    h_ref = h_fused = nn.zero_hidden(stack)
    bufs = nn.gate_buffers(fused.layers)
    for _ in range(8):
        x = rng.normal(size=3)
        top_ref, h_ref = ref.gru_stack_step(stack, x, h_ref)
        top, h_fused = nn.fused_stack_step(fused, x, h_fused, bufs)
        np.testing.assert_allclose(top, top_ref, atol=1e-12)
        for a, b in zip(h_fused, h_ref):
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_cell_shape_errors():
    cell = make_cell(3, 4)
    with pytest.raises(ShapeError):
        ref.gru_cell_forward(cell, np.zeros(2), np.zeros(4))
    with pytest.raises(ShapeError):
        ref.gru_cell_forward(cell, np.zeros(3), np.zeros(5))


def test_hidden_state_stays_bounded():
    rng = np.random.default_rng(13)
    stack = nn.fuse_stack(nn.init_gru_stack(2, 8, 2, 0.0, rng))
    x_seq = rng.normal(size=(200, 2)) * 5.0
    outputs, h = ref.gru_stack_forward(stack, x_seq)
    assert np.all(np.abs(outputs) < 1.0)
    for layer_h in h:
        assert np.all(np.abs(layer_h) < 1.0)


def test_stack_of_one_equals_repeated_cell():
    rng = np.random.default_rng(14)
    stack = nn.fuse_stack(nn.init_gru_stack(3, 5, 1, 0.0, rng))
    x_seq = rng.normal(size=(10, 3))
    outputs, _ = ref.gru_stack_forward(stack, x_seq)
    h = np.zeros(5)
    for t, x in enumerate(x_seq):
        h = ref.gru_cell_forward(stack.layers[0], x, h)
        np.testing.assert_array_equal(outputs[t], h)


def test_stack_forward_deterministic():
    rng = np.random.default_rng(15)
    stack = nn.fuse_stack(nn.init_gru_stack(2, 4, 3, 0.0, rng))
    x_seq = rng.normal(size=(20, 2))
    out1, _ = ref.gru_stack_forward(stack, x_seq, dropout_on=False)
    out2, _ = ref.gru_stack_forward(stack, x_seq, dropout_on=False)
    np.testing.assert_array_equal(out1, out2)


def test_zero_rate_dropout_is_noop():
    rng = np.random.default_rng(16)
    stack = nn.fuse_stack(nn.init_gru_stack(2, 4, 2, 0.0, rng))
    x_seq = rng.normal(size=(15, 2))
    off, _ = ref.gru_stack_forward(stack, x_seq, dropout_on=False)
    on, _ = ref.gru_stack_forward(stack, x_seq, dropout_on=True,
                                 rng=np.random.default_rng(0))
    np.testing.assert_array_equal(off, on)


def test_dropout_mask_unbiased():
    # inverted scaling: E[mask * a] = a, checked over many seeds
    rate = 0.2
    a = 1.7
    n = 10_000
    draws = np.array([
        (nn.dropout_mask(1, rate, np.random.default_rng(s))[0]) * a
        for s in range(n)
    ])
    se = draws.std() / math.sqrt(n)
    assert abs(draws.mean() - a) < 3 * se


def test_adam_first_step_delta():
    p = Var(np.array([1.0]))
    state = nn.adam_init([p], learning_rate=0.001)
    nn.adam_step(state, [p], grads=[np.array([1.0])])
    delta = p.value[0] - 1.0
    assert abs(delta + 0.001) < 1e-6
    assert state.step_count == 1


def test_adam_zero_gradient_keeps_parameters():
    p = Var(np.array([2.0, -3.0]))
    state = nn.adam_init([p])
    nn.adam_step(state, [p], grads=[np.zeros(2)])
    np.testing.assert_array_equal(p.value, [2.0, -3.0])


def test_adam_first_step_descends_every_coordinate():
    rng = np.random.default_rng(17)
    p = Var(rng.normal(size=10))
    before = p.value.copy()
    g = rng.normal(size=10)
    g[g == 0.0] = 1.0
    state = nn.adam_init([p])
    nn.adam_step(state, [p], grads=[g])
    np.testing.assert_array_equal(np.sign(p.value - before), -np.sign(g))


def test_adam_shape_mismatch():
    p = Var(np.zeros(3))
    state = nn.adam_init([p])
    with pytest.raises(ShapeError):
        nn.adam_step(state, [p], grads=[np.zeros(4)])


@pytest.mark.parametrize("params, grads", [(2, 1), (1, 2)], ids=["grads", "params"])
def test_adam_length_mismatch(params, grads):
    ps = [Var(np.zeros(3)) for _ in range(params)]
    state = nn.adam_init(ps[:1])
    with pytest.raises(ShapeError, match="length mismatch"):
        nn.adam_step(state, ps, grads=[np.zeros(3)] * grads)


@pytest.mark.parametrize("anchors, k, says", [
    ([2, 0], 2, r"anchors \[2, 0\], k=2"),
    ([2, 5], 2, r"anchors \[2, 5\], k=2"),
    ([2, 3], 0, r"anchors \[2, 3\], k=0"),
    ([2], 2, r"anchors \[2\], k=2"),
], ids=["anchor-0", "past-the-end", "k-0", "one-anchor-for-two-windows"])
def test_window_batch_forward_rejects_bad_anchors(anchors, k, says):
    rng = np.random.default_rng(19)
    stack = nn.init_gru_stack(4, 3, 1, 0.0, rng)
    readout = nn.init_linear(3, 4, rng)
    with pytest.raises(ShapeError, match=says):
        nn.window_batch_forward(stack, readout, 1e-3, np.zeros((2, 6, 2)), anchors, k,
                                None, nn.train_buffers(stack.layers, 2, 5))


def test_adam_matches_reference_trajectory():
    # minimize f(w) = 0.5 w^2 for a few steps against a hand-rolled loop
    p = Var(np.array([1.0]))
    state = nn.adam_init([p], learning_rate=0.1)
    w_ref, m, v = 1.0, 0.0, 0.0
    for t in range(1, 6):
        g = p.value.copy()
        nn.adam_step(state, [p], grads=[g])
        g_ref = w_ref
        m = 0.9 * m + 0.1 * g_ref
        v = 0.999 * v + 0.001 * g_ref ** 2
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        w_ref -= 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.value[0] == pytest.approx(w_ref, rel=1e-12)
