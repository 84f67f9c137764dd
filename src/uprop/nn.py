"""GRU stack, affine readout, dropout, the training kernel and Adam.

Each GRU cell is stored once, in the fused layout its kernels read
(:class:`GruCell`: ``w``, ``u`` and ``b_w`` stack the gate blocks
``[r; z; n]``). A model holds ``Var`` leaves; :func:`fuse_stack` and
:func:`freeze_linear` give numpy views of the same arrays for inference,
which steps the cell (:func:`fused_stack_step`) on one row or on a batch
of rows. A scan steps it on work buffers made once per scan call
(:func:`gate_buffers`): the two gate products land there, the gate
views are sliced once per scan, not once per step, and the ones arrays
of the sigmoid and of ``1 - z`` and the cell's weight arrays are bound
there too. Only the new hidden state is a fresh array, so a state a
caller keeps is never written again, and the buffers are never kept on
the model, so concurrent scans of one model share nothing they write.
At batch of one, numpy's per-call dispatch costs more than the
arithmetic of a 3x64 step, so the step passes every ``out`` positionally
and every operand as an array (a keyword or a Python scalar costs
0.05-0.25 us per call), and reads no attribute: the ``stream``
benchmark's ``pass_s`` went from 1.43 to 1.24 s (medians of ten
alternating 20 s pairs, 2-vCPU VM, one BLAS thread).
Every product goes through :func:`matvec`: one gemv for one row
(``np.dot``, which dispatches faster than ``matmul`` and gives the same
bits), and for a (B, n) batch a stacked matmul, which numpy runs as one
gemv per row, so each row of a batch is bitwise the row stepped alone
(with or without ``out``). A gemm (``X @ W.T``) is not: on the
scipy-openblas 0.3.31 of numpy 2.4 (one BLAS thread) its rows differ
from the gemv at every B >= 2, and even depend on B (at B = 2-12 for a
96x32 block, 2-6 for 192x64, and 75 of the 111 sizes up to 112 for a
6x32 readout). Padding one row to two, to keep a single series on gemm
too, costs 10.7 against 4.8 us per 192x64 product. One series stays
1-D: a (1, n) batch costs about 0.9 us more per product.
Training runs :func:`window_batch_forward` and
:func:`window_batch_backward`, a hand-written backward pass through time
over the gates the forward caches (``forecaster._batch_loss`` hangs its
gradients on the one loss node). The training forward repeats the cell's
arithmetic, in the same order, on buffers it owns: one cell shared by
both callers slowed inference (README, "Layout"). This module is the
one place that knows the gate order; :func:`gate_blocks` names the
per-gate blocks for checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .prob import LN_2PI
from .tensor import Var, value_of, zero_grad  # noqa: F401  (zero_grad is re-exported)


@dataclass
class GruCell:
    """One GRU cell (reset-before-candidate, two-bias form), stored fused.

    w = [W_r; W_z; W_n] (3h x in), u = [U_r; U_z; U_n] (3h x h),
    b_w = [b_r, b_z, b_in] (3h) and b_hn (h): ``Var`` leaves in a model,
    numpy arrays in :func:`fuse_stack`'s views. Stacked gate blocks make
    a step two matrix products.
    """

    input_size: int
    hidden_size: int
    w: object
    u: object
    b_w: object
    b_hn: object

    def weights(self):
        return [self.w, self.u, self.b_w, self.b_hn]


@dataclass
class GruStackParams:
    layers: list
    dropout_rate: float = 0.2

    def weights(self):
        return [w for layer in self.layers for w in layer.weights()]


@dataclass
class LinearParams:
    weight: object
    bias: object

    def weights(self):
        return [self.weight, self.bias]


# checkpoint names of a cell's per-gate blocks, in file order
GATE_NAMES = ("W_r", "W_z", "W_n", "U_r", "U_z", "U_n", "b_r", "b_z", "b_in", "b_hn")


def gate_blocks(cell: GruCell) -> dict:
    """The cell's per-gate blocks by checkpoint name, in file order.

    Each block is a view of the cell's fused arrays, so writing into a
    block writes the cell.
    """
    w, u, b_w = (np.split(value_of(a), 3) for a in (cell.w, cell.u, cell.b_w))
    return dict(zip(GATE_NAMES, [*w, *u, *b_w, value_of(cell.b_hn)]))


def init_gru_cell(input_size: int, hidden_size: int, rng: np.random.Generator) -> GruCell:
    """Uniform(-1/sqrt(hidden), 1/sqrt(hidden)) matrices, zero biases."""
    bound = 1.0 / math.sqrt(hidden_size)
    rows = 3 * hidden_size
    return GruCell(
        input_size=input_size,
        hidden_size=hidden_size,
        w=Var(rng.uniform(-bound, bound, size=(rows, input_size))),
        u=Var(rng.uniform(-bound, bound, size=(rows, hidden_size))),
        b_w=Var(np.zeros(rows)),
        b_hn=Var(np.zeros(hidden_size)),
    )


def init_gru_stack(input_size: int, hidden_size: int, n_layers: int,
                   dropout_rate: float, rng: np.random.Generator) -> GruStackParams:
    layers = []
    for i in range(n_layers):
        in_size = input_size if i == 0 else hidden_size
        layers.append(init_gru_cell(in_size, hidden_size, rng))
    return GruStackParams(layers=layers, dropout_rate=dropout_rate)


def init_linear(in_size: int, out_size: int, rng: np.random.Generator) -> LinearParams:
    bound = 1.0 / math.sqrt(in_size)
    return LinearParams(
        weight=Var(rng.uniform(-bound, bound, size=(out_size, in_size))),
        bias=Var(np.zeros(out_size)),
    )


def freeze_linear(lin: LinearParams) -> LinearParams:
    """Numpy views of the readout's weights: the same arrays, no copies."""
    return LinearParams(weight=value_of(lin.weight), bias=value_of(lin.bias))


def fuse_stack(stack: GruStackParams) -> GruStackParams:
    """Numpy views of the stack's weights: the same arrays, no copies."""
    return GruStackParams(
        layers=[GruCell(c.input_size, c.hidden_size, *map(value_of, c.weights()))
                for c in stack.layers],
        dropout_rate=stack.dropout_rate)


def _sigmoid(x, one=1.0):
    """1 / (1 + exp(-x)) in place on ``x``, the one sigmoid of the package.

    ``one`` is the 1 that is added: the scalar, or a ones array of ``x``'s
    shape, which rounds the same and dispatches faster (the scan's
    :func:`gate_buffers` hold one). Below x = -709, exp(-x) overflows to
    inf and the result is exactly 0; callers silence that overflow with
    ``np.errstate(over="ignore")``.
    """
    np.exp(np.negative(x, x), x)
    np.add(x, one, x)
    return np.reciprocal(x, x)


def matvec(w, x, out=None):
    """``w @ x`` for one vector ``x`` (n,), or for each row of a batch
    (B, n), where numpy runs one gemv per stacked row: each row of the
    batch is bitwise the product of that row alone. ``out`` (the shape of
    the result) receives the product instead of a fresh array. One row
    goes through ``np.dot``, the same gemv as ``matmul`` with less call
    overhead."""
    if x.ndim == 1:
        return np.dot(w, x, out)
    if out is None:
        return np.matmul(w, x[..., None])[..., 0]
    np.matmul(w, x[..., None], out=out[..., None])
    return out


def gate_buffers(cells: list, shape: tuple = ()) -> list:
    """Work buffers of one scan for :func:`fused_stack_step` over
    ``cells``, for rows of leading ``shape`` (``()`` for one row, ``(B,)``
    for a batch).

    Per cell: the products ``a = W x + b_w`` and ``b = U h``, each
    (..., 3h), and the views of their gate blocks that a step reads, laid
    out once: ``a``'s ``rz``, ``r``, ``z`` and ``n`` blocks, then ``b``'s
    ``rz`` and ``n`` blocks; a ones array (..., 2h) and its (..., h) half,
    the 1 of the sigmoid and of ``1 - z``; and the cell's weight arrays
    ``w``, ``u``, ``b_w`` and ``b_hn`` themselves, not copies, so an
    in-place weight edit is seen. A step overwrites the products and
    their views and reads the rest, so one set serves one scan at a time;
    they are never kept on the model.
    """
    bufs = []
    for cell in cells:
        h = cell.hidden_size
        a, b = np.empty(shape + (3 * h,)), np.empty(shape + (3 * h,))
        one = np.ones(shape + (2 * h,))
        bufs.append((a, b, a[..., :2 * h], a[..., :h], a[..., h:2 * h],
                     a[..., 2 * h:], b[..., :2 * h], b[..., 2 * h:],
                     one, one[..., h:], *cell.weights()))
    return bufs


def fused_cell_forward(cell: GruCell, x, h_prev, buf=None):
    """One GRU step, two matvecs on numpy arrays: returns the next hidden
    state, a fresh array. ``x`` and ``h_prev`` are one row, (in,) and
    (h,), or a batch, (B, in) and (B, h); ``buf`` is the cell's entry of
    :func:`gate_buffers` for that shape (made here when None), and the
    step reads the cell's weights from it.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    n = tanh(W_n x + b_in + r * (U_n h + b_hn))
    h' = (1 - z) * n + z * h
    """
    if buf is None:
        buf = gate_buffers([cell], x.shape[:-1])[0]
    # in place on the scan's buffers, with positional outputs and array
    # operands: at batch of one, a temporary, a slice, an attribute read,
    # a keyword or a scalar operand each costs a fair share of the
    # arithmetic
    a, b, rz, r, z, a_n, b_rz, n, one, one_h, w, u, b_w, b_hn = buf
    matvec(w, x, a)
    np.add(a, b_w, a)
    matvec(u, h_prev, b)
    np.add(rz, b_rz, rz)
    _sigmoid(rz, one)
    np.add(n, b_hn, n)
    np.multiply(n, r, n)
    np.add(n, a_n, n)
    np.tanh(n, n)
    zh = np.multiply(z, h_prev, a_n)
    out = np.subtract(one_h, z)
    np.multiply(out, n, out)
    np.add(out, zh, out)
    return out


def fused_stack_step(stack: GruStackParams, x, h_prev, bufs=None):
    """Advance every fused layer one step (inference: no dropout), for one
    row or a batch of rows; returns (top output, new hidden). ``bufs`` is
    :func:`gate_buffers` for the rows' shape (made here when None)."""
    if bufs is None:
        bufs = gate_buffers(stack.layers, x.shape[:-1])
    h_next = []
    for cell, h, buf in zip(stack.layers, h_prev, bufs):
        x = fused_cell_forward(cell, x, h, buf)
        h_next.append(x)
    return x, h_next


def dropout_mask(size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate)."""
    if rate == 0.0:
        return np.ones(size)
    return (rng.random(size) >= rate) / (1.0 - rate)


def zero_hidden(stack: GruStackParams, rows: int | None = None) -> list:
    """The zero start state: one (h,) array per layer, or (rows, h)."""
    shape = () if rows is None else (rows,)
    return [np.zeros(shape + (c.hidden_size,)) for c in stack.layers]


@dataclass
class WindowBatchCache:
    """What :func:`window_batch_backward` needs from the forward pass.

    ``stack`` and ``readout`` are numpy views of the weights. Time-major
    arrays over T steps and B windows: per layer, ``xin`` is
    the input (T, B, in; a view of the layer below's ``hs`` when there is
    no dropout), ``hs`` the hidden states (T + 1, B, h) after the zero
    start state, ``rz`` the reset and update gates (T, B, 2h),
    ``n`` the candidate and ``hn`` the term ``U_n h + b_hn`` (T, B, h).
    ``raw`` is the readout (T, B, 2N), ``d_belief`` the gradient of the
    batch-mean loss with respect to each step's (mu, sigma), ``fed`` the
    (T, B, 1) rows whose input was the previous step's belief, and
    ``masks`` the dropout masks (T, gaps, B, h) or None.
    """

    stack: GruStackParams
    readout: LinearParams
    xin: list
    hs: list
    rz: list
    n: list
    hn: list
    raw: np.ndarray
    d_belief: np.ndarray
    fed: np.ndarray
    masks: np.ndarray | None


def window_batch_forward(stack: GruStackParams, readout: LinearParams, floor: float,
                         X: np.ndarray, anchors, k: int, masks=None):
    """Training forward over a batch of windows; returns (losses, cache).

    ``X`` is (B, L, N). Row b is left-aligned: steps 0..anchor_b-1 take
    the observation (x_t, 0) with that row's dropout masks, later steps
    take the belief (mu, sigma) the previous step emitted, and the k
    readouts from step anchor_b-1 on are scored against x_{t+1}. A row's
    loss is its mean per-point Gaussian NLL. ``masks`` is None (no
    dropout) or one (anchor_b, gaps, h) array per row. The stack and
    readout may hold ``Var``s or numpy arrays; only their values are
    read. Each step is :func:`fused_cell_forward`'s arithmetic, in the
    same order, with a batch dimension, on buffers the backward reads: a
    copy, because sharing one cell slowed batch-of-one inference.
    """
    stack, readout = fuse_stack(stack), freeze_linear(readout)
    X = np.asarray(X, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.intp)
    B, L, N = X.shape
    if k < 1 or anchors.shape != (B,) or anchors.min() < 1 or anchors.max() + k > L:
        raise ShapeError(f"need k >= 1 and 1 <= anchor <= {L} - k for every "
                         f"window, got anchors {anchors.tolist()}, k={k}")
    T = int(anchors.max()) + k - 1
    steps = np.arange(T)[:, None]
    fed = (steps >= anchors)[:, :, None]
    scored = (steps >= anchors - 1) & (steps < anchors + k - 1)
    # transposed weights and row-broadcast biases, laid out once per batch
    # so each step is a plain product and a same-shape add
    cells = [(c.w.T.copy(), c.u.T.copy(), np.tile(c.b_w, (B, 1)), np.tile(c.b_hn, (B, 1)))
             for c in stack.layers]
    w_out = readout.weight.T.copy()
    b_out = np.tile(readout.bias, (B, 1))
    last = len(cells) - 1

    dense_masks = None
    if masks is not None and last > 0:
        dense_masks = np.ones((T, last, B, stack.layers[0].hidden_size))
        for b, m in enumerate(masks):
            dense_masks[:m.shape[0], :, b] = m
    rows = X.transpose(1, 0, 2)
    targets = rows[1:T + 1]
    hs = [np.zeros((T + 1, B, c.hidden_size)) for c in stack.layers]
    xin = [np.concatenate([rows[:T], np.zeros((T, B, N))], axis=2)]
    xin += [hs[i][1:] if dense_masks is None else np.empty_like(hs[i][1:])
            for i in range(last)]
    rz = [np.empty((T, B, 2 * c.hidden_size)) for c in stack.layers]
    ns = [np.empty((T, B, c.hidden_size)) for c in stack.layers]
    hns = [np.empty((T, B, c.hidden_size)) for c in stack.layers]
    # per-layer work buffers for W x + b_w and U h
    a_buf = [np.empty((B, 3 * c.hidden_size)) for c in stack.layers]
    c_buf = [np.empty((B, 3 * c.hidden_size)) for c in stack.layers]
    raw = np.empty((T, B, 2 * N))
    belief = np.empty((T, B, 2 * N))   # (mu, sigma) per step

    first_fed = int(anchors.min())
    with np.errstate(over="ignore"):   # exp(-x) in the gates may overflow to inf
        for t in range(T):
            if t >= first_fed:
                np.copyto(xin[0][t], belief[t - 1], where=fed[t])
            for i, (w_t, u_t, b_w, b_hn) in enumerate(cells):
                h = u_t.shape[0]
                h_prev = hs[i][t]
                a_i = np.dot(xin[i][t], w_t, out=a_buf[i])
                a_i += b_w
                c_i = np.dot(h_prev, u_t, out=c_buf[i])
                gates = _sigmoid(np.add(a_i[:, :2 * h], c_i[:, :2 * h], out=rz[i][t]))
                r, z = gates[:, :h], gates[:, h:]
                hn = np.add(c_i[:, 2 * h:], b_hn, out=hns[i][t])
                n = np.multiply(r, hn, out=ns[i][t])
                n += a_i[:, 2 * h:]
                np.tanh(n, out=n)
                np.add((1.0 - z) * n, z * h_prev, out=hs[i][t + 1])
                if dense_masks is not None and i < last:
                    np.multiply(hs[i][t + 1], dense_masks[t, i], out=xin[i + 1][t])
            np.dot(hs[last][t + 1], w_out, out=raw[t])
            raw[t] += b_out
            belief[t, :, :N] = raw[t, :, :N]
            np.logaddexp(0.0, raw[t, :, N:], out=belief[t, :, N:])
            belief[t, :, N:] += floor

    mu, sigma = belief[:, :, :N], belief[:, :, N:]
    z = (targets - mu) / sigma
    terms = (np.log(sigma).sum(axis=2) + 0.5 * (z * z).sum(axis=2)
             + N * 0.5 * LN_2PI)
    losses = np.where(scored, terms, 0.0).sum(axis=0) * (1.0 / (k * N))
    # d(batch-mean loss)/d(mu, sigma) at each scored readout
    weight = scored[:, :, None] * (1.0 / (B * k * N))
    d_belief = np.concatenate([-z / sigma, (1.0 - z * z) / sigma], axis=2) * weight
    cache = WindowBatchCache(stack=stack, readout=readout, xin=xin, hs=hs, rz=rz,
                             n=ns, hn=hns, raw=raw, d_belief=d_belief, fed=fed,
                             masks=dense_masks)
    return losses, cache


def window_batch_backward(cache: WindowBatchCache) -> list:
    """Gradients of the batch-mean loss: hand-written BPTT over the cache.

    Returns one array per weight, in ``UPropModel.parameters()`` order:
    ``w``, ``u``, ``b_w`` and ``b_hn`` of each layer, then the readout
    weight and bias. Steps run in reverse. At each step the gradient
    enters at the readout (from the loss and from the next step's input
    on fed rows), falls through the layers top-down, and leaves layer 0's
    input towards the previous step's (mu, sigma) on fed rows. The gate
    derivatives are formed for all steps before the loop and the weight
    gradients summed over all steps after it, one matrix product per
    weight.
    """
    cells = [(c.w, c.u) for c in cache.stack.layers]
    w_out = cache.readout.weight
    T, B, two_n = cache.raw.shape
    N = two_n // 2
    last = len(cells) - 1
    # d(mu, sigma)/d(raw) is (1, sigmoid(raw_sigma)) by the softplus squash
    with np.errstate(over="ignore"):
        d_sigma = _sigmoid(cache.raw[:, :, N:].copy())
    d_squash = np.concatenate([np.ones((T, B, N)), d_sigma], axis=2)
    d_raw = cache.d_belief * d_squash
    # per layer: gate derivatives (T, B, h), then the step gradients of the
    # pre-activations a = W x + b_w (T, B, 3h) and c = U h + [0, 0, b_hn]
    factors, d_a, d_c = [], [], []
    for i, (_, u) in enumerate(cells):
        h = u.shape[1]
        r, z = cache.rz[i][:, :, :h], cache.rz[i][:, :, h:]
        n, hn, h_prev = cache.n[i], cache.hn[i], cache.hs[i][:T]
        factors.append(((1.0 - z) * (1.0 - n * n), hn * r * (1.0 - r),
                        (h_prev - n) * z * (1.0 - z), r, z))
        d_a.append(np.empty((T, B, 3 * h)))
        d_c.append(np.empty((T, B, 3 * h)))
    d_h = [np.zeros((B, u.shape[1])) for _, u in cells]
    fed_steps = cache.fed.any(axis=(1, 2))
    d_feed = None

    for t in range(T - 1, -1, -1):
        if d_feed is not None:
            d_raw[t] += d_feed * d_squash[t]
        d_out = np.dot(d_raw[t], w_out)
        for i in range(last, -1, -1):
            w, u = cells[i]
            h = u.shape[1]
            k_n, k_r, k_z, r, z = factors[i]
            da, dc = d_a[i][t], d_c[i][t]
            dh = np.add(d_h[i], d_out, out=d_h[i])
            d_pre_n = np.multiply(dh, k_n[t], out=da[:, 2 * h:])
            np.multiply(d_pre_n, k_r[t], out=da[:, :h])
            np.multiply(dh, k_z[t], out=da[:, h:2 * h])
            dc[:, :2 * h] = da[:, :2 * h]
            np.multiply(d_pre_n, r[t], out=dc[:, 2 * h:])
            d_h[i] = np.dot(dc, u)
            d_h[i] += dh * z[t]
            if i > 0:
                d_out = np.dot(da, w)
                if cache.masks is not None:
                    d_out *= cache.masks[t, i - 1]
        # layer 0's input gradient only matters on fed rows
        d_feed = np.dot(da, cells[0][0]) * cache.fed[t] if fed_steps[t] else None

    grads = []
    for i, (w, u) in enumerate(cells):
        h = u.shape[1]
        da = d_a[i].reshape(T * B, 3 * h)
        dc = d_c[i].reshape(T * B, 3 * h)
        grads += [da.T @ cache.xin[i].reshape(T * B, -1),
                  dc.T @ cache.hs[i][:T].reshape(T * B, h),
                  da.sum(axis=0), dc[:, 2 * h:].sum(axis=0)]
    d_raw = d_raw.reshape(T * B, two_n)
    return grads + [d_raw.T @ cache.hs[last][1:].reshape(T * B, -1),
                    d_raw.sum(axis=0)]


# Adam's moment decays and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam with bias correction; moments shape-match the parameter list."""

    learning_rate: float = 0.001
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params: list, learning_rate: float = 0.001) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        m=[np.zeros_like(p.value) for p in params],
        v=[np.zeros_like(p.value) for p in params],
    )


def adam_step(state: AdamState, params: list, grads: list) -> AdamState:
    """One Adam update, in place on ``params``, by one gradient per parameter."""
    if len(grads) != len(params) or len(state.m) != len(params):
        raise ShapeError("adam_step: parameter/gradient/state length mismatch")
    state.step_count += 1
    t = state.step_count
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise ShapeError(f"adam_step: gradient {i} shape {g.shape} != {p.value.shape}")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2 ** t)
        # in-place so frozen numpy views stay current
        p.value -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return state
