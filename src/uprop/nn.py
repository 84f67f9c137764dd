"""GRU stack, affine readout, dropout, the training kernel and Adam.

Each GRU cell is stored once, in the fused layout its kernels read
(:class:`GruCell`: ``w``, ``u`` and ``b_w`` stack the gate blocks
``[r; z; n]``), and its input and hidden sizes are read from those
arrays. A model holds ``Var`` leaves; :func:`fuse_stack` and
:func:`freeze_linear` give numpy views of the same arrays, so an
in-place weight edit is seen everywhere. The dropout rate is a training
setting (``forecaster.TrainConfig.dropout``): inference never drops out.

Inference steps the cell (:func:`fused_stack_step`) on one row or on a
batch of rows, on the work buffers its caller makes once per scan
(:func:`gate_buffers`): the gate products land there, and the gate
views, the ones arrays and the cell's weight arrays are bound there
once per scan, not once per step. Only the new hidden state is a fresh
array, so a state a caller keeps is never written again, and the
buffers are never kept on the model, so concurrent scans of one model
share nothing they write. A batch's gate blocks would be column slices
of (B, 3h) products, on which numpy runs its inner loop once per row, so
one copy per product lays the rows out gate-major, (3, B, h), and every
gate op runs on contiguous blocks. At batch of one, numpy's per-call
dispatch outweighs a step's arithmetic, so the step passes every ``out``
positionally and every operand as an array, and reads no attribute.
Every product goes through :func:`matvec`: one gemv per row, through
``ndarray.dot`` (``np.dot``'s C function without its Python-level
dispatch) for one row and a stacked matmul for a batch, so each row of a
batch is bitwise the row stepped alone. A gemm (``X @ W.T``) is not: on
the scipy-openblas of numpy 2.4 its rows differ from the gemv at every
B >= 2, and even depend on B. One series stays 1-D, because a (1, n)
batch costs more per product.

Training runs :func:`window_batch_forward` and
:func:`window_batch_backward`, a hand-written backward pass through time
over the gates the forward caches (``forecaster._batch_loss`` hangs its
gradients on the one loss node). The training forward repeats the cell's
arithmetic, in the same order, on buffers it owns, because one cell
shared by both callers slowed inference. Both kernels take the batched
scan's gate-major layout, take each step's views from one ``zip`` per
layer, set up once per batch, and pass every ufunc its output
positionally; the readouts before step min(anchor) - 1 are neither
scored nor fed back, so they are not run. Both run on a work set
(:func:`train_buffers`) that holds every (T, B, ·) array they use,
made once per ``train`` call as one anonymous memory mapping: its pages
are faulted in once, not once per batch, and they leave the process
when ``train`` returns. The backward consumes its cache, and the set
counts its passes, so a backward whose cache a later forward
overwrote, or a second backward on one cache, raises ``ShapeError``.
CHANGES.md records the benchmark runs behind these choices.

This module is the one place that knows the gate order;
:func:`gate_blocks` names the per-gate blocks for checkpoints.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from itertools import repeat

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
    a step two matrix products. The cell's sizes are read from its
    arrays, so they cannot disagree with them.
    """

    w: object
    u: object
    b_w: object
    b_hn: object

    @property
    def input_size(self) -> int:
        return value_of(self.w).shape[1]

    @property
    def hidden_size(self) -> int:
        return value_of(self.b_hn).shape[0]

    def weights(self):
        return [self.w, self.u, self.b_w, self.b_hn]


@dataclass
class GruStackParams:
    layers: list

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
        w=Var(rng.uniform(-bound, bound, size=(rows, input_size))),
        u=Var(rng.uniform(-bound, bound, size=(rows, hidden_size))),
        b_w=Var(np.zeros(rows)),
        b_hn=Var(np.zeros(hidden_size)),
    )


def init_gru_stack(input_size: int, hidden_size: int, n_layers: int,
                   rng: np.random.Generator) -> GruStackParams:
    layers = []
    for i in range(n_layers):
        in_size = input_size if i == 0 else hidden_size
        layers.append(init_gru_cell(in_size, hidden_size, rng))
    return GruStackParams(layers=layers)


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
    return GruStackParams(layers=[GruCell(*map(value_of, c.weights())) for c in stack.layers])


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
    goes through the array method ``w.dot``: the same C function and gemv
    as ``np.dot``, without ``np.dot``'s Python-level
    ``__array_function__`` dispatch."""
    if x.ndim == 1:
        return w.dot(x, out)
    if out is None:
        return np.matmul(w, x[..., None])[..., 0]
    np.matmul(w, x[..., None], out=out[..., None])
    return out


def gate_buffers(cells: list, shape: tuple) -> list:
    """Work buffers of one scan for :func:`fused_stack_step` over
    ``cells``, for rows of leading ``shape`` (``()`` for one row, ``(B,)``
    for a batch).

    Per cell: the products ``a = W x + b_w`` and ``b = U h``, each
    (..., 3h); for a batch, their gate-major copies, (3, B, h) each, and
    the gate-major views of the products that fill them (None for one
    row); the gate blocks that a step reads, laid out once: ``a``'s
    ``rz``, ``r``, ``z`` and ``n`` blocks, then ``b``'s ``rz`` and ``n``
    blocks, each contiguous (slices of one row's products, blocks of a
    batch's copies); a ones array shaped like ``rz`` and its ``z``-shaped
    half, the 1 of the sigmoid and of ``1 - z``; and the cell's weight
    arrays ``w``, ``u``, ``b_w`` and ``b_hn`` themselves, not copies, so
    an in-place weight edit is seen. A step overwrites the products, the
    copies and their blocks and reads the rest, so one set serves one
    scan at a time; they are never kept on the model.
    :func:`window_batch_forward` lays its products out on one set per
    batch too.
    """
    bufs = []
    for cell in cells:
        h = cell.hidden_size
        a, b = np.empty(shape + (3 * h,)), np.empty(shape + (3 * h,))
        # (3, ..., h) views: one row's are contiguous, a batch's are copied
        ga, gb = (np.moveaxis(p.reshape(shape + (3, h)), -2, 0) for p in (a, b))
        lay = None
        if shape:
            lay = (np.empty(ga.shape), ga, np.empty(gb.shape), gb)
            ga, gb = lay[0], lay[2]
        one = np.ones((2,) + shape + (h,))
        bufs.append((a, b, lay, ga[:2], ga[0], ga[1], ga[2], gb[:2], gb[2],
                     one, one[1], *cell.weights()))
    return bufs


def fused_cell_forward(x, h_prev, buf):
    """One GRU step, two matvecs on numpy arrays: returns the next hidden
    state, a fresh array. ``x`` and ``h_prev`` are one row, (in,) and
    (h,), or a batch, (B, in) and (B, h); ``buf`` is one cell's entry of
    :func:`gate_buffers` for that shape, and the step reads the cell's
    weights from it.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    n = tanh(W_n x + b_in + r * (U_n h + b_hn))
    h' = (1 - z) * n + z * h
    """
    # in place on the scan's buffers, with positional outputs and array
    # operands: at batch of one, a temporary, a slice, an attribute read,
    # a keyword or a scalar operand each costs a fair share of the
    # arithmetic
    a, b, lay, rz, r, z, a_n, b_rz, n, one, one_h, w, u, b_w, b_hn = buf
    matvec(w, x, a)
    np.add(a, b_w, a)
    matvec(u, h_prev, b)
    if lay is not None:
        # a batch: one copy per product lays its rows out gate-major, so
        # every op below runs on contiguous blocks, not once per row
        ga, a_rows, gb, b_rows = lay
        np.copyto(ga, a_rows)
        np.copyto(gb, b_rows)
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


def fused_stack_step(stack: GruStackParams, x, h_prev, bufs):
    """Advance every fused layer one step (inference: no dropout), for one
    row or a batch of rows; returns (top output, new hidden). ``h_prev``
    holds one state per layer of ``stack``, else ``ShapeError``; ``bufs``
    is :func:`gate_buffers` over the stack's layers for the rows' shape."""
    if len(h_prev) != len(stack.layers):
        raise ShapeError(f"need one hidden state per layer ({len(stack.layers)}), "
                         f"got {len(h_prev)}")
    h_next = []
    for h, buf in zip(h_prev, bufs):
        x = fused_cell_forward(x, h, buf)
        h_next.append(x)
    return x, h_next


def dropout_mask(size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate)."""
    return (rng.random(size) >= rate) / (1.0 - rate)


def zero_hidden(stack: GruStackParams, rows: int | None = None) -> list:
    """The zero start state: one (h,) array per layer, or (rows, h)."""
    shape = () if rows is None else (rows,)
    return [np.zeros(shape + (c.hidden_size,)) for c in stack.layers]


def _work_shapes(sizes: list, B: int, T: int) -> dict:
    """The shapes of every (T, B, ·) array of :func:`window_batch_forward`
    and :func:`window_batch_backward` on layers of ``sizes``
    ``(input_size, hidden_size)``, by region name: one shape per layer,
    per gap between layers, or just one."""
    h = [hidden for _, hidden in sizes]
    last = len(sizes) - 1
    return {"xin": [(T, B, sizes[0][0])], "masks": [(T, last, B, h[0])],
            "hs": [(T + 1, B, n) for n in h], "dropped": [(T, B, n) for n in h[:last]],
            "rz": [(T, 2, B, n) for n in h], "n": [(T, B, n) for n in h],
            "hn": [(T, B, n) for n in h], "k_z": [(T, B, n) for n in h],
            "d_a": [(T, B, 3 * n) for n in h], "d_c": [(T, B, 3 * n) for n in h]}


@dataclass
class TrainBuffers:
    """The work set of :func:`window_batch_forward` and
    :func:`window_batch_backward` for batches of up to ``rows`` windows
    over up to ``steps`` steps on layers of ``sizes``
    ``(input_size, hidden_size)``. ``flat`` is the whole set, float64;
    ``regions`` holds, by name, one flat region of it per array of
    :func:`_work_shapes`:

    - ``xin``, layer 0's input; ``hs``, each layer's hidden states;
    - ``masks``, the dropout masks; ``dropped``, each lower layer's
      masked output;
    - ``rz``, ``n`` and ``hn``, each layer's gates;
    - ``k_z``, each layer's update-gate derivative factor;
    - ``d_a`` and ``d_c``, each layer's pre-activation gradients.

    A batch takes a prefix of each region, reshaped to its own (T, B, ·),
    so it is contiguous whatever the batch's size. ``passes`` counts the
    forwards run on the set and the backwards that consumed them.
    """

    rows: int
    steps: int
    sizes: list
    flat: np.ndarray
    regions: dict
    passes: int = 0

    def views(self, B: int, T: int) -> dict:
        """Each region's prefix as its array for a batch of ``B`` windows
        over ``T`` steps, by name as :func:`_work_shapes`."""
        return {name: [_prefix(r, shape) for r, shape in zip(self.regions[name], shapes)]
                for name, shapes in _work_shapes(self.sizes, B, T).items()}

    def begin(self, cells: list, B: int, T: int) -> dict:
        """Start a forward of ``B`` windows over ``T`` steps on ``cells``:
        its :meth:`views`, or ``ShapeError`` unless the batch fits."""
        sizes = [(c.input_size, c.hidden_size) for c in cells]
        if B > self.rows or T > self.steps or sizes != self.sizes:
            raise ShapeError(f"a batch of {B} windows over {T} steps on layers "
                             f"{sizes} does not fit a work set of {self.rows} x "
                             f"{self.steps} on layers {self.sizes}")
        self.passes += 1
        return self.views(B, T)

    def consume(self, begun: int, B: int, T: int) -> dict:
        """The :meth:`views` of the forward that was pass ``begun``, for
        its backward, which ends it; ``ShapeError`` if another forward
        has overwritten the set since, or a backward has consumed it."""
        if begun != self.passes:
            raise ShapeError("a work set serves one backward of its latest forward; "
                             "this cache's was overwritten or already consumed")
        self.passes += 1
        return self.views(B, T)


def train_buffers(cells: list, rows: int, steps: int) -> TrainBuffers:
    """One :class:`TrainBuffers` set for batches of up to ``rows`` windows
    over up to ``steps`` steps on the layers ``cells``.

    The set is carved from one anonymous memory mapping, each region
    starting on a 64-byte boundary. Its pages are faulted in once, on
    the first batch that touches them, and the mapping is unmapped when
    the last array on it is freed; so the set's memory leaves the
    process with the set, rather than staying in the allocator's heap.
    A forward overwrites the set and its backward consumes what the
    forward left, so one set serves one forward-backward pass at a time.
    """
    sizes = [(c.input_size, c.hidden_size) for c in cells]
    spans, total = {}, 0
    for name, shapes in _work_shapes(sizes, rows, steps).items():
        spans[name] = []
        for shape in shapes:
            size = math.prod(shape)
            spans[name].append((total, total + size))
            total += -(-size // 8) * 8
    flat = np.frombuffer(mmap.mmap(-1, 8 * total), np.float64)
    return TrainBuffers(rows=rows, steps=steps, sizes=sizes, flat=flat,
                        regions={name: [flat[a:b] for a, b in s]
                                 for name, s in spans.items()})


def _prefix(region: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat region as ``shape``: a contiguous view."""
    return region[:math.prod(shape)].reshape(shape)


@dataclass
class WindowBatchCache:
    """What :func:`window_batch_backward` needs from the forward pass.

    ``stack`` and ``readout`` are numpy views of the weights. Time-major
    arrays over T steps and B windows: per layer, ``xin`` is
    the input (T, B, in; a view of the layer below's ``hs`` when there is
    no dropout), ``hs`` the hidden states (T + 1, B, h) after the zero
    start state, ``rz`` the reset and update gates, gate-major
    (T, 2, B, h), ``n`` the candidate and ``hn`` the term
    ``U_n h + b_hn`` (T, B, h), which the backward overwrites. ``raw``
    is the readout (T, B, 2N), ``d_belief`` the gradient of the
    batch-mean loss with respect to each step's (mu, sigma), ``fed`` the
    (T, B, 1) rows whose input was the previous step's belief, ``masks``
    the dropout masks (T, gaps, B, h) or None, and ``first_read`` the
    first step whose readout is scored or fed back: earlier readouts are
    not computed (their ``raw`` rows are zero) and their ``d_belief`` is
    zero. ``work`` is the set the (T, B, ·) arrays are views of, and
    ``begun`` the forward's pass on it (:meth:`TrainBuffers.begin`).
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
    first_read: int
    work: TrainBuffers
    begun: int


def window_batch_forward(stack: GruStackParams, readout: LinearParams, floor: float,
                         X: np.ndarray, anchors, k: int, masks, work: TrainBuffers):
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
    copy, because sharing one cell slowed batch-of-one inference. The
    readouts before step min(anchor_b) - 1 are neither scored nor fed
    back, so they are skipped. Every (T, B, ·) array of the cache is a
    view of ``work`` (:func:`train_buffers`), which the batch must fit
    (else ``ShapeError``) and which the next forward on it overwrites.
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
    first_fed = int(anchors.min())
    first_read = first_fed - 1
    last = len(stack.layers) - 1
    if stack.layers[0].input_size != 2 * N:
        raise ShapeError(f"the stack takes {stack.layers[0].input_size} inputs, "
                         f"not the (x, 0) rows of {N} series")
    view = work.begin(stack.layers, B, T)

    # the set's prefixes, with what a fresh array held written afresh:
    # the masks' ones, the zero start states and the zero sigma half
    dense_masks = None
    if masks is not None and last > 0:
        dense_masks = view["masks"][0]
        dense_masks.fill(1.0)
        for b, m in enumerate(masks):
            dense_masks[:m.shape[0], :, b] = m
    rows = X.transpose(1, 0, 2)
    targets = rows[1:T + 1]
    hs = view["hs"]
    for states in hs:
        states[0].fill(0.0)
    x0 = view["xin"][0]
    np.copyto(x0[:, :, :N], rows[:T])
    x0[:, :, N:].fill(0.0)
    xin = [x0] + (view["dropped"] if dense_masks is not None
                  else [hs[i][1:] for i in range(last)])
    rz, ns, hns = view["rz"], view["n"], view["hn"]
    # the skipped readouts keep constants (raw 0, mu = sigma = 1), so the
    # masked loss below stays finite and warning-free
    raw = np.zeros((T, B, 2 * N))
    belief = np.ones((T, B, 2 * N))   # (mu, sigma) per step
    # laid out once per batch, per layer: transposed weights and
    # row-broadcast biases, so each step is a plain product and a
    # same-shape add; the products' work buffers and gate-major copies
    # (gate_buffers); and one iterator over the per-step views, which
    # makes each step's views only when the step reaches them
    layers = []
    for i, c in enumerate(stack.layers):
        h = c.hidden_size
        a, b, lay, a_rz, _, _, a_n, b_rz, b_n, one, one_h = gate_buffers([c], (B,))[0][:11]
        drop = (repeat(None),) * 2
        if dense_masks is not None and i < last:
            drop = (dense_masks[:, i], xin[i + 1])
        layers.append((c.w.T.copy(), c.u.T.copy(), np.tile(c.b_w, (B, 1)),
                       np.tile(c.b_hn, (B, 1)), a, b, *lay, a_rz, a_n, b_rz, b_n, one,
                       one_h, np.empty((B, h)), np.empty((B, h)),
                       zip(hs[i][:-1], hs[i][1:], rz[i], rz[i][:, 0], rz[i][:, 1], ns[i],
                           hns[i], *drop)))
    w_out = readout.weight.T.copy()
    b_out = np.tile(readout.bias, (B, 1))
    zero, floors = np.zeros((B, N)), np.full((B, N), floor)
    reads = zip(*(v[first_read:] for v in (raw, raw[:, :, :N], raw[:, :, N:],
                                            belief, belief[:, :, :N], belief[:, :, N:])))

    with np.errstate(over="ignore"):   # exp(-x) in the gates may overflow to inf
        for t, x, fed_t in zip(range(T), xin[0], fed):
            if t >= first_fed:
                np.copyto(x, belief_t, "same_kind", fed_t)
            for (w_t, u_t, b_w, b_hn, a, b, ga, a_rows, gb, b_rows, a_rz, a_n, b_rz, b_n,
                 one, one_h, keep, zh, views) in layers:
                h_prev, h_next, rz_t, r, z, n, hn, mask, dropped = next(views)
                x.dot(w_t, a)
                np.add(a, b_w, a)
                h_prev.dot(u_t, b)
                # one copy per product lays its rows out gate-major, so
                # every gate op below runs on contiguous blocks
                np.copyto(ga, a_rows)
                np.copyto(gb, b_rows)
                np.add(a_rz, b_rz, rz_t)
                _sigmoid(rz_t, one)
                np.add(b_n, b_hn, hn)
                np.multiply(r, hn, n)
                np.add(n, a_n, n)
                np.tanh(n, n)
                np.subtract(one_h, z, keep)
                np.multiply(keep, n, keep)
                np.multiply(z, h_prev, zh)
                np.add(keep, zh, h_next)
                x = h_next if mask is None else np.multiply(h_next, mask, dropped)
            if t >= first_read:
                # step t + 1 feeds back this step's belief_t
                raw_t, raw_mu, raw_sigma, belief_t, mu, sigma = next(reads)
                x.dot(w_out, raw_t)
                np.add(raw_t, b_out, raw_t)
                np.copyto(mu, raw_mu)
                np.logaddexp(zero, raw_sigma, sigma)
                np.add(sigma, floors, sigma)

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
                             masks=dense_masks, first_read=first_read, work=work,
                             begun=work.passes)
    return losses, cache


def window_batch_backward(cache: WindowBatchCache) -> list:
    """Gradients of the batch-mean loss: hand-written BPTT over the cache.

    Returns one array per weight, in ``UPropModel.parameters()`` order:
    ``w``, ``u``, ``b_w`` and ``b_hn`` of each layer, then the readout
    weight and bias; each a fresh array, never a view of the work set.
    Steps run in reverse. At each step the gradient enters at the
    readout (from the loss and from the next step's input
    on fed rows; not before ``cache.first_read``, where it is zero),
    falls through the layers top-down, and leaves layer 0's input towards
    the previous step's (mu, sigma) on fed rows. The gate derivatives are
    formed for all steps before the loop and the weight gradients summed
    over all steps after it, one matrix product per weight. A step's gate
    ops run on one gate-major (3, B, h) block, copied once into the
    (B, 3h) rows of ``a`` and once into those of ``c``, which the
    products read. The step gradients and the update-gate factor are
    laid out in ``cache.work``, the forward's set, and the candidate and
    reset factors overwrite the cache's ``n`` and ``hn``: the backward
    consumes its cache, so a cache serves one backward, and only while no
    later forward has run on its set (else ``ShapeError``).
    """
    T, B, two_n = cache.raw.shape
    view = cache.work.consume(cache.begun, B, T)
    N = two_n // 2
    # d(mu, sigma)/d(raw) is (1, sigmoid(raw_sigma)) by the softplus squash
    with np.errstate(over="ignore"):
        d_sigma = _sigmoid(cache.raw[:, :, N:].copy())
    d_squash = np.concatenate([np.ones((T, B, N)), d_sigma], axis=2)
    d_raw = cache.d_belief * d_squash
    # per layer, top-down: one iterator, last step first, over the gate
    # derivative factors (T, B, h), the step gradients of the
    # pre-activations a = W x + b_w and c = U h + [0, 0, b_hn] (T, B, 3h)
    # with their gate-major views, and the dropout masks on the layer's
    # input; and the step's work buffers
    layers, d_a, d_c = [], [], []
    for i, c in enumerate(cache.stack.layers):
        h = c.hidden_size
        r, z = cache.rz[i][:, 0], cache.rz[i][:, 1]
        n, hn, h_prev = cache.n[i], cache.hn[i], cache.hs[i][:T]
        # ((h_prev - n) * z) * (1 - z), (1 - z) * (1 - n * n) and
        # (hn * r) * (1 - r), op for op; k_z first, while n is intact. The
        # step loop below writes d_a before it reads it, so until then
        # d_a's region holds the temporary 1 - z, then 1 - r
        k_z, da, dc = view["k_z"][i], view["d_a"][i], view["d_c"][i]
        one_minus = _prefix(da.reshape(-1), k_z.shape)
        np.subtract(h_prev, n, k_z)
        np.multiply(k_z, z, k_z)
        np.subtract(1.0, z, one_minus)
        np.multiply(k_z, one_minus, k_z)
        k_n = np.multiply(n, n, n)
        np.subtract(1.0, k_n, k_n)
        np.multiply(one_minus, k_n, k_n)
        k_r = np.multiply(hn, r, hn)
        np.subtract(1.0, r, one_minus)
        np.multiply(k_r, one_minus, k_r)
        d_a.append(da)
        d_c.append(dc)
        per_step = (k_n, k_r, k_z, r, z, da, da.reshape(T, B, 3, h).transpose(0, 2, 1, 3),
                    dc, dc.reshape(T, B, 3, h).transpose(0, 2, 1, 3))
        masks = repeat(None)
        if i > 0 and cache.masks is not None:
            masks = cache.masks[::-1, i - 1]
        g = np.empty((3, B, h))
        d_in = np.empty((B, c.input_size)) if i > 0 else None
        layers.insert(0, (c.w, c.u, zip(*(v[::-1] for v in per_step), masks), g, g[0],
                          g[1], g[2], np.empty((B, h)), np.empty((B, h)),
                          np.zeros((B, h)), d_in))
    w_out = cache.readout.weight
    d_top, d_feed = np.empty((B, w_out.shape[1])), np.empty((B, two_n))
    fed_next = False   # whether step t + 1 fed back step t's belief

    for t, d_raw_t, squash, fed_t, fed_step in zip(
            range(T - 1, -1, -1), d_raw[::-1], d_squash[::-1], cache.fed[::-1],
            cache.fed.any(axis=(1, 2))[::-1].tolist()):
        if fed_next:
            np.multiply(d_feed, squash, d_feed)
            np.add(d_raw_t, d_feed, d_raw_t)
        d_out = d_raw_t.dot(w_out, d_top) if t >= cache.first_read else None
        for (w, u, views, g, g_r, g_z, g_n, dh_sum, dh_z, d_h, d_in) in layers:
            k_n, k_r, k_z, r, z, da, da_g, dc, dc_g, mask = next(views)
            dh = d_h if d_out is None else np.add(d_h, d_out, dh_sum)
            np.multiply(dh, k_n, g_n)
            np.multiply(g_n, k_r, g_r)
            np.multiply(dh, k_z, g_z)
            np.copyto(da_g, g)
            # c's r and z blocks are a's; its n block is d_pre_n * r
            np.multiply(g_n, r, g_n)
            np.copyto(dc_g, g)
            np.multiply(dh, z, dh_z)
            dc.dot(u, d_h)
            np.add(d_h, dh_z, d_h)
            if d_in is not None:
                d_out = da.dot(w, d_in)
                if mask is not None:
                    np.multiply(d_out, mask, d_out)
        # layer 0's input gradient (``da`` and ``w`` are layer 0's here)
        # only matters on fed rows
        fed_next = fed_step
        if fed_next:
            da.dot(w, d_feed)
            np.multiply(d_feed, fed_t, d_feed)

    grads = []
    for i, c in enumerate(cache.stack.layers):
        h = c.hidden_size
        da = d_a[i].reshape(T * B, 3 * h)
        dc = d_c[i].reshape(T * B, 3 * h)
        grads += [da.T @ cache.xin[i].reshape(T * B, -1),
                  dc.T @ cache.hs[i][:T].reshape(T * B, h),
                  da.sum(axis=0), dc[:, 2 * h:].sum(axis=0)]
    d_raw = d_raw.reshape(T * B, two_n)
    return grads + [d_raw.T @ cache.hs[-1][1:].reshape(T * B, -1),
                    d_raw.sum(axis=0)]


# Adam's moment decays and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam with bias correction; moments shape-match the parameter list."""

    learning_rate: float
    m: list
    v: list
    step_count: int = 0


def adam_init(params: list, learning_rate: float) -> AdamState:
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
