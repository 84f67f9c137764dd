"""GRU stack, affine readout, dropout, the training kernel and Adam.

Each GRU cell is stored once, in the fused layout its kernels read
(:class:`GruCell`: ``w``, ``u`` and ``b_w`` stack the gate blocks
``[r; z; n]``), and its input and hidden sizes are read from those
arrays. A model holds ``Var`` leaves; :func:`fuse_stack` and
:func:`freeze_linear` give numpy views of the same arrays, so an
in-place weight edit is seen everywhere. The dropout rate is a training
setting (``forecaster.TrainConfig.dropout``): inference never drops out.

Inference steps the whole stack in one frame (:func:`fused_stack_step`,
every layer's cell inline) on one row or on a batch of rows, on the work
buffers its caller makes once per scan (:func:`gate_buffers`): the gate
products land there, and the gate views, the ones arrays, the cell's
bias arrays and its two products, bound to its weight arrays, are bound
there once per scan, not once per step. Only the new hidden state is a
fresh array, so a state a caller keeps is never written again, and the
buffers are never kept on the model, so concurrent scans of one model
share nothing they write. A batch's gate blocks would be column slices
of (B, 3h) products, on which numpy runs its inner loop once per row, so
one copy per product lays the rows out gate-major, (3, B, h), and every
gate op runs on contiguous blocks. At batch of one, numpy's per-call
dispatch outweighs a step's arithmetic, so the step runs no Python frame
per layer, passes every ``out`` positionally and every operand as an
array, and reads no attribute. Every product is one gemv per row
(:func:`bound_matvec`): the bound method ``w.dot`` for one row (the C
function of ``np.dot`` without its Python-level dispatch) and
:func:`matvec`'s stacked matmul for a batch, so each row of a batch is
bitwise the row stepped alone. A gemm (``X @ W.T``) is not: on the
scipy-openblas of numpy 2.4 its rows differ from the gemv at every
B >= 2, and even depend on B. One series stays 1-D, because a (1, n)
batch costs more per product.

Training runs :func:`window_batch_forward` and
:func:`window_batch_backward`, a hand-written backward pass through time
over the gates the forward caches (``forecaster._batch_loss`` hangs its
gradients on the one loss node). The training forward repeats the cell's
arithmetic, in the same order, on buffers it owns, because one cell
shared by both callers slowed inference; only its sigmoid's negation is
gone, because the forward's copies of the weights hold the reset and
update columns negated. Both kernels take the batched scan's gate-major
layout, read each step's views from lists laid out once per work set
and batch width (:class:`StepViews`), not once per batch, and pass every
ufunc its output positionally; the readouts before step min(anchor) - 1
are neither scored nor fed back, so they are not run. Both run on a work set
(:func:`train_buffers`) that holds every (T, B, ·) array they keep,
and nothing the backward can rebuild once per batch, made once per
``train`` call as one anonymous memory mapping: its pages are faulted
in once, not once per batch, and they leave the process when ``train``
returns. The backward consumes its cache, and the set
counts its passes, so a backward whose cache a later forward
overwrote, or a second backward on one cache, raises ``ShapeError``.
CHANGES.md records the benchmark runs behind these choices.

This module is the one place that knows the gate order;
:func:`gate_blocks` names the per-gate blocks for checkpoints.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import partial

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


def _uniform(rng: np.random.Generator | None, bound: float, shape: tuple) -> np.ndarray:
    """Uniform(-bound, bound) draws of ``shape`` from ``rng``; with
    ``rng`` None, an unfilled array, for a caller that writes every
    weight itself (``load_checkpoint``), so it neither draws nor imports
    ``numpy.random``."""
    return np.empty(shape) if rng is None else rng.uniform(-bound, bound, size=shape)


def init_gru_cell(input_size: int, hidden_size: int,
                  rng: np.random.Generator | None) -> GruCell:
    """Uniform(-1/sqrt(hidden), 1/sqrt(hidden)) matrices, zero biases;
    unfilled matrices with ``rng`` None (:func:`_uniform`)."""
    bound = 1.0 / math.sqrt(hidden_size)
    rows = 3 * hidden_size
    return GruCell(
        w=Var(_uniform(rng, bound, (rows, input_size))),
        u=Var(_uniform(rng, bound, (rows, hidden_size))),
        b_w=Var(np.zeros(rows)),
        b_hn=Var(np.zeros(hidden_size)),
    )


def init_gru_stack(input_size: int, hidden_size: int, n_layers: int,
                   rng: np.random.Generator | None) -> GruStackParams:
    layers = []
    for i in range(n_layers):
        in_size = input_size if i == 0 else hidden_size
        layers.append(init_gru_cell(in_size, hidden_size, rng))
    return GruStackParams(layers=layers)


def init_linear(in_size: int, out_size: int,
                rng: np.random.Generator | None) -> LinearParams:
    bound = 1.0 / math.sqrt(in_size)
    return LinearParams(
        weight=Var(_uniform(rng, bound, (out_size, in_size))),
        bias=Var(np.zeros(out_size)),
    )


def freeze_linear(lin: LinearParams) -> LinearParams:
    """Numpy views of the readout's weights: the same arrays, no copies."""
    return LinearParams(weight=value_of(lin.weight), bias=value_of(lin.bias))


def fuse_stack(stack: GruStackParams) -> GruStackParams:
    """Numpy views of the stack's weights: the same arrays, no copies."""
    return GruStackParams(layers=[GruCell(*map(value_of, c.weights())) for c in stack.layers])


def _sigmoid(x):
    """1 / (1 + exp(-x)) in place on ``x``, by four ops: negate, ``exp``,
    add 1, reciprocal. The backward's σ-squash derivative calls it;
    :func:`fused_stack_step` runs the four ops inline, adding a ones array
    of ``x``'s shape, which rounds the same as the scalar and dispatches
    faster, and :func:`window_batch_forward` the last three, because its
    reset and update pre-activations are formed negated. Below x = -709,
    exp(-x) overflows to inf and the result is exactly 0; callers, and
    those of both kernels, silence that overflow with
    ``np.errstate(over="ignore")``.
    """
    np.exp(np.negative(x, x), x)
    np.add(x, 1.0, x)
    return np.reciprocal(x, x)


def matvec(w, x, out=None):
    """``w @ x`` for each row of ``x``, (n,) or a batch (B, n), where numpy
    runs one gemv per stacked row: each row of a batch is bitwise the
    product of that row alone, and of ``w.dot`` on it. ``out`` (the shape
    of the result) receives the product instead of a fresh array."""
    if out is None:
        return np.matmul(w, x[..., None])[..., 0]
    np.matmul(w, x[..., None], out=out[..., None])
    return out


def bound_matvec(w, shape: tuple):
    """:func:`matvec` with ``w`` bound, for rows of leading ``shape``: for
    a batch, ``(B,)``, ``matvec`` itself; for one row, ``()``, the bound
    method ``w.dot``, the same C function and gemv as ``np.dot`` without
    ``np.dot``'s Python-level ``__array_function__`` dispatch, so a
    one-row product runs no Python frame. Either holds ``w`` itself, so
    an in-place edit of ``w`` is seen."""
    return partial(matvec, w) if shape else w.dot


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
    half, the 1 of the sigmoid and of ``1 - z``; the cell's two products
    ``W x`` and ``U h`` (:func:`bound_matvec`) and its bias arrays
    ``b_w`` and ``b_hn``, each bound to the cell's own arrays, not
    copies, so an in-place weight edit is seen. A step overwrites the
    products, the copies and their blocks and reads the rest, so one set
    serves one scan at a time; they are never kept on the model.
    :func:`window_batch_forward` lays its products out on one set per
    batch width too, kept in its :class:`StepViews`.
    """
    bufs = []
    for cell in cells:
        h = cell.hidden_size
        a, b = np.empty(shape + (3 * h,)), np.empty(shape + (3 * h,))
        # (3, ..., h) views: one row's are contiguous, a batch's are copied
        ga, gb = (p.reshape(shape + (3, h)).swapaxes(0, -2) for p in (a, b))
        lay = None
        if shape:
            lay = (np.empty(ga.shape), ga, np.empty(gb.shape), gb)
            ga, gb = lay[0], lay[2]
        one = np.ones((2,) + shape + (h,))
        bufs.append((a, b, lay, ga[:2], ga[0], ga[1], ga[2], gb[:2], gb[2], one, one[1],
                     bound_matvec(cell.w, shape), bound_matvec(cell.u, shape),
                     cell.b_w, cell.b_hn))
    return bufs


def fused_stack_step(stack: GruStackParams, x, h_prev, bufs):
    """Advance every fused layer one step (inference: no dropout), for one
    row or a batch of rows; returns (top output, new hidden), each state a
    fresh array. ``h_prev`` holds one state per layer of ``stack``, else
    ``ShapeError``; ``bufs`` is :func:`gate_buffers` over the stack's
    layers for the rows' shape, and each layer reads its weights there.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    n = tanh(W_n x + b_in + r * (U_n h + b_hn))
    h' = (1 - z) * n + z * h
    """
    if len(h_prev) != len(stack.layers):
        raise ShapeError(f"need one hidden state per layer ({len(stack.layers)}), "
                         f"got {len(h_prev)}")
    h_next = []
    # every cell inline, in place on the scan's buffers, with positional
    # outputs, array operands and the ufuncs read once per call: at batch
    # of one, a Python frame, a temporary, an attribute read, a keyword
    # or a scalar operand each costs a fair share of the arithmetic
    add, multiply, subtract, tanh = np.add, np.multiply, np.subtract, np.tanh
    exp, negative, reciprocal = np.exp, np.negative, np.reciprocal
    for h, (a, b, lay, rz, r, z, a_n, b_rz, n, one, one_h, w_x, u_h, b_w, b_hn) in zip(h_prev, bufs):
        w_x(x, a)
        add(a, b_w, a)
        u_h(h, b)
        if lay is not None:
            # a batch: one copy per product lays its rows out gate-major,
            # so every op below runs on contiguous blocks, not once per row
            np.copyto(lay[0], lay[1])
            np.copyto(lay[2], lay[3])
        add(rz, b_rz, rz)
        # _sigmoid's three ops
        exp(negative(rz, rz), rz)
        add(rz, one, rz)
        reciprocal(rz, rz)
        add(n, b_hn, n)
        multiply(n, r, n)
        add(n, a_n, n)
        tanh(n, n)
        zh = multiply(z, h, a_n)
        x = subtract(one_h, z)
        multiply(x, n, x)
        add(x, zh, x)
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
    per gap between layers, or just one. What the backward can rebuild
    once per batch has no region: a dropped layer output and a step's
    gradient of ``c = U h + [0, 0, b_hn]`` pass through a (B, ·) scratch
    per step. Each layer's ``d_a`` is one slot of 3·B·h floats per step,
    which holds what the forward leaves for the step's gate factors, then
    the factors, until the step's gradients overwrite it (:func:`_slots`);
    ``temp``, one for all layers, holds the factors' temporaries and,
    after the step loop, one rebuilt masked input at a time."""
    h = [hidden for _, hidden in sizes]
    last = len(sizes) - 1
    return {"xin": [(T, B, sizes[0][0])], "masks": [(T, last, B, h[0])],
            "hs": [(T + 1, B, n) for n in h], "rz": [(T, 2, B, n) for n in h],
            "d_a": [(T, B, 3 * n) for n in h], "temp": [(T, B, max(h))]}


def _slots(d_a: np.ndarray) -> np.ndarray:
    """A (T, B, 3h) ``d_a`` as its per-step slots (T, 3, B, h). After the
    forward, blocks 0, 1 and 2 of slot t hold step t's
    ``r * (U_n h + b_hn)``, ``1 - z`` and candidate ``n``, products the
    forward forms anyway; the backward forms the reset, update and
    candidate factors over them, in that order of blocks."""
    T, B, three_h = d_a.shape
    return d_a.reshape(T, 3, B, three_h // 3)


@dataclass
class TrainBuffers:
    """The work set of :func:`window_batch_forward` and
    :func:`window_batch_backward` for batches of up to ``rows`` windows
    over up to ``steps`` steps on layers of ``sizes``
    ``(input_size, hidden_size)``. ``flat`` is the whole set, float64;
    ``regions`` holds, by name, one flat region of it per array of
    :func:`_work_shapes`:

    - ``xin``, layer 0's input; ``hs``, each layer's hidden states;
    - ``masks``, the dropout masks; ``rz``, each layer's reset and
      update gates;
    - ``d_a``, each layer's step gradients of ``a = W x + b_w``, one
      slot of 3·B·h floats per step (:func:`_slots`);
    - ``temp``, one (T, B, max h) region shared by the layers.

    No region holds a copy, and no value outlives its last reader: the
    forward writes step t's ``r * (U_n h + b_hn)``, ``1 - z`` and
    candidate ``n`` into ``d_a``'s slot t, the backward forms step t's
    three gate factors there, and its step loop reads them before it
    writes step t's gradients over them. The factors' temporaries take
    ``temp``, and so, after the step loop, does the masked input of each
    layer above a dropout gap, which the forward passes up through a
    (B, h) scratch and the backward rebuilds for the weight gradient.
    ``c``'s step gradients are ``d_a``'s, whose ``n`` block the backward
    multiplies by ``r`` in place once ``W``'s gradient is formed.

    A batch takes a prefix of each region, reshaped to its own (T, B, ·),
    so it is contiguous whatever the batch's size, and step t's block
    starts at the same offset whatever T is. So ``width`` keeps one
    :class:`StepViews` over all ``steps`` steps, made by the first batch
    of its width and read by every later one until a batch of another
    width replaces it (:meth:`step_views`): a short last batch makes its
    own, and the next full one remakes the full width's. ``transposed``
    holds each layer's ``W^T`` and ``U^T`` and the readout's weight
    transposed, which every forward refreshes in place. ``passes`` counts
    the forwards run on the set and the backwards that consumed them.
    """

    rows: int
    steps: int
    sizes: list
    flat: np.ndarray
    regions: dict
    transposed: list = field(repr=False)
    passes: int = 0
    width: "StepViews | None" = field(default=None, repr=False)

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

    def step_views(self, cells: list, B: int) -> "StepViews":
        """The :class:`StepViews` of batches of ``B`` windows on this set,
        made when the latest batch had another width; ``cells`` are
        layers of the set's sizes, whose values are not kept."""
        if self.width is None or self.width.rows != B:
            self.width = _step_views(self, cells, B)
        return self.width


@dataclass
class StepViews:
    """What the training kernels read per step, for batches of one width
    on one :class:`TrainBuffers` set, laid out over all its steps once;
    a batch of T steps reads the first T of each list.

    Per layer (``forward`` and ``backward``): the step tuples of the set's
    regions (the forward's hidden states, gates and dropout masks; the
    backward's factors, gates, step gradients of ``a`` with their
    gate-major view, and masks), each view shared by both kernels, and the
    step's (B, ·) work buffers. Step t's blocks of ``d_a``'s slot t
    (:func:`_slots`) are the forward's ``r * (U_n h + b_hn)``, ``1 - z``
    and candidate, and the backward's factors. The forward's also holds
    the layer's row-tiled biases, which each batch refreshes in place
    from the stack, with the reset and update columns negated, as it does
    the set's ``transposed`` weights.
    ``inputs`` holds layer 0's input rows and the fed-back masks ``fed``
    (steps, B, 1); ``reads`` the readout rows ``raw`` and the beliefs
    ``belief`` (steps, B, 2N), with their sigma halves; ``back_reads`` the
    rows of ``d_raw``, where the forward writes the loss gradient of the
    beliefs and the backward turns it into the readout's, and of the
    factors ``d_squash[t] * fed[t + 1]``, (steps, B, 2N) each. ``b_out``,
    ``zero`` and ``floors`` serve the readout; ``d_top`` and ``d_feed``
    the backward. ``rows`` is the width B.
    """

    rows: int
    forward: list
    backward: list
    inputs: list
    fed: np.ndarray
    raw: np.ndarray
    belief: np.ndarray
    reads: list
    b_out: np.ndarray
    zero: np.ndarray
    floors: np.ndarray
    d_raw: np.ndarray
    factor: np.ndarray
    back_reads: list
    d_top: np.ndarray
    d_feed: np.ndarray


def _step_views(work: TrainBuffers, cells: list, B: int) -> StepViews:
    """The :class:`StepViews` of ``B``-wide batches on ``work``."""
    steps, sizes = work.steps, work.sizes
    view = work.views(B, steps)
    two_n, N, last = sizes[0][0], sizes[0][0] // 2, len(sizes) - 1
    masks = view["masks"][0]
    forward, backward, below = [], [], None
    for i, ((in_size, h), cell) in enumerate(zip(sizes, cells)):
        hs, rz, da = view["hs"][i], view["rz"][i], view["d_a"][i]
        states, slots = list(hs), _slots(da)
        fwd, back = [], []
        for t in range(steps):
            r, z = rz[t, 0], rz[t, 1]
            # the forward's r * hn, 1 - z and n; the backward's k_r, k_z, k_n
            k_r, k_z, k_n = slots[t]
            # the mask on this layer's output; the one on its input is the
            # layer below's, so each mask view serves both kernels
            fwd.append((states[t], states[t + 1], rz[t], r, z, k_r, k_z, k_n,
                        masks[t, i] if i < last else None))
            back.append((k_n, k_r, k_z, r, z, da[t], da[t].reshape(B, 3, h).transpose(1, 0, 2),
                         below[t][-1] if i > 0 else None))
        a, b, lay, a_rz, _, _, a_n, b_rz, b_n, one, one_h = gate_buffers([cell], (B,))[0][:11]
        forward.append((np.empty((B, 3 * h)), np.empty((B, h)), a, b, *lay, a_rz, a_n, b_rz,
                        b_n, one, one_h, np.empty((B, h)), np.empty((B, h)), np.empty((B, h)),
                        fwd))
        below = fwd
        g, dc = np.empty((3, B, h)), np.empty((B, 3 * h))
        backward.append((back, g, g[0], g[1], g[2], dc, dc.reshape(B, 3, h).transpose(1, 0, 2),
                         np.empty((B, h)), np.empty((B, h)), np.empty((B, h)),
                         np.empty((B, in_size)) if i > 0 else None))
    fed = np.empty((steps, B, 1), dtype=bool)
    raw, belief, d_raw, factor = (np.empty((steps, B, two_n)) for _ in range(4))
    top = sizes[-1][1]
    return StepViews(
        rows=B, forward=forward, backward=backward, inputs=list(zip(view["xin"][0], fed)), fed=fed,
        raw=raw, belief=belief, reads=list(zip(raw, raw[:, :, N:], belief, belief[:, :, N:])),
        b_out=np.empty((B, two_n)), zero=np.zeros((B, N)),
        floors=np.empty((B, N)), d_raw=d_raw, factor=factor,
        back_reads=list(zip(d_raw, factor)), d_top=np.empty((B, top)),
        d_feed=np.empty((B, two_n)))


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
    transposed = [(np.empty((n_in, 3 * h)), np.empty((h, 3 * h))) for n_in, h in sizes]
    return TrainBuffers(rows=rows, steps=steps, sizes=sizes, flat=flat,
                        regions={name: [flat[a:b] for a, b in s]
                                 for name, s in spans.items()},
                        transposed=transposed + [np.empty((sizes[-1][1], sizes[0][0]))])


def _prefix(region: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat region as ``shape``: a contiguous view."""
    return region[:math.prod(shape)].reshape(shape)


@dataclass
class WindowBatchCache:
    """What :func:`window_batch_backward` needs from the forward pass.

    ``stack`` and ``readout`` are numpy views of the weights. Time-major
    arrays over T steps and B windows: per layer, ``xin`` is
    the input (T, B, in): for layer 0 its rows; above it a view of the
    layer below's ``hs``, or, above a dropout gap, a prefix of the set's
    shared ``temp``, into which the backward recomputes the masked input,
    which is not stored. ``hs`` is the hidden states (T + 1, B, h) after
    the zero start state, ``rz`` the reset and update gates, gate-major
    (T, 2, B, h); the candidate ``n``, ``1 - z`` and
    ``r * (U_n h + b_hn)`` are in the per-step slots of the set's ``d_a``
    (:func:`_slots`), where the backward overwrites them. ``raw``
    is the readout (T, B, 2N), ``d_belief`` the gradient of the
    batch-mean loss with respect to each step's (mu, sigma), ``fed`` the
    (T, B, 1) rows whose input was the previous step's belief, ``masks``
    the dropout masks (T, gaps, B, h) or None, and ``first_read`` the
    first step whose readout is scored or fed back: earlier readouts are
    not computed (their ``raw`` rows are zero) and their ``d_belief`` is
    zero; the backward turns ``d_belief`` into the readout's gradient in
    place. ``work`` is the set the (T, B, ·) arrays are views of, of its
    regions or of its :class:`StepViews` for width B, and ``begun`` the
    forward's pass on it (:meth:`TrainBuffers.begin`).
    """

    stack: GruStackParams
    readout: LinearParams
    xin: list
    hs: list
    rz: list
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
    read. Each step is :func:`fused_stack_step`'s arithmetic, in the
    same order, with a batch dimension, on buffers the backward reads: a
    copy, because sharing one cell slowed batch-of-one inference. One
    op is gone: the batch's copies of ``W^T``, ``U^T`` and ``b_w`` hold
    the reset and update columns negated, so their sum is exactly minus
    the pre-activation and the sigmoid starts at its ``exp`` (IEEE
    negation is exact, and only the sign of a zero can differ, which
    ``exp`` maps to 1 either way). The readouts before step
    min(anchor_b) - 1 are neither scored nor fed back, so they are
    skipped. Every (T, B, ·) array of the cache is a view of ``work``
    (:func:`train_buffers`) or of its :class:`StepViews` for width B,
    which the batch must fit (else ``ShapeError``) and which the next
    forward on it overwrites; each step's views are made once per set and
    width, not once per batch.
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
    scored = (steps >= anchors - 1) & (steps < anchors + k - 1)
    first_fed = int(anchors.min())
    first_read = first_fed - 1
    last = len(stack.layers) - 1
    if stack.layers[0].input_size != 2 * N:
        raise ShapeError(f"the stack takes {stack.layers[0].input_size} inputs, "
                         f"not the (x, 0) rows of {N} series")
    view = work.begin(stack.layers, B, T)
    sv = work.step_views(stack.layers, B)
    fed = sv.fed[:T]
    np.greater_equal(steps, anchors, fed[:, :, 0])

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
    # a layer above a dropout gap reads its input from a (B, h) scratch
    # per step; the backward rebuilds it in the shared temp region
    temp = work.regions["temp"][0]
    xin = [x0] + [hs[i][1:] if dense_masks is None else _prefix(temp, hs[i][1:].shape)
                  for i in range(last)]
    # the skipped readouts keep constants (raw 0, mu = sigma = 1), so the
    # masked loss below stays finite and warning-free
    raw, belief = sv.raw[:T], sv.belief[:T]   # belief: (mu, sigma) per step
    raw[:first_read].fill(0.0)
    belief[:first_read].fill(1.0)
    # the weights, refreshed in place: transposed, so each step is a
    # plain product, and the biases row-broadcast, so the add is of one
    # shape; the reset and update columns negated
    layers = []
    *transposed, w_out = work.transposed
    for i, (c, (w_t, u_t), (b_w, b_hn, *bufs, steps_t)) in enumerate(
            zip(stack.layers, transposed, sv.forward)):
        rz_cols = 2 * c.hidden_size
        for dst, src in ((w_t, c.w.T), (u_t, c.u.T), (b_w, c.b_w)):
            np.negative(src[..., :rz_cols], dst[:, :rz_cols])
            dst[:, rz_cols:] = src[..., rz_cols:]
        b_hn[...] = c.b_hn
        layers.append((w_t, u_t, b_w, b_hn, *bufs, dense_masks is not None and i < last,
                       iter(steps_t)))
    b_out, zero, floors = sv.b_out, sv.zero, sv.floors
    w_out[...] = readout.weight.T
    b_out[...] = readout.bias
    floors.fill(floor)
    reads = iter(sv.reads[first_read:])

    with np.errstate(over="ignore"):   # exp(-x) in the gates may overflow to inf
        for t, (x, fed_t) in zip(range(T), sv.inputs):
            if t >= first_fed:
                np.copyto(x, belief_t, "same_kind", fed_t)
            for (w_t, u_t, b_w, b_hn, a, b, ga, a_rows, gb, b_rows, a_rz, a_n, b_rz, b_n,
                 one, one_h, keep, zh, dropped, drop, views) in layers:
                h_prev, h_next, rz_t, r, z, r_hn, one_minus_z, n, mask = next(views)
                x.dot(w_t, a)
                np.add(a, b_w, a)
                h_prev.dot(u_t, b)
                # one copy per product lays its rows out gate-major, so
                # every gate op below runs on contiguous blocks
                ga[...] = a_rows
                gb[...] = b_rows
                # minus the pre-activation, so _sigmoid's ops from its exp
                np.add(a_rz, b_rz, rz_t)
                np.exp(rz_t, rz_t)
                np.add(rz_t, one, rz_t)
                np.reciprocal(rz_t, rz_t)
                # r * (U_n h + b_hn), 1 - z and n land in the step's slot
                # of d_a, where the backward forms its factors from them
                np.add(b_n, b_hn, keep)
                np.multiply(r, keep, r_hn)
                np.add(r_hn, a_n, n)
                np.tanh(n, n)
                np.subtract(one_h, z, one_minus_z)
                np.multiply(one_minus_z, n, keep)
                np.multiply(z, h_prev, zh)
                np.add(keep, zh, h_next)
                x = np.multiply(h_next, mask, dropped) if drop else h_next
            if t >= first_read:
                # step t + 1 feeds back this step's belief_t
                raw_t, raw_sigma, belief_t, sigma = next(reads)
                x.dot(w_out, raw_t)
                np.add(raw_t, b_out, raw_t)
                belief_t[...] = raw_t   # mu; sigma is written next
                np.logaddexp(zero, raw_sigma, sigma)
                np.add(sigma, floors, sigma)

    mu, sigma = belief[:, :, :N], belief[:, :, N:]
    z = (targets - mu) / sigma
    terms = (np.log(sigma).sum(axis=2) + 0.5 * (z * z).sum(axis=2)
             + N * 0.5 * LN_2PI)
    losses = np.where(scored, terms, 0.0).sum(axis=0) * (1.0 / (k * N))
    # d(batch-mean loss)/d(mu, sigma) at each scored readout
    weight = scored[:, :, None] * (1.0 / (B * k * N))
    d_belief = np.multiply(np.concatenate([-z / sigma, (1.0 - z * z) / sigma], axis=2),
                           weight, sv.d_raw[:T])
    cache = WindowBatchCache(stack=stack, readout=readout, xin=xin, hs=hs, rz=view["rz"],
                             raw=raw, d_belief=d_belief, fed=fed,
                             masks=dense_masks, first_read=first_read, work=work,
                             begun=work.passes)
    return losses, cache


def window_batch_backward(cache: WindowBatchCache) -> list:
    """Gradients of the batch-mean loss: hand-written BPTT over the cache.

    Returns one array per weight, in ``UPropModel.parameters()`` order:
    ``w``, ``u``, ``b_w`` and ``b_hn`` of each layer, then the readout
    weight and bias; each a fresh array, never a view of the work set.
    Steps run in reverse. At each step the gradient enters at the
    readout (from the loss and from the next step's input on fed rows;
    not before ``cache.first_read``, where it is zero), falls through the
    layers top-down, and leaves layer 0's input towards the previous
    step's (mu, sigma) on fed rows. The gate derivatives, and the factor
    ``d_squash[t] * fed[t + 1]`` by which that input gradient reaches
    step t's readout, are formed for all steps before the loop (``fed``
    is exactly 0 or 1, so one factor is bitwise the two products it
    replaces), and the weight gradients are summed over all steps after
    it, one matrix product per weight. The products read the model's own
    ``w`` and ``u``, not the forward's negated copies. A step's gate ops
    run on one gate-major (3, B, h) block, copied once into the step's
    (B, 3h) rows of ``a`` and once, with its n block times r, into a
    (B, 3h) scratch for ``c``, which the products read; each step's views
    and scratch are the :class:`StepViews` of the forward's set and
    width. The step gradients of ``a`` are laid out in ``cache.work``,
    the forward's set, one slot of 3·B·h floats per step (:func:`_slots`),
    where the forward left the step's ``r * (U_n h + b_hn)``, ``1 - z``
    and candidate: the three factors of step t are formed in place in
    slot t, and step t reads them before it writes its gradients over
    them. Their temporaries take the set's shared ``temp``: a contiguous
    copy of the candidate, in which the candidate factor is formed off
    the strided blocks, then ``1 - r``.
    After the loop each layer forms ``W``'s and ``b_w``'s gradients from
    ``d_a``, multiplies its n block by r in place, over all steps, for
    ``U``'s and ``b_hn``'s, and a layer above a dropout gap first
    rebuilds its masked input in ``temp``. So the backward consumes its
    cache: a cache serves one backward, and only while no later forward
    has run on its set (else ``ShapeError``).
    """
    T, B, two_n = cache.raw.shape
    view = cache.work.consume(cache.begun, B, T)
    sv = cache.work.width
    N = two_n // 2
    # d(mu, sigma)/d(raw) is (1, sigmoid(raw_sigma)) by the softplus squash:
    # d_raw is d_belief, in place, with its sigma half times the sigmoid,
    # and the factor is fed[t + 1] with its sigma half times it too
    with np.errstate(over="ignore"):
        d_sigma = _sigmoid(cache.raw[:, :, N:].copy())
    d_raw, factor = cache.d_belief, sv.factor[:T - 1]
    np.multiply(d_raw[:, :, N:], d_sigma, d_raw[:, :, N:])
    factor[:, :, :N] = cache.fed[1:]
    np.multiply(d_sigma[:-1], cache.fed[1:], factor[:, :, N:])
    # per layer, top-down: one iterator, last step first, over the gate
    # derivative factors (T, B, h), the step gradients of the
    # pre-activation a = W x + b_w (T, B, 3h) with its gate-major view,
    # and the dropout masks on the layer's input; and the step's work
    # buffers, among them the (B, 3h) gradient of c = U h + [0, 0, b_hn]
    d_a, temp = view["d_a"], cache.work.regions["temp"][0]
    layers = []
    for i, (c, (steps_t, *bufs, d_h, d_in)) in enumerate(zip(cache.stack.layers, sv.backward)):
        h = c.hidden_size
        r, z = cache.rz[i][:, 0], cache.rz[i][:, 1]
        h_prev, tmp = cache.hs[i][:T], _prefix(temp, (T, B, h))
        # k_z = ((h_prev - n) * z) * (1 - z), k_n = (1 - z) * (1 - n * n)
        # and k_r = (r * hn) * (1 - r), op for op, each formed in the
        # block of the slots where the forward left 1 - z, n and r * hn.
        # A ufunc on strided blocks runs buffered, at two to five times
        # the cost of one on contiguous arrays, and a strided copy does
        # not, so n goes to the contiguous tmp and k_n is formed there
        k_r, k_z, k_n = _slots(d_a[i]).swapaxes(0, 1)
        np.copyto(tmp, k_n)                # n
        np.subtract(h_prev, tmp, k_n)      # h_prev - n, in n's block
        np.multiply(tmp, tmp, tmp)
        np.subtract(1.0, tmp, tmp)
        np.multiply(k_z, tmp, tmp)         # k_n, by k_z's block's 1 - z
        np.multiply(k_n, z, k_n)
        np.multiply(k_n, k_z, k_z)         # k_z
        np.copyto(k_n, tmp)
        np.subtract(1.0, r, tmp)
        np.multiply(k_r, tmp, k_r)
        d_h.fill(0.0)
        layers.insert(0, (c.w, c.u, iter(steps_t[T - 1::-1]),
                          i > 0 and cache.masks is not None, *bufs, d_h, d_in))
    w_out = cache.readout.weight
    d_top, d_feed = sv.d_top, sv.d_feed
    fed_next = False   # whether step t + 1 fed back step t's belief

    for t, (d_raw_t, factor_t), fed_step in zip(
            range(T - 1, -1, -1), sv.back_reads[T - 1::-1],
            cache.fed.any(axis=(1, 2))[::-1].tolist()):
        if fed_next:
            np.multiply(d_feed, factor_t, d_feed)
            np.add(d_raw_t, d_feed, d_raw_t)
        d_out = d_raw_t.dot(w_out, d_top) if t >= cache.first_read else None
        for (w, u, views, drop, g, g_r, g_z, g_n, dc, dc_g, dh_sum, dh_z, d_h,
             d_in) in layers:
            k_n, k_r, k_z, r, z, da, da_g, mask = next(views)
            dh = d_h if d_out is None else np.add(d_h, d_out, dh_sum)
            np.multiply(dh, k_n, g_n)
            np.multiply(g_n, k_r, g_r)
            np.multiply(dh, k_z, g_z)
            da_g[...] = g
            # c's r and z blocks are a's; its n block is d_pre_n * r
            np.multiply(g_n, r, g_n)
            dc_g[...] = g
            np.multiply(dh, z, dh_z)
            dc.dot(u, d_h)
            np.add(d_h, dh_z, d_h)
            if d_in is not None:
                d_out = da.dot(w, d_in)
                if drop:
                    np.multiply(d_out, mask, d_out)
        # layer 0's input gradient (``da`` and ``w`` are layer 0's here)
        # only matters on fed rows
        fed_next = fed_step
        if fed_next:
            da.dot(w, d_feed)

    grads = []
    for i, c in enumerate(cache.stack.layers):
        h, xin = c.hidden_size, cache.xin[i]
        if i > 0 and cache.masks is not None:
            # the masked input, rebuilt op for op in the shared temp,
            # which the factors no longer need
            np.multiply(cache.hs[i - 1][1:], cache.masks[:, i - 1], xin)
        da = d_a[i].reshape(T * B, 3 * h)
        d_w, d_b_w = da.T @ xin.reshape(T * B, -1), da.sum(axis=0)
        # d_a becomes c's gradient: its r and z blocks are a's, its n block a's times r
        d_n = d_a[i][:, :, 2 * h:]
        np.multiply(d_n, cache.rz[i][:, 0], d_n)
        grads += [d_w, da.T @ cache.hs[i][:T].reshape(T * B, h), d_b_w,
                  da[:, 2 * h:].sum(axis=0)]
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
