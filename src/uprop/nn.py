"""GRU stack, affine readout, dropout and Adam.

Parameters are stored as tape ``Var`` objects. Forward functions accept
either ``Var`` parameters (training, gradients recorded) or the frozen
numpy views produced by :func:`freeze_stack` / :func:`freeze_linear`
(inference, no tape overhead). Both paths execute the identical sequence
of numpy operations, so their outputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as tn
from .errors import ShapeError
from .tensor import Var, matvec, sigmoid, tanh, value_of


@dataclass
class GruCellParams:
    """Weights of one GRU cell (reset-before-candidate, two-bias form)."""

    input_size: int
    hidden_size: int
    W_r: object
    W_z: object
    W_n: object
    U_r: object
    U_z: object
    U_n: object
    b_r: object
    b_z: object
    b_in: object
    b_hn: object

    def weights(self):
        return [self.W_r, self.W_z, self.W_n, self.U_r, self.U_z, self.U_n,
                self.b_r, self.b_z, self.b_in, self.b_hn]


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


def init_gru_cell(input_size: int, hidden_size: int, rng: np.random.Generator) -> GruCellParams:
    """Uniform(-1/sqrt(hidden), 1/sqrt(hidden)) matrices, zero biases."""
    bound = 1.0 / math.sqrt(hidden_size)

    def mat(rows, cols):
        return Var(rng.uniform(-bound, bound, size=(rows, cols)))

    def bias():
        return Var(np.zeros(hidden_size))

    return GruCellParams(
        input_size=input_size,
        hidden_size=hidden_size,
        W_r=mat(hidden_size, input_size),
        W_z=mat(hidden_size, input_size),
        W_n=mat(hidden_size, input_size),
        U_r=mat(hidden_size, hidden_size),
        U_z=mat(hidden_size, hidden_size),
        U_n=mat(hidden_size, hidden_size),
        b_r=bias(), b_z=bias(), b_in=bias(), b_hn=bias(),
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


def freeze_cell(cell: GruCellParams) -> GruCellParams:
    """Numpy view of a cell's weights, sharing the underlying arrays."""
    return replace(cell, **{
        name: value_of(getattr(cell, name))
        for name in ("W_r", "W_z", "W_n", "U_r", "U_z", "U_n",
                     "b_r", "b_z", "b_in", "b_hn")
    })


def freeze_stack(stack: GruStackParams) -> GruStackParams:
    return GruStackParams(
        layers=[freeze_cell(c) for c in stack.layers],
        dropout_rate=stack.dropout_rate,
    )


def freeze_linear(lin: LinearParams) -> LinearParams:
    return LinearParams(weight=value_of(lin.weight), bias=value_of(lin.bias))


@dataclass
class FusedCell:
    """One GRU cell with gate matrices stacked for two-matvec stepping.

    w = [W_r; W_z; W_n] (3h x in), u = [U_r; U_z; U_n] (3h x h),
    b_w = [b_r, b_z, b_in]. Fusing once per tape hoists the concatenation
    out of the time loop.
    """

    input_size: int
    hidden_size: int
    w: object
    u: object
    b_w: object
    b_hn: object


@dataclass
class FusedStack:
    layers: list
    dropout_rate: float


def fuse_cell(cell: GruCellParams) -> FusedCell:
    return FusedCell(
        input_size=cell.input_size,
        hidden_size=cell.hidden_size,
        w=tn.concat([cell.W_r, cell.W_z, cell.W_n]),
        u=tn.concat([cell.U_r, cell.U_z, cell.U_n]),
        b_w=tn.concat([cell.b_r, cell.b_z, cell.b_in]),
        b_hn=cell.b_hn,
    )


def fuse_stack(stack: GruStackParams) -> FusedStack:
    return FusedStack(layers=[fuse_cell(c) for c in stack.layers],
                      dropout_rate=stack.dropout_rate)


def fused_cell_forward(cell: FusedCell, x, h_prev):
    """One GRU step, two matvecs: returns the next hidden state.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    n = tanh(W_n x + b_in + r * (U_n h + b_hn))
    h' = (1 - z) * n + z * h
    """
    h = cell.hidden_size
    a = matvec(cell.w, x) + cell.b_w
    b = matvec(cell.u, h_prev)
    rz = sigmoid(a[: 2 * h] + b[: 2 * h])
    r = rz[:h]
    z = rz[h:]
    n = tanh(a[2 * h:] + r * (b[2 * h:] + cell.b_hn))
    return (1.0 - z) * n + z * h_prev


def fused_stack_step(stack: FusedStack, x, h_prev, masks=None):
    """Advance every fused layer one step; returns (top output, new hidden)."""
    h_next = []
    inp = x
    last = len(stack.layers) - 1
    for i, cell in enumerate(stack.layers):
        h = fused_cell_forward(cell, inp, h_prev[i])
        h_next.append(h)
        inp = h
        if masks is not None and i < last:
            inp = inp * masks[i]
    return h_next[-1], h_next


def dropout_mask(size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate)."""
    if rate == 0.0:
        return np.ones(size)
    return (rng.random(size) >= rate) / (1.0 - rate)


def zero_hidden(stack: GruStackParams) -> list:
    return [np.zeros(c.hidden_size) for c in stack.layers]


def linear_forward(params: LinearParams, x):
    return matvec(params.weight, x) + params.bias


@dataclass
class AdamState:
    """Adam with bias correction; moments shape-match the parameter list."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params: list, learning_rate: float = 0.001) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        m=[np.zeros_like(p.value) for p in params],
        v=[np.zeros_like(p.value) for p in params],
    )


def adam_step(state: AdamState, params: list, grads: list | None = None) -> AdamState:
    """One Adam update, in place on ``params``; ``grads`` defaults to ``p.grad``."""
    if grads is None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]
    if len(grads) != len(params) or len(state.m) != len(params):
        raise ShapeError("adam_step: parameter/gradient/state length mismatch")
    state.step_count += 1
    t = state.step_count
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise ShapeError(f"adam_step: gradient {i} shape {g.shape} != {p.value.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1 ** t)
        v_hat = state.v[i] / (1.0 - state.beta2 ** t)
        # in-place so frozen numpy views stay current
        p.value -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return state


zero_grad = tn.zero_grad
