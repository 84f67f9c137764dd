"""Unfused GRU: the reference oracle for ``uprop.nn.fused_cell_forward``.

One matvec per gate, written straight from the cell equations in plain
numpy, with shape checks. The package stores and runs only the fused
cell; this module reads each cell through its per-gate blocks
(``nn.gate_blocks``, the blocks a checkpoint names), so tests can check
the fused kernels against an independent formulation. Cells may hold
``Var`` leaves or numpy arrays.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.special import expit

from uprop.errors import ShapeError
from uprop.nn import GruStackParams, dropout_mask, gate_blocks, zero_hidden


def gru_cell_forward(cell, x, h_prev):
    """One GRU step: returns the next hidden state.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    n = tanh(W_n x + b_in + r * (U_n h + b_hn))
    h' = (1 - z) * n + z * h
    """
    if np.shape(x) != (cell.input_size,):
        raise ShapeError(
            f"gru cell expects input of length {cell.input_size}, "
            f"got {np.shape(x)}"
        )
    if np.shape(h_prev) != (cell.hidden_size,):
        raise ShapeError(
            f"gru cell expects hidden state of length {cell.hidden_size}, "
            f"got {np.shape(h_prev)}"
        )
    params = SimpleNamespace(**gate_blocks(cell))
    r = expit(params.W_r @ x + params.U_r @ h_prev + params.b_r)
    z = expit(params.W_z @ x + params.U_z @ h_prev + params.b_z)
    n = np.tanh(params.W_n @ x + params.b_in + r * (params.U_n @ h_prev + params.b_hn))
    return (1.0 - z) * n + z * h_prev


def gru_stack_step(stack: GruStackParams, x, h_prev, masks=None):
    """Advance every layer one step; returns (top output, new hidden list).

    ``masks`` holds one inverted-dropout mask per inter-layer gap
    (len(layers) - 1 of them); None disables dropout.
    """
    h_next = []
    inp = x
    for i, cell in enumerate(stack.layers):
        h = gru_cell_forward(cell, inp, h_prev[i])
        h_next.append(h)
        inp = h
        if masks is not None and i < len(stack.layers) - 1:
            inp = inp * masks[i]
    return h_next[-1], h_next


def gru_stack_forward(stack: GruStackParams, x_seq, h0=None, dropout_on=False,
                      rng: np.random.Generator | None = None):
    """Run the stack over a (T, input) sequence.

    Returns the (T, hidden) matrix of top-layer outputs and the final
    per-layer hidden states. Dropout masks, when enabled, are drawn fresh
    per step and per inter-layer gap.
    """
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 2 or x_seq.shape[1] != stack.layers[0].input_size:
        raise ShapeError(f"expected (T, {stack.layers[0].input_size}) input, got {x_seq.shape}")
    if dropout_on and stack.dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout requires a seeded generator")
    h = list(h0) if h0 is not None else zero_hidden(stack)
    n_gaps = len(stack.layers) - 1
    outputs = []
    for x in x_seq:
        masks = None
        if dropout_on:
            masks = [dropout_mask(stack.layers[i].hidden_size, stack.dropout_rate, rng)
                     for i in range(n_gaps)]
        top, h = gru_stack_step(stack, x, h, masks)
        outputs.append(top)
    return np.asarray(outputs), h
