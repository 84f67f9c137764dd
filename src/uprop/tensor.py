"""Parameter leaves and the one node that training differentiates.

Every model weight is a ``Var`` leaf: a float64 array with a ``.grad``
slot. The only node with parents is the batch-mean training loss built by
``forecaster._batch_loss``; its parents are the weights, and each
parent's vector-Jacobian product comes from the hand-written backward
pass ``nn.window_batch_backward``. ``backward`` therefore walks one level.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A float64 array with a gradient slot; a leaf unless it has parents."""

    __slots__ = ("value", "grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def backward(root: Var) -> None:
    """Add d(root)/d(parent) into ``.grad`` of each of the root's parents.

    Gradients add onto existing ``.grad`` values, so parameter gradients
    accumulate across calls until cleared with ``zero_grad``. A first
    gradient becomes ``.grad`` as the vjp returns it, without a copy, so
    a vjp returns an array that nothing else writes.
    """
    root.grad = np.ones_like(root.value)
    for parent, vjp in zip(root._parents, root._vjps):
        contrib = vjp(root.grad)
        if parent.grad is None:
            parent.grad = np.asarray(contrib, dtype=np.float64)
        else:
            parent.grad = parent.grad + contrib


def zero_grad(params) -> None:
    for p in params:
        p.grad = None
