"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Var`` records the operation that produced it; ``backward`` walks the
tape and accumulates gradients into every reachable ``Var``. Training puts
few nodes on the tape: the concatenations that fuse each GRU cell's
weights, and one node per batch for the whole training loss, whose
gradients come from a hand-written backward pass
(``forecaster._batch_loss``).

Every op here also accepts plain numpy arrays (or scalars) and, when no
``Var`` is involved, falls through to numpy directly; inference runs the
fused GRU cell and the sigma squash that way.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import ShapeError


class Var:
    """A node in the gradient tape wrapping a float64 array."""

    # keep numpy from broadcasting element-wise over Var objects
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var({self.value!r})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return take(self, key)


def is_var(x) -> bool:
    return isinstance(x, Var)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _binary(a, b, out_value, dfda, dfdb):
    parents, vjps = [], []
    if isinstance(a, Var):
        parents.append(a)
        vjps.append(dfda)
    if isinstance(b, Var):
        parents.append(b)
        vjps.append(dfdb)
    return Var(out_value, tuple(parents), tuple(vjps))


def add(a, b):
    av, bv = value_of(a), value_of(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return av + bv
    return _binary(
        a, b, av + bv,
        lambda g: _unbroadcast(g, av.shape),
        lambda g: _unbroadcast(g, bv.shape),
    )


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return av - bv
    return _binary(
        a, b, av - bv,
        lambda g: _unbroadcast(g, av.shape),
        lambda g: _unbroadcast(-g, bv.shape),
    )


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return av * bv
    return _binary(
        a, b, av * bv,
        lambda g: _unbroadcast(g * bv, av.shape),
        lambda g: _unbroadcast(g * av, bv.shape),
    )


def div(a, b):
    av, bv = value_of(a), value_of(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return av / bv
    return _binary(
        a, b, av / bv,
        lambda g: _unbroadcast(g / bv, av.shape),
        lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape),
    )


def square(x):
    return mul(x, x)


def matvec(w, x):
    """Matrix-vector product ``w @ x`` with w of shape (m, n), x of shape (n,)."""
    wv, xv = value_of(w), value_of(x)
    if wv.ndim != 2 or xv.ndim != 1 or wv.shape[1] != xv.shape[0]:
        raise ShapeError(
            f"matvec: incompatible shapes {wv.shape} @ {xv.shape}"
        )
    if not (isinstance(w, Var) or isinstance(x, Var)):
        return wv @ xv
    return _binary(
        w, x, wv @ xv,
        lambda g: np.outer(g, xv),
        lambda g: wv.T @ g,
    )


def sigmoid(x):
    xv = value_of(x)
    out = expit(xv)
    if not isinstance(x, Var):
        return out
    return Var(out, (x,), (lambda g: g * out * (1.0 - out),))


def tanh(x):
    xv = value_of(x)
    out = np.tanh(xv)
    if not isinstance(x, Var):
        return out
    return Var(out, (x,), (lambda g: g * (1.0 - out * out),))


def softplus(x):
    xv = value_of(x)
    out = np.logaddexp(0.0, xv)
    if not isinstance(x, Var):
        return out
    return Var(out, (x,), (lambda g: g * sigmoid(xv),))


def log(x):
    xv = value_of(x)
    out = np.log(xv)
    if not isinstance(x, Var):
        return out
    return Var(out, (x,), (lambda g: g / xv,))


def concat(parts):
    """Concatenate along the first axis: vectors, or 2-D blocks row-wise."""
    values = [value_of(p) for p in parts]
    out = np.concatenate(values)
    if not any(isinstance(p, Var) for p in parts):
        return out
    offsets = np.cumsum([0] + [v.shape[0] for v in values])
    parents, vjps = [], []
    for i, p in enumerate(parts):
        if isinstance(p, Var):
            lo, hi = offsets[i], offsets[i + 1]
            parents.append(p)
            vjps.append(lambda g, lo=lo, hi=hi: g[lo:hi])
    return Var(out, tuple(parents), tuple(vjps))


def take(x, key):
    xv = value_of(x)
    out = xv[key]
    if not isinstance(x, Var):
        return out

    def vjp(g):
        full = np.zeros_like(xv)
        full[key] = g
        return full

    return Var(out, (x,), (vjp,))


def vsum(x):
    xv = value_of(x)
    out = xv.sum()
    if not isinstance(x, Var):
        return out
    return Var(out, (x,), (lambda g: g * np.ones_like(xv),))


def vmean(x):
    xv = value_of(x)
    out = xv.mean()
    if not isinstance(x, Var):
        return out
    n = xv.size
    return Var(out, (x,), (lambda g: (g / n) * np.ones_like(xv),))


def _topo_order(root: Var):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Var, seed=None) -> None:
    """Accumulate d(root)/d(leaf) into ``.grad`` of every Var in the tape.

    Gradients add onto existing ``.grad`` values of leaves, so parameter
    gradients accumulate across calls until cleared with ``zero_grad``.
    """
    order = _topo_order(root)
    root.grad = np.ones_like(root.value) if seed is None else np.asarray(seed)
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            contrib = vjp(g)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64)
            else:
                parent.grad = parent.grad + contrib


def zero_grad(params) -> None:
    for p in params:
        p.grad = None
