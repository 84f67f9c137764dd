import numpy as np

from uprop import tensor as tn
from uprop.tensor import Var, backward


def scaled_sum(x: Var, c: float) -> Var:
    """A one-node loss ``c * sum(x)`` over the leaf ``x``."""
    return Var(c * x.value.sum(), (x,), (lambda g: g * c * np.ones_like(x.value),))


def test_gradient_accumulates_across_backward_calls():
    x = Var(np.array([1.0]))
    backward(scaled_sum(x, 2.0))
    backward(scaled_sum(x, 3.0))
    np.testing.assert_allclose(x.grad, [5.0])
    tn.zero_grad([x])
    assert x.grad is None
