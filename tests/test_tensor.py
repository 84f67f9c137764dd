import numpy as np
import pytest

from uprop import tensor as tn
from uprop.errors import ShapeError
from uprop.tensor import Var, backward


def finite_diff(f, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return grad


def test_scalar_square_gradient():
    w = Var(3.0)
    loss = tn.mul(w, w)
    backward(loss)
    assert loss.value == 9.0
    assert w.grad == pytest.approx(6.0)


@pytest.mark.parametrize("op", [tn.add, tn.sub, tn.mul, tn.div])
def test_binary_op_gradients(op):
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=5)
    b0 = rng.normal(size=5) + 3.0  # keep away from zero for div
    a, b = Var(a0), Var(b0)
    loss = tn.vsum(op(a, b))
    backward(loss)
    fa = finite_diff(lambda x: op(x, b0).sum(), a0)
    fb = finite_diff(lambda x: op(a0, x).sum(), b0)
    np.testing.assert_allclose(a.grad, fa, rtol=1e-6)
    np.testing.assert_allclose(b.grad, fb, rtol=1e-6)


@pytest.mark.parametrize("fn,np_fn", [
    (tn.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    (tn.tanh, np.tanh),
    (tn.softplus, lambda x: np.logaddexp(0, x)),
])
def test_unary_op_gradients(fn, np_fn):
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=7)
    x = Var(x0)
    loss = tn.vsum(fn(x))
    backward(loss)
    fd = finite_diff(lambda v: np_fn(v).sum(), x0)
    np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-9)


def test_log_gradient():
    x0 = np.array([0.5, 1.0, 4.0])
    x = Var(x0)
    loss = tn.vsum(tn.log(x))
    backward(loss)
    np.testing.assert_allclose(x.grad, 1.0 / x0)


def test_matvec_value_and_gradients():
    rng = np.random.default_rng(2)
    w0 = rng.normal(size=(4, 3))
    x0 = rng.normal(size=3)
    w, x = Var(w0), Var(x0)
    loss = tn.vsum(tn.matvec(w, x))
    backward(loss)
    np.testing.assert_allclose(
        w.grad, finite_diff(lambda v: (v @ x0).sum(), w0), rtol=1e-6)
    np.testing.assert_allclose(
        x.grad, finite_diff(lambda v: (w0 @ v).sum(), x0), rtol=1e-6)


def test_matvec_shape_error():
    with pytest.raises(ShapeError):
        tn.matvec(np.zeros((2, 3)), np.zeros(4))


def test_concat_and_take_gradients():
    a, b = Var(np.array([1.0, 2.0])), Var(np.array([3.0]))
    out = tn.concat([a, b])
    loss = tn.vsum(tn.mul(out, np.array([1.0, 10.0, 100.0])))
    backward(loss)
    np.testing.assert_allclose(a.grad, [1.0, 10.0])
    np.testing.assert_allclose(b.grad, [100.0])

    x = Var(np.arange(4.0))
    loss = tn.vsum(x[1:3])
    backward(loss)
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0])


def test_concat_rows_gradient():
    a, b = Var(np.ones((2, 2))), Var(np.ones((1, 2)))
    out = tn.concat([a, b])
    assert out.value.shape == (3, 2)
    weights = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    loss = tn.vsum(tn.mul(out, weights))
    backward(loss)
    np.testing.assert_allclose(a.grad, weights[:2])
    np.testing.assert_allclose(b.grad, weights[2:])


def test_shared_node_accumulates_gradient():
    # y = x * x via two references to the same node
    x = Var(np.array([2.0]))
    y = tn.mul(x, x)
    backward(tn.vsum(y))
    np.testing.assert_allclose(x.grad, [4.0])


def test_gradient_accumulates_across_backward_calls():
    x = Var(np.array([1.0]))
    backward(tn.vsum(tn.mul(x, 2.0)))
    backward(tn.vsum(tn.mul(x, 3.0)))
    np.testing.assert_allclose(x.grad, [5.0])
    tn.zero_grad([x])
    assert x.grad is None


def test_numpy_fallthrough_matches_tape_values():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 5))
    x = rng.normal(size=5)
    assert np.array_equal(tn.matvec(w, x), tn.matvec(Var(w), Var(x)).value)
    assert np.array_equal(tn.sigmoid(x), tn.sigmoid(Var(x)).value)
    assert np.array_equal(tn.concat([x, x]), tn.concat([Var(x), x]).value)
