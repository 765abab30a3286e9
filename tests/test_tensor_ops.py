"""Unit tests for the autograd tensor: forward values and gradients."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, concat, is_grad_enabled, no_grad, unbroadcast

from .util import check_gradients, float64_tensor


class TestConstruction:
    def test_int_data_becomes_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_python_floats_become_float32(self):
        assert Tensor(0.5).dtype == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert as_tensor(1e-6).dtype == np.float32

    def test_python_float_operand_keeps_graph_float32(self):
        x = Tensor(np.ones(2, np.float32))
        assert (x + 1e-6).dtype == np.float32
        assert (0.5 * x).dtype == np.float32
        assert (x / 3.0).dtype == np.float32

    def test_float64_scalar_preserved(self):
        assert Tensor(np.float64(2.0)).dtype == np.float64

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert float(Tensor.ones(2, 2).data.sum()) == 4.0

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 3).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_zero_grad(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 3).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_shared_subexpression_gradient(self):
        # y = x*x + x*x should give dy/dx = 4x through both paths.
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 5
        (a * b).sum().backward()
        # d(15x^2)/dx = 30x
        np.testing.assert_allclose(x.grad, [60.0])

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()

    def test_deep_chain_no_recursion_error(self):
        # Iterative topological sort must handle graphs deeper than the
        # Python recursion limit.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestUnbroadcast:
    def test_identity_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sum_leading_axis(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_sum_size_one_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, ()), 6.0)


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        check_gradients(lambda a, b: (a + b).sum(), [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_radd_rsub_rmul(self, rng):
        a = rng.normal(size=(3,))
        check_gradients(lambda t: (2.0 + t).sum() + (5.0 - t).sum() + (3.0 * t).sum(), [a])

    def test_mul(self, rng):
        check_gradients(lambda a, b: (a * b).sum(), [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_div(self, rng):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 3.0
        check_gradients(lambda x, y: (x / y).sum(), [a, b])

    def test_rtruediv(self, rng):
        b = rng.normal(size=(3,)) + 3.0
        check_gradients(lambda y: (1.0 / y).sum(), [b])

    def test_neg_sub(self, rng):
        check_gradients(lambda a, b: ((a - b) ** 2).sum() + (-a).sum(), [rng.normal(size=(4,)), rng.normal(size=(4,))])

    def test_pow(self, rng):
        a = np.abs(rng.normal(size=(3,))) + 0.5
        check_gradients(lambda t: (t ** 2.5).sum(), [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul(self, rng):
        check_gradients(lambda a, b: ((a @ b) ** 2).sum(), [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3, 4))) @ Tensor(np.zeros((4, 2)))


class TestElementwiseGradients:
    def test_exp_log(self, rng):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradients(lambda t: (t.exp() + t.log()).sum(), [a])

    def test_relu_gradient_zero_below(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_sigmoid_tanh(self, rng):
        check_gradients(lambda t: (t.sigmoid() * t.tanh()).sum(), [rng.normal(size=(5,))])

    def test_abs(self, rng):
        a = rng.normal(size=(6,))
        a[np.abs(a) < 0.1] += 0.5  # stay away from the kink
        check_gradients(lambda t: t.abs().sum(), [a])

    def test_sqrt(self, rng):
        a = np.abs(rng.normal(size=(4,))) + 1.0
        check_gradients(lambda t: t.sqrt().sum(), [a])


class TestReductionGradients:
    def test_sum_axis_keepdims(self, rng):
        a = rng.normal(size=(3, 4, 2))
        check_gradients(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_sum_axis_tuple(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_gradients(lambda t: (t.sum(axis=(1, 2)) ** 2).sum(), [a])

    def test_mean_axis(self, rng):
        a = rng.normal(size=(3, 5))
        check_gradients(lambda t: (t.mean(axis=0) ** 2).sum(), [a])

    def test_mean_all(self, rng):
        check_gradients(lambda t: t.mean() * 3.0, [rng.normal(size=(4, 4))])

    def test_max_axis(self, rng):
        a = rng.normal(size=(4, 6))
        check_gradients(lambda t: (t.max(axis=1) ** 2).sum(), [a])

    def test_max_all(self):
        x = Tensor(np.array([[1.0, 5.0], [2.0, 3.0]]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestShapeGradients:
    def test_reshape(self, rng):
        check_gradients(lambda t: (t.reshape(6, 2) ** 2).sum(), [rng.normal(size=(3, 4))])

    def test_reshape_tuple_arg(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.reshape((3, 2)).shape == (3, 2)

    def test_transpose(self, rng):
        check_gradients(lambda t: (t.transpose(2, 0, 1) ** 2).sum(), [rng.normal(size=(2, 3, 4))])

    def test_flatten(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.flatten().shape == (2, 12)
        assert t.flatten(start_dim=0).shape == (24,)

    def test_getitem(self, rng):
        check_gradients(lambda t: (t[1:3] ** 2).sum(), [rng.normal(size=(5, 2))])

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_pad2d(self, rng):
        check_gradients(lambda t: (t.pad2d(1) ** 2).sum(), [rng.normal(size=(1, 2, 3, 3))])

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert t.pad2d(0) is t

    def test_pad2d_values(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        padded = t.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        assert float(padded.data.sum()) == 4.0


class TestConcat:
    def test_forward(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)

    def test_gradient_routing(self, rng):
        check_gradients(
            lambda a, b: (concat([a, b], axis=0) ** 2).sum(),
            [rng.normal(size=(2, 3)), rng.normal(size=(1, 3))],
        )


class TestComparisons:
    def test_gt_lt_return_arrays(self):
        t = Tensor(np.array([1.0, -1.0]))
        assert (t > 0).tolist() == [True, False]
        assert (t < 0).tolist() == [False, True]
