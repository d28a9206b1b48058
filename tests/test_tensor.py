import numpy as np
import pytest

from rdec.tensor import (
    ShapeMismatchError,
    affine_backward,
    affine_forward,
    mse_loss,
    relu_backward,
    relu_forward,
)

from conftest import numerical_grad, relative_error


class TestAffineForward:
    def test_identity_weight(self):
        x = np.array([[1.0, 2.0]])
        out = affine_forward(x, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_bias_shift(self):
        x = np.array([[1.0, 2.0]])
        out = affine_forward(x, np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [[4.0, 6.0]])

    def test_zero_weight_annihilates(self):
        x = np.arange(4.0).reshape(2, 2)
        out = affine_forward(x, np.zeros((2, 2)), np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(1, 3\).*\(2, 2\)"):
            affine_forward(np.ones((1, 3)), np.ones((2, 2)), np.zeros(2))

    def test_bad_bias_length(self):
        with pytest.raises(ShapeMismatchError):
            affine_forward(np.ones((1, 2)), np.ones((2, 2)), np.zeros(3))

    def test_linearity_with_zero_bias(self, rng):
        w = rng.standard_normal((4, 3))
        bias = np.zeros(3)
        for _ in range(25):
            x = rng.standard_normal((5, 4))
            y = rng.standard_normal((5, 4))
            a, b = rng.standard_normal(2)
            lhs = affine_forward(a * x + b * y, w, bias)
            fx = affine_forward(x, w, bias)
            fy = affine_forward(y, w, bias)
            np.testing.assert_allclose(lhs, a * fx + b * fy, atol=1e-12)


class TestAffineBackward:
    def test_zero_grad_out(self):
        x = np.ones((2, 3))
        w = np.ones((3, 2))
        gi, gw, gb = affine_backward(np.zeros((2, 2)), x, w)
        assert not gi.any() and not gw.any() and not gb.any()

    def test_identity_1x1(self):
        x = np.array([[2.0]])
        w = np.array([[1.0]])
        gi, _, _ = affine_backward(np.array([[3.5]]), x, w)
        np.testing.assert_array_equal(gi, [[3.5]])

    def test_matches_finite_differences(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        bias = rng.standard_normal(2)
        # reduce output with fixed coefficients so the scalar sees every entry
        coeffs = rng.standard_normal((3, 2))

        def loss_of(inp, weight, b):
            return float((affine_forward(inp, weight, b) * coeffs).sum())

        gi, gw, gb = affine_backward(coeffs, x, w)
        assert relative_error(gi, numerical_grad(lambda v: loss_of(v, w, bias), x.copy())) < 1e-6
        assert relative_error(gw, numerical_grad(lambda v: loss_of(x, v, bias), w.copy())) < 1e-6
        assert relative_error(gb, numerical_grad(lambda v: loss_of(x, w, v), bias.copy())) < 1e-6

    def test_grad_shape_mismatch(self):
        x = np.ones((2, 3))
        w = np.ones((3, 2))
        with pytest.raises(ShapeMismatchError):
            affine_backward(np.zeros((2, 3)), x, w)


class TestRelu:
    def test_forward_clamps(self):
        out = relu_forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_zero_subgradient_at_zero(self):
        out = relu_forward(np.array([[-1.0, 0.0, 2.0]]))
        grad = relu_backward(np.ones((1, 3)), out)
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])

    def test_all_positive_is_identity(self, rng):
        x = np.abs(rng.standard_normal((4, 5))) + 0.1
        out = relu_forward(x.copy())
        np.testing.assert_array_equal(out, x)
        g = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(relu_backward(g.copy(), out), g)


class TestMse:
    def test_equal_inputs_zero(self):
        x = np.array([[1.0, -2.0]])
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_unit_example(self):
        loss, grad = mse_loss(np.array([[1.0]]), np.array([[0.0]]))
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [[2.0]])

    def test_matches_finite_differences(self, rng):
        pred = rng.standard_normal((2, 3))
        target = rng.standard_normal((2, 3))
        _, grad = mse_loss(pred, target)
        numeric = numerical_grad(lambda p: mse_loss(p, target)[0], pred.copy())
        assert relative_error(grad, numeric) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(np.ones((2, 2)), np.ones((2, 3)))


def test_finite_outputs_on_finite_inputs(rng):
    # no NaN/Inf from any primitive on well-scaled finite input
    for _ in range(20):
        x = rng.standard_normal((3, 4)) * 10
        w = rng.standard_normal((4, 2)) * 10
        b = rng.standard_normal(2)
        out = affine_forward(x, w, b)
        assert np.all(np.isfinite(out))
        gi, gw, gb = affine_backward(rng.standard_normal(out.shape), x, w)
        assert all(np.all(np.isfinite(g)) for g in (gi, gw, gb))
        r = relu_forward(x.copy())
        assert np.all(np.isfinite(r))
        loss, grad = mse_loss(x, rng.standard_normal(x.shape))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
