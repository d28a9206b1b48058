"""Dense float64 matrices and hand-wired layer primitives.

Everything downstream (encoder/decoder stacks, the clustering head, the
adversarial regularizer) is built from the forward/backward pairs here.
Matrices are plain 2-D C-contiguous float64 numpy arrays with batch rows
and feature columns; gradients are exact analytic expressions, checked
against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Row-major (batch, features) float64 array.
Matrix = np.ndarray


class ShapeMismatchError(ValueError):
    """Operands whose shapes cannot be combined."""


def as_matrix(values) -> Matrix:
    """Coerce to a C-contiguous float64 2-D array (1-D becomes one row)."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def check_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"{name} contains NaN or Inf entries")


@dataclass
class LayerCache:
    """Forward-pass values the matching backward pass needs."""

    input: Matrix
    pre_activation: Matrix


def affine_forward(x: Matrix, weight: Matrix, bias: np.ndarray) -> tuple[Matrix, LayerCache]:
    """Compute ``x @ weight + bias`` with the bias broadcast per row."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeMismatchError(
            f"affine: input {x.shape} incompatible with weight {weight.shape}"
        )
    if bias.shape != (weight.shape[1],):
        raise ShapeMismatchError(
            f"affine: bias {bias.shape} incompatible with weight {weight.shape}"
        )
    out = x @ weight
    out += bias
    return out, LayerCache(input=x, pre_activation=out)


def affine_backward(
    grad_out: Matrix, cache: LayerCache, weight: Matrix, need_input_grad: bool = True
) -> tuple[Matrix | None, Matrix, np.ndarray]:
    """Gradients of the affine map: returns (grad_input, grad_weight, grad_bias).

    With ``need_input_grad=False`` the input-gradient matmul is skipped and
    ``grad_input`` is None; the first layer of a stack never needs it
    unless the caller asked for the gradient with respect to the data.
    """
    if grad_out.shape != cache.pre_activation.shape:
        raise ShapeMismatchError(
            f"affine backward: grad {grad_out.shape} vs output {cache.pre_activation.shape}"
        )
    if cache.input.shape[1] != weight.shape[0] or grad_out.shape[1] != weight.shape[1]:
        raise ShapeMismatchError(
            f"affine backward: grad {grad_out.shape}, input {cache.input.shape}, "
            f"weight {weight.shape}"
        )
    grad_in = grad_out @ weight.T if need_input_grad else None
    grad_weight = cache.input.T @ grad_out
    grad_bias = grad_out.sum(axis=0)
    return grad_in, grad_weight, grad_bias


def relu_forward(x: Matrix) -> tuple[Matrix, LayerCache]:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0), LayerCache(input=x, pre_activation=x)


def relu_backward(grad_out: Matrix, cache: LayerCache) -> Matrix:
    """Pass gradients where the pre-activation was positive, zero elsewhere.

    The subgradient at exactly 0 is taken as 0, so a unit sitting on the
    kink blocks the gradient deterministically. The gradient is multiplied
    by the mask, so a masked entry is zero but may be ``-0.0``, and a
    non-finite upstream value in a masked lane propagates as NaN instead
    of being hidden.
    """
    if grad_out.shape != cache.pre_activation.shape:
        raise ShapeMismatchError(
            f"relu backward: grad {grad_out.shape} vs input {cache.pre_activation.shape}"
        )
    return grad_out * (cache.pre_activation > 0.0)


def mse_loss(predicted: Matrix, target: Matrix) -> tuple[float, Matrix]:
    """Mean squared error over all entries, with its gradient.

    loss = mean((predicted - target)^2); grad = 2 (predicted - target) / count.
    """
    if predicted.shape != target.shape:
        raise ShapeMismatchError(
            f"mse: predicted {predicted.shape} vs target {target.shape}"
        )
    diff = predicted - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad
