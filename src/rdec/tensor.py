"""Dense float64 matrices and hand-wired layer primitives.

Everything downstream (encoder/decoder stacks, the clustering head, the
adversarial regularizer) is built from the forward/backward pairs here.
Matrices are plain 2-D C-contiguous float64 numpy arrays with batch rows
and feature columns; gradients are exact analytic expressions, checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

# Row-major (batch, features) float64 array.
Matrix = np.ndarray


class ShapeMismatchError(ValueError):
    """Operands whose shapes cannot be combined."""


def check_finite(name: str, values: np.ndarray | float) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"{name} contains NaN or Inf entries")


def affine_forward(x: Matrix, weight: Matrix, bias: np.ndarray) -> Matrix:
    """Compute ``x @ weight + bias`` per row; the backward pass needs only ``x``."""
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
    return out


def affine_backward(
    grad_out: Matrix, x: Matrix, weight: Matrix, need_input_grad: bool = True
) -> tuple[Matrix | None, Matrix, np.ndarray]:
    """Gradients of the affine map at input x: (grad_input, grad_weight, grad_bias).

    With ``need_input_grad=False`` the input-gradient matmul is skipped and
    ``grad_input`` is None; a stepped ``network.backward`` skips it at the
    first layer of a stack, whose input gradient nothing reads.
    """
    if grad_out.shape != (x.shape[0], weight.shape[1]) or x.shape[1] != weight.shape[0]:
        raise ShapeMismatchError(
            f"affine backward: grad {grad_out.shape}, input {x.shape}, weight {weight.shape}"
        )
    grad_in = grad_out @ weight.T if need_input_grad else None
    grad_weight = x.T @ grad_out
    grad_bias = grad_out.sum(axis=0)
    return grad_in, grad_weight, grad_bias


def relu_forward(x: Matrix) -> Matrix:
    """Elementwise max(0, x) in place: ``x`` is clamped and returned, and the
    backward pass needs only it (``out > 0`` exactly where ``x > 0`` was)."""
    np.maximum(x, 0.0, out=x)
    return x


def relu_backward(grad_out: Matrix, out: Matrix) -> Matrix:
    """Pass gradients where the output is positive, zero elsewhere.

    ``grad_out`` is multiplied by the mask in place and returned. The
    subgradient at exactly 0 is taken as 0, so a unit on the kink blocks the
    gradient deterministically. A masked entry may be ``-0.0``, and a
    non-finite upstream value in a masked lane propagates as NaN.
    """
    if grad_out.shape != out.shape:
        raise ShapeMismatchError(
            f"relu backward: grad {grad_out.shape} vs output {out.shape}"
        )
    grad_out *= out > 0.0
    return grad_out


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
    diff *= 2.0 / diff.size
    return loss, diff
