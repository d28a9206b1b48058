"""The in-place ReLU with output-only caches and the chunked momentum step
against verbatim copies of the implementations they replaced.

The replaced code kept a ``LayerCache`` (input and pre-activation) per
affine and ReLU layer, built ReLU outputs out of place, masked gradients
out of place, and updated each parameter array in three whole-array
passes. Its backward returned a list of parameter gradients and, on
request, the input gradient; the current one either hands each layer's
gradients to a step or returns the input gradient, so each old call is
compared with the new paths that cover its flags. Every result of the
current code must equal the old one bit for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from rdec import network
from rdec.network import Layer, Network, SgdMomentum, STEP_CHUNK, backward, build_network, forward
from rdec.tensor import ShapeMismatchError, mse_loss, relu_backward, relu_forward

from conftest import step_grads

# NaN and Inf inputs are deliberate here.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


# --- verbatim copies of the replaced implementations -----------------------

@dataclass
class LayerCache:
    """Forward-pass values the matching backward pass needs."""

    input: np.ndarray
    pre_activation: np.ndarray


def old_affine_forward(x, weight, bias):
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


def old_affine_backward(grad_out, cache, weight, need_input_grad=True):
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


def old_relu_forward(x):
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0), LayerCache(input=x, pre_activation=x)


def old_relu_backward(grad_out, cache):
    if grad_out.shape != cache.pre_activation.shape:
        raise ShapeMismatchError(
            f"relu backward: grad {grad_out.shape} vs input {cache.pre_activation.shape}"
        )
    return grad_out * (cache.pre_activation > 0.0)


def old_mse_loss(predicted, target):
    if predicted.shape != target.shape:
        raise ShapeMismatchError(
            f"mse: predicted {predicted.shape} vs target {target.shape}"
        )
    diff = predicted - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


def old_forward(net, x):
    """Run the stack, keeping per-layer caches for backprop."""
    caches = []
    out = x
    for layer in net.layers:
        out, cache = old_affine_forward(out, layer.weight, layer.bias)
        caches.append(cache)
        if layer.activation == network.RELU:
            out, cache = old_relu_forward(out)
            caches.append(cache)
    return out, caches


def old_backward(net, caches, grad_out, need_input_grad=False, need_param_grads=True):
    grads = None
    if need_param_grads:
        grads = [None] * (2 * len(net.layers))
    grad = grad_out
    pos = len(caches)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == network.RELU:
            pos -= 1
            grad = old_relu_backward(grad, caches[pos])
        pos -= 1
        if need_param_grads:
            grad, grad_w, grad_b = old_affine_backward(
                grad, caches[pos], layer.weight, need_input_grad=need_input_grad or i > 0
            )
            grads[2 * i] = grad_w
            grads[2 * i + 1] = grad_b
        else:
            if grad.shape != caches[pos].pre_activation.shape:
                raise ShapeMismatchError(
                    f"backward: grad {grad.shape} vs output "
                    f"{caches[pos].pre_activation.shape}"
                )
            grad = grad @ layer.weight.T
    return grads, (grad if need_input_grad else None)


class OldSgdMomentum:
    """Classical momentum: v <- beta v - lr g; p <- p + v."""

    def __init__(self, lr, momentum=0.9):
        self.lr = lr
        self.momentum = momentum
        self.velocities = None

    def step(self, params, grads):
        network._check_grads(params, grads)
        if self.velocities is None:
            self.velocities = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self.velocities):
            v *= self.momentum
            v -= self.lr * g
            p += v


# --- helpers ----------------------------------------------------------------

def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_all_bitwise(xs, ys):
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert_bitwise(a, b)


def relu_net(rng, dims, last_relu=False):
    layers = []
    for i in range(len(dims) - 1):
        relu = i < len(dims) - 2 or last_relu
        layers.append(Layer(rng.standard_normal((dims[i], dims[i + 1])) * 0.5,
                            rng.standard_normal(dims[i + 1]) * 0.1,
                            network.RELU if relu else network.LINEAR))
    return Network(layers)


def special_rows(rng, n, d):
    """Random rows with exact zeros, -0.0, NaN and infinities mixed in."""
    x = rng.standard_normal((n, d))
    x[rng.random((n, d)) < 0.3] = 0.0
    x[rng.random((n, d)) < 0.1] = -0.0
    x[0] = 0.0
    x[1] = -0.0
    if n > 3:
        x[2, 0] = np.nan
        x[3, -1] = np.inf
    return x


SPECIAL_VALUES = np.array([[-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.inf,
                            np.nan, -np.nan]])


# --- primitives -------------------------------------------------------------

class TestReluPrimitives:
    def test_forward_and_mask_match_on_special_values(self):
        old_out, old_cache = old_relu_forward(SPECIAL_VALUES.copy())
        x = SPECIAL_VALUES.copy()
        out = relu_forward(x)
        assert out is x
        assert_bitwise(out, old_out)
        assert_bitwise(out > 0.0, old_cache.pre_activation > 0.0)

    @pytest.mark.parametrize("upstream", [1.0, -2.5, 0.0, -0.0, np.inf, np.nan])
    def test_backward_matches_on_special_values(self, upstream):
        grad = np.full(SPECIAL_VALUES.shape, upstream)
        old = old_relu_backward(grad.copy(), old_relu_forward(SPECIAL_VALUES.copy())[1])
        out = relu_forward(SPECIAL_VALUES.copy())
        owned = grad.copy()
        new = relu_backward(owned, out)
        assert new is owned
        assert_bitwise(new, old)

    def test_backward_rejects_a_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            relu_backward(np.ones((1, 3)), np.ones((2, 3)))

    def test_mse_matches(self, rng):
        for shape in ((2, 1), (7, 5), (256, 784)):
            pred, target = special_rows(rng, *shape), rng.standard_normal(shape)
            old_loss, old_grad = old_mse_loss(pred, target)
            loss, grad = mse_loss(pred, target)
            assert_bitwise(loss, old_loss)
            assert_bitwise(grad, old_grad)


# --- network forward/backward -----------------------------------------------

def compare_pass(net, x, grad_out, input_grad, param_grads):
    """The old pass with these flags against the new paths that cover
    them: the hand-off for the parameter gradients, the probe for the
    input gradient."""
    old_out, old_caches = old_forward(net, x)
    old_grads, old_gx = old_backward(net, old_caches, grad_out.copy(), input_grad, param_grads)
    x_before = x.copy()
    out, caches = forward(net, x)
    grad_before = grad_out.copy()
    assert_bitwise(out, old_out)
    if param_grads:
        assert_all_bitwise(step_grads(net, caches, grad_out), old_grads)
    if input_grad:
        assert_bitwise(backward(net, caches, grad_out), old_gx)
    assert_bitwise(x, x_before)
    assert_bitwise(grad_out, grad_before)


class TestForwardBackwardOracle:
    @pytest.mark.parametrize("flags", [(False, True), (True, True), (True, False)])
    def test_canonical_autoencoder(self, rng, flags):
        encoder, decoder = build_network(784, 10, seed=3)
        x = rng.random((64, 784))
        x[x < 0.4] = 0.0  # glyph-like: many exact zero pixels
        compare_pass(encoder, x, rng.standard_normal((64, 10)), *flags)
        compare_pass(decoder, rng.standard_normal((64, 10)),
                     rng.standard_normal((64, 784)), *flags)

    @pytest.mark.parametrize("last_relu", [False, True])
    @pytest.mark.parametrize("flags", [(False, True), (True, True), (True, False)])
    def test_zeros_signed_zeros_and_nan(self, rng, last_relu, flags):
        net = relu_net(rng, (6, 9, 7, 5), last_relu=last_relu)
        # a zero column with a zero bias gives exact-zero pre-activations
        net.layers[1].weight[:, 2] = 0.0
        net.layers[1].bias[2] = 0.0
        net.layers[1].bias[3] = -0.0
        x = special_rows(rng, 11, 6)
        grad_out = special_rows(rng, 11, 5)
        compare_pass(net, x, grad_out, *flags)


class TestBackwardLeavesGradOutAlone:
    @pytest.mark.parametrize("last_relu", [False, True])
    @pytest.mark.parametrize("flags", [(False, True), (True, True), (True, False)])
    def test_grad_out_unchanged(self, rng, last_relu, flags):
        net = relu_net(rng, (4, 6, 3), last_relu=last_relu)
        x = rng.standard_normal((8, 4))
        out, caches = forward(net, x)
        grad_out = rng.standard_normal(out.shape)
        before = grad_out.copy()
        input_grad, param_grads = flags
        if param_grads:
            step_grads(net, caches, grad_out)
        if input_grad:
            backward(net, caches, grad_out)
        assert_bitwise(grad_out, before)

    def test_wrong_grad_shape_is_rejected_on_both_paths(self, rng):
        net = relu_net(rng, (4, 6, 3))
        _, caches = forward(net, rng.standard_normal((8, 4)))
        for step in (lambda i, grad_weight, grad_bias: None, None):
            with pytest.raises(ShapeMismatchError):
                backward(net, caches, np.ones((7, 3)), step=step)


# --- optimizer ----------------------------------------------------------------

class TestChunkedMomentumOracle:
    @pytest.mark.parametrize("sizes", [
        (1, 5, STEP_CHUNK - 1),
        (STEP_CHUNK, STEP_CHUNK + 1),
        (3 * STEP_CHUNK + 7, 2 * STEP_CHUNK),
    ])
    def test_twenty_steps_match(self, rng, sizes):
        params_old = [rng.standard_normal(size) for size in sizes]
        params_old.append(rng.standard_normal((513, 129)))  # 2-D, not a chunk multiple
        params_new = [p.copy() for p in params_old]
        old, new = OldSgdMomentum(lr=0.37, momentum=0.9), SgdMomentum(lr=0.37, momentum=0.9)
        for _ in range(20):
            grads = [rng.standard_normal(p.shape) for p in params_old]
            for g in grads:
                g[rng.random(g.shape) < 0.2] = 0.0
                g[rng.random(g.shape) < 0.1] = -0.0
            old.step(params_old, grads)
            new.step(params_new, grads)
        assert_all_bitwise(params_new, params_old)
        assert_all_bitwise(new.velocities, old.velocities)

    def test_non_contiguous_parameter_is_rejected(self):
        for p in (np.ones((4, 8))[:, ::2], np.asfortranarray(np.ones((3, 5)))):
            before = p.copy()
            with pytest.raises(ValueError, match="C-contiguous"):
                SgdMomentum(lr=0.1, momentum=0.9).step([p], [np.ones(p.shape)])
            assert_bitwise(p, before)


# --- whole pretraining steps ---------------------------------------------------

def pretrain_steps(encoder, decoder, batches, fwd, bwd, mse, optimizer):
    params = [*encoder.parameters(), *decoder.parameters()]
    losses = []
    for x in batches:
        z, enc_caches = fwd(encoder, x)
        recon, dec_caches = fwd(decoder, z)
        loss, grad = mse(recon, x)
        losses.append(loss)
        dec_grads, grad_z = bwd(decoder, dec_caches, grad, need_input_grad=True)
        enc_grads, _ = bwd(encoder, enc_caches, grad_z)
        optimizer.step(params, [*enc_grads, *dec_grads])
    return losses, params


def new_backward(net, caches, grad_out, need_input_grad=False):
    """The old list-returning call, made of the probe and the hand-off."""
    grad_in = backward(net, caches, grad_out) if need_input_grad else None
    return step_grads(net, caches, grad_out), grad_in


def test_twenty_canonical_pretraining_steps_match(rng):
    encoder, decoder = build_network(784, 10, seed=5)
    old_nets = copy.deepcopy((encoder, decoder))
    batches = []
    for _ in range(20):
        x = rng.random((32, 784))
        x[x < 0.5] = 0.0
        batches.append(x)
    old_losses, old_params = pretrain_steps(*old_nets, batches, old_forward, old_backward,
                                            old_mse_loss, OldSgdMomentum(lr=1.0, momentum=0.9))
    losses, params = pretrain_steps(encoder, decoder, batches, forward, new_backward,
                                    mse_loss, SgdMomentum(lr=1.0, momentum=0.9))
    assert_bitwise(losses, old_losses)
    assert_all_bitwise(params, old_params)
