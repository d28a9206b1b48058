"""Fully connected encoder/decoder stacks, optimizers, and model files.

Networks are plain stacks of affine layers with optional ReLU. The
canonical clustering architecture is ``d-500-500-2000-L`` for the encoder
and its mirror for the decoder, with ReLU on the internal layers and
linear embedding/output layers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    Matrix,
    ShapeMismatchError,
    affine_backward,
    affine_forward,
    relu_backward,
    relu_forward,
)

HIDDEN_DIMS = (500, 500, 2000)

RELU = "relu"
LINEAR = "none"

MODEL_MAGIC = b"RDECNET1"


@dataclass
class Layer:
    weight: Matrix  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str  # RELU or LINEAR


@dataclass
class Network:
    layers: list[Layer] = field(default_factory=list)

    @property
    def layer_dims(self) -> list[int]:
        dims = [self.layers[0].weight.shape[0]]
        dims += [layer.weight.shape[1] for layer in self.layers]
        return dims

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] sharing storage."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        return params


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Matrix:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _stack(rng: np.random.Generator, dims: list[int]) -> Network:
    # ReLU on internal layers, linear on the last (embedding or output).
    layers = []
    for i in range(len(dims) - 1):
        activation = RELU if i < len(dims) - 2 else LINEAR
        layers.append(
            Layer(
                weight=glorot_uniform(rng, dims[i], dims[i + 1]),
                bias=np.zeros(dims[i + 1]),
                activation=activation,
            )
        )
    return Network(layers)


def build_network(input_dim: int, latent_dim: int, seed: int) -> tuple[Network, Network]:
    """Build the encoder/decoder pair for the canonical architecture.

    Weights are Glorot-uniform from a generator seeded with ``seed``, so
    the same seed always yields bit-identical networks. Biases start at
    zero.
    """
    if input_dim < 1 or latent_dim < 1:
        raise ValueError(f"dimensions must be >= 1, got ({input_dim}, {latent_dim})")
    rng = np.random.default_rng(seed)
    encoder = _stack(rng, [input_dim, *HIDDEN_DIMS, latent_dim])
    decoder = _stack(rng, [latent_dim, *reversed(HIDDEN_DIMS), input_dim])
    return encoder, decoder


def _layer_forward(layer: Layer, x: Matrix) -> Matrix:
    """The layer's output: its affine map, then ReLU if it has one. ReLU
    clamps the fresh affine output in place; ``x`` is never written."""
    out = affine_forward(x, layer.weight, layer.bias)
    return relu_forward(out) if layer.activation == RELU else out


def forward(net: Network, x: Matrix) -> tuple[Matrix, list[Matrix]]:
    """Run the stack; ``caches[i]`` is layer i's input, ``caches[i + 1]`` its
    output."""
    caches = [x]
    for layer in net.layers:
        caches.append(_layer_forward(layer, caches[-1]))
    return caches[-1], caches


def backward(
    net: Network,
    caches: list[Matrix],
    grad_out: Matrix,
    need_input_grad: bool = False,
    need_param_grads: bool = True,
) -> tuple[list[np.ndarray] | None, Matrix | None]:
    """Backpropagate grad_out through the stack; grad_out is never written.

    Returns gradients aligned with ``net.parameters()`` plus the gradient
    with respect to the input batch when requested. Skipping parameter
    gradients (input-gradient probes) avoids the weight-gradient matmuls;
    not requesting the input gradient skips the first layer's
    input-gradient matmul.
    """
    grads = [None] * (2 * len(net.layers)) if need_param_grads else None
    grad = grad_out
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        out = caches[i + 1]
        if grad.shape != out.shape:
            raise ShapeMismatchError(f"backward: grad {grad.shape} vs output {out.shape}")
        if layer.activation == RELU:
            # Masks in place: every grad but the caller's is this pass's own.
            grad = relu_backward(grad.copy() if grad is grad_out else grad, out)
        if need_param_grads:
            grad, grads[2 * i], grads[2 * i + 1] = affine_backward(
                grad, caches[i], layer.weight, need_input_grad=need_input_grad or i > 0
            )
        else:
            grad = grad @ layer.weight.T
    return grads, (grad if need_input_grad else None)


# Full-dataset passes stream fixed row chunks so activation memory does
# not grow with n, and a fixed size keeps results bit-identical from run
# to run. 512 rows keep a chunk's layer outputs (at most two live at a
# time, about 10 MB around the 2000-wide layer of the canonical stack)
# reusable by the allocator; 8192-row blocks were page-faulted in afresh
# on every pass.
ENCODE_CHUNK = 512


def encode(net: Network, x: Matrix) -> Matrix:
    """Map a batch through the stack without keeping caches: each layer's
    output is dropped once the next layer has read it."""
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeMismatchError(
            f"encode: input {x.shape} does not match network input dim {net.input_dim}"
        )
    out = np.empty((x.shape[0], net.output_dim))
    for start in range(0, x.shape[0], ENCODE_CHUNK):
        h = x[start : start + ENCODE_CHUNK]
        for layer in net.layers:
            h = _layer_forward(layer, h)
        out[start : start + ENCODE_CHUNK] = h
    return out


def _check_grads(params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    if len(params) != len(grads):
        raise ShapeMismatchError(
            f"optimizer: {len(params)} parameters but {len(grads)} gradients"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"optimizer: parameter {p.shape} vs gradient {g.shape}")
        if not p.flags.c_contiguous:
            # reshape(-1) would copy it, and the update would be lost.
            raise ValueError(f"optimizer: parameter {p.shape} is not C-contiguous")


# SgdMomentum updates each raveled parameter in chunks this long so that a
# chunk of v, g and p stays in L2 across the three elementwise passes.
STEP_CHUNK = 2**15


class SgdMomentum:
    """Classical momentum: v <- beta v - lr g; p <- p + v."""

    def __init__(self, lr: float, momentum: float = 0.9):
        self.lr = lr
        self.momentum = momentum
        self.velocities: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        _check_grads(params, grads)
        if self.velocities is None:
            self.velocities = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self.velocities):
            p, g, v = p.reshape(-1), g.reshape(-1), v.reshape(-1)
            for start in range(0, p.size, STEP_CHUNK):
                stop = start + STEP_CHUNK
                vc = v[start:stop]
                vc *= self.momentum
                vc -= self.lr * g[start:stop]
                p[start:stop] += vc


class Adam:
    """Bias-corrected Adam."""

    def __init__(self, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.first: list[np.ndarray] | None = None
        self.second: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        _check_grads(params, grads)
        if self.first is None:
            self.first = [np.zeros_like(p) for p in params]
            self.second = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.first, self.second):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


_ACTIVATION_CODES = {LINEAR: 0, RELU: 1}
_ACTIVATION_NAMES = {0: LINEAR, 1: RELU}


def _write_network(fh, net: Network) -> None:
    fh.write(struct.pack("<I", len(net.layers)))
    for layer in net.layers:
        fan_in, fan_out = layer.weight.shape
        fh.write(struct.pack("<IIB", fan_in, fan_out, _ACTIVATION_CODES[layer.activation]))
    for layer in net.layers:
        fh.write(np.ascontiguousarray(layer.weight, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"model file truncated: wanted {size} bytes, got {len(data)}")
    return data


def _read_network(fh) -> Network:
    (n_layers,) = struct.unpack("<I", _read_exact(fh, 4))
    shapes = []
    for _ in range(n_layers):
        fan_in, fan_out, code = struct.unpack("<IIB", _read_exact(fh, 9))
        if code not in _ACTIVATION_NAMES:
            raise ValueError(f"model file: unknown activation code {code}")
        shapes.append((fan_in, fan_out, _ACTIVATION_NAMES[code]))
    layers = []
    for fan_in, fan_out, activation in shapes:
        weight = np.frombuffer(_read_exact(fh, 8 * fan_in * fan_out), dtype="<f8")
        bias = np.frombuffer(_read_exact(fh, 8 * fan_out), dtype="<f8")
        layers.append(
            Layer(
                weight=weight.reshape(fan_in, fan_out).copy(),
                bias=bias.copy(),
                activation=activation,
            )
        )
    return Network(layers)


def save_model(path, encoder: Network, decoder: Network) -> None:
    """Serialize an encoder/decoder pair to a versioned binary file."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", 2))
        _write_network(fh, encoder)
        _write_network(fh, decoder)


def load_model(path) -> tuple[Network, Network]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: bad model magic {magic!r}, expected {MODEL_MAGIC!r}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        if count != 2:
            raise ValueError(f"{path}: expected encoder+decoder, found {count} networks")
        encoder = _read_network(fh)
        decoder = _read_network(fh)
    return encoder, decoder
