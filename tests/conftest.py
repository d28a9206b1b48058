"""Shared test helpers: finite-difference oracles and synthetic data."""

from __future__ import annotations

import numpy as np
import pytest

from rdec.network import backward


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    # one visible pass/fail line per acceptance criterion
    if report.when == "call":
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            number, description = marker.args
            if report.passed:
                status = "PASS"
            elif report.skipped:
                status = "SKIP"
            else:
                status = "FAIL"
            print(f"\n[acceptance criterion {number}] {status}: {description}")
    return report


def step_grads(net, caches, grad_out) -> list[np.ndarray]:
    """``network.backward``'s per-layer hand-off collected into a list aligned
    with ``net.parameters()``; the stepped call must return None."""
    grads = [None] * (2 * len(net.layers))

    def keep(i, grad_weight, grad_bias):
        grads[2 * i], grads[2 * i + 1] = grad_weight, grad_bias

    assert backward(net, caches, grad_out, step=keep) is None
    return grads


def numerical_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(x)
        flat[i] = orig - h
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Vector-norm relative deviation of analytic from numeric gradients."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def two_gaussians(n: int = 400, separation: float = 8.0, scale: float = 0.5,
                  seed: int = 0):
    """Two well-separated 2-D blobs with generating labels."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(loc=(0.0, 0.0), scale=scale, size=(half, 2))
    b = rng.normal(loc=(separation, separation), scale=scale, size=(n - half, 2))
    features = np.vstack([a, b])
    labels = np.concatenate([np.zeros(half, dtype=np.int64),
                             np.ones(n - half, dtype=np.int64)])
    perm = rng.permutation(n)
    return features[perm], labels[perm]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
