"""Soft-assignment clustering head.

Embedded points are assigned to centroids with a Student-t kernel of one
degree of freedom, ``1 / (1 + ||z - u||^2)``, fixed as in DEC; the
assignments are sharpened into a frequency-normalized target, and the
model is trained to match that target under a KL objective. The gradient
helper differentiates the KL with respect to both the embedded points and
the centroids while the target stays fixed, and returns the assignments
it computed on the way, so one distance pass serves both. The target
squares q, DEC's fixed sharpening exponent.
"""

from __future__ import annotations

import numpy as np

from .tensor import Matrix, ShapeMismatchError


class DegenerateClusterError(RuntimeError):
    """A soft cluster frequency collapsed to zero."""


class InfiniteDivergenceError(ValueError):
    """KL(p || q) has q = 0 where p > 0."""


def expanded_squared_distances(sq_norms: np.ndarray, z: Matrix, centroids: Matrix,
                               out: Matrix | None = None) -> Matrix:
    """``||z_i||^2 - z_i . (2 u_j) + ||u_j||^2`` clamped at 0, written to ``out``.

    ``sq_norms`` holds the row norms ``np.sum(z**2, axis=1)``, so a caller
    that reuses ``z`` computes them once. Doubling a float is exact, so the
    product has the bits of ``(2 z) @ u.T``; ``out`` is an (n, k) workspace,
    allocated when None.
    """
    out = np.matmul(z, (2.0 * centroids).T, out=out)
    np.subtract(sq_norms[:, None], out, out=out)
    out += np.sum(centroids**2, axis=1)
    return np.maximum(out, 0.0, out=out)


def squared_distances(z: Matrix, centroids: Matrix) -> Matrix:
    """Pairwise ||z_i - u_j||^2, clamped at 0 against round-off."""
    if z.ndim != 2 or centroids.ndim != 2 or z.shape[1] != centroids.shape[1]:
        raise ShapeMismatchError(
            f"points {z.shape} and centroids {centroids.shape} differ in dimension"
        )
    return expanded_squared_distances(np.sum(z**2, axis=1), z, centroids)


def _distances_and_q(z: Matrix, centroids: Matrix) -> tuple[Matrix, Matrix]:
    """Squared distances and the row-normalized Student-t assignments they give."""
    if centroids.shape[0] < 1:
        raise ValueError("need at least one centroid")
    dists = squared_distances(z, centroids)
    kernels = 1.0 / (1.0 + dists)
    return dists, kernels / kernels.sum(axis=1, keepdims=True)


def soft_assign(z: Matrix, centroids: Matrix) -> Matrix:
    """Student-t similarity between each point and each centroid, row-normalized."""
    return _distances_and_q(z, centroids)[1]


def target_distribution(q: Matrix) -> Matrix:
    """Sharpen soft assignments into the self-training target p, shape (n, k).

    Each q is squared and divided by its soft cluster frequency (column
    sum), then rows are renormalized to sum to 1. Squaring pushes rows
    toward their argmax; the frequency division biases marginal points
    toward less populated clusters.
    """
    frequencies = q.sum(axis=0)
    if np.any(frequencies <= 0.0):
        dead = np.flatnonzero(frequencies <= 0.0).tolist()
        raise DegenerateClusterError(f"clusters {dead} have zero soft frequency")
    weighted = q**2 / frequencies
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_divergence(p: Matrix, q: Matrix) -> float:
    """sum_ij p_ij log(p_ij / q_ij) with the convention 0 log 0 = 0."""
    if p.shape != q.shape:
        raise ShapeMismatchError(f"kl: shapes {p.shape} vs {q.shape}")
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        raise InfiniteDivergenceError("q is zero on the support of p")
    terms = np.zeros_like(p)
    terms[support] = p[support] * np.log(p[support] / q[support])
    return float(terms.sum())


def clustering_grads(z: Matrix, centroids: Matrix,
                     target: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Gradients of KL(target || Q(z, centroids)) with the target held fixed.

    Works for any fixed row-stochastic target: the sharpened self-training
    target during clustering, or a frozen reference distribution for the
    consistency loss. Returns (q, grad_z, grad_centroids): the soft
    assignments from the same distance pass, then the gradients of the
    summed KL.
    """
    if target.shape != (z.shape[0], centroids.shape[0]):
        raise ShapeMismatchError(
            f"target {target.shape} vs points {z.shape} x centroids {centroids.shape}"
        )
    dists, q = _distances_and_q(z, centroids)
    # d KL / d dist_ij = (target_ij - q_ij) / (1 + dist_ij),
    # then d dist / d z_i = 2 (z_i - u_j) and d dist / d u_j = -2 (z_i - u_j).
    w = 2.0 * (target - q) / (1.0 + dists)
    grad_z = w.sum(axis=1, keepdims=True) * z - w @ centroids
    grad_centroids = w.sum(axis=0)[:, None] * centroids - w.T @ z
    return q, grad_z, grad_centroids
