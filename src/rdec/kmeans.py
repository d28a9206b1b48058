"""Lloyd's algorithm with restarts, used for centroid initialization and baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, dim)
    assignments: np.ndarray  # (n,) int64
    inertia: float
    # Per-iteration inertia of the winning run; Lloyd guarantees it never increases.
    inertia_history: list[float]


def _nearest(sq_norms, twice_points, centroids, gram, dists):
    """Nearest centroid of every point and the squared distance to it.

    The distances are ``||x||^2 - (2x) @ c + ||c||^2`` clamped at 0. The
    GEMM keeps the (n, k) orientation; the product is then laid out as
    (k, n) so every elementwise step runs along n. One sweep over the k
    rows keeps the lowest index on ties, as ``argmin`` does, and the
    running minimum is the point cost. ``gram`` (n, k) and ``dists``
    (k, n) are workspaces; the returned cost is a view into ``dists``.
    """
    np.matmul(twice_points, centroids.T, out=gram)
    np.copyto(dists, gram.T)
    np.subtract(sq_norms, dists, out=dists)
    dists += np.sum(centroids**2, axis=1)[:, None]
    np.maximum(dists, 0.0, out=dists)
    assignments = np.zeros(dists.shape[1], dtype=np.int64)
    cost = dists[0]
    for j in range(1, dists.shape[0]):
        assignments[dists[j] < cost] = j
        # Distances are finite and never -0.0, so equal values have equal bits.
        np.minimum(cost, dists[j], out=cost)
    return assignments, cost


def _update_centroids(columns, points, assignments, point_cost, centroids) -> None:
    """Move each centroid to the mean of its members, in place.

    Each coordinate column (a row of ``columns``, the transposed points)
    is summed per cluster by one ``bincount``, in row order. An empty
    cluster is reseeded at the point currently farthest from its assigned
    centroid; each repair takes a fresh point.
    """
    k = centroids.shape[0]
    counts = np.bincount(assignments, minlength=k)
    sums = np.stack([np.bincount(assignments, weights=col, minlength=k) for col in columns],
                    axis=1)
    filled = counts > 0
    centroids[filled] = sums[filled] / counts[filled, None]
    if not filled.all():
        cost = point_cost.copy()
        for j in np.flatnonzero(~filled):
            far = int(np.argmax(cost))
            centroids[j] = points[far]
            cost[far] = -np.inf


def _lloyd(points, columns, sq_norms, twice_points, k: int,
           rng: np.random.Generator, max_iter: int):
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1, dtype=np.int64)
    gram, dists = np.empty((n, k)), np.empty((k, n))
    history: list[float] = []
    for _ in range(max_iter):
        new_assignments, point_cost = _nearest(sq_norms, twice_points, centroids, gram, dists)
        history.append(float(point_cost.sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        _update_centroids(columns, points, assignments, point_cost, centroids)
    else:
        # The centroids moved after the last assignment.
        assignments, point_cost = _nearest(sq_norms, twice_points, centroids, gram, dists)
    return centroids, assignments, float(point_cost.sum()), history


def kmeans(
    points: np.ndarray,
    k: int,
    restarts: int = 20,
    max_iter: int = 300,
    seed: int = 0,
) -> KMeansResult:
    """Best-inertia clustering over independent random-point restarts.

    Each restart draws its initial centroids from a generator seeded with
    (seed, restart index), so runs are reproducible and independent of
    whether restarts execute sequentially or not. For points with at
    least two columns the results are bit-identical to a plain Lloyd step
    (``argmin`` over the (n, k) distances, masked ``mean`` per cluster).
    The call holds two extra copies of the points, doubled and transposed.
    """
    points = np.asarray(points, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if points.ndim != 2 or points.shape[0] < k:
        raise ValueError(f"need at least {k} points, got shape {points.shape}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    nonfinite = points.size - np.count_nonzero(np.isfinite(points))
    if nonfinite:
        raise ValueError(f"points hold {nonfinite} non-finite entries (NaN or Inf)")

    # Invariants of every Lloyd iteration, computed once per call.
    sq_norms = np.sum(points**2, axis=1)
    twice_points = 2.0 * points
    columns = np.ascontiguousarray(points.T)
    best: KMeansResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centroids, assignments, inertia, history = _lloyd(
            points, columns, sq_norms, twice_points, k, rng, max_iter
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(centroids, assignments, inertia, history)
    return best
