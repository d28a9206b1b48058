"""Lloyd's algorithm with restarts, for centroid initialization and baselines; the
restart count has no default, since ``TrainConfig.kmeans_restarts`` states it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dec import expanded_squared_distances

MAX_ITER = 300  # Lloyd steps per restart, at most


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, dim)
    assignments: np.ndarray  # (n,) int64
    inertia: float
    # Per-iteration inertia of the winning run; Lloyd guarantees it never increases.
    inertia_history: list[float]


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


def _lloyd(points, columns, sq_norms, k: int, rng: np.random.Generator):
    n = points.shape[0]
    rows = np.arange(n)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1, dtype=np.int64)
    dists = np.empty((n, k))
    history: list[float] = []
    for _ in range(MAX_ITER):
        expanded_squared_distances(sq_norms, points, centroids, out=dists)
        new_assignments = dists.argmin(axis=1)  # ties go to the lower index
        point_cost = dists[rows, new_assignments]
        history.append(float(point_cost.sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        _update_centroids(columns, points, assignments, point_cost, centroids)
    else:
        # The centroids moved after the last assignment.
        expanded_squared_distances(sq_norms, points, centroids, out=dists)
        assignments = dists.argmin(axis=1)
        point_cost = dists[rows, assignments]
    return centroids, assignments, float(point_cost.sum()), history


def kmeans(
    points: np.ndarray,
    k: int,
    restarts: int,
    seed: int = 0,
) -> KMeansResult:
    """Best-inertia clustering over independent random-point restarts.

    Each restart draws its initial centroids from a generator seeded with
    (seed, restart index), so runs are reproducible and independent of
    whether restarts execute sequentially or not. Each Lloyd step takes
    the ``argmin`` of ``dec.expanded_squared_distances`` in one (n, k)
    workspace and sums each cluster per column with ``bincount``; for
    points with at least two columns the results are bit-identical to a
    plain Lloyd step (``argmin``, masked ``mean`` per cluster). The call
    holds one extra copy of the points, transposed, for those sums.
    """
    points = np.asarray(points, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if points.ndim != 2 or points.shape[0] < k:
        raise ValueError(f"need at least {k} points, got shape {points.shape}")
    if points.shape[1] == 0:
        raise ValueError(f"points have no columns, got shape {points.shape}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    nonfinite = points.size - np.count_nonzero(np.isfinite(points))
    if nonfinite:
        raise ValueError(f"points hold {nonfinite} non-finite entries (NaN or Inf)")

    # Invariants of every Lloyd iteration, computed once per call.
    sq_norms = np.sum(points**2, axis=1)
    columns = np.ascontiguousarray(points.T)
    best: KMeansResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centroids, assignments, inertia, history = _lloyd(points, columns, sq_norms, k, rng)
        if best is None or inertia < best.inertia:
            best = KMeansResult(centroids, assignments, inertia, history)
    return best
