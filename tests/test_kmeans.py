import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rdec.kmeans import KMeansResult, kmeans

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def brute_force_two_clusters(points):
    """Exhaustive best 2-partition: returns (inertia, frozenset of index sets)."""
    n = len(points)
    best = (np.inf, None)
    for labels in itertools.product([0, 1], repeat=n):
        labels = np.array(labels)
        if len(set(labels)) < 2:
            continue
        inertia = 0.0
        for j in (0, 1):
            members = points[labels == j]
            inertia += float(((members - members.mean(axis=0)) ** 2).sum())
        if inertia < best[0]:
            groups = frozenset(
                frozenset(np.flatnonzero(labels == j).tolist()) for j in (0, 1)
            )
            best = (inertia, groups)
    return best


class TestFourPointExample:
    def test_brute_force_oracle_value(self):
        inertia, groups = brute_force_two_clusters(FOUR_POINTS)
        assert inertia == pytest.approx(1.0)
        assert groups == frozenset({frozenset({0, 1}), frozenset({2, 3})})

    def test_kmeans_matches_oracle(self):
        result = kmeans(FOUR_POINTS, k=2, restarts=5, seed=0)
        assert result.inertia == pytest.approx(1.0, abs=1e-12)
        found = sorted(result.centroids[:, 0])
        np.testing.assert_allclose(found, [0.0, 10.0], atol=1e-12)
        np.testing.assert_allclose(sorted(result.centroids[:, 1]), [0.5, 0.5], atol=1e-12)

    def test_row_permutation_invariance(self):
        base = kmeans(FOUR_POINTS, k=2, restarts=5, seed=0)
        for perm_seed in range(5):
            perm = np.random.default_rng(perm_seed).permutation(4)
            shuffled = kmeans(FOUR_POINTS[perm], k=2, restarts=5, seed=perm_seed)
            assert shuffled.inertia == pytest.approx(base.inertia, abs=1e-12)
            a = {tuple(np.round(c, 9)) for c in base.centroids}
            b = {tuple(np.round(c, 9)) for c in shuffled.centroids}
            assert a == b


def test_k_equals_one_gives_mean(rng):
    points = rng.standard_normal((30, 3))
    result = kmeans(points, k=1, restarts=3, seed=1)
    np.testing.assert_allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)
    assert (result.assignments == 0).all()


def test_k_equals_n_zero_inertia(rng):
    points = rng.standard_normal((6, 2))
    result = kmeans(points, k=6, restarts=3, seed=2)
    assert result.inertia == pytest.approx(0.0, abs=1e-18)


def test_errors():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(points, k=0, restarts=1)
    with pytest.raises(ValueError):
        kmeans(points, k=4, restarts=1)
    with pytest.raises(ValueError):
        kmeans(points, k=2, restarts=0)
    with pytest.raises(ValueError, match=r"points have no columns, got shape \(3, 0\)"):
        kmeans(np.zeros((3, 0)), k=2, restarts=1)


def test_inertia_history_non_increasing(rng, monkeypatch):
    monkeypatch.setattr("rdec.kmeans.MAX_ITER", 50)
    for trial in range(10):
        points = rng.standard_normal((80, 4)) + rng.integers(0, 3, size=(80, 1)) * 4.0
        result = kmeans(points, k=3, restarts=4, seed=trial)
        history = result.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_same_seed_reproducible(rng):
    points = rng.standard_normal((50, 3))
    a = kmeans(points, k=4, restarts=6, seed=42)
    b = kmeans(points, k=4, restarts=6, seed=42)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


def test_assignment_ties_break_low_index(monkeypatch):
    # point exactly between two centroid seeds
    monkeypatch.setattr("rdec.kmeans.MAX_ITER", 1)
    points = np.array([[0.0], [2.0], [1.0], [1.0]])
    result = kmeans(points, k=2, restarts=20, seed=0)
    assert set(result.assignments.tolist()) <= {0, 1}


def test_non_finite_points_rejected_before_any_restart():
    points = np.zeros((20, 3))
    points[2, 1] = np.nan
    points[7, 0] = np.inf
    points[9, 2] = -np.inf
    with pytest.raises(ValueError, match="3 non-finite"):
        kmeans(points, k=2, restarts=1)


# Reference: a plain Lloyd step (argmin over (n, k) distances, masked mean
# per cluster), kept verbatim from the implementation the vectorised one
# replaced. The vectorised step must reproduce it bit for bit.
def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded; clamp tiny negative round-off.
    d = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iter):
        dists = _squared_distances(points, centroids)
        new_assignments = np.argmin(dists, axis=1)  # ties go to the lower index
        history.append(float(dists[np.arange(n), new_assignments].sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        taken = np.zeros(n, dtype=bool)
        point_cost = dists[np.arange(n), assignments]
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                # Reseed an empty cluster at the point currently farthest
                # from its assigned centroid (each repair takes a fresh point).
                cost = np.where(taken, -np.inf, point_cost)
                far = int(np.argmax(cost))
                centroids[j] = points[far]
                taken[far] = True
    dists = _squared_distances(points, centroids)
    assignments = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(n), assignments].sum())
    return centroids, assignments, inertia, history


def reference_kmeans(points, k, restarts, max_iter=300, seed=0):
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        result = KMeansResult(*_lloyd(points, k, rng, max_iter))
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _blobs(n, dim, k, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)) * 4.0
    return centers[rng.integers(0, k, n)] + rng.standard_normal((n, dim))


def _normal(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


ORACLE_CASES = {
    **{f"blobs-d{dim}-k{k}": (_blobs(300, dim, k, seed=dim * k), k, {})
       for dim in (2, 10) for k in (2, 10)},
    # integer grid points: many exact distance ties
    "rounded-ties": (np.round(_normal(1, (200, 2)) * 2), 5, {}),
    # 5 distinct points for 10 clusters: empty clusters are repaired every run
    "repeated-points": (np.repeat(_normal(2, (5, 3)), 40, axis=0), 10, {}),
    "k1": (_normal(3, (50, 3)), 1, {}),
    "k-equals-n": (_normal(4, (12, 3)), 12, {}),
    "max-iter-1": (_blobs(100, 4, 6, seed=5), 6, {"max_iter": 1}),
    "pixels-784": (np.random.default_rng(6).random((200, 784)), 10, {}),
    # wide k and an odd dimension: GEMM edge shapes
    "wide-k33-d17": (_blobs(400, 17, 33, seed=8), 33, {}),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_bit_identical_to_plain_lloyd(case, monkeypatch):
    points, k, kwargs = ORACLE_CASES[case]
    if "max_iter" in kwargs:
        monkeypatch.setattr("rdec.kmeans.MAX_ITER", kwargs["max_iter"])
    got = kmeans(points, k, restarts=5, seed=3)
    want = reference_kmeans(points, k, restarts=5, seed=3, **kwargs)
    np.testing.assert_array_equal(got.centroids, want.centroids)
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.inertia == want.inertia
    assert got.inertia_history == want.inertia_history


def test_holds_one_extra_copy_of_the_points():
    # The transposed columns for the per-cluster sums are the one full-size
    # copy; the (n, k) distances and the row norms are small beside it.
    points = np.random.default_rng(9).random((3000, 784))
    tracemalloc.start()
    try:
        kmeans(points, 10, restarts=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * points.nbytes


def test_one_column_means_agree_to_round_off():
    # With one column the plain mean sums pairwise and bincount sums in
    # row order. Either sum of n terms is within n * eps * max|x| of the
    # exact one, which bounds how far the means may differ.
    points = _blobs(300, 1, 4, seed=7)
    tol = len(points) * np.finfo(np.float64).eps
    got = kmeans(points, 4, restarts=5, seed=3)
    want = reference_kmeans(points, 4, restarts=5, seed=3)
    np.testing.assert_array_equal(got.assignments, want.assignments)
    np.testing.assert_allclose(got.centroids, want.centroids, rtol=0,
                               atol=tol * np.abs(points).max())
    assert got.inertia == pytest.approx(want.inertia, rel=tol)


@pytest.mark.parametrize("first_import", ["import rdec", "import rdec.trainer"])
def test_rdec_kmeans_is_the_module_in_any_import_order(first_import):
    code = (
        f"{first_import}; import rdec, types; "
        "assert isinstance(rdec.kmeans, types.ModuleType), rdec.kmeans; "
        "from rdec import kmeans; "
        "assert kmeans is rdec.kmeans and callable(kmeans.kmeans); "
        "assert rdec.KMeansResult is kmeans.KMeansResult"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
