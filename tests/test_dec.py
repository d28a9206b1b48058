import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdec.dec import (
    DegenerateClusterError,
    InfiniteDivergenceError,
    clustering_grads,
    kl_divergence,
    soft_assign,
    squared_distances,
    target_distribution,
)
from rdec.tensor import ShapeMismatchError

from conftest import numerical_grad, relative_error


@pytest.mark.parametrize("n, k, d", [(1, 1, 3), (1, 10, 2), (300, 1, 10), (64, 7, 1),
                                     (200, 10, 784), (400, 33, 17)])
def test_squared_distances_bits_equal_the_literal_expansion(n, k, d):
    # Centroids sit 1e-9 from data rows, so round-off below 0 is clamped too.
    rng = np.random.default_rng(n * k * d)
    z = rng.standard_normal((n, d))
    u = z[rng.integers(0, n, size=k)] + 1e-9 * rng.standard_normal((k, d))
    sq = np.sum(z**2, axis=1)
    want = np.maximum(sq[:, None] - 2.0 * z @ u.T + np.sum(u**2, 1)[None, :], 0.0)
    got = squared_distances(z, u)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, k, d", [(1, 1, 2), (64, 10, 10), (300, 7, 2)])
def test_kernel_and_weights_are_the_general_formulas_at_alpha_one(n, k, d):
    # DEC's Student-t kernel (1 + d/a)^(-(a+1)/2) and KL weight (a+1)(p-q)/(a+d),
    # written out at a = 1; a numpy whose ** -1.0 is no exact reciprocal fails here
    alpha = 1.0
    rng = np.random.default_rng(n + k + d)
    z, u = 3 * rng.standard_normal((n, d)), 3 * rng.standard_normal((k, d))
    p = rng.random((n, k)) + 0.05
    p /= p.sum(axis=1, keepdims=True)
    dists = squared_distances(z, u)
    kernels = (1.0 + dists / alpha) ** (-(alpha + 1.0) / 2.0)
    q = kernels / kernels.sum(axis=1, keepdims=True)
    w = (alpha + 1.0) * (p - q) / (alpha + dists)
    want = (q, w.sum(axis=1, keepdims=True) * z - w @ u, w.sum(axis=0)[:, None] * u - w.T @ z)
    assert soft_assign(z, u).tobytes() == q.tobytes()
    for got, wanted in zip(clustering_grads(z, u, p), want):
        assert got.tobytes() == wanted.tobytes()


class TestSoftAssign:
    def test_equidistant_point_splits_evenly(self):
        z = np.array([[0.5, 0.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = soft_assign(z, centroids)
        np.testing.assert_allclose(q, [[0.5, 0.5]], atol=1e-15)

    def test_hand_evaluated_kernels(self):
        # distances 0 and 1 with unit dof: kernels 1 and 1/2
        z = np.array([[0.0, 0.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = soft_assign(z, centroids)
        np.testing.assert_allclose(q, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_single_centroid(self):
        q = soft_assign(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(q, [[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            soft_assign(np.ones((2, 3)), np.ones((2, 2)))

    def test_no_centroids(self):
        with pytest.raises(ValueError):
            soft_assign(np.ones((2, 2)), np.ones((0, 2)))

    @settings(deadline=None, max_examples=50)
    @given(
        arrays(np.float64, (7, 3), elements=st.floats(-50, 50)),
        arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
    )
    def test_rows_sum_to_one(self, z, centroids):
        q = soft_assign(z, centroids)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q > 0.0) and np.all(q < 1.0 + 1e-12)


def reference_target_distribution(q):
    """DEC's target as computed with a sharpening exponent argument, at s = 2."""
    s = 2.0
    if s < 1.0:
        raise ValueError(f"sharpening exponent must be >= 1, got {s}")
    frequencies = q.sum(axis=0)
    if np.any(frequencies <= 0.0):
        dead = np.flatnonzero(frequencies <= 0.0).tolist()
        raise DegenerateClusterError(f"clusters {dead} have zero soft frequency")
    weighted = q**s / frequencies
    return weighted / weighted.sum(axis=1, keepdims=True)


class TestTargetDistribution:
    def test_matches_the_exponent_form_at_two_bit_for_bit(self, rng):
        with_zeros = 0
        for case in range(200):
            n, k = int(rng.integers(1, 51)), int(rng.integers(1, 11))
            raw = rng.random((n, k))
            if case % 2:
                # exact zeros in q, keeping a positive entry in every row and column
                raw[rng.random((n, k)) < 0.4] = 0.0
                raw[np.arange(n), rng.integers(0, k, size=n)] = rng.random(n) + 0.01
                raw[rng.integers(0, n, size=k), np.arange(k)] = rng.random(k) + 0.01
            q = raw / raw.sum(axis=1, keepdims=True)
            with_zeros += bool(np.any(q == 0.0))
            assert target_distribution(q).tobytes() == reference_target_distribution(q).tobytes()
        assert with_zeros >= 50

    def test_hand_evaluated_sharpening(self):
        q = np.array([[0.8, 0.2], [0.2, 0.8]])
        target = target_distribution(q)
        np.testing.assert_allclose(q.sum(axis=0), [1.0, 1.0])
        np.testing.assert_allclose(
            target[0], [0.64 / 0.68, 0.04 / 0.68], atol=1e-12
        )
        np.testing.assert_allclose(target[0], [0.9412, 0.0588], atol=1e-4)

    def test_uniform_rows_stay_uniform(self):
        q = np.full((5, 4), 0.25)
        target = target_distribution(q)
        np.testing.assert_allclose(target, 0.25, atol=1e-12)

    def test_degenerate_cluster_raises(self):
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateClusterError, match=r"\[1\]"):
            target_distribution(q)
        with pytest.raises(DegenerateClusterError, match=r"\[0, 2\]"):
            target_distribution(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))

    @settings(deadline=None, max_examples=50)
    @given(arrays(np.float64, (6, 3), elements=st.floats(0.01, 1.0)))
    def test_sharpening_properties(self, raw):
        q = raw / raw.sum(axis=1, keepdims=True)
        target = target_distribution(q)
        np.testing.assert_allclose(target.sum(axis=1), 1.0, atol=1e-9)
        # argmax of each target row equals argmax of q^2 / f
        scores = q**2 / q.sum(axis=0)
        np.testing.assert_array_equal(target.argmax(axis=1), scores.argmax(axis=1))

    def test_uniform_frequencies_raise_peak(self, rng):
        # symmetric q -> equal frequencies; sharpened rows peak higher
        base = rng.uniform(0.05, 1.0, size=(4,))
        q_rows = [np.roll(base, shift) for shift in range(4)]
        q = np.array(q_rows)
        q = q / q.sum(axis=1, keepdims=True)
        target = target_distribution(q)
        assert np.all(target.max(axis=1) >= q.max(axis=1) - 1e-12)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([[0.3, 0.7]])
        assert kl_divergence(p, p.copy()) == 0.0

    def test_hand_value_log_two(self):
        value = kl_divergence(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_zero_q_on_support_raises(self):
        with pytest.raises(InfiniteDivergenceError):
            kl_divergence(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kl_divergence(np.ones((1, 2)), np.ones((2, 1)))

    def test_non_negative_on_random_pairs(self, rng):
        for _ in range(200):
            p = rng.random((3, 5)) + 1e-6
            p /= p.sum(axis=1, keepdims=True)
            q = rng.random((3, 5)) + 1e-6
            q /= q.sum(axis=1, keepdims=True)
            assert kl_divergence(p, q) >= -1e-12


class TestClusteringGrads:
    def test_zero_at_kl_minimum(self):
        # symmetric configuration: the target q itself is the KL minimum
        z = np.array([[0.0, 0.0], [2.0, 2.0]])
        centroids = np.array([[0.0, 0.0], [2.0, 2.0]])
        target = q = soft_assign(z, centroids)
        _, grad_z, grad_u = clustering_grads(z, centroids, target)
        np.testing.assert_allclose(grad_z, 0.0, atol=1e-12)
        np.testing.assert_allclose(grad_u, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        z = rng.standard_normal((5, 2))
        centroids = rng.standard_normal((3, 2))
        q = soft_assign(z, centroids)
        p = target_distribution(q)  # frozen

        _, grad_z, grad_u = clustering_grads(z, centroids, p)
        fd_z = numerical_grad(
            lambda v: kl_divergence(p, soft_assign(v, centroids)), z.copy()
        )
        fd_u = numerical_grad(
            lambda v: kl_divergence(p, soft_assign(z, v)), centroids.copy()
        )
        assert relative_error(grad_z, fd_z) < 1e-5
        assert relative_error(grad_u, fd_u) < 1e-5

    def test_translation_invariance(self, rng):
        z = rng.standard_normal((4, 3))
        centroids = rng.standard_normal((2, 3))
        p = target_distribution(soft_assign(z, centroids))
        _, g_z, _ = clustering_grads(z, centroids, p)
        shift = rng.standard_normal(3)
        _, g_z_shifted, _ = clustering_grads(z + shift, centroids + shift, p)
        np.testing.assert_allclose(g_z_shifted, g_z, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            clustering_grads(np.ones((3, 2)), np.ones((2, 2)), np.ones((3, 3)))

    def test_randomized_finite_difference_sweep(self, rng):
        for _ in range(20):
            n, k, dim = rng.integers(2, 6), rng.integers(2, 5), rng.integers(1, 4)
            z = rng.standard_normal((n, dim)) * 2
            centroids = rng.standard_normal((k, dim)) * 2
            p = rng.random((n, k)) + 0.05
            p /= p.sum(axis=1, keepdims=True)
            _, grad_z, grad_u = clustering_grads(z, centroids, p)
            fd_z = numerical_grad(
                lambda v: kl_divergence(p, soft_assign(v, centroids)), z.copy()
            )
            fd_u = numerical_grad(
                lambda v: kl_divergence(p, soft_assign(z, v)), centroids.copy()
            )
            assert relative_error(grad_z, fd_z) < 1e-5
            assert relative_error(grad_u, fd_u) < 1e-5
