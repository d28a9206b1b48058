import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdec import metrics
from rdec.metrics import (
    _best_assignment,
    accuracy,
    adjusted_rand_index,
    contingency_table,
    per_class_prf,
)


def brute_force_accuracy(labels, assignments):
    """Exact ACC by trying every one-to-one cluster-to-label mapping."""
    labels = np.asarray(labels)
    assignments = np.asarray(assignments)
    label_values = sorted(set(labels.tolist()))
    cluster_values = sorted(set(assignments.tolist()))
    best = 0
    # pad the smaller side with sentinels so mappings stay one-to-one
    size = max(len(label_values), len(cluster_values))
    padded_labels = label_values + [None] * (size - len(label_values))
    for perm in itertools.permutations(padded_labels):
        mapping = dict(zip(cluster_values, perm))
        matched = sum(
            1 for l, c in zip(labels, assignments) if mapping[c] == l
        )
        best = max(best, matched)
    return best / len(labels)


def pair_counting_ari(labels, assignments):
    """Literal ARI over all sample pairs."""
    n = len(labels)
    same_l = same_c = same_both = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            sl = labels[i] == labels[j]
            sc = assignments[i] == assignments[j]
            same_l += sl
            same_c += sc
            same_both += sl and sc
    expected = same_l * same_c / pairs
    maximum = 0.5 * (same_l + same_c)
    if maximum == expected:
        return 0.0
    return (same_both - expected) / (maximum - expected)


class TestContingency:
    def test_counts_and_marginals(self):
        counts, pred_values, true_values = contingency_table([0, 0, 1, 1], [3, 3, 3, 7])
        np.testing.assert_array_equal(counts, [[2, 1], [0, 1]])
        np.testing.assert_array_equal(pred_values, [3, 7])
        np.testing.assert_array_equal(true_values, [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            contingency_table([0, 1], [0, 1, 2])


class TestAccuracy:
    def test_perfect(self):
        acc, mapping = accuracy([0, 1, 2], [0, 1, 2])
        assert acc == 1.0
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_permutation_invariance(self):
        acc, mapping = accuracy([0, 0, 1, 1], [1, 1, 0, 0])
        assert acc == 1.0
        assert mapping == {0: 1, 1: 0}

    def test_crosswise_half(self):
        assert brute_force_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
        acc, _ = accuracy([0, 0, 1, 1], [0, 1, 0, 1])
        assert acc == 0.5

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(100):
            k_true = rng.integers(2, 7)
            k_pred = rng.integers(2, 7)
            n = rng.integers(5, 40)
            labels = rng.integers(0, k_true, size=n)
            assignments = rng.integers(0, k_pred, size=n)
            exact = brute_force_accuracy(labels, assignments)
            fast, _ = accuracy(labels, assignments)
            assert fast == pytest.approx(exact, abs=1e-12)

    def test_mapping_reproduces_score(self, rng):
        labels = rng.integers(0, 4, size=60)
        assignments = rng.integers(0, 6, size=60)
        acc, mapping = accuracy(labels, assignments)
        matched = sum(
            1 for l, c in zip(labels, assignments) if mapping.get(int(c)) == int(l)
        )
        assert matched / 60 == pytest.approx(acc, abs=1e-12)

    def test_relabeling_invariance(self, rng):
        labels = rng.integers(0, 3, size=50)
        assignments = rng.integers(0, 3, size=50)
        base, _ = accuracy(labels, assignments)
        cluster_relabel = {0: 7, 1: 5, 2: 9}
        label_relabel = {0: 2, 1: 0, 2: 1}
        acc2, _ = accuracy(
            [label_relabel[int(l)] for l in labels],
            [cluster_relabel[int(c)] for c in assignments],
        )
        assert acc2 == pytest.approx(base, abs=1e-12)

    def test_cluster_cap(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_CLUSTERS", 2)
        with pytest.raises(ValueError, match="3 clusters exceeds the exact-solver cap 2"):
            accuracy([0, 1, 2], [0, 1, 2])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestBestAssignment:
    """The in-repo solver picks scipy's column for every row, ties included."""

    @staticmethod
    def scipy_columns(weights):
        optimize = pytest.importorskip("scipy.optimize")
        rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
        np.testing.assert_array_equal(rows, np.arange(len(weights)))
        return cols

    @pytest.mark.parametrize("high", [1, 3, 1000])
    def test_matches_scipy_on_padded_tables(self, rng, high):
        for _ in range(400):
            # a rows x cols table zero-padded to square, as accuracy builds it
            rows, cols = (int(k) for k in rng.integers(0, 13, size=2))
            size = max(rows, cols)
            weights = np.zeros((size, size), dtype=np.int64)
            weights[:rows, :cols] = rng.integers(0, high + 1, size=(rows, cols))
            np.testing.assert_array_equal(
                _best_assignment(weights), self.scipy_columns(weights)
            )

    def test_matches_scipy_at_300(self, rng):
        weights = rng.integers(0, 50, size=(300, 300))
        weights[250:] = 0
        np.testing.assert_array_equal(
            _best_assignment(weights), self.scipy_columns(weights)
        )

    def test_constant_table_gives_the_identity(self):
        np.testing.assert_array_equal(_best_assignment(np.ones((5, 5))), np.arange(5))


class TestAri:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 9, 9]) == pytest.approx(1.0)

    def test_crosswise_is_minus_half(self):
        labels = [0, 0, 1, 1]
        assignments = [0, 1, 0, 1]
        assert pair_counting_ari(labels, assignments) == pytest.approx(-0.5)
        assert adjusted_rand_index(labels, assignments) == pytest.approx(-0.5, abs=1e-15)

    def test_single_cluster_assignment_scores_zero(self):
        # expected index equals the index, so the formula itself gives 0
        assert adjusted_rand_index([0, 1, 0, 1], [3, 3, 3, 3]) == 0.0

    def test_degenerate_all_singletons_returns_zero_with_flag(self):
        with pytest.warns(RuntimeWarning, match="undefined"):
            value = adjusted_rand_index([0, 1, 2], [3, 4, 5])
        assert value == 0.0

    def test_matches_pair_counting_on_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 25))
            labels = rng.integers(0, 4, size=n).tolist()
            assignments = rng.integers(0, 4, size=n).tolist()
            want = pair_counting_ari(labels, assignments)
            got = adjusted_rand_index(labels, assignments)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=30))
    def test_symmetric_and_self_is_one(self, labels):
        import warnings
        from collections import Counter

        other = labels[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = adjusted_rand_index(labels, other)
            b = adjusted_rand_index(other, labels)
        assert a == pytest.approx(b, abs=1e-12)
        # self-agreement is 1 unless the partition is constant or all-singleton
        if len(set(labels)) > 1 and max(Counter(labels).values()) > 1:
            assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0], [0])


class TestPerClassPrf:
    def test_perfect(self):
        _, mapping = accuracy([0, 0, 1], [4, 4, 2])
        assert per_class_prf([0, 0, 1], [4, 4, 2], mapping, 0) == (1.0, 1.0, 1.0)

    def test_half_recall_full_precision(self):
        labels = [0, 0, 1]
        assignments = [5, 7, 7]
        _, mapping = accuracy(labels, assignments)
        assert mapping == {5: 0, 7: 1}
        recall, precision, f_measure = per_class_prf(labels, assignments, mapping, 0)
        assert (recall, precision) == (0.5, 1.0)
        assert f_measure == pytest.approx(2.0 / 3.0)

    def test_absent_class_raises(self):
        with pytest.raises(ValueError, match="absent"):
            per_class_prf([0, 0], [1, 1], {1: 0}, 3)

    def test_unmapped_class_scores_zero(self):
        # two true classes, single predicted cluster: one class unmapped
        labels = [0, 0, 1, 1]
        assignments = [2, 2, 2, 2]
        _, mapping = accuracy(labels, assignments)
        unmapped = 1 - list(mapping.values())[0]
        assert per_class_prf(labels, assignments, mapping, unmapped) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            per_class_prf([0, 1], [0, 1, 1], {0: 0, 1: 1}, 0)


SCORERS = {
    "accuracy": accuracy,
    "adjusted_rand_index": adjusted_rand_index,
    "per_class_prf": lambda labels, assignments: per_class_prf(labels, assignments, {}, 0),
}


class TestLabelValues:
    @pytest.mark.parametrize("scorer", SCORERS.values(), ids=SCORERS.keys())
    @pytest.mark.parametrize("assignments, message", [
        ([0.5, 1.5, 0.2], "assignments[0] is 0.5, not an int64 integer"),
        ([0, 1, np.nan], "assignments[2] is nan, not an int64 integer"),
        ([0, -np.inf, 1], "assignments[1] is -inf, not an int64 integer"),
        ([1e20, 0, 1], "assignments[0] is 1e+20, not an int64 integer"),
        ([0, 2.0**63, 1], "assignments[1] is 9.223372036854776e+18, not an int64 integer"),
        # a 2-D array is no label array at all
        ([[0, 1], [1, 0]], "assignments must be 1-D, got shape (2, 2)"),
    ], ids=["fraction", "nan", "inf", "1e20", "2**63", "2-d"])
    def test_a_label_that_is_not_an_int64_integer_raises(self, scorer, assignments, message):
        with pytest.raises(ValueError) as info:
            scorer([0, 1, 0], assignments)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            scorer(assignments, [0, 1, 0])
        assert str(info.value) == message.replace("assignments", "labels")

    @pytest.mark.parametrize("scorer", SCORERS.values(), ids=SCORERS.keys())
    def test_integral_floats_score_as_their_integers(self, scorer):
        labels, assignments = [0, 0, 1, 1, 0], [3, 3, 7, 3, 7]
        floats = np.array(assignments, dtype=np.float64)
        assert scorer(labels, floats) == scorer(labels, assignments)
        assert (scorer(np.array(labels, dtype=np.float32), assignments)
                == scorer(labels, assignments))

    def test_the_lowest_int64_as_a_float_passes(self):
        assert accuracy([0, 1, 0], [-2.0**63, 0.0, -2.0**63]) == (1.0, {-2**63: 0, 0: 1})
