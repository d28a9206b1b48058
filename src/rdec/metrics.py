"""Clustering quality against ground truth: ACC, adjusted Rand index, per-class PRF;
ACC's exact solver takes at most ``MAX_CLUSTERS`` clusters or labels."""

from __future__ import annotations

import warnings

import numpy as np

MAX_CLUSTERS = 10_000


def _as_label_array(values, name: str) -> np.ndarray:
    """``values`` as int64; a value that is not a finite integer within int64's
    range is a ValueError naming the first such value. Arrays that cast to
    int64 safely pass unchecked."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.can_cast(arr.dtype, np.int64):
        floats = arr.astype(np.float64)
        # NaN fails every comparison and the infinities fail the range
        bad = ~((np.floor(floats) == floats) & (floats >= -2.0**63) & (floats < 2.0**63))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{name}[{i}] is {arr[i].item()!r}, not an int64 integer")
    return arr.astype(np.int64)


def _label_pair(labels, assignments) -> tuple[np.ndarray, np.ndarray]:
    """Both label arrays as int64; they must be the same length."""
    labels = _as_label_array(labels, "labels")
    assignments = _as_label_array(assignments, "assignments")
    if labels.shape != assignments.shape:
        raise ValueError(
            f"length mismatch: {labels.shape[0]} labels vs {assignments.shape[0]} assignments"
        )
    return labels, assignments


def contingency_table(labels, assignments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, pred_values, true_values), the distinct ids sorted; counts is
    (n_pred, n_true) int64."""
    labels, assignments = _label_pair(labels, assignments)
    true_values, true_idx = np.unique(labels, return_inverse=True)
    pred_values, pred_idx = np.unique(assignments, return_inverse=True)
    counts = np.zeros((len(pred_values), len(true_values)), dtype=np.int64)
    np.add.at(counts, (pred_idx, true_idx), 1)
    return counts, pred_values, true_values


def _best_assignment(weights: np.ndarray) -> np.ndarray:
    """Column matched to each row in a maximum-weight matching of a square table.

    Shortest augmenting path (Crouse 2016, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 52(4)), as scipy's rectangular_lsap
    runs it for a square table. The float64 costs, the dual updates and
    both tie rules follow scipy's: unvisited columns start in reverse order
    and a picked one is swapped with the last; among the columns at the
    minimum reduced cost the last one without a row wins, else the first.
    So ties resolve as in scipy.optimize.linear_sum_assignment(weights,
    maximize=True), and the mapping, not just the matched total, agrees.
    """
    cost = -np.asarray(weights, dtype=np.float64)
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1, dtype=np.intp)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    for cur_row in range(n):
        shortest = np.full(n, np.inf)
        seen_rows = np.zeros(n, dtype=bool)
        seen_cols = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)
        num_remaining = n
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_rows[i] = True
            cols = remaining[:num_remaining]
            reduced = min_val + cost[i, cols] - u[i] - v[cols]
            shorter = reduced < shortest[cols]
            path[cols[shorter]] = i
            shortest[cols[shorter]] = reduced[shorter]
            costs = shortest[cols]
            min_val = costs.min()
            at_min = np.flatnonzero(costs == min_val)
            free = at_min[row4col[cols[at_min]] == -1]
            index = free[-1] if free.size else at_min[0]
            j = cols[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]
        u[cur_row] += min_val
        seen_rows[cur_row] = False
        u[seen_rows] += min_val - shortest[col4row[seen_rows]]
        v[seen_cols] -= min_val - shortest[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def accuracy(labels, assignments):
    """Best-mapping clustering accuracy.

    Maximizes the matched fraction over one-to-one cluster-to-label
    mappings by optimal assignment on the contingency table (padded square
    when cluster and label counts differ), solved in-repo by
    `_best_assignment` with scipy's tie rules. Returns (acc, mapping) where
    mapping sends each cluster id to its matched label id; clusters
    matched to padding are absent from the mapping.
    """
    counts, pred_values, true_values = contingency_table(labels, assignments)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("ACC needs at least one sample; labels and assignments are empty")
    size = max(counts.shape)
    if size > MAX_CLUSTERS:
        raise ValueError(f"{size} clusters exceeds the exact-solver cap {MAX_CLUSTERS}")
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    cols = _best_assignment(padded)
    matched = int(padded[np.arange(size), cols].sum())
    mapping = {
        int(pred_values[r]): int(true_values[c])
        for r, c in enumerate(cols)
        if r < len(pred_values) and c < len(true_values)
    }
    return matched / n, mapping


def adjusted_rand_index(labels, assignments) -> float:
    """Pair-counting ARI: (index - expected) / (max - expected).

    Pair counts are combined in exact integer arithmetic with a single
    final division, so rational results (the -0.5 crosswise case) come out
    exact. The degenerate case where max equals expected (e.g. both
    partitions all-singletons) is undefined by the formula; it returns 0
    and emits a warning.
    """
    counts = contingency_table(labels, assignments)[0]
    n = int(counts.sum())
    if n < 2:
        raise ValueError("ARI needs at least two samples")

    def comb2(values) -> int:
        return sum(int(v) * (int(v) - 1) // 2 for v in values)

    index = comb2(counts.ravel())
    sum_rows = comb2(counts.sum(axis=1))
    sum_cols = comb2(counts.sum(axis=0))
    total_pairs = n * (n - 1) // 2
    # (index - rows*cols/total) / ((rows+cols)/2 - rows*cols/total), cleared
    # of fractions: both sides scaled by 2*total
    numerator = 2 * total_pairs * index - 2 * sum_rows * sum_cols
    denominator = total_pairs * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        warnings.warn("ARI undefined (max index equals expected); returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return numerator / denominator


def per_class_prf(labels, assignments, mapping: dict[int, int], class_id: int):
    """One-vs-rest recall, precision, and F-measure for one true class.

    Predicted positives are the points in clusters that the accuracy
    mapping sends to class_id. A class with no mapped cluster scores zero.
    """
    labels, assignments = _label_pair(labels, assignments)
    actual = labels == class_id
    if not actual.any():
        raise ValueError(f"class {class_id} absent from labels")
    mapped_clusters = [c for c, lab in mapping.items() if lab == class_id]
    predicted = np.isin(assignments, mapped_clusters)
    true_pos = int(np.count_nonzero(predicted & actual))
    recall = true_pos / int(np.count_nonzero(actual))
    precision = true_pos / int(np.count_nonzero(predicted)) if predicted.any() else 0.0
    if precision + recall == 0.0:
        f_measure = 0.0
    else:
        f_measure = 2.0 * precision * recall / (precision + recall)
    return recall, precision, f_measure
