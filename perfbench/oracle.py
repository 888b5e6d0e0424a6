"""Bench-side reference implementations that check cproc's outputs.

They are written from the definitions, not from cproc's code: a
diagonal-augmented L-infinity assignment for Wasserstein distances, a
brute-force sort for K nearest neighbours under the (distance, id) tie rule,
and the floor(gamma * n)-th order statistic for interval endpoints.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

WASSERSTEIN_TOL = 1e-9


def diagram_cap(diagrams) -> float:
    """Largest finite birth or death over a dataset's diagrams."""
    return max((float(a[np.isfinite(a)].max()) for d in diagrams for a in (d.dim0, d.dim1)
                if np.isfinite(a).any()), default=0.0)


def capped_points(dim0: np.ndarray, dim1: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """The finite point sets a distance sees: finite H0 pairs, and H1 pairs
    with deaths capped at `cap`."""
    d0 = np.asarray(dim0, dtype=float).reshape(-1, 2)
    d1 = np.asarray(dim1, dtype=float).reshape(-1, 2)
    return d0[np.isfinite(d0[:, 1])], np.column_stack([d1[:, 0], np.minimum(d1[:, 1], cap)])


def zero_persistence(points: list[np.ndarray]) -> tuple[int, int]:
    """(points with birth == death, all points) over finite point sets."""
    zero = sum(int(np.count_nonzero(p[:, 0] == p[:, 1])) for p in points)
    return zero, sum(len(p) for p in points)


def matching_cost(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """Optimal cost of matching a to b, each point free to go to its own
    diagonal projection instead; diagonal-to-diagonal is free."""
    n1, n2 = len(a), len(b)
    big = np.inf
    cost = np.zeros((n1 + n2, n1 + n2))
    for i in range(n1):
        for j in range(n2):
            cost[i, j] = max(abs(a[i, 0] - b[j, 0]), abs(a[i, 1] - b[j, 1])) ** p
        cost[i, n2:] = big
        cost[i, n2 + i] = ((a[i, 1] - a[i, 0]) / 2.0) ** p
    for j in range(n2):
        cost[n1:, j] = big
        cost[n1 + j, j] = ((b[j, 1] - b[j, 0]) / 2.0) ** p
    if n1 + n2 == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols])


def wasserstein(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray], p: float = 1.0) -> float:
    """p-Wasserstein distance between (H0, H1) finite point-set pairs, the
    dimensions matched separately and combined as (W0^p + W1^p)^(1/p)."""
    return (matching_cost(a[0], b[0], p) + matching_cost(a[1], b[1], p)) ** (1.0 / p)


def knn(dist_row: np.ndarray, pool_ids, K: int) -> list[int]:
    """The K nearest pool members of one query, by (distance, id)."""
    ranked = sorted((float(dist_row[c]), int(c)) for c in pool_ids)
    return [c for _, c in ranked[:K]]


def order_statistic(values, gamma: float) -> float:
    """The floor(gamma * n)-th smallest value, rank clamped to [1, n]."""
    ordered = sorted(float(v) for v in values)
    rank = min(max(math.floor(gamma * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def conditional_interval(
    dist: np.ndarray,
    fhat: np.ndarray,
    positive: np.ndarray,
    calib_ids,
    train_ids,
    query: int,
    K: int,
    alpha: float,
    min_stratum: int,
) -> tuple[float, float]:
    """Locally calibrated interval of one test point, with the widening rule:
    the same-label members of its K nearest calibration graphs, or the first
    `min_stratum` same-label graphs in calibration order when that is too few.
    A calibration graph's score is the mean f-hat of its K nearest training
    graphs minus its own f-hat."""
    label = bool(positive[query])
    order = knn(dist[query], calib_ids, len(calib_ids))
    stratum = [c for c in order[:K] if positive[c] == label]
    if len(stratum) < min_stratum:
        stratum = [c for c in order if positive[c] == label][:min_stratum]
    scores = [np.mean(fhat[knn(dist[c], train_ids, K)]) - fhat[c] for c in stratum]
    return (
        float(fhat[query] + order_statistic(scores, alpha / 2.0)),
        float(fhat[query] + order_statistic(scores, 1.0 - alpha / 2.0)),
    )


def frac_above(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Share of `values` strictly above each threshold."""
    values = np.asarray(values, dtype=float)
    return np.array([np.count_nonzero(values > t) for t in thresholds]) / values.size


def band_invariant_errors(columns: dict[str, np.ndarray], auc_lo: float, auc_up: float) -> list[str]:
    """lo <= up on both bands, every value in [0, 1], auc_lo <= auc_up."""
    errors = []
    for side in ("sen", "spe"):
        lo, up = columns[f"{side}_lo"], columns[f"{side}_up"]
        if np.any(lo > up):
            errors.append(f"{side}_lo > {side}_up at {int(np.count_nonzero(lo > up))} thresholds")
        for name, col in ((f"{side}_lo", lo), (f"{side}_up", up)):
            if np.any((col < 0.0) | (col > 1.0)):
                errors.append(f"{name} leaves [0, 1]")
    if not auc_lo <= auc_up:
        errors.append(f"auc_lo {auc_lo} > auc_up {auc_up}")
    return errors
