"""Non-conformity scores, order-statistic quantiles, and the one engine that
turns them into soft conformal intervals for latent class probabilities.

A score is s_i = pi_tilde(G_i) - f_hat(G_i), where pi_tilde averages the
model probabilities of the K nearest training graphs under the similarity
matrix. Scores depend only on the calibration graph, so they are computed
once (`score_table`) and reused by every query; conditioning changes which
scores are selected, never their values.

`conformal_intervals` covers every calibration scheme with one batched
order-statistic step: the marginal interval (every calibration score), the
label-conditional interval (the scores of the query's label), and the local
interval (the same-label members of the query's K nearest calibration graphs,
optionally widened to `min_stratum` members). Endpoints stay raw, so they may
leave [0, 1]; band indicators use them as they are.
"""

from __future__ import annotations

import numpy as np

from .errors import StratumError
from .similarity import SimilarityMatrix, knn_indices


def _rank(gamma: float, n):
    """1-based rank of the floor(gamma * n)-th order statistic, clamped to [1, n]."""
    return np.minimum(np.maximum(np.floor(gamma * n).astype(np.int64), 1), n)


def quantile(values, gamma: float) -> float:
    """The floor(gamma * n)-th order statistic, clamped to [1, n]."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("quantile of an empty multiset")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return float(arr[_rank(gamma, arr.size) - 1])


def conformal_p_value(pi: float, f_hat: float, calib_scores) -> float:
    """Diagnostic p-value: (#{s_j < pi - f_hat} + 1) / n over calibration scores."""
    arr = np.asarray(calib_scores, dtype=float)
    if arr.size == 0:
        raise ValueError("p-value needs a nonempty calibration score set")
    return float((np.count_nonzero(arr < (pi - f_hat)) + 1) / arr.size)


def score_table(
    matrix: SimilarityMatrix,
    calib_ids: np.ndarray,
    train_ids: np.ndarray,
    probs: np.ndarray,
    K: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized scores for every calibration graph.

    Returns (sorted calibration ids, scores aligned to them).
    """
    calib_sorted = np.sort(np.asarray(calib_ids, dtype=np.int64))
    neigh = knn_indices(matrix, calib_sorted, train_ids, K)
    pi_tilde = probs[neigh].mean(axis=1)
    return calib_sorted, pi_tilde - probs[calib_sorted]


def conformal_intervals(
    query_ids,
    f_hat: np.ndarray,
    scores: np.ndarray,
    same_label: np.ndarray,
    alpha: float,
    *,
    label: int,
    order: np.ndarray | None = None,
    K: int | None = None,
    min_stratum: int = 1,
    widen: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw endpoints [f_hat + q_{a/2}, f_hat + q_{1-a/2}] for every query.

    `scores[j]` is calibration graph j's score and `same_label[j]` says
    whether it carries the queries' label `label`; `f_hat` is indexed by
    `query_ids`. Without `order` every query shares the same-label scores
    (label-conditional; an all-true mask gives the marginal interval). With
    `order`, row r lists calibration positions nearest first for query r and
    the stratum is the same-label part of its first K; a stratum below
    `min_stratum` raises StratumError, or with `widen` becomes the first
    `min_stratum` same-label graphs of the whole order.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    same_label = np.asarray(same_label, dtype=bool)
    if order is None:
        ranked = np.sort(scores[same_label])[None, :]
        counts = np.array([ranked.size])
        if ranked.size == 0:
            raise StratumError(f"no calibration graphs with binarized label {label}")
    else:
        if min_stratum < 1:
            raise ValueError(f"min_stratum must be >= 1, got {min_stratum}")
        member = same_label[order]
        width = min(K, order.shape[1])
        take = member.copy()
        take[:, width:] = False
        counts = take.sum(axis=1)
        thin = np.flatnonzero(counts < min_stratum)
        if thin.size and not widen:
            raise StratumError(
                f"graph {int(query_ids[thin[0]])}: {int(counts[thin[0]])} label-{label} graph(s) "
                f"among its {width} nearest calibration neighbors (need {min_stratum})"
            )
        widened = member[thin]
        pool = widened.sum(axis=1)
        short = np.flatnonzero(pool < min_stratum)
        if short.size:
            raise StratumError(
                f"graph {int(query_ids[thin[short[0]]])}: calibration pool holds only "
                f"{int(pool[short[0]])} label-{label} graph(s) (need {min_stratum})"
            )
        take[thin] = widened & (np.cumsum(widened, axis=1) <= min_stratum)
        counts[thin] = min_stratum
        used = np.flatnonzero(take.any(axis=0))
        cols = int(used[-1]) + 1 if used.size else 0
        ranked = np.where(take[:, :cols], scores[order[:, :cols]], np.inf)
        ranked.sort(axis=1)
    rows = np.arange(ranked.shape[0])
    fq = f_hat[query_ids]
    lo = fq + ranked[rows, _rank(alpha / 2.0, counts) - 1]
    up = fq + ranked[rows, _rank(1.0 - alpha / 2.0, counts) - 1]
    return lo, up
