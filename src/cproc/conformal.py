"""Non-conformity scores, order-statistic quantiles, and the one engine that
turns them into soft conformal intervals for latent class probabilities.

A score is s_i = pi_tilde(G_i) - f_hat(G_i), where pi_tilde averages the
model probabilities of the K nearest training graphs under the similarity
matrix. Scores depend only on the calibration graph and the training graphs,
so they are computed once (`score_table`) and reused by every query, and by
every re-split of a run that keeps the training graphs: its table covers the
union of the splits' calibration sets. Conditioning changes which scores are
selected, never their values.

`conformal_intervals` covers every calibration scheme with one batched
order-statistic step: the marginal interval (every calibration score), the
label-conditional interval (the scores of the query's label), and the local
interval. Each query brings its own label, and a member mask gives it its
own calibration set within the table (its split's), so the test graphs of
both classes and several splits share one call and one kNN block read;
without a mask, every query uses the whole table. A query's pool is the
graphs of its label in its calibration set. For the local interval the
engine is handed the similarity matrix and picks each query's local
calibration set itself: the pool members among its K nearest calibration
graphs (`knn_indices`), and, for the queries where those are fewer than
`min_stratum`, an error or, with `widen`, its `min_stratum` nearest pool
graphs (a kNN masked to the pool, which equals the first `min_stratum` pool
graphs of its whole calibration order).
Endpoints stay raw, so they may leave [0, 1]; band indicators use them as
they are.
"""

from __future__ import annotations

import numpy as np

from .errors import StratumError
from .similarity import SimilarityMatrix, knn_indices


def _rank(gamma: float, n):
    """1-based rank of the floor(gamma * n)-th order statistic, clamped to [1, n]."""
    return np.minimum(np.maximum(np.floor(gamma * n).astype(np.int64), 1), n)


def score_table(
    matrix: SimilarityMatrix,
    calib_ids: np.ndarray,
    train_ids: np.ndarray,
    probs: np.ndarray,
    K: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized scores for every graph of `calib_ids` (one split's
    calibration set, or the union of several splits' that share `train_ids`).

    Returns (sorted calibration ids, scores aligned to them).
    """
    calib_sorted = np.sort(np.asarray(calib_ids, dtype=np.int64))
    neigh = knn_indices(matrix, calib_sorted, train_ids, K)
    pi_tilde = probs[neigh].mean(axis=1)
    return calib_sorted, pi_tilde - probs[calib_sorted]


def conformal_intervals(
    query_ids,
    f_hat: np.ndarray,
    calib_ids: np.ndarray,
    scores: np.ndarray,
    labels: np.ndarray,
    alpha: float,
    *,
    member: np.ndarray | None = None,
    matrix: SimilarityMatrix | None = None,
    K: int | None = None,
    min_stratum: int = 1,
    widen: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw endpoints [f_hat + q_{a/2}, f_hat + q_{1-a/2}] for every query.

    `calib_ids` are the ascending calibration ids of `score_table`, `scores`
    are aligned to them, and `f_hat` and `labels` are indexed by graph id.
    Each query calibrates against the calibration graphs of its own label:
    all of `calib_ids`, or, with `member` (a bool array aligned to
    (query_ids, calib_ids)), the ids its row marks, so queries of several
    splits and both labels share one call. Without `matrix` a query's stratum
    is that whole pool (label-conditional; one label for all gives the
    marginal interval). With `matrix` the stratum is the pool's part of each
    query's K nearest calibration graphs; a stratum below `min_stratum`
    raises StratumError, or with `widen` becomes the query's `min_stratum`
    nearest pool graphs, so no kNN call asks for more than
    max(K, min_stratum) neighbours. A StratumError concerns the first
    failing query.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    calib_ids = np.asarray(calib_ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    label = labels[query_ids]
    pool = labels[calib_ids] == label[:, None]  # each row's same-label calibration graphs
    if member is not None:
        pool &= member
    if matrix is None:
        counts = pool.sum(axis=1)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise StratumError(f"no calibration graphs with binarized label {label[empty[0]]}")
        ranked = np.where(pool, scores, np.inf)
    else:
        if K is None:
            raise ValueError("K is required with a matrix")
        if min_stratum < 1:
            raise ValueError(f"min_stratum must be >= 1, got {min_stratum}")
        # graph id -> index into calib_ids; a -1 pad of a masked kNN reads a valid index and is dropped
        position = np.zeros(matrix.n, dtype=np.int64)
        position[calib_ids] = np.arange(calib_ids.size)
        near_ids = knn_indices(matrix, query_ids, calib_ids, K, member=member)
        kept = (labels[near_ids] == label[:, None]) & (near_ids >= 0)
        counts = kept.sum(axis=1)
        thin = np.flatnonzero(counts < min_stratum)
        ranked = np.where(kept, scores[position[near_ids]], np.inf)
        if thin.size:
            i = thin[0]
            if not widen:
                raise StratumError(
                    f"graph {query_ids[i]}: {counts[i]} label-{label[i]} graph(s) among its "
                    f"{(near_ids[i] >= 0).sum()} nearest calibration neighbors (need {min_stratum})"
                )
            short = thin[pool[thin].sum(axis=1) < min_stratum]
            if short.size:
                i = short[0]
                raise StratumError(
                    f"graph {query_ids[i]}: calibration pool holds only "
                    f"{pool[i].sum()} label-{label[i]} graph(s) (need {min_stratum})"
                )
            # each thin row keeps exactly its min_stratum nearest pool graphs
            first = position[knn_indices(matrix, query_ids[thin], calib_ids, min_stratum, member=pool[thin])]
            ranked = np.pad(ranked, ((0, 0), (0, max(0, min_stratum - ranked.shape[1]))),
                            constant_values=np.inf)
            ranked[thin] = np.inf
            ranked[thin, :min_stratum] = scores[first]
            counts[thin] = min_stratum
    ranked.sort(axis=1)
    rows = np.arange(ranked.shape[0])
    fq = f_hat[query_ids]
    lo = fq + ranked[rows, _rank(alpha / 2.0, counts) - 1]
    up = fq + ranked[rows, _rank(1.0 - alpha / 2.0, counts) - 1]
    return lo, up
