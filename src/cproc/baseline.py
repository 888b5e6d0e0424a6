"""Bootstrap ROC confidence bands, the head-to-head baseline for CP-ROC.

Resampling is stratified by class so every resample keeps both classes (an
unstratified resample of an imbalanced test set can lose the minority class
entirely and leave TPR/FPR undefined). Bounds are plain percentiles.

Resamples are counted, not sorted. Resample b draws its indices from
`default_rng(seed + b)`; a bincount turns them into a row of multiplicities,
so the B x n count matrix times the n x grid indicator "score > lambda"
gives every resample's number of points above every threshold at once.
These are the integer counts a sort and binary search of each resample
would give, divided by the same class size, so the rates are bit-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTestError


@dataclass(frozen=True)
class BootstrapBand:
    tpr_lo: np.ndarray
    tpr_up: np.ndarray
    fpr_lo: np.ndarray
    fpr_up: np.ndarray
    B: int


def _rates_above(values: np.ndarray, draws: np.ndarray, lambda_grid: np.ndarray) -> np.ndarray:
    """Row b: the fraction of resample `values[draws[b]]` strictly above each
    threshold. Counts stay small integers, so the float product is exact."""
    B, n = draws.shape
    counts = np.bincount((draws + n * np.arange(B)[:, None]).ravel(), minlength=B * n).reshape(B, n)
    return (counts.astype(float) @ (values[:, None] > lambda_grid)) / n


def bootstrap_bands(
    positive_mask: np.ndarray,
    scores: np.ndarray,
    lambda_grid: np.ndarray,
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapBand:
    """Percentile bands over B class-stratified resamples of the test set."""
    if B < 1:
        raise ValueError(f"need at least one resample, got B={B}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    positive_mask = np.asarray(positive_mask, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    pos = scores[positive_mask]
    neg = scores[~positive_mask]
    if pos.size == 0 or neg.size == 0:
        raise DegenerateTestError("bootstrap needs both classes in the test set")
    lambda_grid = np.asarray(lambda_grid, dtype=float)

    pos_draws = np.empty((B, pos.size), dtype=np.int64)
    neg_draws = np.empty((B, neg.size), dtype=np.int64)
    for b in range(B):
        rng = np.random.default_rng(seed + b)
        pos_draws[b] = rng.integers(0, pos.size, pos.size)
        neg_draws[b] = rng.integers(0, neg.size, neg.size)
    tprs = _rates_above(pos, pos_draws, lambda_grid)
    fprs = _rates_above(neg, neg_draws, lambda_grid)
    lo_q, up_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    tpr_lo, tpr_up = np.quantile(tprs, [lo_q, up_q], axis=0)
    fpr_lo, fpr_up = np.quantile(fprs, [lo_q, up_q], axis=0)
    return BootstrapBand(
        tpr_lo=tpr_lo,
        tpr_up=tpr_up,
        fpr_lo=fpr_lo,
        fpr_up=fpr_up,
        B=B,
    )
