"""Bootstrap ROC confidence bands, the head-to-head baseline for CP-ROC.

Resampling is stratified by class so every resample keeps both classes (an
unstratified resample of an imbalanced test set can lose the minority class
entirely and leave TPR/FPR undefined). Bounds are plain percentiles.

All B resamples come from one generator, `default_rng(seed)`: one
`integers` call draws the B x n indices of every positive resample, then a
second those of every negative one. Resamples are counted, not sorted: a
bincount turns each row of indices into a row of multiplicities, so the
grid x n indicator "score > lambda" times the n x B transposed counts gives
every resample's number of points above every threshold at once. These are
the integer counts a sort and binary search of each resample would give,
divided by the same class size, so the rates are bit-equal. Rates are held
one threshold per row, so each percentile reads a contiguous row.
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
    """Column b: the fraction of resample `values[draws[b]]` strictly above
    each threshold, one row per threshold. Counts stay small integers, so the
    float product is exact."""
    B, n = draws.shape
    counts = np.bincount((draws + n * np.arange(B)[:, None]).ravel(), minlength=B * n).reshape(B, n)
    return ((values > lambda_grid[:, None]) @ counts.T.astype(float)) / n


def bootstrap_bands(
    positive_mask: np.ndarray,
    scores: np.ndarray,
    lambda_grid: np.ndarray,
    B: int = 1000,
    level: float = 0.95,
    seed: int | np.random.SeedSequence = 0,
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

    rng = np.random.default_rng(seed)
    tprs = _rates_above(pos, rng.integers(0, pos.size, (B, pos.size)), lambda_grid)
    fprs = _rates_above(neg, rng.integers(0, neg.size, (B, neg.size)), lambda_grid)
    lo_up = [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0]
    return BootstrapBand(*np.quantile(tprs, lo_up, axis=1), *np.quantile(fprs, lo_up, axis=1), B=B)
