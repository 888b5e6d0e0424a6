"""Bootstrap ROC confidence bands, the head-to-head baseline for CP-ROC.

Resampling is stratified by class so every resample keeps both classes (an
unstratified resample of an imbalanced test set can lose the minority class
entirely and leave TPR/FPR undefined). Bounds are plain percentiles.

All B resamples come from one generator, `default_rng(seed)`: one
`integers` call draws the B x n indices of every positive resample, then a
second those of every negative one. Resamples are counted, not sorted: a
bincount turns each row of indices into multiplicities, and a cumulative
sum over the scores from the largest down gives, for every resample and
every k, how many of its points are among the k largest scores. One sort of
that B x (n + 1) table over the resamples puts each column in order, and a
threshold's count above it is the column n - searchsorted(scores, lambda,
"right"). The percentile is numpy's default "linear" one, type 7 of Hyndman
& Fan, "Sample Quantiles in Statistical Packages" (Am. Stat. 1996): it reads
two order statistics per threshold, here two rows of that column, divided
by the class size, and combines them with numpy's own arithmetic, so the
bands are bit-equal to `np.quantile` over the resampled rates.
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


def _percentiles(values: np.ndarray, draws: np.ndarray, lambda_grid: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(rates, q, axis=1) bit for bit, where rates[i, b] is the
    fraction of resample `values[draws[b]]` strictly above `lambda_grid[i]`."""
    B, n = draws.shape
    order = np.argsort(values)
    counts = np.bincount((draws + n * np.arange(B)[:, None]).ravel(), minlength=B * n).reshape(B, n)
    # above[:, k]: each resample's number of points among the k largest values, sorted over the resamples
    above = np.zeros((B, n + 1), dtype=np.int64)
    np.cumsum(counts[:, order[::-1]], axis=1, out=above[:, 1:])
    above.sort(axis=0)
    cols = n - np.searchsorted(values[order], lambda_grid, side="right")
    # numpy's "linear" method: order statistics floor(v) and floor(v) + 1 of v = (B - 1) * q, both the
    # largest at v = B - 1, and its _lerp, a + d*t or, where t >= 0.5, b - d*(1 - t)
    virtual = (B - 1) * q
    prev = np.floor(virtual)
    t = (virtual - prev)[:, None]
    a, b = (above[np.minimum(i, B - 1).astype(np.intp)][:, cols] / n for i in (prev, prev + 1))
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


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
    pos_draws = rng.integers(0, pos.size, (B, pos.size))
    neg_draws = rng.integers(0, neg.size, (B, neg.size))
    lo_up = np.array([(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0])
    return BootstrapBand(
        *_percentiles(pos, pos_draws, lambda_grid, lo_up), *_percentiles(neg, neg_draws, lambda_grid, lo_up), B=B
    )
