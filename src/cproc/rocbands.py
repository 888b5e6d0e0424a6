"""Empirical ROC curves and conformal ROC confidence bands.

`cp_roc_bands` scores the calibration graphs once (`conformal.score_table`),
finds each test graph's K nearest calibration graphs in conditional mode
(`similarity.knn_indices`; the whole calibration order only for the test
graphs whose stratum must be widened), and hands both to
`conformal.conformal_intervals` for the positives and the negatives.
`band_from_intervals` then turns the four endpoint arrays into bands: at each
threshold the bounds are the fractions of endpoints strictly above it
(positives give the sensitivity band, negatives the specificity band, both on
the FPR/TPR scale). Bands are exact staircases; the default grid carries every
interval endpoint so nothing is sampled away.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conformal import conformal_intervals, score_table
from .errors import DegenerateTestError, StratumError
from .graphdata import ScoredDataset
from .similarity import SimilarityMatrix, knn_indices


@dataclass(frozen=True)
class RocCurve:
    """Staircase of (FPR, TPR) points, ordered from (0,0) to (1,1)."""

    thresholds: np.ndarray  # descending
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class OracleRates:
    lambdas: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray


@dataclass(frozen=True)
class RocBand:
    lambda_grid: np.ndarray
    sen_lo: np.ndarray
    sen_up: np.ndarray
    spe_lo: np.ndarray
    spe_up: np.ndarray
    mode: str
    alpha: float
    auc_lo: float
    auc_up: float
    # raw interval endpoints, kept for exact staircase evaluation at any threshold
    lo_pos: np.ndarray = field(repr=False, default=None)
    up_pos: np.ndarray = field(repr=False, default=None)
    lo_neg: np.ndarray = field(repr=False, default=None)
    up_neg: np.ndarray = field(repr=False, default=None)

    def sen_at(self, lam) -> tuple[np.ndarray, np.ndarray]:
        return _frac_above(self.lo_pos, lam), _frac_above(self.up_pos, lam)

    def spe_at(self, lam) -> tuple[np.ndarray, np.ndarray]:
        return _frac_above(self.lo_neg, lam), _frac_above(self.up_neg, lam)

    def mean_bandwidth_sen(self) -> float:
        return float(np.mean(self.sen_up - self.sen_lo))

    def mean_bandwidth_spe(self) -> float:
        return float(np.mean(self.spe_up - self.spe_lo))


def _frac_above(values: np.ndarray, thresholds) -> np.ndarray | float:
    """Fraction of `values` strictly greater than each threshold."""
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    counts = sorted_vals.size - np.searchsorted(sorted_vals, thresholds, side="right")
    return counts / sorted_vals.size


def _frac_at_least(values: np.ndarray, thresholds) -> np.ndarray | float:
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    counts = sorted_vals.size - np.searchsorted(sorted_vals, thresholds, side="left")
    return counts / sorted_vals.size


def staircase_auc(x: np.ndarray, y: np.ndarray) -> float:
    """Trapezoidal area under a parametric staircase given with x descending
    (threshold ascending); the curve is extended horizontally to x=0 and x=1."""
    xs = np.asarray(x, dtype=float)[::-1]
    ys = np.asarray(y, dtype=float)[::-1]
    area = float(np.sum((ys[1:] + ys[:-1]) / 2.0 * np.diff(xs)))
    area += float(ys[0] * xs[0])  # pad [0, x_min] at the terminal level
    area += float(ys[-1] * (1.0 - xs[-1]))  # pad [x_max, 1]
    return area


def empirical_roc(scored: ScoredDataset, positive_label: int = 1, part: str = "test") -> RocCurve:
    """ROC staircase of the test part, thresholding at every distinct score."""
    ids = scored.part_ids(part)
    labels = scored.labels[ids]
    scores = scored.probs[ids, positive_label]
    return roc_from_arrays(labels == positive_label, scores)


def roc_from_arrays(positive_mask: np.ndarray, scores: np.ndarray) -> RocCurve:
    positive_mask = np.asarray(positive_mask, dtype=bool)
    pos = scores[positive_mask]
    neg = scores[~positive_mask]
    if pos.size == 0 or neg.size == 0:
        raise DegenerateTestError("test part must contain both positive and negative instances")
    thresholds = np.unique(np.concatenate([scores, [0.0, 1.0]]))[::-1]
    tpr = _frac_above(pos, thresholds)
    fpr = _frac_above(neg, thresholds)
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=staircase_auc(fpr[::-1], tpr[::-1]))


def default_lambda_grid(*endpoint_arrays: np.ndarray, base_points: int = 512) -> np.ndarray:
    """512 evenly spaced thresholds plus every distinct interval endpoint in [0,1]."""
    pieces = [np.linspace(0.0, 1.0, base_points)]
    for arr in endpoint_arrays:
        arr = np.asarray(arr, dtype=float)
        pieces.append(arr[(arr >= 0.0) & (arr <= 1.0)])
    return np.unique(np.concatenate(pieces))


def band_from_intervals(
    lo_pos: np.ndarray,
    up_pos: np.ndarray,
    lo_neg: np.ndarray,
    up_neg: np.ndarray,
    lambda_grid: np.ndarray | None = None,
    alpha: float = 0.1,
    mode: str = "exchangeable",
) -> RocBand:
    """Combine the raw interval endpoints of the test positives and negatives
    into sensitivity/specificity bands.

    Indicators use strict `>` on the raw endpoints. The AUC interval pairs the
    outermost envelopes: (spe_up, sen_lo) -> auc_lo and (spe_lo, sen_up) -> auc_up.
    """
    lo_pos, up_pos, lo_neg, up_neg = (
        np.asarray(a, dtype=float) for a in (lo_pos, up_pos, lo_neg, up_neg)
    )
    if not lo_pos.size or not lo_neg.size:
        raise DegenerateTestError("both interval sets must be nonempty")
    if lo_pos.shape != up_pos.shape or lo_neg.shape != up_neg.shape:
        raise ValueError("lower and upper endpoint arrays must have equal lengths")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(lo_pos, up_pos, lo_neg, up_neg)
    else:
        lambda_grid = np.asarray(lambda_grid, dtype=float)
        if lambda_grid.size == 0 or lambda_grid.min() < 0.0 or lambda_grid.max() > 1.0:
            raise ValueError("lambda grid must be nonempty and lie in [0, 1]")

    sen_lo = _frac_above(lo_pos, lambda_grid)
    sen_up = _frac_above(up_pos, lambda_grid)
    spe_lo = _frac_above(lo_neg, lambda_grid)
    spe_up = _frac_above(up_neg, lambda_grid)
    return RocBand(
        lambda_grid=lambda_grid,
        sen_lo=sen_lo,
        sen_up=sen_up,
        spe_lo=spe_lo,
        spe_up=spe_up,
        mode=mode,
        alpha=alpha,
        auc_lo=staircase_auc(spe_up, sen_lo),
        auc_up=staircase_auc(spe_lo, sen_up),
        lo_pos=lo_pos,
        up_pos=up_pos,
        lo_neg=lo_neg,
        up_neg=up_neg,
    )


def cp_roc_bands(
    scored: ScoredDataset,
    matrix: SimilarityMatrix,
    K: int,
    alpha: float,
    mode: str = "conditional",
    positive_label: int = 1,
    min_stratum: int = 5,
    thin_stratum: str = "error",
    lambda_grid: np.ndarray | None = None,
) -> RocBand:
    """Full band pipeline for one (binarized) label.

    `thin_stratum` controls test points whose K-neighborhood holds fewer than
    `min_stratum` same-label calibration graphs: "error" raises, "widen"
    extends the neighborhood minimally for those points.
    """
    if mode not in ("exchangeable", "conditional"):
        raise ValueError(f"unknown mode {mode!r}")
    if thin_stratum not in ("error", "widen"):
        raise ValueError(f"unknown thin_stratum policy {thin_stratum!r}")

    train_ids = np.sort(scored.part_ids("train"))
    calib_ids = np.sort(scored.part_ids("calib"))
    test_ids = np.sort(scored.part_ids("test"))
    fhat = scored.probs[:, positive_label]
    binary = scored.labels == positive_label

    calib_sorted, scores = score_table(matrix, calib_ids, train_ids, fhat, K)
    position = np.empty(scored.n, dtype=np.int64)  # graph id -> index into calib_sorted
    position[calib_sorted] = np.arange(calib_sorted.size)

    test_pos = test_ids[binary[test_ids]]
    test_neg = test_ids[~binary[test_ids]]
    if test_pos.size == 0 or test_neg.size == 0:
        raise DegenerateTestError(
            f"test part lacks a class for label {positive_label} "
            f"({test_pos.size} positive / {test_neg.size} negative)"
        )

    widen = thin_stratum == "widen"
    endpoints = []
    for ids, k in ((test_pos, 1), (test_neg, 0)):
        same = binary[calib_sorted] == bool(k)
        order = None
        if mode == "conditional":
            order = position[knn_indices(matrix, ids, calib_sorted, K)]
            thin = np.flatnonzero(same[order].sum(axis=1) < min_stratum)
            if widen and thin.size and order.shape[1] < calib_sorted.size:
                # only thin rows are widened, so only they need the whole
                # calibration order; the engine never reads the other rows' tails
                full = np.zeros((ids.size, calib_sorted.size), dtype=np.int64)
                full[:, : order.shape[1]] = order
                full[thin] = position[knn_indices(matrix, ids[thin], calib_sorted, calib_sorted.size)]
                order = full
        endpoints += conformal_intervals(
            ids, fhat, scores, same, alpha, label=k, order=order,
            K=K, min_stratum=min_stratum, widen=widen,
        )
    return band_from_intervals(*endpoints, lambda_grid, alpha, mode)


def multilabel_bands(
    scored: ScoredDataset,
    matrix: SimilarityMatrix,
    K: int,
    alpha: float,
    mode: str = "conditional",
    min_stratum: int = 5,
    thin_stratum: str = "error",
    lambda_grid: np.ndarray | None = None,
) -> dict[int, RocBand]:
    """One-vs-rest band per label: binarize y, score with f_hat_k, run the
    binary pipeline."""
    if scored.num_labels < 2:
        raise ValueError("multilabel bands need at least two labels")
    test_labels = set(scored.labels[scored.part_ids("test")].tolist())
    bands = {}
    for k in range(scored.num_labels):
        if k not in test_labels:
            raise StratumError(f"label {k} absent from the test part")
        bands[k] = cp_roc_bands(
            scored,
            matrix,
            K,
            alpha,
            mode=mode,
            positive_label=k,
            min_stratum=min_stratum,
            thin_stratum=thin_stratum,
            lambda_grid=lambda_grid,
        )
    return bands


BAND_COLUMNS = ("lambda", "sen_lo", "sen_up", "spe_lo", "spe_up")


def write_band_csv(
    path: str | Path,
    lambda_grid: np.ndarray,
    sen_lo: np.ndarray,
    sen_up: np.ndarray,
    spe_lo: np.ndarray,
    spe_up: np.ndarray,
    comments: tuple[str, ...] = (),
) -> None:
    """Band CSV shared by conformal and bootstrap bands; leading '#' lines
    carry provenance."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(BAND_COLUMNS)
        for row in zip(lambda_grid, sen_lo, sen_up, spe_lo, spe_up):
            writer.writerow([repr(float(v)) for v in row])


def read_band_csv(path: str | Path) -> dict[str, np.ndarray]:
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            rows.append(line.strip().split(","))
    if not rows or tuple(rows[0]) != BAND_COLUMNS:
        raise ValueError(f"{path}: not a band CSV")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.size == 0:
        raise ValueError(f"{path}: band CSV has no rows")
    return {name: data[:, i] for i, name in enumerate(BAND_COLUMNS)}


def oracle_rates(true_pis: np.ndarray, positive_mask: np.ndarray, lambdas) -> OracleRates:
    """Oracle TPR/FPR computed from true probabilities (>= comparison)."""
    true_pis = np.asarray(true_pis, dtype=float)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    return OracleRates(
        lambdas=lambdas,
        tpr=_frac_at_least(true_pis[positive_mask], lambdas),
        fpr=_frac_at_least(true_pis[~positive_mask], lambdas),
    )
