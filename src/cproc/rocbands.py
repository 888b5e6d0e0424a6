"""Empirical ROC curves and conformal ROC confidence bands.

`split_bands` builds the bands of several splits that share their train
part in one pass, and `cp_roc_bands` is its one-split call. It scores the
union of the splits' calibration graphs once (`conformal.score_table`) and
hands the scores to `conformal.conformal_intervals` once, for every test
graph of every split, each masked to its own split's calibration graphs and
calibrated on those of its own label; in conditional mode it also hands over
the similarity matrix, and the engine picks each test graph's local
calibration set itself.
`band_from_intervals` then turns the four endpoint arrays into bands: at each
threshold the bounds are the fractions of endpoints strictly above it
(positives give the sensitivity band, negatives the specificity band, both on
the FPR/TPR scale). Bands are exact staircases; the default grid carries every
interval endpoint so nothing is sampled away. Band CSVs, conformal and
bootstrap alike, are `band_table` entries of `graphdata.write_tables`; a
caller that writes many hands them all to one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conformal import conformal_intervals, score_table
from .errors import DegenerateTestError
from .graphdata import ScoredDataset, SplitAssignment, write_tables
from .similarity import SimilarityMatrix
from .similarity import knn_indices  # noqa: F401  unused here; perfbench/spans.py hooks it by name


@dataclass(frozen=True)
class RocCurve:
    """Staircase of (FPR, TPR) points, ordered from (0,0) to (1,1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class RocBand:
    lambda_grid: np.ndarray
    sen_lo: np.ndarray
    sen_up: np.ndarray
    spe_lo: np.ndarray
    spe_up: np.ndarray
    auc_lo: float
    auc_up: float
    # raw interval endpoints, kept for exact staircase evaluation at any threshold
    lo_pos: np.ndarray = field(repr=False)
    up_pos: np.ndarray = field(repr=False)
    lo_neg: np.ndarray = field(repr=False)
    up_neg: np.ndarray = field(repr=False)

    def sen_at(self, lam) -> tuple[np.ndarray, np.ndarray]:
        return _frac_above(self.lo_pos, lam), _frac_above(self.up_pos, lam)

    def spe_at(self, lam) -> tuple[np.ndarray, np.ndarray]:
        return _frac_above(self.lo_neg, lam), _frac_above(self.up_neg, lam)


def _frac_above(values: np.ndarray, thresholds, side: str = "right") -> np.ndarray | float:
    """Fraction of `values` strictly greater than each threshold, or at least
    as great with side="left"."""
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    counts = sorted_vals.size - np.searchsorted(sorted_vals, thresholds, side=side)
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


def empirical_roc(scored: ScoredDataset) -> RocCurve:
    """ROC staircase of label 1 on the test part, thresholding at every distinct score."""
    ids = scored.part_ids("test")
    return roc_from_arrays(scored.labels[ids] == 1, scored.probs[ids, 1])


def roc_from_arrays(positive_mask: np.ndarray, scores: np.ndarray) -> RocCurve:
    positive_mask = np.asarray(positive_mask, dtype=bool)
    pos = scores[positive_mask]
    neg = scores[~positive_mask]
    if pos.size == 0 or neg.size == 0:
        raise DegenerateTestError("test part must contain both positive and negative instances")
    thresholds = np.unique(np.concatenate([scores, [0.0, 1.0]]))[::-1]
    tpr = _frac_above(pos, thresholds)
    fpr = _frac_above(neg, thresholds)
    return RocCurve(fpr=fpr, tpr=tpr, auc=staircase_auc(fpr[::-1], tpr[::-1]))


UNIFORM_GRID = np.linspace(0.0, 1.0, 512)
UNIFORM_GRID.flags.writeable = False


def default_lambda_grid(*endpoint_arrays: np.ndarray) -> np.ndarray:
    """UNIFORM_GRID's 512 evenly spaced thresholds plus every distinct
    interval endpoint in [0,1]."""
    pieces = [UNIFORM_GRID]
    for arr in endpoint_arrays:
        arr = np.asarray(arr, dtype=float)
        pieces.append(arr[(arr >= 0.0) & (arr <= 1.0)])
    return np.unique(np.concatenate(pieces))


def band_from_intervals(
    lo_pos: np.ndarray,
    up_pos: np.ndarray,
    lo_neg: np.ndarray,
    up_neg: np.ndarray,
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
    lambda_grid = default_lambda_grid(lo_pos, up_pos, lo_neg, up_neg)
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
    min_stratum: int = 5,
    thin_stratum: str = "error",
) -> RocBand:
    """Full band pipeline for a two-label scored set and its split, with
    label 1 positive: `split_bands` of the one split."""
    return split_bands(scored, [scored.split], matrix, K, alpha, mode, min_stratum, thin_stratum)[0]


def split_bands(
    scored: ScoredDataset,
    splits: list[SplitAssignment],
    matrix: SimilarityMatrix,
    K: int,
    alpha: float,
    mode: str = "conditional",
    min_stratum: int = 5,
    thin_stratum: str = "error",
) -> list[RocBand]:
    """One band per split of a two-label scored set, with label 1 positive;
    `matrix` holds the distances between exactly the scored graphs, and the
    splits share their train ids (`scored.split` is not read).

    `thin_stratum` controls test points whose K-neighborhood holds fewer than
    `min_stratum` same-label calibration graphs: "error" raises, "widen"
    extends the neighborhood minimally for those points.

    The splits are built in one pass: the union of their calibration parts
    is scored once against the shared train part, and every test point of
    every split gets its interval from one call, each row restricted to its
    own split's calibration part. Rows are ordered by split, positives
    first; the first failing row is raised. The call covers the splits
    before the first whose test part lacks a class, which then raises
    DegenerateTestError.
    """
    if mode not in ("exchangeable", "conditional"):
        raise ValueError(f"unknown mode {mode!r}")
    if thin_stratum not in ("error", "widen"):
        raise ValueError(f"unknown thin_stratum policy {thin_stratum!r}")
    if scored.num_labels != 2:
        raise ValueError(f"binary bands need 2 labels, got {scored.num_labels}")
    if scored.n != matrix.n:
        raise ValueError(f"scores cover {scored.n} graphs but matrix is {matrix.n}x{matrix.n}")

    if any(split is None for split in splits):
        raise ValueError("dataset carries no split assignment")
    if any(len(split.parts) != scored.n for split in splits):
        raise ValueError("split size does not match dataset size")
    train_ids = splits[0].ids("train")
    if any(not np.array_equal(split.ids("train"), train_ids) for split in splits[1:]):
        raise ValueError("the splits must share their train ids")
    calibs = [split.ids("calib") for split in splits]
    fhat = scored.probs[:, 1]

    union = calibs[0] if len(splits) == 1 else np.unique(np.concatenate(calibs))
    calib_sorted, scores = score_table(matrix, union, train_ids, fhat, K)
    label = (scored.labels == 1).astype(np.int64)  # binarized: 1 positive, 0 negative
    blocks = [t[label[t] == k] for t in (split.ids("test") for split in splits) for k in (1, 0)]
    sizes = np.array([b.size for b in blocks]).reshape(-1, 2)  # (split, class)
    degenerate = np.flatnonzero((sizes == 0).any(axis=1))
    done = int(degenerate[0]) if degenerate.size else len(splits)  # the splits before the first degenerate one
    if done:
        member = None if len(splits) == 1 else np.repeat(
            np.array([np.isin(calib_sorted, c) for c in calibs[:done]]), sizes[:done].sum(axis=1), axis=0)
        lo, up = conformal_intervals(
            np.concatenate(blocks[:2 * done]), fhat, calib_sorted, scores, label, alpha, member=member,
            matrix=matrix if mode == "conditional" else None, K=K, min_stratum=min_stratum,
            widen=thin_stratum == "widen",
        )
    if degenerate.size:
        pos, neg = sizes[done]
        raise DegenerateTestError(f"test part lacks a class for label 1 ({pos} positive / {neg} negative)")
    ends = np.cumsum(sizes)[:-1]
    lo, up = np.split(lo, ends), np.split(up, ends)
    return [band_from_intervals(*four) for four in zip(lo[::2], up[::2], lo[1::2], up[1::2])]


BAND_COLUMNS = ("lambda", "sen_lo", "sen_up", "spe_lo", "spe_up")


def band_table(
    path: str | Path,
    lambda_grid: np.ndarray,
    sen_lo: np.ndarray,
    sen_up: np.ndarray,
    spe_lo: np.ndarray,
    spe_up: np.ndarray,
    comments: tuple[str, ...] = (),
) -> tuple:
    """The `graphdata.write_tables` entry of a band CSV, shared by conformal
    and bootstrap bands; leading '#' lines carry provenance."""
    columns = (lambda_grid, sen_lo, sen_up, spe_lo, spe_up)
    return path, [np.asarray(c, dtype=float) for c in columns], BAND_COLUMNS, comments


def write_band_csv(path: str | Path, *columns: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    """Write the band CSV of `band_table(path, *columns, comments)`."""
    write_tables([band_table(path, *columns, comments)])


def read_band_csv(path: str | Path) -> dict[str, np.ndarray]:
    """The five band columns; a data row that is not five finite numbers
    raises ValueError naming `path:line`."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = [(ln, line.strip()) for ln, line in enumerate(fh, 1) if line.strip() and not line.startswith("#")]
    if not lines or tuple(cell.strip() for cell in lines[0][1].split(",")) != BAND_COLUMNS:
        raise ValueError(f"{path}: not a band CSV")
    rows = []
    for ln, line in lines[1:]:
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(BAND_COLUMNS) or not np.isfinite(row).all():
            raise ValueError(f"{path}:{ln}: expected {len(BAND_COLUMNS)} finite numbers, got {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: band CSV has no rows")
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(BAND_COLUMNS)}


def oracle_rates(true_pis: np.ndarray, positive_mask: np.ndarray, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Oracle (TPR, FPR) at each of `lambdas` from true probabilities (>= comparison)."""
    true_pis = np.asarray(true_pis, dtype=float)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    return (
        _frac_above(true_pis[positive_mask], lambdas, side="left"),
        _frac_above(true_pis[~positive_mask], lambdas, side="left"),
    )
