"""Synthetic data with a known oracle probability, a logistic trainer, and
Monte Carlo experiments for band coverage and bandwidth comparisons.

The conformal machinery is distance-agnostic, so synthetic runs plug
Euclidean covariate distances into the same pipeline that real graph runs
feed with Wasserstein distances; the pipeline reads them block by block from
the covariate points. Misspecified models drop covariates at fit time only;
the distances always see the full covariate vector.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, SeparationWarning
from .graphdata import ScoredDataset, SplitAssignment
from .rocbands import cp_roc_bands, oracle_rates
from .similarity import SimilarityMatrix


@dataclass(frozen=True)
class SyntheticSpec:
    """Design of one synthetic replicate; the oracle is pi = logistic(b0 + x.beta)."""

    n_train: int = 2000
    n_calib: int = 1000
    n_test: int = 500
    dim: int = 3
    beta: tuple[float, ...] = (1.0, -0.8, 0.6)
    intercept: float = 0.0
    missing: tuple[int, ...] = ()  # covariates hidden from the fit (M2: one, M3: two)
    shift: tuple[float, ...] | None = None  # mean shift on test covariates (non-iid mode)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.beta) != self.dim:
            raise ValueError(f"beta has {len(self.beta)} entries for dim={self.dim}")
        if any(not 0 <= j < self.dim for j in self.missing):
            raise ValueError(f"missing indices {self.missing} outside [0, {self.dim})")
        if self.shift is not None and len(self.shift) != self.dim:
            raise ValueError("shift must have one entry per covariate")


@dataclass(frozen=True)
class SyntheticDataset:
    spec: SyntheticSpec
    x: np.ndarray
    pi: np.ndarray
    labels: np.ndarray
    split: SplitAssignment

    @property
    def n(self) -> int:
        return len(self.labels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Standard-normal covariates (test part optionally mean-shifted), labels
    drawn Bernoulli(pi); fully determined by spec.seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_train + spec.n_calib + spec.n_test
    x = rng.standard_normal((n, spec.dim))
    if spec.shift is not None:
        x[spec.n_train + spec.n_calib :] += np.asarray(spec.shift)
    pi = _sigmoid(spec.intercept + x @ np.asarray(spec.beta))
    labels = (rng.random(n) < pi).astype(np.int64)
    parts = ("train",) * spec.n_train + ("calib",) * spec.n_calib + ("test",) * spec.n_test
    pool = spec.n_train / n
    split = SplitAssignment(parts, spec.seed, pool, spec.n_calib / (spec.n_calib + spec.n_test))
    return SyntheticDataset(spec=spec, x=x, pi=pi, labels=labels, split=split)


def covariate_distance_matrix(ds: SyntheticDataset) -> SimilarityMatrix:
    """Euclidean distances on the full covariates (pluggable stand-in for the
    Wasserstein matrix), computed per block from the points."""
    return SimilarityMatrix(
        points=ds.x,
        p=2.0,
        kinds=("euclidean",),
        cap=0.0,
        key=f"synthetic-seed{ds.spec.seed}",
    )


@dataclass(frozen=True)
class FittedLogit:
    coef: np.ndarray  # over observed covariates, in ascending covariate index
    intercept: float
    observed: tuple[int, ...]
    converged: bool
    n_iter: int
    ridge: float = 0.0

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.intercept + x[:, list(self.observed)] @ self.coef)


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    missing: tuple[int, ...] = (),
    tol: float = 1e-8,
    max_iter: int = 500,
) -> FittedLogit:
    """Maximum-likelihood logistic fit by Newton/IRLS on the observed
    covariates; gradient inf-norm must reach `tol`.

    Coefficient norms above 1e4 are treated as perfect separation: a
    SeparationWarning is emitted and the fit is redone with ridge 1e-6.
    """
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("training part must contain both labels")
    observed = tuple(j for j in range(x.shape[1]) if j not in missing)
    design = np.column_stack([np.ones(len(y)), x[:, list(observed)]])

    def newton(ridge: float) -> tuple[np.ndarray, bool, int]:
        beta = np.zeros(design.shape[1])
        for it in range(1, max_iter + 1):
            mu = np.clip(_sigmoid(design @ beta), 1e-12, 1.0 - 1e-12)
            grad = design.T @ (y - mu) - ridge * beta
            if np.max(np.abs(grad)) <= tol:
                return beta, True, it
            w = mu * (1.0 - mu)
            hess = design.T @ (w[:, None] * design) + ridge * np.eye(design.shape[1])
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            beta = beta + step
            if np.linalg.norm(beta) > 1e4:
                return beta, False, it
        return beta, False, max_iter

    def separated(beta: np.ndarray) -> bool:
        # diverging coefficients, or a fully saturated fit (every training
        # point classified with probability ~1): the MLE does not exist
        if np.linalg.norm(beta) > 1e4:
            return True
        return bool(np.max(np.abs(y - _sigmoid(design @ beta))) < 1e-6)

    beta, converged, n_iter = newton(0.0)
    ridge = 0.0
    if separated(beta):
        warnings.warn("perfect separation suspected; refitting with ridge 1e-6", SeparationWarning)
        ridge = 1e-6
        beta, converged, n_iter = newton(ridge)
    if not converged:
        raise NumericalError(f"logistic fit did not converge in {max_iter} iterations")
    return FittedLogit(
        coef=beta[1:],
        intercept=float(beta[0]),
        observed=observed,
        converged=converged,
        n_iter=n_iter,
        ridge=ridge,
    )


def scored_dataset(ds: SyntheticDataset, fhat: np.ndarray) -> ScoredDataset:
    probs = np.column_stack([1.0 - fhat, fhat])
    return ScoredDataset(labels=ds.labels, probs=probs, split=ds.split)


@dataclass(frozen=True)
class CoverageReport:
    mode: str
    alpha: float
    K: int
    reps: int
    coverage_sen: float
    coverage_spe: float
    se_sen: float
    se_spe: float
    mean_bw_sen: float
    mean_bw_spe: float
    rows: tuple[dict, ...] = field(repr=False, default=())

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "alpha": self.alpha,
            "K": self.K,
            "reps": self.reps,
            "coverage_sen": self.coverage_sen,
            "coverage_spe": self.coverage_spe,
            "se_sen": self.se_sen,
            "se_spe": self.se_spe,
            "mean_bw_sen": self.mean_bw_sen,
            "mean_bw_spe": self.mean_bw_spe,
        }


def coverage_experiment(
    spec: SyntheticSpec,
    alpha: float,
    K: int,
    reps: int,
    mode: str = "conditional",
    min_stratum: int = 5,
    thin_stratum: str = "widen",
    use_oracle_probs: bool = False,
    grid_points: int = 512,
) -> CoverageReport:
    """Monte Carlo check that the bands cover the oracle rates at a random
    jump point.

    Per replicate: generate, fit, build bands, draw one jump threshold
    lambda = pi(G_s) per class, and record whether the oracle TPR/FPR at that
    threshold falls inside the corresponding band. Bandwidths are averaged on
    a fixed uniform grid so modes stay comparable.
    """
    if reps < 1:
        raise ValueError("need at least one replicate")
    grid = np.linspace(0.0, 1.0, grid_points)
    rows = []
    for r in range(reps):
        spec_r = replace(spec, seed=spec.seed + r)
        ds = generate(spec_r)
        train = ds.split.ids("train")
        if use_oracle_probs:
            fhat = ds.pi
        else:
            fit = fit_logistic(ds.x[train], ds.labels[train], missing=spec.missing)
            fhat = fit.predict_proba(ds.x)
        scored = scored_dataset(ds, fhat)
        matrix = covariate_distance_matrix(ds)
        band = cp_roc_bands(
            scored, matrix, K, alpha, mode=mode, min_stratum=min_stratum, thin_stratum=thin_stratum
        )

        test_ids = ds.split.ids("test")
        test_pos = test_ids[ds.labels[test_ids] == 1]
        test_neg = test_ids[ds.labels[test_ids] == 0]
        rng = np.random.default_rng([spec.seed, r, 1])
        lam_sen = float(ds.pi[rng.choice(test_pos)])
        lam_spe = float(ds.pi[rng.choice(test_neg)])
        oracle = oracle_rates(ds.pi[test_ids], ds.labels[test_ids] == 1, [lam_sen, lam_spe])

        sen_lo, sen_up = band.sen_at(lam_sen)
        spe_lo, spe_up = band.spe_at(lam_spe)
        hit_sen = bool(sen_lo <= oracle.tpr[0] <= sen_up)
        hit_spe = bool(spe_lo <= oracle.fpr[1] <= spe_up)
        g_lo, g_up = band.sen_at(grid)
        bw_sen = float(np.mean(g_up - g_lo))
        g_lo, g_up = band.spe_at(grid)
        bw_spe = float(np.mean(g_up - g_lo))
        rows.append(
            {
                "replicate": r,
                "seed": spec_r.seed,
                "lambda_sen": lam_sen,
                "lambda_spe": lam_spe,
                "oracle_tpr": float(oracle.tpr[0]),
                "oracle_fpr": float(oracle.fpr[1]),
                "hit_sen": hit_sen,
                "hit_spe": hit_spe,
                "bw_sen": bw_sen,
                "bw_spe": bw_spe,
            }
        )

    cov_sen = float(np.mean([row["hit_sen"] for row in rows]))
    cov_spe = float(np.mean([row["hit_spe"] for row in rows]))
    return CoverageReport(
        mode=mode,
        alpha=alpha,
        K=K,
        reps=reps,
        coverage_sen=cov_sen,
        coverage_spe=cov_spe,
        se_sen=math.sqrt(max(cov_sen * (1.0 - cov_sen), 1e-12) / reps),
        se_spe=math.sqrt(max(cov_spe * (1.0 - cov_spe), 1e-12) / reps),
        mean_bw_sen=float(np.mean([row["bw_sen"] for row in rows])),
        mean_bw_spe=float(np.mean([row["bw_spe"] for row in rows])),
        rows=tuple(rows),
    )


def write_report(report: CoverageReport, json_path: str | Path, csv_path: str | Path | None = None) -> None:
    with open(json_path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if csv_path is not None and report.rows:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(report.rows[0].keys()))
            writer.writeheader()
            writer.writerows(report.rows)
