import json
import warnings

import numpy as np
import pytest

from cproc.cli import main
from cproc.errors import SeparationWarning
from cproc.synthetic import (
    SyntheticSpec,
    coverage_experiment,
    covariate_distance_matrix,
    fit_logistic,
    generate,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="beta"):
        SyntheticSpec(dim=2, beta=(1.0,))
    with pytest.raises(ValueError, match="missing"):
        SyntheticSpec(dim=2, beta=(1.0, 1.0), missing=(5,))
    with pytest.raises(ValueError, match="shift"):
        SyntheticSpec(dim=2, beta=(1.0, 1.0), shift=(1.0,))


def test_generate_zero_beta_balanced():
    spec = SyntheticSpec(n_train=9000, n_calib=500, n_test=500, dim=2, beta=(0.0, 0.0), seed=1)
    ds = generate(spec)
    assert np.all(ds.pi == 0.5)
    assert abs(ds.labels.mean() - 0.5) < 0.03


def test_generate_iid_means_close():
    spec = SyntheticSpec(n_train=4000, n_calib=500, n_test=4000, dim=3, beta=(1.0, 0.5, -0.5), seed=2)
    ds = generate(spec)
    train_mean = ds.x[ds.split.ids("train")].mean(axis=0)
    test_mean = ds.x[ds.split.ids("test")].mean(axis=0)
    assert np.all(np.abs(train_mean - test_mean) < 5.0 / np.sqrt(4000))


def test_generate_shift_applied_to_test_only():
    spec = SyntheticSpec(
        n_train=3000, n_calib=500, n_test=3000, dim=3, beta=(1.0, 0.5, -0.5),
        shift=(2.0, 0.0, 0.0), seed=3,
    )
    ds = generate(spec)
    assert ds.x[ds.split.ids("test")][:, 0].mean() == pytest.approx(2.0, abs=0.1)
    assert ds.x[ds.split.ids("train")][:, 0].mean() == pytest.approx(0.0, abs=0.1)


def test_generate_deterministic():
    spec = SyntheticSpec(n_train=50, n_calib=20, n_test=10, dim=2, beta=(1.0, -1.0), seed=9)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)


def test_fit_logistic_consistency_m1():
    beta = (0.8, -0.5, 0.3)
    spec = SyntheticSpec(n_train=20000, n_calib=10, n_test=10, dim=3, beta=beta, seed=21)
    ds = generate(spec)
    train = ds.split.ids("train")
    fit = fit_logistic(ds.x[train], ds.labels[train])
    assert np.all(np.abs(fit.coef - np.array(beta)) < 0.1)
    assert abs(fit.intercept) < 0.1


def test_fit_logistic_zero_covariates_gives_class_frequency():
    rng = np.random.default_rng(5)
    x = np.zeros((500, 2))
    y = (rng.random(500) < 0.3).astype(np.int64)
    fit = fit_logistic(x, y)
    assert fit.predict_proba(x)[0] == pytest.approx(y.mean(), abs=1e-6)


def test_fit_logistic_single_class_rejected():
    with pytest.raises(ValueError, match="both labels"):
        fit_logistic(np.zeros((10, 1)), np.ones(10))


def test_fit_logistic_separation_warns_and_ridges():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(150, 2))
    y = (x[:, 0] > 0).astype(np.int64)
    with pytest.warns(SeparationWarning):
        fit = fit_logistic(x, y)
    assert fit.ridge == 1e-6


def test_misspecified_fit_has_larger_error():
    beta = (1.2, -1.0, 0.8)
    spec = SyntheticSpec(n_train=4000, n_calib=10, n_test=2000, dim=3, beta=beta, seed=33)
    ds = generate(spec)
    train, test = ds.split.ids("train"), ds.split.ids("test")
    mae = {}
    for name, missing in (("m1", ()), ("m3", (1, 2))):
        fit = fit_logistic(ds.x[train], ds.labels[train], missing=missing)
        mae[name] = float(np.mean(np.abs(fit.predict_proba(ds.x[test]) - ds.pi[test])))
    assert mae["m3"] > mae["m1"]


def test_missing_covariates_excluded_from_fit():
    spec = SyntheticSpec(n_train=500, n_calib=10, n_test=10, dim=3, beta=(1.0, -1.0, 0.5), seed=8)
    ds = generate(spec)
    train = ds.split.ids("train")
    fit = fit_logistic(ds.x[train], ds.labels[train], missing=(1,))
    assert fit.observed == (0, 2) and fit.coef.shape == (2,)


def test_covariate_distance_matrix_is_euclidean():
    spec = SyntheticSpec(n_train=10, n_calib=5, n_test=5, dim=2, beta=(1.0, 1.0), seed=4)
    ds = generate(spec)
    mat = covariate_distance_matrix(ds)
    assert mat.values[0, 1] == pytest.approx(float(np.linalg.norm(ds.x[0] - ds.x[1])))
    assert np.array_equal(mat.values, mat.values.T)


# --- coverage experiments ---------------------------------------------------------


def _small_spec(seed=100, **kw):
    base = dict(n_train=400, n_calib=300, n_test=150, dim=3, beta=(1.0, -0.8, 0.6), seed=seed)
    base.update(kw)
    return SyntheticSpec(**base)


def test_oracle_probs_bands_tighten_with_size():
    small = coverage_experiment(
        _small_spec(n_train=500, n_calib=250, n_test=100), alpha=0.1, K=30, reps=3,
        mode="exchangeable", use_oracle_probs=True,
    )
    large = coverage_experiment(
        _small_spec(n_train=4000, n_calib=2000, n_test=100), alpha=0.1, K=30, reps=3,
        mode="exchangeable", use_oracle_probs=True,
    )
    assert large.mean_bw_sen < small.mean_bw_sen
    assert large.mean_bw_spe < small.mean_bw_spe


def test_coverage_monotone_in_alpha():
    # wider intervals nest, so per-replicate hits are monotone by construction
    reports = {
        alpha: coverage_experiment(_small_spec(), alpha=alpha, K=30, reps=10, mode="conditional")
        for alpha in (0.05, 0.1, 0.2)
    }
    for tight, loose in ((0.2, 0.1), (0.1, 0.05)):
        for which in ("hit_sen", "hit_spe"):
            for row_t, row_l in zip(reports[tight].rows, reports[loose].rows):
                assert row_l[which] >= row_t[which]


def test_experiment_deterministic():
    a = coverage_experiment(_small_spec(), alpha=0.1, K=20, reps=4, mode="conditional")
    b = coverage_experiment(_small_spec(), alpha=0.1, K=20, reps=4, mode="conditional")
    assert a == b


def test_alpha_half_still_covers_well_above_half():
    # conservative direction: with ample data the bands over-cover at alpha=0.5
    report = coverage_experiment(
        _small_spec(n_train=4000, n_calib=1000, n_test=300, seed=55, beta=(0.3, -0.25, 0.2)),
        alpha=0.5, K=50, reps=10, mode="exchangeable", use_oracle_probs=True,
    )
    assert report.coverage_sen > 0.8 and report.coverage_spe > 0.8


def test_cluster_shift_conditional_bands_narrower():
    spec = SyntheticSpec(
        n_train=800, n_calib=500, n_test=300, dim=3, beta=(2.0, 2.0, 0.5),
        shift=(1.0, 1.0, 0.0), seed=71,
    )
    cond = coverage_experiment(spec, alpha=0.1, K=50, reps=5, mode="conditional")
    exch = coverage_experiment(spec, alpha=0.1, K=50, reps=5, mode="exchangeable")
    assert cond.mean_bw_sen < exch.mean_bw_sen
    assert cond.mean_bw_spe < exch.mean_bw_spe


def test_report_serialization(tmp_path):
    """`cproc simulate` writes the report's summary and one CSV row per replicate."""
    report = coverage_experiment(_small_spec(), alpha=0.1, K=20, reps=2, mode="exchangeable")
    rc = main(["simulate", "--n-train", "400", "--n-calib", "300", "--n-test", "150", "--dim", "3",
               "--beta", "1.0,-0.8,0.6", "--seed", "100", "--alpha", "0.1", "--knn", "20",
               "--repeats", "2", "--mode", "exch", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "coverage.json").read_text())
    assert payload["reps"] == 2 and payload["mode"] == "exchangeable"
    assert {key: payload[key] for key in report.to_json()} == report.to_json()
    rows = [l for l in (tmp_path / "coverage_replicates.csv").read_text().strip().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 3  # header + one row per replicate
    assert rows[0].startswith("replicate,seed,lambda_sen")


def test_reps_validation():
    with pytest.raises(ValueError, match="replicate"):
        coverage_experiment(_small_spec(), alpha=0.1, K=10, reps=0)
