"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they stream."""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cproc.baseline import bootstrap_bands
from cproc.cli import main
from cproc.graphdata import parse_tu_dataset, write_tu_dataset
from cproc.rocbands import band_from_intervals, cp_roc_bands, default_lambda_grid
from cproc.similarity import wasserstein_distance
from cproc.synthetic import (
    SyntheticSpec,
    coverage_experiment,
    covariate_distance_matrix,
    fit_logistic,
    generate,
    scored_dataset,
)
from cproc.topology import sublevel_persistence

from conftest import random_er_graph, write_tiny_fixture
from reference import quantile
from test_cli import twin_star_dataset
from test_similarity import exhaustive_wasserstein, random_diagram

PATTERN = np.array([1.0, -0.8, 0.6, -0.7, 0.9, -0.5, 0.4, -0.6, 0.55, -0.45, 0.65, -0.35])


def scaled_beta(dim: int, norm: float) -> tuple[float, ...]:
    b = PATTERN[:dim]
    return tuple(b / np.linalg.norm(b) * norm)


def test_criterion_01_oracle_coverage_conditional_bands():
    """Conditional bands cover the oracle rates at a random jump point."""
    t0 = time.time()
    spec = SyntheticSpec(
        n_train=2000, n_calib=1000, n_test=500, dim=12, beta=scaled_beta(12, 2.5), seed=20240
    )
    report = coverage_experiment(spec, alpha=0.1, K=50, reps=200, mode="conditional")
    elapsed = time.time() - t0
    assert report.coverage_sen >= 0.85, f"sensitivity coverage {report.coverage_sen:.4f} < 0.85"
    assert report.coverage_spe >= 0.85, f"specificity coverage {report.coverage_spe:.4f} < 0.85"
    print(
        f"\nACCEPTANCE 1 PASS: coverage sen={report.coverage_sen:.4f} "
        f"spe={report.coverage_spe:.4f} (target >= 0.85, alpha=0.1, 200 reps, {elapsed:.0f}s)"
    )


def test_criterion_02_empirical_curve_sandwich():
    """With lo <= f <= up for every interval, the empirical rates sit inside
    the band at every grid threshold, exactly."""
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(50):
        n_pos, n_neg = int(rng.integers(5, 80)), int(rng.integers(5, 80))
        f_pos, f_neg = rng.uniform(0, 1, n_pos), rng.uniform(0, 1, n_neg)
        pos = np.array([(f - rng.uniform(0, 0.3), f + rng.uniform(0, 0.3)) for f in f_pos])
        neg = np.array([(f - rng.uniform(0, 0.3), f + rng.uniform(0, 0.3)) for f in f_neg])
        grid = default_lambda_grid(f_pos, f_neg)
        band = band_from_intervals(*pos.T, *neg.T)
        (sen_lo, sen_up), (spe_lo, spe_up) = band.sen_at(grid), band.spe_at(grid)
        tpr = np.array([np.mean(f_pos > lam) for lam in grid])
        fpr = np.array([np.mean(f_neg > lam) for lam in grid])
        assert np.all(sen_lo <= tpr) and np.all(tpr <= sen_up)
        assert np.all(spe_lo <= fpr) and np.all(fpr <= spe_up)
        checked += grid.size
    print(f"\nACCEPTANCE 2 PASS: sandwich exact on 50 instances ({checked} grid evaluations)")


def test_criterion_03_wasserstein_exactness():
    rng = np.random.default_rng(2025)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        d1, d2 = random_diagram(rng, 0), random_diagram(rng, 1)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        got = wasserstein_distance(d1, d2, p)
        want = exhaustive_wasserstein(d1, d2, p)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    print(f"\nACCEPTANCE 3 PASS: 1000 diagram pairs, max |solver - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_quantile_oracle():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        values = rng.normal(size=int(rng.integers(1, 100))).tolist()
        for gamma in (0.05, 0.5, 0.95):
            m = min(max(int(np.floor(gamma * len(values))), 1), len(values))
            assert quantile(values, gamma) == sorted(values)[m - 1]
    print("\nACCEPTANCE 4 PASS: quantile matches the sort-based definition on 1000 multisets")


def test_criterion_05_reduction_identity():
    for r in range(20):
        spec = SyntheticSpec(
            n_train=150, n_calib=80, n_test=60, dim=3, beta=(1.0, -0.8, 0.6), seed=600 + r
        )
        ds = generate(spec)
        scored = scored_dataset(ds, ds.pi)
        mat = covariate_distance_matrix(ds)
        cond = cp_roc_bands(scored, mat, K=80, alpha=0.1, mode="conditional")
        exch = cp_roc_bands(scored, mat, K=80, alpha=0.1, mode="exchangeable")
        assert np.array_equal(cond.sen_lo, exch.sen_lo)
        assert np.array_equal(cond.sen_up, exch.sen_up)
        assert np.array_equal(cond.spe_lo, exch.spe_lo)
        assert np.array_equal(cond.spe_up, exch.spe_up)
        assert (cond.auc_lo, cond.auc_up) == (exch.auc_lo, exch.auc_up)
    print("\nACCEPTANCE 5 PASS: K=|calib| conditional equals exchangeable bit-exactly, 20 instances")


def test_criterion_06_conditional_bands_narrower_under_shift():
    spec = SyntheticSpec(
        n_train=1000, n_calib=600, n_test=400, dim=3, beta=(2.0, 2.0, 0.5),
        shift=(1.0, 1.0, 0.0), seed=31,
    )
    cond = coverage_experiment(spec, alpha=0.1, K=50, reps=50, mode="conditional")
    exch = coverage_experiment(spec, alpha=0.1, K=50, reps=50, mode="exchangeable")
    wins = sum(
        (rc["bw_sen"] + rc["bw_spe"]) < (re["bw_sen"] + re["bw_spe"])
        for rc, re in zip(cond.rows, exch.rows)
    )
    assert wins >= 40, f"conditional narrower in only {wins}/50 replicates"
    print(
        f"\nACCEPTANCE 6 PASS: conditional bands narrower in {wins}/50 shifted replicates "
        f"(mean bw {cond.mean_bw_sen + cond.mean_bw_spe:.3f} vs {exch.mean_bw_sen + exch.mean_bw_spe:.3f}; "
        f"coverage sen/spe cond {cond.coverage_sen:.2f}/{cond.coverage_spe:.2f}, "
        f"exch {exch.coverage_sen:.2f}/{exch.coverage_spe:.2f})"
    )


def test_criterion_07_bootstrap_bands_narrower():
    grid = np.linspace(0.0, 1.0, 512)
    spec = SyntheticSpec(
        n_train=1000, n_calib=800, n_test=1200, dim=10, beta=scaled_beta(10, 2.5),
        intercept=-3.9, seed=900,
    )
    wins, rates = 0, []
    for r in range(20):
        ds = generate(replace(spec, seed=spec.seed + r))
        rates.append(float(ds.labels.mean()))
        train = ds.split.ids("train")
        fit = fit_logistic(ds.x[train], ds.labels[train])
        fhat = fit.predict_proba(ds.x)
        band = cp_roc_bands(
            scored_dataset(ds, fhat), covariate_distance_matrix(ds), K=50, alpha=0.1,
            mode="conditional", thin_stratum="widen",
        )
        sl, su = band.sen_at(grid)
        pl, pu = band.spe_at(grid)
        cp_bw = (np.mean(su - sl) + np.mean(pu - pl)) / 2.0
        test = ds.split.ids("test")
        boot = bootstrap_bands(
            ds.labels[test] == 1, fhat[test], grid, B=1000, level=0.95, seed=spec.seed + r
        )
        boot_bw = (np.mean(boot.tpr_up - boot.tpr_lo) + np.mean(boot.fpr_up - boot.fpr_lo)) / 2.0
        wins += boot_bw < cp_bw
    assert wins >= 16, f"bootstrap narrower in only {wins}/20 replicates"
    print(
        f"\nACCEPTANCE 7 PASS: bootstrap narrower in {wins}/20 replicates "
        f"(class imbalance ~{np.mean(rates):.2f}, B=1000, level=0.95)"
    )


def test_criterion_08_persistence_structure():
    import networkx as nx

    rng = np.random.default_rng(808)
    for i in range(200):
        g = random_er_graph(rng, gid=i, max_nodes=30)
        values = rng.normal(size=g.num_nodes)
        d = sublevel_persistence(g, values)
        gx = nx.Graph()
        gx.add_nodes_from(range(g.num_nodes))
        gx.add_edges_from(g.edges)
        n_comp = nx.number_connected_components(gx)
        assert len(d.dim0) == g.num_nodes
        assert int(np.isinf(d.dim0[:, 1]).sum()) == n_comp
        assert len(d.dim1) == len(g.edges) - g.num_nodes + n_comp
        assert np.all(np.isinf(d.dim1[:, 1])) if len(d.dim1) else True
    print("\nACCEPTANCE 8 PASS: H0/H1 structural counts exact on 200 random graphs")


def _fabricate_tu(root: Path, name: str, n_graphs: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    graphs = [random_er_graph(rng, gid=i, max_nodes=12) for i in range(n_graphs)]
    # the benchmarks checked here are binary; make sure both classes appear
    graphs[0] = replace(graphs[0], label=0)
    graphs[1] = replace(graphs[1], label=1)
    write_tu_dataset(graphs, root, name)


def test_criterion_09_parser_counts_and_roundtrip(tmp_path):
    expected = {"BZR": 405, "PROTEINS": 1113}
    sources = {}
    for name, count in expected.items():
        real = Path(os.environ.get("CPROC_TU_ROOT", "tests/data")) / name
        if (real / f"{name}_A.txt").exists():
            src = real
            sources[name] = "real"
        else:
            src = tmp_path / name
            _fabricate_tu(src, name, count, seed=count)
            sources[name] = "fabricated"
        graphs = parse_tu_dataset(src, name)
        assert len(graphs) == count, f"{name}: {len(graphs)} graphs, expected {count}"
        assert len({g.label for g in graphs}) == 2, f"{name}: expected 2 classes"
    fixture = write_tiny_fixture(tmp_path / "TINY")
    graphs = parse_tu_dataset(fixture, "TINY")
    write_tu_dataset(graphs, tmp_path / "TINY2", "TINY2")
    assert parse_tu_dataset(tmp_path / "TINY2", "TINY2") == graphs
    print(
        f"\nACCEPTANCE 9 PASS: BZR=405 ({sources['BZR']}), PROTEINS=1113 "
        f"({sources['PROTEINS']}), 2 classes each; tiny fixture round-trips bit-exactly"
    )


def test_criterion_10_cmd_bands_determinism(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    out = tmp_path / "det"
    args = [
        "bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
        "--knn", "3", "--mode", "cond", "--thin-stratum", "widen", "--min-stratum", "2",
        "--repeats", "3", "--seed", "42", "--out", str(out),
    ]
    assert main(args) == 0
    names = ["band.csv", "summary.json", "band.svg"] + [f"band_rep{i}.csv" for i in range(3)]
    first = {n: (out / n).read_bytes() for n in names}
    assert main(args) == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], f"{n} differs between identical runs"
    print("\nACCEPTANCE 10 PASS: identical cmd_bands config reproduces byte-identical outputs")
