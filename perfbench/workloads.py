"""The three workloads. Each is a closed loop with one caller: `op(i)` is
sent only after `op(i - 1)` returns. `setup` prepares inputs, `op` is the
measured operation, and `check` verifies the outputs of the last measured
operation after the measured phase, returning a list of errors."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import cproc.cli as cli
from cproc.graphdata import load_scores, parse_tu_dataset, read_split_manifest
from cproc.rocbands import cp_roc_bands, read_band_csv
from cproc.similarity import knn_indices, load_matrix
from cproc.synthetic import (
    SyntheticSpec,
    covariate_distance_matrix,
    coverage_experiment,
    fit_logistic,
    generate,
    scored_dataset,
)
from cproc.topology import FiltrationKind, compute_filtration, sublevel_persistence

import gen
import oracle

ALPHA = 0.1
MIN_STRATUM = 5
SAMPLED_PAIRS = 60  # similarity entries re-solved by the oracle
SAMPLED_QUERIES = 6  # kNN queries per pool, and test points per class


class OpFailed(Exception):
    """An operation exited nonzero or raised."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quartiles(values) -> list[float]:
    return [float(q) for q in np.quantile(np.asarray(values, dtype=float), [0.0, 0.25, 0.5, 0.75, 1.0])]


def check_knn(errors: list[str], rng, values: np.ndarray, queries, pool, K: int, what: str) -> None:
    """Brute-force (distance, id) neighbours against cproc's knn_indices."""
    for q in rng.choice(queries, size=min(SAMPLED_QUERIES, len(queries)), replace=False):
        want = oracle.knn(values[q], pool, K)
        got = knn_indices(values, np.array([q]), pool, K)[0].tolist()
        if got != want:
            errors.append(f"kNN of {what} {int(q)} differs from the brute-force order")


def check_intervals(errors, rng, band, values, fhat, positive, split, K: int) -> None:
    """Sampled test intervals recomputed from the order-statistic definition
    must be bit-equal to the band's lo/up arrays."""
    calib, train, test = (np.sort(split.ids(p)) for p in ("calib", "train", "test"))
    for ids, lo, up in ((test[positive[test]], band.lo_pos, band.up_pos),
                        (test[~positive[test]], band.lo_neg, band.up_neg)):
        for idx in rng.choice(ids.size, size=min(SAMPLED_QUERIES, ids.size), replace=False):
            want = oracle.conditional_interval(values, fhat, positive, calib, train, int(ids[idx]),
                                               K, ALPHA, MIN_STRATUM)
            if (float(lo[idx]), float(up[idx])) != want:
                errors.append(f"interval of test point {int(ids[idx])} is {(lo[idx], up[idx])}, oracle {want}")
            if not lo[idx] <= up[idx]:
                errors.append(f"interval of test point {int(ids[idx])} has lo > up")


def check_matrix(errors: list[str], values: np.ndarray) -> None:
    if not np.array_equal(values, values.T):
        errors.append("similarity matrix is not symmetric")
    if np.any(np.diag(values) != 0.0):
        errors.append("similarity matrix has a nonzero diagonal")


class GraphWorkload:
    """`cproc bands` runs on a fabricated TU set, through `cproc.cli.main`."""

    ops_per_run: int | None = None  # None: loop for --seconds
    setup_reps = 15  # set-ups are timed this many times; setup_s is their median
    shape: gen.TuShape
    filtration: str
    extra_args: tuple[str, ...] = ()
    K = 20
    repeats = 10

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.last_out: Path | None = None
        self.last_seed = 0

    def setup(self, rep: int) -> None:
        """Writes the set, then reads it back with cproc's parser and score
        loader, so that set-up time includes cproc's own parsing."""
        self.data = self.work / f"setup{rep}" / self.shape.name / self.shape.name
        self.tu = gen.tu_set(self.shape, self.seed)
        self.scores = gen.write_tu(self.tu, self.data)
        graphs = parse_tu_dataset(self.data, self.shape.name)
        load_scores(self.scores, graphs)
        if (len(graphs), sum(g.num_nodes for g in graphs), sum(len(g.edges) for g in graphs)) != (
            self.shape.n_graphs, int(self.tu.sizes.sum()), int(self.tu.n_edges.sum())
        ):
            raise RuntimeError("parsed graph/node/edge counts differ from the generated set")

    def _cli(self, argv: list[str], span) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span("cli.main"):
            rc = cli.main(argv)
        if rc != 0:
            raise OpFailed(f"cproc {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def bands_argv(self, seed: int, out: Path) -> list[str]:
        return [
            "bands", "--dataset", str(self.data), "--scores", str(self.scores),
            "--filtration", self.filtration, "--pairs-parallel", "1",
            "--knn", str(self.K), "--mode", "cond", "--thin-stratum", "widen",
            "--min-stratum", str(MIN_STRATUM), "--alpha", str(ALPHA),
            "--repeats", str(self.repeats), "--seed", str(seed), "--out", str(out),
            *self.extra_args,
        ]

    def cache_file(self, out: Path) -> Path:
        return out / f"{self.shape.name}_{self.filtration}_p1.simmat"

    def check(self) -> tuple[list[str], dict]:
        errors: list[str] = []
        out = self.last_out
        rng = np.random.default_rng([self.seed, 99])
        graphs = parse_tu_dataset(self.data, self.shape.name)
        matrix = load_matrix(self.cache_file(out))
        values = matrix.values
        check_matrix(errors, values)

        # Wasserstein entries against the oracle, on a seed-chosen sample
        kind = FiltrationKind(self.filtration)
        diagrams = [sublevel_persistence(g, compute_filtration(g, kind)) for g in graphs]
        cap = oracle.diagram_cap(diagrams)
        points = [oracle.capped_points(d.dim0, d.dim1, cap) for d in diagrams]
        n = len(graphs)
        worst = 0.0
        for _ in range(SAMPLED_PAIRS):
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            worst = max(worst, abs(values[i, j] - oracle.wasserstein(points[i], points[j])))
        if not worst <= oracle.WASSERSTEIN_TOL:
            errors.append(f"Wasserstein entry off the oracle by {worst:.3e}")

        # one seed-chosen repeat: kNN, intervals and the written staircase
        rep = int(rng.integers(self.repeats))
        split = read_split_manifest(out / f"split_rep{rep}.csv")
        scored = load_scores(self.scores, graphs).with_split(split)
        fhat, positive = scored.probs[:, 1], scored.labels == 1
        calib, train, test = (np.sort(split.ids(p)) for p in ("calib", "train", "test"))
        check_knn(errors, rng, values, calib, train, self.K, "calibration graph")
        check_knn(errors, rng, values, test, calib, self.K, "test graph")
        band = cp_roc_bands(scored, matrix, self.K, ALPHA, mode="conditional",
                            min_stratum=MIN_STRATUM, thin_stratum="widen")
        check_intervals(errors, rng, band, values, fhat, positive, split, self.K)
        written = read_band_csv(out / f"band_rep{rep}.csv")
        lam = written["lambda"]
        for col, arr in (("sen_lo", band.lo_pos), ("sen_up", band.up_pos),
                         ("spe_lo", band.lo_neg), ("spe_up", band.up_neg)):
            if not np.array_equal(written[col], oracle.frac_above(arr, lam)):
                errors.append(f"band_rep{rep}.csv column {col} differs from the band's intervals")
        if not band.auc_lo <= band.auc_up:
            errors.append(f"repeat {rep}: auc_lo > auc_up")

        summary = json.loads((out / "summary.json").read_text())
        errors += oracle.band_invariant_errors(read_band_csv(out / "band.csv"), summary["auc_lo"], summary["auc_up"])

        zero, total = oracle.zero_persistence([p for pair in points for p in pair])
        props = {
            "graphs": n,
            "nodes_quartiles": quartiles(self.tu.sizes),
            "edges_quartiles": quartiles(self.tu.n_edges),
            "diagram_points": total,
            "zero_pers_share": zero / total,
            "cap": cap,
            "positive_rate": float(positive.mean()),
            "calib_test_sizes": [int(calib.size), int(test.size)],
            "max_wasserstein_error": worst,
        }
        sums = {name: sha256(out / name) for name in ("band.csv", "summary.json")}
        return errors, {"inputs": props, "outputs_sha256": sums}


class TuCold(GraphWorkload):
    """One `cproc bands` on an empty output directory: parse, filtrations,
    the full Wasserstein build (cache miss, cache write) and the bands."""

    name = "tu-cold"
    ops_per_run = 1  # time-to-band from raw data: one cold operation per run
    shape = gen.BZR_LIKE
    filtration = "degree"
    extra_args = ("--pool-split", "0.7", "--calib-split", "0.6")

    def op(self, i: int, phase: str, span) -> None:
        out = self.work / f"{phase}-op{i}"
        seed = gen.op_seed(self.seed, 2, i)
        self._cli(self.bands_argv(seed, out), span)
        self.last_out, self.last_seed = out, seed


class TuWarm(GraphWorkload):
    """Repeated `cproc bands` calls that hit the similarity cache that setup's
    `cproc simmat` wrote; each call has its own seed."""

    name = "tu-warm"
    shape = gen.MUTAG_LIKE
    filtration = "eigenvector"
    extra_args = ("--pool-split", "0.5", "--calib-split", "0.6", "--bootstrap", "1000")
    setup_reps = 3  # each set-up builds the similarity matrix (seconds)

    def setup(self, rep: int) -> None:
        super().setup(rep)
        self.out = self.data.parent.parent / "out"
        self._cli(["simmat", "--dataset", str(self.data), "--filtration", self.filtration,
                   "--pairs-parallel", "1", "--out", str(self.out)], contextlib.nullcontext)
        self.cache_hits = 0

    def op(self, i: int, phase: str, span) -> None:
        seed = gen.op_seed(self.seed, 1, i)
        stdout = self._cli(self.bands_argv(seed, self.out), span)
        self.cache_hits += "simmat cache hit" in stdout
        self.last_out, self.last_seed = self.out, seed

    def check(self) -> tuple[list[str], dict]:
        errors: list[str] = []
        names = ("band.csv", "summary.json")
        first = {name: (self.out / name).read_bytes() for name in names}
        self._cli(self.bands_argv(self.last_seed, self.out), contextlib.nullcontext)
        for name in names:
            if (self.out / name).read_bytes() != first[name]:
                errors.append(f"{name} differs between two calls with seed {self.last_seed}")
        boot = read_band_csv(self.out / "bootstrap_band.csv")
        errors += oracle.band_invariant_errors(boot, 0.0, 0.0)
        more, report = super().check()
        report["cache_hit_calls"] = self.cache_hits
        return errors + more, report


class SyntheticCov:
    """One criterion-1 coverage replicate per operation."""

    name = "synthetic-cov"
    ops_per_run = None
    setup_reps = 15  # one set-up is one short replicate; more of them steady the median
    K = 50

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.spec = SyntheticSpec(n_train=2000, n_calib=1000, n_test=500, dim=12,
                                  beta=gen.criterion1_beta(), seed=0)

    def replicate(self, seed: int):
        return coverage_experiment(replace(self.spec, seed=seed), alpha=ALPHA, K=self.K, reps=1,
                                   mode="conditional", min_stratum=MIN_STRATUM, thin_stratum="widen")

    def setup(self, rep: int) -> None:
        # a warm-up replicate, so lazy imports and first-touch costs land here
        self.replicate(gen.op_seed(self.seed, 4, rep))

    def op(self, i: int, phase: str, span) -> None:
        seed = gen.op_seed(self.seed, 3, i)
        with span("synthetic.coverage_experiment"):
            report = self.replicate(seed)
        self.last_seed, self.last_row = seed, report.rows[0]

    def check(self) -> tuple[list[str], dict]:
        errors: list[str] = []
        rng = np.random.default_rng([self.seed, 99])
        replay = self.replicate(self.last_seed).rows[0]
        if replay != self.last_row:
            errors.append(f"replicate with seed {self.last_seed} differs between two calls")

        ds = generate(replace(self.spec, seed=self.last_seed))
        train = ds.split.ids("train")
        fhat = fit_logistic(ds.x[train], ds.labels[train]).predict_proba(ds.x)
        matrix = covariate_distance_matrix(ds)
        values = matrix.values
        check_matrix(errors, values)
        for _ in range(SAMPLED_PAIRS):
            i, j = (int(x) for x in rng.choice(ds.n, size=2, replace=False))
            want = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(ds.x[i], ds.x[j])))
            if not abs(values[i, j] - want) <= 1e-9:
                errors.append(f"distance ({i},{j}) is {values[i, j]}, expected {want}")
        positive = ds.labels == 1
        calib, train, test = (np.sort(ds.split.ids(p)) for p in ("calib", "train", "test"))
        check_knn(errors, rng, values, calib, train, self.K, "calibration point")
        check_knn(errors, rng, values, test, calib, self.K, "test point")
        band = cp_roc_bands(scored_dataset(ds, fhat), matrix, self.K, ALPHA, mode="conditional",
                            min_stratum=MIN_STRATUM, thin_stratum="widen")
        check_intervals(errors, rng, band, values, fhat, positive, ds.split, self.K)
        grid = np.linspace(0.0, 1.0, 512)
        (sl, su), (pl, pu) = band.sen_at(grid), band.spe_at(grid)
        errors += oracle.band_invariant_errors(
            {"sen_lo": sl, "sen_up": su, "spe_lo": pl, "spe_up": pu}, band.auc_lo, band.auc_up
        )
        if (float(np.mean(su - sl)), float(np.mean(pu - pl))) != (self.last_row["bw_sen"], self.last_row["bw_spe"]):
            errors.append("replicate bandwidths differ from the band rebuilt from the same inputs")
        props = {
            "points": ds.n,
            "dim": self.spec.dim,
            "positive_rate": float(positive.mean()),
            "calib_test_sizes": [int(calib.size), int(test.size)],
        }
        row = json.dumps(self.last_row, sort_keys=True).encode()
        return errors, {"inputs": props, "outputs_sha256": {"replicate_row": hashlib.sha256(row).hexdigest()}}


WORKLOADS = {w.name: w for w in (TuCold, TuWarm, SyntheticCov)}
