"""Subcommand front end wiring the pipeline: topology extraction, similarity
matrices, band construction, bootstrap baseline, synthetic coverage
experiments, and SVG plots.

Exit codes: 0 success, 2 usage/input error, 3 numerical error. Every output
file embeds the run configuration and version string; reruns with an
identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import bootstrap_bands
from .errors import CprocError, NumericalError
from .graphdata import (
    load_scores,
    parse_tu_dataset,
    read_split_manifest,
    split_dataset,
    write_split_manifest,
)
from .rocbands import (
    cp_roc_bands,
    default_lambda_grid,
    empirical_roc,
    read_band_csv,
    write_band_csv,
)
from .similarity import build_similarity_matrix, export_matrix_csv, load_matrix, save_matrix
from .svgplot import band_svg
from .synthetic import SyntheticSpec, coverage_experiment
from .topology import (
    FiltrationKind,
    compute_filtration,
    diagrams_to_csv,
    images_to_csv,
    max_finite_value,
    persistence_image,
    sublevel_persistence,
)

VERSION = f"cproc-{__version__}"
MODES = {"exch": "exchangeable", "cond": "conditional"}
COMMANDS = ("topo", "simmat", "bands", "simulate", "plot")
DATASET = ("topo", "simmat", "bands")
PAIRS = ("simmat", "bands")
CONFORMAL = ("bands", "simulate")


def _flag(default, commands, help=None, choices=None, **command_defaults):
    """A RunConfig field that is also a `--flag` of each subcommand in
    `commands`; `command_defaults` gives one subcommand its own default."""
    return field(
        default=default,
        metadata={"commands": commands, "help": help, "choices": choices, "defaults": command_defaults},
    )


@dataclass(frozen=True)
class RunConfig:
    """Validated flag bundle, serialized into every output for provenance.

    Its fields are the flag table: `build_parser` derives each subcommand's
    flags, types, choices and defaults from them, and config files may set
    any of them.
    """

    command: str
    dataset: str | None = _flag(None, DATASET, "TU dataset directory")
    name: str | None = _flag(None, DATASET, "dataset name (default: dir name)")
    filtration: str = _flag("degree", DATASET, choices=[k.value for k in FiltrationKind])
    wasserstein_p: float = _flag(1.0, PAIRS)
    knn: int = _flag(20, CONFORMAL, "neighbor count K")
    alpha: float = _flag(0.1, CONFORMAL)
    seed: int = _flag(0, CONFORMAL)
    repeats: int = _flag(1, CONFORMAL)
    mode: str = _flag("cond", CONFORMAL, choices=sorted(MODES))
    scores: str | None = _flag(None, ("bands",), "scores CSV (graph_id,label,p0,p1,...)")
    out: str = _flag(".", COMMANDS, "output directory")
    force: bool = _flag(False, DATASET)
    pairs_parallel: int = _flag(1, PAIRS)
    pool_split: float = _flag(0.8, ("bands",))
    calib_split: float = _flag(0.5, ("bands",))
    # coverage runs must finish even when a rare low-probability test point has
    # a thin label stratum, so widening is the simulate default
    thin_stratum: str = _flag("error", CONFORMAL, choices=["error", "widen"], simulate="widen")
    min_stratum: int = _flag(5, CONFORMAL)
    simmat: str | None = _flag(None, ("bands",), "precomputed similarity matrix file")
    split: str | None = _flag(None, ("bands",), "split manifest CSV overriding --seed split")
    pi_resolution: int = _flag(50, ("topo",))
    n_train: int = _flag(2000, ("simulate",))
    n_calib: int = _flag(1000, ("simulate",))
    n_test: int = _flag(500, ("simulate",))
    dim: int = _flag(3, ("simulate",))
    beta: str = _flag("1.0,-0.8,0.6", ("simulate",), "comma-separated coefficients")
    missing: str = _flag("", ("simulate",), "comma-separated covariate indices")
    shift: str = _flag("", ("simulate",), "comma-separated test mean shift")
    bootstrap: int = _flag(0, ("bands",), "also emit a B-resample bootstrap band (0 = off)")
    level: float = _flag(0.95, ("bands",), "bootstrap confidence level")

    def validate(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.knn < 1:
            raise ValueError(f"--knn must be >= 1, got {self.knn}")
        if self.repeats < 1:
            raise ValueError(f"--repeats must be >= 1, got {self.repeats}")
        if self.wasserstein_p < 1.0:
            raise ValueError(f"--wasserstein-p must be >= 1, got {self.wasserstein_p}")
        if not (0.0 < self.pool_split < 1.0 and 0.0 < self.calib_split < 1.0):
            raise ValueError("split ratios must lie strictly inside (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"--mode must be one of {sorted(MODES)}")
        if self.pi_resolution < 1:
            raise ValueError("--pi-resolution must be >= 1")
        if self.min_stratum < 1:
            raise ValueError("--min-stratum must be >= 1")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f: getattr(args, f) for f in RunConfig.__dataclass_fields__ if hasattr(args, f)}
    cfg = RunConfig(**fields)
    cfg.validate()
    return cfg


def _comments(cfg: RunConfig) -> tuple[str, str]:
    return (VERSION, f"config: {cfg.to_json()}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip()) if text else ()


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip()) if text else ()


def _dataset_graphs(cfg: RunConfig):
    if cfg.dataset is None:
        raise ValueError("this command needs --dataset")
    return parse_tu_dataset(cfg.dataset, cfg.name or Path(cfg.dataset).name)


def _dataset_diagrams(cfg: RunConfig, graphs=None):
    if graphs is None:
        graphs = _dataset_graphs(cfg)
    name = cfg.name or Path(cfg.dataset).name
    kind = FiltrationKind(cfg.filtration)
    diagrams = [sublevel_persistence(g, compute_filtration(g, kind)) for g in graphs]
    return graphs, name, kind, diagrams


def cmd_topo(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    name = cfg.name or Path(cfg.dataset or "").name
    kind = FiltrationKind(cfg.filtration)
    dpath = out / f"{name}_{kind.value}_diagrams.csv"
    ipath = out / f"{name}_{kind.value}_images.csv"
    if dpath.exists() and ipath.exists() and not cfg.force:
        print(f"topo outputs exist, skipping: {dpath.name}, {ipath.name} (--force to redo)")
        return 0
    graphs, name, kind, diagrams = _dataset_diagrams(cfg)
    cap = max_finite_value(diagrams)
    diagrams_to_csv(diagrams, dpath, comments=_comments(cfg))
    images = [(d.graph_id, persistence_image(d, cfg.pi_resolution, cap=cap)) for d in diagrams]
    images_to_csv(images, ipath, comments=_comments(cfg))
    print(f"{name}: {len(graphs)} graphs -> {dpath.name}, {ipath.name} (cap={cap:g})")
    return 0


def _graphs_digest(graphs) -> str:
    """sha256 of what the distances depend on: node counts, edges, node labels."""
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr((g.num_nodes, g.edges, g.node_attributes)).encode())
    return digest.hexdigest()


def _simmat_with_cache(cfg: RunConfig, graphs=None):
    graphs, name, kind, diagrams = _dataset_diagrams(cfg, graphs)
    cap = max_finite_value(diagrams)
    key = (
        f"{name}|{kind.value}|p={cfg.wasserstein_p!r}|cap={cap!r}|dims=(0, 1)"
        f"|graphs={_graphs_digest(graphs)}"
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}_{kind.value}_p{cfg.wasserstein_p:g}.simmat"
    if path.exists() and not cfg.force:
        try:
            matrix = load_matrix(path, expect_key=key)
            print(f"simmat cache hit: {path.name}")
            return graphs, name, matrix, path
        except CprocError as exc:
            warnings.warn(f"similarity cache unusable ({exc}); recomputing", stacklevel=2)
    matrix = build_similarity_matrix(
        diagrams,
        p=cfg.wasserstein_p,
        cap=cap,
        kinds=(kind.value,),
        key=key,
        workers=cfg.pairs_parallel,
    )
    save_matrix(matrix, path, extra_meta={"config": json.loads(cfg.to_json()), "version": VERSION})
    return graphs, name, matrix, path


def cmd_simmat(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    graphs, name, matrix, path = _simmat_with_cache(cfg)
    csv_path = path.with_suffix(".csv")
    export_matrix_csv(matrix, csv_path, comments=_comments(cfg))
    print(f"{name}: {matrix.n}x{matrix.n} matrix -> {path.name}, {csv_path.name}")
    return 0


def _resplit(base_split, pool: np.ndarray, calib_split: float, seed: int):
    """One Algorithm-style re-split of the calib+test pool; train/valid stay."""
    perm = np.random.default_rng(seed).permutation(pool.size)
    n_calib = int(np.floor(pool.size * calib_split))
    parts = list(base_split.parts)
    for idx in perm[:n_calib]:
        parts[pool[idx]] = "calib"
    for idx in perm[n_calib:]:
        parts[pool[idx]] = "test"
    return type(base_split)(
        tuple(parts), seed, base_split.pool_split, calib_split, base_split.valid_split
    )


def cmd_bands(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.scores is None:
        raise ValueError("cmd bands needs --scores FILE")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    # scores are checked against the graphs before any distance is computed
    graphs = _dataset_graphs(cfg) if cfg.dataset or not cfg.simmat else None
    scored = load_scores(cfg.scores, graphs)
    if scored.num_labels > 2:
        raise ValueError(
            f"{cfg.scores} has {scored.num_labels} labels, but cproc bands builds binary bands; "
            "use cproc.rocbands.multilabel_bands for one-vs-rest bands"
        )
    matrix = load_matrix(cfg.simmat) if cfg.simmat else _simmat_with_cache(cfg, graphs)[2]
    if scored.n != matrix.n:
        raise ValueError(f"scores cover {scored.n} graphs but matrix is {matrix.n}x{matrix.n}")

    if cfg.split:
        base_split = read_split_manifest(cfg.split, seed=cfg.seed)
        if len(base_split.parts) != scored.n:
            raise ValueError("split manifest size does not match dataset")
    else:
        base_split = split_dataset(scored.n, cfg.seed, cfg.pool_split, cfg.calib_split)
    pool = np.sort(np.concatenate([base_split.ids("calib"), base_split.ids("test")]))

    def split_for_repeat(i: int):
        # an explicit manifest with a single repeat is honored verbatim;
        # otherwise every repeat re-splits the calib+test pool (derived seed)
        if cfg.split and cfg.repeats == 1:
            return base_split
        return _resplit(base_split, pool, cfg.calib_split, cfg.seed + i)

    mode = MODES[cfg.mode]
    grid = np.linspace(0.0, 1.0, 512)
    acc = {name: np.zeros(grid.size) for name in ("sen_lo", "sen_up", "spe_lo", "spe_up")}
    aucs, auc_los, auc_ups, bw_sens, bw_spes = [], [], [], [], []
    for i in range(cfg.repeats):
        split_i = split_for_repeat(i)
        scored_i = scored.with_split(split_i)
        band = cp_roc_bands(
            scored_i, matrix, cfg.knn, cfg.alpha, mode=mode,
            min_stratum=cfg.min_stratum, thin_stratum=cfg.thin_stratum,
        )
        rep_grid = default_lambda_grid(band.lo_pos, band.up_pos, band.lo_neg, band.up_neg)
        write_band_csv(
            out / f"band_rep{i}.csv",
            rep_grid,
            *band.sen_at(rep_grid),
            *band.spe_at(rep_grid),
            comments=_comments(cfg) + (f"repeat: {i}",),
        )
        write_split_manifest(split_i, out / f"split_rep{i}.csv", comments=_comments(cfg))
        sl, su = band.sen_at(grid)
        pl, pu = band.spe_at(grid)
        for name, vals in zip(("sen_lo", "sen_up", "spe_lo", "spe_up"), (sl, su, pl, pu)):
            acc[name] += vals
        curve = empirical_roc(scored_i)
        aucs.append(curve.auc)
        auc_los.append(band.auc_lo)
        auc_ups.append(band.auc_up)
        bw_sens.append(float(np.mean(su - sl)))
        bw_spes.append(float(np.mean(pu - pl)))

    if cfg.bootstrap > 0:
        # bootstrap overlay uses the first repeat's test split
        test0 = split_for_repeat(0).ids("test")
        boot = bootstrap_bands(
            scored.labels[test0] == 1,
            scored.probs[test0, 1],
            grid,
            B=cfg.bootstrap,
            level=cfg.level,
            seed=cfg.seed,
        )
        write_band_csv(
            out / "bootstrap_band.csv",
            grid,
            boot.tpr_lo,
            boot.tpr_up,
            boot.fpr_lo,
            boot.fpr_up,
            comments=_comments(cfg) + (f"bootstrap B={cfg.bootstrap} level={cfg.level:g}",),
        )

    for name in acc:
        acc[name] /= cfg.repeats
    write_band_csv(
        out / "band.csv",
        grid,
        acc["sen_lo"],
        acc["sen_up"],
        acc["spe_lo"],
        acc["spe_up"],
        comments=_comments(cfg) + (f"mean of {cfg.repeats} repeat(s)",),
    )
    summary = {
        "auc": float(np.mean(aucs)),
        "auc_lo": float(np.mean(auc_los)),
        "auc_up": float(np.mean(auc_ups)),
        "mean_bw_sen": float(np.mean(bw_sens)),
        "mean_bw_spe": float(np.mean(bw_spes)),
        "alpha": cfg.alpha,
        "mode": mode,
        "K": cfg.knn,
        "repeats": cfg.repeats,
        "config": json.loads(cfg.to_json()),
        "version": VERSION,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    band_svg(
        [(f"CP-ROC {mode}", acc["sen_lo"], acc["sen_up"], acc["spe_lo"], acc["spe_up"])],
        out / "band.svg",
        title=f"CP-ROC band ({mode}, alpha={cfg.alpha:g})",
        comment=f"{VERSION} config: {cfg.to_json()}",
    )
    print(
        f"bands: auc={summary['auc']:.4f} [{summary['auc_lo']:.4f}, {summary['auc_up']:.4f}] "
        f"bw_sen={summary['mean_bw_sen']:.4f} bw_spe={summary['mean_bw_spe']:.4f} -> {out}/band.csv"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    beta = _parse_float_list(cfg.beta)
    spec = SyntheticSpec(
        n_train=cfg.n_train,
        n_calib=cfg.n_calib,
        n_test=cfg.n_test,
        dim=cfg.dim,
        beta=beta if beta else (1.0,) * cfg.dim,
        missing=_parse_int_list(cfg.missing),
        shift=_parse_float_list(cfg.shift) or None,
        seed=cfg.seed,
    )
    report = coverage_experiment(
        spec,
        alpha=cfg.alpha,
        K=cfg.knn,
        reps=cfg.repeats,
        mode=MODES[cfg.mode],
        min_stratum=cfg.min_stratum,
        thin_stratum=cfg.thin_stratum,
    )
    payload = report.to_json()
    payload["config"] = json.loads(cfg.to_json())
    payload["version"] = VERSION
    with open(out / "coverage.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "coverage_replicates.csv", "w", newline="") as fh:
        for line in _comments(cfg):
            fh.write(f"# {line}\n")
        writer = csv.DictWriter(fh, fieldnames=list(report.rows[0].keys()))
        writer.writeheader()
        writer.writerows(report.rows)
    print(
        f"simulate[{report.mode}]: coverage_sen={report.coverage_sen:.3f} (se {report.se_sen:.3f}) "
        f"coverage_spe={report.coverage_spe:.3f} (se {report.se_spe:.3f}) "
        f"bw=({report.mean_bw_sen:.4f}, {report.mean_bw_spe:.4f}) -> {out}/coverage.json"
    )
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    bands = []
    for path in args.band_files:
        data = read_band_csv(path)
        bands.append((Path(path).stem, data["sen_lo"], data["sen_up"], data["spe_lo"], data["spe_up"]))
    out = Path(cfg.out)
    if out.is_dir():
        out = out / "bands.svg"
    band_svg(bands, out, title="ROC bands", comment=f"{VERSION} config: {cfg.to_json()}")
    print(f"plot: {len(bands)} band(s) -> {out}")
    return 0


_FLAG_FIELDS = {f.name: f for f in fields(RunConfig) if "commands" in f.metadata}
_TYPES = {"int": int, "float": float}


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FLAG_FIELDS:
            raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def build_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """One subparser per command, its flags read off the RunConfig fields;
    `defaults` (config-file values) replace the fields' defaults."""
    defaults = defaults or {}
    parser = argparse.ArgumentParser(
        prog="cproc",
        description="Conformal prediction confidence bands for ROC curves.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "topo": (cmd_topo, "persistence diagrams and images for a dataset"),
        "simmat": (cmd_simmat, "pairwise Wasserstein similarity matrix"),
        "bands": (cmd_bands, "CP-ROC bands from classifier scores"),
        "simulate": (cmd_simulate, "synthetic coverage experiment"),
        "plot": (cmd_plot, "render band CSVs as SVG"),
    }
    for command, (handler, help_text) in commands.items():
        sp = sub.add_parser(command, help=help_text)
        if command == "plot":
            sp.add_argument("band_files", nargs="+", help="band CSV files to overlay")
        sp.add_argument("--config", help="key=value config file; flags override file values")
        for name, f in _FLAG_FIELDS.items():
            meta = f.metadata
            if command not in meta["commands"]:
                continue
            flag = "--" + name.replace("_", "-")
            default = defaults.get(name, meta["defaults"].get(command, f.default))
            if meta["choices"] and default not in meta["choices"]:
                raise ValueError(f"config key {name}: {default!r} is not one of {meta['choices']}")
            if f.type == "bool":
                if default not in (False, True, "false", "true"):
                    raise ValueError(f"config key {name}: {default!r} is not true or false")
                sp.add_argument(flag, action="store_true", default=default in (True, "true"),
                                help=meta["help"])
            else:
                sp.add_argument(flag, dest=name, type=_TYPES.get(f.type), default=default,
                                choices=meta["choices"], help=meta["help"])
        sp.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        defaults = _read_config_file(known.config) if known.config else {}
        parser = build_parser(defaults)
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"cproc: numerical error: {exc}", file=sys.stderr)
        return 3
    except (CprocError, ValueError, OSError) as exc:
        print(f"cproc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
