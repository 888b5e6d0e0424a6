"""Subcommand front end wiring the pipeline: topology extraction, similarity
matrices, band construction, bootstrap baseline, synthetic coverage
experiments, and SVG plots.

Exit codes: 0 success, 2 usage/input error, 3 numerical error. Every output
file embeds the run configuration and version string (`_comments` atop each
CSV, `config` and `version` in each JSON report, an SVG comment); reruns
with an identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, graphdata, similarity, topology
from .baseline import bootstrap_bands
from .errors import CprocError, NumericalError
from .graphdata import load_scores, read_split_manifest, resplit, split_dataset, split_table, write_tables
from .graphdata import parse_tu_dataset, write_split_manifest  # noqa: F401  unused here; perfbench/spans.py hooks them by name
from .rocbands import UNIFORM_GRID, band_table, empirical_roc, read_band_csv, split_bands
from .rocbands import cp_roc_bands, default_lambda_grid, write_band_csv  # noqa: F401  unused here; perfbench/spans.py hooks them by name
from .similarity import build_similarity_matrix, export_matrix_csv, load_matrix, save_matrix
from .svgplot import band_svg
from .synthetic import SyntheticSpec, coverage_experiment
from .topology import (
    EdgeTable,
    FiltrationKind,
    dataset_diagrams,
    diagrams_to_csv,
    images_to_csv,
    max_finite_value,
    persistence_image,
)
from .topology import compute_filtration, sublevel_persistence  # noqa: F401  unused here; perfbench/spans.py hooks them by name

VERSION = f"cproc-{__version__}"
MODES = {"exch": "exchangeable", "cond": "conditional"}
COMMANDS = ("topo", "simmat", "bands", "simulate", "plot")
DATASET = ("topo", "simmat", "bands")
PAIRS = ("simmat", "bands")
CONFORMAL = ("bands", "simulate")


def _flag(default, commands, help=None, choices=None, low=None, unit=False, **command_defaults):
    """A RunConfig field that is also a `--flag` of each subcommand in
    `commands`; `command_defaults` gives one subcommand its own default.
    `validate` holds the value to `choices`, to `>= low` and, with `unit`,
    to the open interval (0, 1)."""
    return field(
        default=default,
        metadata={"commands": commands, "help": help, "choices": choices, "low": low, "unit": unit,
                  "defaults": command_defaults},
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
    wasserstein_p: float = _flag(1.0, PAIRS, low=1)
    knn: int = _flag(20, CONFORMAL, "neighbor count K", low=1)
    alpha: float = _flag(0.1, CONFORMAL, unit=True)
    seed: int = _flag(0, CONFORMAL, low=0)
    repeats: int = _flag(1, CONFORMAL, low=1)
    mode: str = _flag("cond", CONFORMAL, choices=sorted(MODES))
    scores: str | None = _flag(None, ("bands",), "scores CSV (graph_id,label,p0,p1,...)")
    out: str = _flag(".", COMMANDS, "output directory; for plot, the SVG file, or a directory "
                     "(existing or ending in /) that gets bands.svg")
    force: bool = _flag(False, PAIRS)
    pairs_parallel: int = _flag(1, PAIRS, low=1)
    pool_split: float = _flag(0.8, ("bands",), unit=True)
    calib_split: float = _flag(0.5, ("bands",), unit=True)
    # coverage runs must finish even when a rare low-probability test point has
    # a thin label stratum, so widening is the simulate default
    thin_stratum: str = _flag("error", CONFORMAL, choices=["error", "widen"], simulate="widen")
    min_stratum: int = _flag(5, CONFORMAL, low=1)
    simmat: str | None = _flag(None, ("bands",), "precomputed similarity matrix file")
    split: str | None = _flag(None, ("bands",), "split manifest CSV overriding --seed split")
    pi_resolution: int = _flag(50, ("topo",), low=1)
    n_train: int = _flag(2000, ("simulate",), low=1)
    n_calib: int = _flag(1000, ("simulate",), low=1)
    n_test: int = _flag(500, ("simulate",), low=1)
    dim: int = _flag(3, ("simulate",), low=1)
    beta: str = _flag("1.0,-0.8,0.6", ("simulate",), "comma-separated coefficients")
    missing: str = _flag("", ("simulate",), "comma-separated covariate indices")
    shift: str = _flag("", ("simulate",), "comma-separated test mean shift")
    bootstrap: int = _flag(0, ("bands",), "also emit a B-resample bootstrap band (0 = off)", low=0)
    level: float = _flag(0.95, ("bands",), "bootstrap confidence level", unit=True)

    def validate(self) -> None:
        for f in fields(self):
            flag, value, meta = "--" + f.name.replace("_", "-"), getattr(self, f.name), f.metadata
            if f.type == "float" and not np.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
            if meta.get("choices") and value not in meta["choices"]:
                raise ValueError(f"{flag}: {value!r} is not one of {meta['choices']}")
            if meta.get("low") is not None and value < meta["low"]:
                raise ValueError(f"{flag} must be >= {meta['low']}, got {value}")
            if meta.get("unit") and not 0.0 < value < 1.0:
                raise ValueError(f"{flag} must lie in (0, 1), got {value}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f: getattr(args, f) for f in RunConfig.__dataclass_fields__ if hasattr(args, f)}
    cfg = RunConfig(**fields)
    cfg.validate()
    return cfg


def _comments(cfg: RunConfig) -> tuple[str, str]:
    return (VERSION, f"config: {cfg.to_json()}")


def _write_report(path: Path, payload: dict, cfg: RunConfig) -> None:
    """A JSON report: `payload` plus the run's config and version."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "config": asdict(cfg), "version": VERSION}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_list(text: str, flag: str, kind: type = float) -> tuple:
    """The comma-separated `kind` values of a list flag; blank entries are skipped."""
    with contextlib.suppress(ValueError, OverflowError):
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        if np.all(np.isfinite(np.array(values, dtype=float))):
            return values
    raise ValueError(f"{flag} must hold {'integers' if kind is int else 'finite numbers'}, got {text}")


def _dataset_name(cfg: RunConfig) -> str:
    if cfg.dataset is None:
        raise ValueError("this command needs --dataset")
    return cfg.name or Path(cfg.dataset).name


def _dataset_table(cfg: RunConfig) -> tuple[EdgeTable, np.ndarray]:
    """The dataset's edge table and graph labels."""
    return graphdata._tu_table(cfg.dataset, _dataset_name(cfg))


def cmd_topo(cfg: RunConfig, args: argparse.Namespace) -> None:
    name = _dataset_name(cfg)
    comments = _comments(cfg)
    kind = FiltrationKind(cfg.filtration)
    table = _dataset_table(cfg)[0]
    points = dataset_diagrams(table, kind)
    cap = max_finite_value(points)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    dpath = out / f"{name}_{kind.value}_diagrams.csv"
    ipath = out / f"{name}_{kind.value}_images.csv"
    diagrams_to_csv(points, dpath, comments=comments)
    images = [(d.graph_id, persistence_image(d, cfg.pi_resolution, cap=cap)) for d in points.diagrams()]
    images_to_csv(images, ipath, comments=comments)
    print(f"{name}: {len(table.ids)} graphs -> {dpath.name}, {ipath.name} (cap={cap:g})")


def _graphs_digest(table: EdgeTable) -> str:
    """sha256 of what the distances depend on, as little-endian int64: the
    graph count, the node counts, the per-graph edge counts and the edges."""
    digest = hashlib.sha256()
    for part in ([len(table.ids)], table.nodes, table.sizes, table.edges):
        digest.update(np.asarray(part, dtype="<i8").tobytes())
    return digest.hexdigest()


def _code_digest() -> str:
    """sha256 of the modules whose code decides the distances."""
    digest = hashlib.sha256()
    for module in (topology, similarity):
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def _simmat_with_cache(cfg: RunConfig, table: EdgeTable) -> tuple[similarity.SimilarityMatrix, Path]:
    """Load the dataset's `.simmat` cache, or build and save it on a miss.

    The key names everything the distances depend on: the graphs (digest),
    filtration, p, dimensions, the cproc, numpy and scipy versions and a
    digest of the filtration and distance code, so an edit of either misses.
    The cap is a function of the graphs and the filtration, so it is left
    out of the key; a hit therefore runs no filtration, and the cap is only
    recorded in the file's metadata.
    """
    name = _dataset_name(cfg)
    kind = FiltrationKind(cfg.filtration)
    key = (
        f"{name}|{kind.value}|p={cfg.wasserstein_p!r}|dims=(0, 1)|{VERSION}"
        f"|numpy={np.__version__}|scipy={scipy.__version__}"
        f"|code={_code_digest()}|graphs={_graphs_digest(table)}"
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}_{kind.value}_p{cfg.wasserstein_p:g}.simmat"
    if path.exists() and not cfg.force:
        try:
            matrix = load_matrix(path, expect_key=key)
            print(f"simmat cache hit: {path.name}")
            return matrix, path
        except CprocError as exc:
            warnings.warn(f"similarity cache unusable ({exc}); recomputing", stacklevel=2)
    matrix = build_similarity_matrix(
        dataset_diagrams(table, kind),
        p=cfg.wasserstein_p,
        key=key,
        workers=cfg.pairs_parallel,
    )
    save_matrix(matrix, path, extra_meta={"config": asdict(cfg), "version": VERSION})
    return matrix, path


def cmd_simmat(cfg: RunConfig, args: argparse.Namespace) -> None:
    matrix, path = _simmat_with_cache(cfg, _dataset_table(cfg)[0])
    csv_path = path.with_suffix(".csv")
    export_matrix_csv(matrix, csv_path, comments=_comments(cfg))
    print(f"{_dataset_name(cfg)}: {matrix.n}x{matrix.n} matrix -> {path.name}, {csv_path.name}")


def cmd_bands(cfg: RunConfig, args: argparse.Namespace) -> None:
    if cfg.scores is None:
        raise ValueError("cmd bands needs --scores FILE")
    comments = _comments(cfg)

    # scores and splits are checked against the graphs before any distance is computed
    table, labels = _dataset_table(cfg) if cfg.dataset or not cfg.simmat else (None, None)
    scored = load_scores(cfg.scores, labels)
    if scored.num_labels > 2:
        raise ValueError(
            f"{cfg.scores} has {scored.num_labels} labels, but cproc bands builds binary bands; "
            "see 'One-vs-rest bands' in the README for a recipe that builds one band per label"
        )
    if cfg.split:
        base_split = read_split_manifest(cfg.split)
        if len(base_split.parts) != scored.n:
            raise ValueError("split manifest size does not match dataset")
    else:
        base_split = split_dataset(scored.n, cfg.seed, cfg.pool_split, cfg.calib_split)
    # an explicit manifest with a single repeat is honored verbatim;
    # otherwise every repeat re-splits the calib+test pool (derived seed)
    if cfg.split and cfg.repeats == 1:
        splits = [base_split]
    else:
        splits = [resplit(base_split, cfg.calib_split, cfg.seed + i) for i in range(cfg.repeats)]
    matrix = load_matrix(cfg.simmat) if cfg.simmat else _simmat_with_cache(cfg, table)[0]
    mode = MODES[cfg.mode]
    # every band is built before --out is created, so a failing repeat leaves no file
    bands = split_bands(scored, splits, matrix, cfg.knn, cfg.alpha, mode=mode,
                        min_stratum=cfg.min_stratum, thin_stratum=cfg.thin_stratum)
    out = Path(cfg.out)

    grid = UNIFORM_GRID
    acc = np.zeros((4, grid.size))  # sen_lo, sen_up, spe_lo, spe_up
    stat_names = ("auc", "auc_lo", "auc_up", "mean_bw_sen", "mean_bw_spe")
    stats = np.zeros((len(stat_names), cfg.repeats))  # one column per repeat
    tables = []  # every CSV of the run, written in one call
    for i, (split_i, band) in enumerate(zip(splits, bands)):
        tables.append(band_table(out / f"band_rep{i}.csv", band.lambda_grid, band.sen_lo, band.sen_up,
                                 band.spe_lo, band.spe_up, comments + (f"repeat: {i}",)))
        tables.append(split_table(split_i, out / f"split_rep{i}.csv", comments))
        sl, su = band.sen_at(grid)
        pl, pu = band.spe_at(grid)
        acc += (sl, su, pl, pu)
        curve = empirical_roc(scored.with_split(split_i))
        stats[:, i] = curve.auc, band.auc_lo, band.auc_up, np.mean(su - sl), np.mean(pu - pl)

    if cfg.bootstrap > 0:
        # bootstrap overlay uses the first repeat's test split
        test0 = splits[0].ids("test")
        boot = bootstrap_bands(
            scored.labels[test0] == 1,
            scored.probs[test0, 1],
            grid,
            B=cfg.bootstrap,
            level=cfg.level,
            # a spawned child stream never equals the default_rng(int) streams of the splits
            seed=np.random.SeedSequence(cfg.seed).spawn(1)[0],
        )
        tables.append(band_table(out / "bootstrap_band.csv", grid, boot.tpr_lo, boot.tpr_up, boot.fpr_lo,
                                 boot.fpr_up, comments + (f"bootstrap B={cfg.bootstrap} level={cfg.level:g}",)))

    acc /= cfg.repeats
    tables.append(band_table(out / "band.csv", grid, *acc, comments + (f"mean of {cfg.repeats} repeat(s)",)))
    out.mkdir(parents=True, exist_ok=True)
    write_tables(tables)
    summary = {name: float(np.mean(row)) for name, row in zip(stat_names, stats)}
    summary.update(alpha=cfg.alpha, mode=mode, K=cfg.knn, repeats=cfg.repeats)
    _write_report(out / "summary.json", summary, cfg)
    band_svg(
        [(f"CP-ROC {mode}", *acc)],
        out / "band.svg",
        title=f"CP-ROC band ({mode}, alpha={cfg.alpha:g})",
        comment=" ".join(comments),
    )
    print(
        f"bands: auc={summary['auc']:.4f} [{summary['auc_lo']:.4f}, {summary['auc_up']:.4f}] "
        f"bw_sen={summary['mean_bw_sen']:.4f} bw_spe={summary['mean_bw_spe']:.4f} -> {out}/band.csv"
    )


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> None:
    beta = _parse_list(cfg.beta, "--beta")
    spec = SyntheticSpec(
        n_train=cfg.n_train,
        n_calib=cfg.n_calib,
        n_test=cfg.n_test,
        dim=cfg.dim,
        beta=beta if beta else (1.0,) * cfg.dim,
        missing=_parse_list(cfg.missing, "--missing", int),
        shift=_parse_list(cfg.shift, "--shift") or None,
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
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / "coverage.json", report.to_json(), cfg)
    names = list(report.rows[0])
    columns = [np.array([row[name] for row in report.rows]) for name in names]
    write_tables([(out / "coverage_replicates.csv", columns, names, _comments(cfg))])
    print(
        f"simulate[{report.mode}]: coverage_sen={report.coverage_sen:.3f} (se {report.se_sen:.3f}) "
        f"coverage_spe={report.coverage_spe:.3f} (se {report.se_spe:.3f}) "
        f"bw=({report.mean_bw_sen:.4f}, {report.mean_bw_spe:.4f}) -> {out}/coverage.json"
    )


def cmd_plot(cfg: RunConfig, args: argparse.Namespace) -> None:
    bands = []
    for path in args.band_files:
        data = read_band_csv(path)
        # a file name is bytes on POSIX, undecodable under an ASCII locale; the SVG is UTF-8
        name = os.fsencode(Path(path).stem).decode("utf-8", "replace")
        bands.append((name, data["sen_lo"], data["sen_up"], data["spe_lo"], data["spe_up"]))
    out = Path(cfg.out)
    if out.is_dir() or cfg.out.endswith(("/", os.sep)):
        out = out / "bands.svg"
    out.parent.mkdir(parents=True, exist_ok=True)
    band_svg(bands, out, title="ROC bands", comment=" ".join(_comments(cfg)))
    print(f"plot: {len(bands)} band(s) -> {out}")


_FLAG_FIELDS = {f.name: f for f in fields(RunConfig) if "commands" in f.metadata}
_TYPES = {"int": int, "float": float}
# config values that name files get the bytes argv would give them: a UTF-8
# path in a config file opens the same file under an ASCII filesystem encoding
_PATH_KEYS = ("dataset", "name", "scores", "out", "simmat", "split")


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    # a text file's lines end at "\n", "\r\n" or "\r" alone, as in every other reader
    with open(path, encoding="utf-8-sig") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FLAG_FIELDS:
                raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
            value = value.strip()
            values[key] = os.fsdecode(value.encode()) if key in _PATH_KEYS else value
    return values


def build_parser(defaults: dict[str, str] | None = None,
                 commands: tuple[str, ...] = COMMANDS) -> argparse.ArgumentParser:
    """One subparser per command; those in `commands` get their flags, read
    off the RunConfig fields, and the others only their name and help line.
    `defaults` (config-file values) replace the fields' defaults."""
    defaults = defaults or {}
    for name, value in defaults.items():
        if _FLAG_FIELDS[name].type == "bool" and value not in (False, True, "false", "true"):
            raise ValueError(f"config key {name}: {value!r} is not true or false")
    parser = argparse.ArgumentParser(
        prog="cproc",
        description="Conformal prediction confidence bands for ROC curves.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "topo": (cmd_topo, "persistence diagrams and images for a dataset"),
        "simmat": (cmd_simmat, "pairwise Wasserstein similarity matrix"),
        "bands": (cmd_bands, "CP-ROC bands from classifier scores"),
        "simulate": (cmd_simulate, "synthetic coverage experiment"),
        "plot": (cmd_plot, "render band CSVs as SVG"),
    }
    for command, (handler, help_text) in handlers.items():
        sp = sub.add_parser(command, help=help_text)
        sp.set_defaults(func=handler)
        if command not in commands:
            continue
        if command == "plot":
            sp.add_argument("band_files", nargs="+", help="band CSV files to overlay")
        sp.add_argument("--config", help="key=value config file; flags override file values")
        for name, f in _FLAG_FIELDS.items():
            meta = f.metadata
            if command not in meta["commands"]:
                continue
            flag = "--" + name.replace("_", "-")
            default = defaults.get(name, meta["defaults"].get(command, f.default))
            if f.type == "bool":
                sp.add_argument(flag, action="store_true", default=default in (True, "true"),
                                help=meta["help"])
            else:
                sp.add_argument(flag, dest=name, type=_TYPES.get(f.type), default=default,
                                choices=meta["choices"], help=meta["help"])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        defaults = _read_config_file(known.config) if known.config else {}
        # argparse runs the subcommand named by the first positional token, so
        # only the subcommands named anywhere in argv need their flags
        parser = build_parser(defaults, tuple(arg for arg in argv if arg in COMMANDS))
        args = parser.parse_args(argv)
        args.func(_config_from_args(args), args)
        return 0
    except NumericalError as exc:
        print(f"cproc: numerical error: {exc}", file=sys.stderr)
        return 3
    except (CprocError, ValueError, OSError) as exc:
        print(f"cproc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
