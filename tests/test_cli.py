import json
from dataclasses import replace

import numpy as np
import pytest

from cproc.cli import main
from cproc.graphdata import (
    Graph,
    ScoredDataset,
    parse_tu_dataset,
    write_scores,
    write_split_manifest,
    write_tu_dataset,
)
from cproc.rocbands import read_band_csv
from cproc.similarity import load_matrix, save_matrix
from cproc.synthetic import SyntheticSpec, covariate_distance_matrix, generate, scored_dataset

from conftest import write_tiny_fixture


def star(gid: int, leaves: int, label: int) -> Graph:
    return Graph(
        id=gid,
        num_nodes=leaves + 1,
        edges=tuple((0, i) for i in range(1, leaves + 1)),
        label=label,
    )


def twin_star_dataset(tmp_path, n_pairs=12):
    """Pairs of identical star graphs with identical scores: the nonconformity
    scores vanish at K=1, so every interval is degenerate."""
    graphs, rows, parts = [], [], []
    rng_probs = np.linspace(0.9, 0.25, n_pairs)
    for i in range(n_pairs):
        label = 1 if i % 2 == 0 else 0
        p1 = float(rng_probs[i]) if label == 1 else float(1.0 - rng_probs[i])
        for twin in range(2):
            gid = 2 * i + twin
            graphs.append(star(gid, leaves=i + 2, label=label))
            rows.append((gid, label, 1.0 - p1, p1))
            parts.append("train" if twin == 0 else ("calib" if i % 4 < 2 else "test"))
    data_dir = tmp_path / "STARS"
    write_tu_dataset(graphs, data_dir, "STARS")
    labels = np.array([r[1] for r in rows])
    probs = np.array([[r[2], r[3]] for r in rows])
    scores_path = tmp_path / "scores.csv"
    write_scores(ScoredDataset(labels=labels, probs=probs), scores_path)
    from cproc.graphdata import SplitAssignment

    split_path = tmp_path / "split.csv"
    write_split_manifest(SplitAssignment(tuple(parts), 0, 0.5, 0.5), split_path)
    return data_dir, scores_path, split_path, labels, probs, parts


def test_topo_fixture_and_idempotence(tmp_path, capsys):
    data = write_tiny_fixture(tmp_path / "TINY")
    out = tmp_path / "out"
    rc = main(["topo", "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    diag_lines = [
        l for l in (out / "TINY_degree_diagrams.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    gids = {l.split(",")[0] for l in diag_lines[1:]}
    assert gids == {"0", "1"}
    capsys.readouterr()
    rc = main(["topo", "--dataset", str(data), "--out", str(out)])
    assert rc == 0 and "skipping" in capsys.readouterr().out
    (tmp_path / "force.cfg").write_text("force=true\n")
    rc = main(["topo", "--dataset", str(data), "--out", str(out), "--config", str(tmp_path / "force.cfg")])
    assert rc == 0 and "skipping" not in capsys.readouterr().out


def test_topo_missing_dataset_exit_2(tmp_path):
    assert main(["topo", "--dataset", str(tmp_path / "NOPE"), "--out", str(tmp_path)]) == 2


def test_simmat_matches_oracle_and_caches(tmp_path, capsys):
    graphs = [star(0, 2, 0), star(1, 3, 1), star(2, 4, 0)]
    data = tmp_path / "S3"
    write_tu_dataset(graphs, data, "S3")
    out = tmp_path / "out"
    assert main(["simmat", "--dataset", str(data), "--out", str(out)]) == 0
    csv_rows = [
        row for row in (out / "S3_degree_p1.csv").read_text().strip().splitlines()
        if not row.startswith("#")
    ]
    vals = np.array([[float(x) for x in row.split(",")] for row in csv_rows])
    # hand-checked degree-filtration distances between star diagrams:
    # star_k dim0 = {(1,inf)} + {(1,k)} * (k-1) + {(k,k)}; dim0 essentials are
    # dropped and zero-persistence points cost 0
    # W(star2, star3): (1,2)->(1,3) costs 1, second (1,3) -> diagonal costs 1
    assert vals[0, 1] == pytest.approx(2.0)
    # W(star3, star4): two direct matches (1 each) + one (1,4) diagonal (1.5)
    assert vals[1, 2] == pytest.approx(3.5)
    # W(star2, star4): (1,2)->(1,4) costs 2, two diagonals cost 1.5 each
    assert vals[0, 2] == pytest.approx(5.0)
    capsys.readouterr()
    assert main(["simmat", "--dataset", str(data), "--out", str(out)]) == 0
    assert "cache hit" in capsys.readouterr().out
    # corrupt the cache: recompute with a warning instead of failing
    blob = (out / "S3_degree_p1.simmat").read_bytes()
    (out / "S3_degree_p1.simmat").write_bytes(blob[:40])
    with pytest.warns(UserWarning, match="recomputing"):
        assert main(["simmat", "--dataset", str(data), "--out", str(out)]) == 0


def test_bands_degenerate_scores_equal_empirical_roc(tmp_path):
    data, scores, split, labels, probs, parts = twin_star_dataset(tmp_path)
    out = tmp_path / "bands"
    rc = main([
        "bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
        "--knn", "1", "--mode", "exch", "--repeats", "1", "--out", str(out),
    ])
    assert rc == 0
    band = read_band_csv(out / "band.csv")
    test_ids = [i for i, p in enumerate(parts) if p == "test"]
    pos = np.array([probs[i, 1] for i in test_ids if labels[i] == 1])
    neg = np.array([probs[i, 1] for i in test_ids if labels[i] == 0])
    for lam, s_lo, s_up, p_lo, p_up in zip(
        band["lambda"], band["sen_lo"], band["sen_up"], band["spe_lo"], band["spe_up"]
    ):
        assert s_lo == s_up == pytest.approx(np.mean(pos > lam))
        assert p_lo == p_up == pytest.approx(np.mean(neg > lam))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["auc_lo"] == pytest.approx(summary["auc"])
    assert summary["auc_up"] == pytest.approx(summary["auc"])
    assert summary["config"]["knn"] == 1 and "version" in summary


def test_bands_missing_scores_exit_2(tmp_path):
    data = write_tiny_fixture(tmp_path / "TINY")
    rc = main(["bands", "--dataset", str(data), "--scores", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bands_byte_identical_reruns(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "o"
    args = [
        "bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
        "--knn", "2", "--mode", "cond", "--thin-stratum", "widen", "--min-stratum", "2",
        "--repeats", "2", "--seed", "7", "--out", str(out),
    ]
    names = ("band.csv", "band_rep0.csv", "band_rep1.csv", "band.svg", "summary.json")
    assert main(args) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert main(args) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name


def _materialize_synthetic(tmp_path, spec):
    ds = generate(spec)
    fhat = np.clip(ds.pi + np.random.default_rng(5).normal(0, 0.02, ds.n), 0.001, 0.999)
    scored = scored_dataset(ds, fhat)
    mat = covariate_distance_matrix(ds)
    save_matrix(mat, tmp_path / "syn.simmat")
    write_scores(scored, tmp_path / "syn_scores.csv")
    write_split_manifest(ds.split, tmp_path / "syn_split.csv")
    return ds


def test_bands_external_simmat_shifted_synthetic(tmp_path):
    spec = SyntheticSpec(
        n_train=400, n_calib=260, n_test=200, dim=3, beta=(2.0, 2.0, 0.5),
        shift=(1.0, 1.0, 0.0), seed=17,
    )
    _materialize_synthetic(tmp_path, spec)
    widths = {}
    for mode in ("exch", "cond"):
        out = tmp_path / mode
        rc = main([
            "bands", "--simmat", str(tmp_path / "syn.simmat"),
            "--scores", str(tmp_path / "syn_scores.csv"),
            "--split", str(tmp_path / "syn_split.csv"),
            "--knn", "50", "--mode", mode, "--thin-stratum", "widen",
            "--repeats", "1", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        widths[mode] = summary["mean_bw_sen"] + summary["mean_bw_spe"]
    assert widths["cond"] < widths["exch"]


def test_bands_bootstrap_overlay_and_plot(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "bb"
    rc = main([
        "bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
        "--knn", "1", "--mode", "exch", "--repeats", "1", "--bootstrap", "40",
        "--out", str(out),
    ])
    assert rc == 0 and (out / "bootstrap_band.csv").exists()
    rc = main(["plot", str(out / "band.csv"), str(out / "bootstrap_band.csv"),
               "--out", str(out / "overlay.svg")])
    assert rc == 0
    svg = (out / "overlay.svg").read_text()
    assert svg.count("fill-opacity=\"0.25\"") == 2  # two shaded bands
    assert "band" in svg and "bootstrap_band" in svg  # legend entries
    assert "False positive rate" in svg


def test_plot_empty_file_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plot", str(empty), "--out", str(tmp_path / "x.svg")]) == 2


def test_simulate_single_replicate_audit(tmp_path):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--n-train", "200", "--n-calib", "150", "--n-test", "80",
        "--dim", "3", "--beta", "1.0,-0.8,0.6", "--knn", "20", "--repeats", "1",
        "--alpha", "0.1", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    rows = [
        l for l in (out / "coverage_replicates.csv").read_text().strip().splitlines()
        if not l.startswith("#")
    ]
    assert len(rows) == 2  # header + one replicate
    payload = json.loads((out / "coverage.json").read_text())
    assert payload["config"]["n_train"] == 200 and payload["reps"] == 1


def test_simulate_invalid_alpha_exit_2(tmp_path):
    rc = main(["simulate", "--alpha", "1.5", "--repeats", "1", "--out", str(tmp_path)])
    assert rc == 2


def test_config_file_defaults_and_flag_override(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        f"# band run\ndataset={data}\nscores={scores}\nsplit={split}\n"
        f"knn=1\nmode=exch\nrepeats=1\nout={tmp_path / 'from_file'}\n"
    )
    assert main(["bands", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "from_file" / "band.csv").exists()
    # flags override the file
    assert main(["bands", "--config", str(cfgfile), "--out", str(tmp_path / "flagged")]) == 0
    assert (tmp_path / "flagged" / "band.csv").exists()
    summary = json.loads((tmp_path / "flagged" / "summary.json").read_text())
    assert summary["config"]["knn"] == 1


def test_config_file_unknown_key_exit_2(tmp_path, capsys):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    base = f"dataset={data}\nscores={scores}\nsplit={split}\nknn=1\nmode=exch\nout={tmp_path / 'o'}\n"
    cfgfile.write_text(base + "alhpa=0.5\n")
    assert main(["bands", "--config", str(cfgfile)]) == 2
    assert "unknown config key 'alhpa'" in capsys.readouterr().err
    # a value outside the flag's choices is refused before any work is done
    cfgfile.write_text(base + "thin_stratum=widest\n")
    assert main(["bands", "--config", str(cfgfile)]) == 2
    assert "'widest' is not one of ['error', 'widen']" in capsys.readouterr().err
    cfgfile.write_text(base + "force=maybe\n")
    assert main(["bands", "--config", str(cfgfile)]) == 2
    assert "config key force: 'maybe' is not true or false" in capsys.readouterr().err
    assert not (tmp_path / "o" / "summary.json").exists()
    # a key of another subcommand is accepted, so one file can serve several
    cfgfile.write_text(base + "n_train=300\npi-resolution=10\nalpha=0.5\n")
    assert main(["bands", "--config", str(cfgfile)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["alpha"] == 0.5 and summary["config"]["n_train"] == 2000


def test_bands_more_than_two_labels_exit_2(tmp_path, capsys):
    spec = SyntheticSpec(n_train=60, n_calib=40, n_test=30, dim=2, beta=(1.0, -1.0), seed=2)
    ds = generate(spec)
    save_matrix(covariate_distance_matrix(ds), tmp_path / "syn.simmat")
    labels = np.arange(ds.n) % 3
    probs = np.tile([0.2, 0.3, 0.5], (ds.n, 1))
    write_scores(ScoredDataset(labels=labels, probs=probs), tmp_path / "three.csv")
    rc = main(["bands", "--simmat", str(tmp_path / "syn.simmat"), "--scores", str(tmp_path / "three.csv"),
               "--knn", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "3 labels" in err and "multilabel_bands" in err
    assert not (tmp_path / "o" / "band.csv").exists()


def test_bands_bad_scores_exit_2_before_any_distance(tmp_path, capsys):
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    lines = scores.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line and line[0].isdigit())
    lines[first] = lines[first].rsplit(",", 1)[0] + ",x"
    scores.write_text("\n".join(lines) + "\n")
    out = tmp_path / "det"
    rc = main(["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
               "--knn", "3", "--mode", "cond", "--thin-stratum", "widen", "--min-stratum", "2",
               "--repeats", "3", "--seed", "42", "--out", str(out)])
    assert rc == 2
    assert "row 2: could not convert string to float: 'x'" in capsys.readouterr().err
    assert not list(out.glob("*.simmat"))


def test_bands_edited_edge_is_a_cache_key_mismatch(tmp_path, capsys):
    """An edit that keeps the dataset's name and cap still changes the key."""
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    out = tmp_path / "out"
    args = ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
            "--knn", "3", "--mode", "exch", "--out", str(out)]
    assert main(args) == 0
    cache = out / "STARS_degree_p1.simmat"
    before = load_matrix(cache)
    graphs = parse_tu_dataset(data, "STARS")
    # graph 2 is a star with three leaves; re-hang leaf 3 from leaf 2
    assert graphs[2].edges == ((0, 1), (0, 2), (0, 3))
    graphs[2] = replace(graphs[2], edges=((0, 1), (0, 2), (2, 3)))
    write_tu_dataset(graphs, data, "STARS")
    capsys.readouterr()
    with pytest.warns(UserWarning, match="cache key mismatch"):
        assert main(args) == 0
    assert "cache hit" not in capsys.readouterr().out
    after = load_matrix(cache)
    assert after.cap == before.cap and after.key != before.key
    assert not np.array_equal(after.values, before.values)
    assert main(args) == 0
    assert "cache hit" in capsys.readouterr().out


def test_outputs_embed_version_and_config(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "prov"
    main([
        "bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
        "--knn", "1", "--mode", "exch", "--repeats", "1", "--out", str(out),
    ])
    head = (out / "band.csv").read_text().splitlines()[:2]
    assert head[0].startswith("# cproc-0.") and head[1].startswith("# config:")
    svg = (out / "band.svg").read_text()
    assert "cproc-0." in svg


_FLAGS = {
    "topo": "--dataset --filtration --force --name --out --pi-resolution",
    "simmat": "--dataset --filtration --force --name --out --pairs-parallel --wasserstein-p",
    "bands": "--alpha --bootstrap --calib-split --dataset --filtration --force --knn --level "
             "--min-stratum --mode --name --out --pairs-parallel --pool-split --repeats --scores "
             "--seed --simmat --split --thin-stratum --wasserstein-p",
    "simulate": "--alpha --beta --dim --knn --min-stratum --missing --mode --n-calib --n-test "
                "--n-train --out --repeats --seed --shift --thin-stratum",
    "plot": "--out",
}
_FILTRATIONS = ["degree", "betweenness", "closeness", "communicability", "eigenvector"]
_CHOICES = {
    "topo": {"--filtration": _FILTRATIONS},
    "simmat": {"--filtration": _FILTRATIONS},
    "bands": {"--filtration": _FILTRATIONS, "--mode": ["cond", "exch"], "--thin-stratum": ["error", "widen"]},
    "simulate": {"--mode": ["cond", "exch"], "--thin-stratum": ["error", "widen"]},
    "plot": {},
}
_DEFAULT_CONFIG = (
    '{"alpha": 0.1, "beta": "1.0,-0.8,0.6", "bootstrap": 0, "calib_split": 0.5, "command": "%s", '
    '"dataset": null, "dim": 3, "filtration": "degree", "force": false, "knn": 20, "level": 0.95, '
    '"min_stratum": 5, "missing": "", "mode": "cond", "n_calib": 1000, "n_test": 500, '
    '"n_train": 2000, "name": null, "out": ".", "pairs_parallel": 1, "pi_resolution": 50, '
    '"pool_split": 0.8, "repeats": 1, "scores": null, "seed": 0, "shift": "", "simmat": null, '
    '"split": null, "thin_stratum": "%s", "wasserstein_p": 1.0}'
)


def test_parser_flags_and_default_config_pinned():
    """Every output embeds the config line, so the flag set, choices and
    default config of each subcommand are provenance and must not drift."""
    import argparse

    from cproc.cli import _config_from_args, build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_FLAGS)
    for cmd, sp in sub.choices.items():
        flags = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help", "--config"}
        assert sorted(flags) == _FLAGS[cmd].split(), cmd
        choices = {a.option_strings[0]: list(a.choices) for a in sp._actions if a.choices}
        assert choices == _CHOICES[cmd], cmd
        args = parser.parse_args([cmd] + (["x.csv"] if cmd == "plot" else []))
        thin = "widen" if cmd == "simulate" else "error"
        assert _config_from_args(args).to_json() == _DEFAULT_CONFIG % (cmd, thin), cmd
    # config-file values take each flag's type; a field of another subcommand is not applied
    file_values = {"knn": "3", "alpha": "0.25", "wasserstein_p": "2", "mode": "exch", "n_train": "7"}
    cfg = json.loads(_config_from_args(build_parser(file_values).parse_args(["bands"])).to_json())
    assert [cfg[k] for k in file_values] == [3, 0.25, 2.0, "exch", 2000]
    assert isinstance(cfg["wasserstein_p"], float)
