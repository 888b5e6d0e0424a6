import json
import os
import shlex
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock
from xml.dom import minidom

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cproc
import reference
from cproc import svgplot
from cproc.cli import VERSION, _code_digest, _graphs_digest, _read_config_file, main
from cproc.errors import StratumError
from cproc.graphdata import (
    Graph,
    ScoredDataset,
    SplitAssignment,
    load_scores,
    parse_tu_dataset,
    resplit,
    write_split_manifest,
    write_tu_dataset,
)
from cproc.rocbands import _frac_above, cp_roc_bands, read_band_csv, write_band_csv
from cproc.similarity import SimilarityMatrix, build_similarity_matrix, load_matrix, save_matrix
from cproc.svgplot import band_svg
from cproc.synthetic import SyntheticSpec, covariate_distance_matrix, generate, scored_dataset
from cproc.topology import EdgeTable, FiltrationKind, compute_filtration, max_finite_value, sublevel_persistence

from conftest import write_scores, write_simmat_v2, write_tiny_fixture


def run_cli(argv, env=(), entry=("-m", "cproc.cli"), **kwargs) -> subprocess.CompletedProcess:
    """`python *entry *argv` (by default `python -m cproc.cli *argv`) in a
    child process that imports this cproc, with `env` added to the
    environment."""
    src = str(Path(cproc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry, *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path, **dict(env)}, **kwargs)


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
    write_split_manifest(SplitAssignment(tuple(parts)), split_path)
    return data_dir, scores_path, split_path, labels, probs, parts


def test_topo_fixture_and_idempotence(tmp_path):
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
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["topo", "--dataset", str(data), "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_topo_reruns_when_its_configuration_changes(tmp_path):
    data = write_tiny_fixture(tmp_path / "TINY")
    out = tmp_path / "out"
    topo = ["topo", "--dataset", str(data), "--out", str(out), "--pi-resolution"]

    def values_per_row():
        rows = (out / "TINY_degree_images.csv").read_text().splitlines()
        return {len(row.split(",")) - 1 for row in rows if not row.startswith("#")}

    assert main(topo + ["5"]) == 0 and values_per_row() == {25}
    assert main(topo + ["50"]) == 0 and values_per_row() == {2500}


def test_topo_reruns_after_the_dataset_changes(tmp_path):
    data = write_tiny_fixture(tmp_path / "TINY")
    out = tmp_path / "out"
    topo = ["topo", "--dataset", str(data), "--out", str(out)]
    diagrams = out / "TINY_degree_diagrams.csv"
    assert main(topo) == 0
    before = diagrams.read_bytes()
    # drop the triangle's edge 2-3: graph 0 becomes a path and loses its cycle
    edges = data / "TINY_A.txt"
    edges.write_text(edges.read_text().replace("2, 3\n3, 2\n", ""))
    assert main(topo) == 0
    assert diagrams.read_bytes() != before


@pytest.mark.parametrize("argv, message, in_subprocess", [
    pytest.param(["topo"], "needs --dataset", False, id="topo"),
    pytest.param(["topo"], "needs --dataset", True, id="topo-subprocess"),
    pytest.param(["topo", "--dataset", "{missing}"], "missing mandatory", False, id="topo-missing-dataset"),
    pytest.param(["topo", "--dataset", "{data}", "--pi-resolution", "0"], "--pi-resolution must be >= 1, got 0",
                 False, id="topo-pi-resolution-0"),
    pytest.param(["simmat"], "needs --dataset", False, id="simmat"),
    pytest.param(["bands", "--dataset", "{data}"], "needs --scores FILE", False, id="bands-no-scores"),
    pytest.param(["bands", "--scores", "{scores}"], "needs --dataset", False, id="bands-no-graphs"),
    pytest.param(["bands", "--dataset", "{data}", "--scores", "{missing}"], "No such file", False,
                 id="bands-missing-scores"),
])
def test_usage_and_input_errors_exit_2_before_out_exists(tmp_path, capsys, argv, message, in_subprocess):
    data, scores, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "X"
    paths = {"data": data, "scores": scores, "missing": tmp_path / "none"}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
    if in_subprocess:
        # the module's __main__ line turns main's return value into the process exit status
        proc = run_cli(argv, text=True)
        rc, err = proc.returncode, proc.stderr
    else:
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 2
    assert err.startswith("cproc: error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("kind, edges", [("degree", ()), ("betweenness", ((0, 1),))])
def test_topo_all_zero_filtration_writes_zero_images(tmp_path, kind, edges):
    # every finite filtration value is 0, so the cap is 0 and the default sigma too
    graphs = [Graph(id=gid, num_nodes=2, edges=edges, label=gid) for gid in (0, 1)]
    write_tu_dataset(graphs, tmp_path / "Z", "Z")
    out = tmp_path / "out"
    assert main(["topo", "--dataset", str(tmp_path / "Z"), "--filtration", kind, "--pi-resolution", "4",
                 "--out", str(out)]) == 0
    rows = [row for row in (out / f"Z_{kind}_images.csv").read_text().splitlines() if not row.startswith("#")]
    assert rows == [",".join([str(gid)] + ["0.0"] * 16) for gid in (0, 1)]


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


def test_bands_bad_split_manifest_exit_2(tmp_path, capsys):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    lines = split.read_text().splitlines()
    lines[1] = "x," + lines[1].split(",")[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(bad),
               "--knn", "1", "--mode", "exch", "--out", str(tmp_path / "o")])
    assert rc == 2 and "graph_id is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--bootstrap", "40", "--level", "1.5"], "--level must lie in (0, 1), got 1.5"),
    (["--bootstrap", "-5"], "--bootstrap must be >= 0, got -5"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--pairs-parallel", "-3"], "--pairs-parallel must be >= 1, got -3"),
    (["--pairs-parallel", "0"], "--pairs-parallel must be >= 1, got 0"),
    (["--wasserstein-p", "nan"], "--wasserstein-p must be finite, got nan"),
    (["--wasserstein-p", "inf"], "--wasserstein-p must be finite, got inf"),
    (["--alpha", "nan"], "--alpha must be finite, got nan"),
    (["--knn", "0"], "--knn must be >= 1, got 0"),
    (["--repeats", "0"], "--repeats must be >= 1, got 0"),
    (["--min-stratum", "0"], "--min-stratum must be >= 1, got 0"),
    (["--alpha", "0"], "--alpha must lie in (0, 1), got 0.0"),
    (["--alpha", "1"], "--alpha must lie in (0, 1), got 1.0"),
    (["--pool-split", "1"], "--pool-split must lie in (0, 1), got 1.0"),
    (["--calib-split", "0"], "--calib-split must lie in (0, 1), got 0.0"),
    (["--level", "0"], "--level must lie in (0, 1), got 0.0"),
    (["--wasserstein-p", "0.5"], "--wasserstein-p must be >= 1, got 0.5"),
])
def test_bands_bad_flag_exit_2_before_any_file(tmp_path, capsys, flags, message):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "o"
    rc = main(["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
               "--knn", "1", "--mode", "exch", *flags, "--out", str(out)])
    assert rc == 2 and message in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_bands_resplit_with_empty_calib_exit_2_before_any_distance(tmp_path, capsys):
    # 12 pooled graphs at calib_split 0.05 deal floor(0.6) = 0 to calib
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "o"
    rc = main(["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
               "--knn", "1", "--mode", "exch", "--repeats", "2", "--calib-split", "0.05",
               "--out", str(out)])
    assert rc == 2 and "split leaves calib empty" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_bands_node_label_edit_is_a_cache_hit(tmp_path, capsys):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    nodes = len((data / "STARS_graph_indicator.txt").read_text().split())
    args = ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
            "--knn", "1", "--mode", "exch", "--out", str(tmp_path / "o")]
    (data / "STARS_node_labels.txt").write_text("1\n" * nodes)
    assert main(args) == 0
    (data / "STARS_node_labels.txt").write_text("2\n" * nodes)
    capsys.readouterr()
    assert main(args) == 0
    assert "simmat cache hit" in capsys.readouterr().out


def test_a_serial_cold_run_imports_no_process_pool(tmp_path):
    """`import cproc.cli` and a cold degree `cproc bands --pairs-parallel 1`
    leave `multiprocessing` and `concurrent.futures.process` unimported:
    only a pool of workers needs them, and they cost a process about 9 ms."""
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    argv = ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split), "--knn", "2",
            "--thin-stratum", "widen", "--min-stratum", "2", "--pairs-parallel", "1", "--out", str(tmp_path / "o")]
    code = ("import sys, cproc.cli; rc = cproc.cli.main(sys.argv[1:]); "
            "print(rc, sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = run_cli(argv, entry=("-c", code), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert "simmat cache hit" not in proc.stdout and (tmp_path / "o" / "band.csv").exists()


def test_every_command_runs_without_networkx(tmp_path):
    """networkx is only the tests' filtration oracle: in a process that
    cannot import it, and that turns numpy's and scipy's deprecations into
    errors, `cproc topo` under every filtration, a cold `cproc simmat` and a
    cold `cproc bands` exit 0."""
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    runs = [["topo", "--dataset", str(data), "--filtration", kind.value, "--out", str(tmp_path / "topo")]
            for kind in FiltrationKind]
    runs += [["simmat", "--dataset", str(data), "--out", str(tmp_path / "simmat")],
             ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split), "--knn", "2",
              "--thin-stratum", "widen", "--min-stratum", "2", "--out", str(tmp_path / "bands")]]
    code = ("import json, sys; sys.modules['networkx'] = None; import cproc.cli; "
            "print([cproc.cli.main(argv) for argv in json.loads(sys.argv[1])])")
    flags = ("-W", "error::DeprecationWarning", "-W", "error::FutureWarning")
    proc = run_cli([json.dumps(runs)], entry=(*flags, "-c", code), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * len(runs)), proc.stderr
    assert (tmp_path / "bands" / "band.csv").exists() and "cache hit" not in proc.stdout


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


def test_bands_bootstrap_draws_from_a_spawned_child_stream(tmp_path):
    data, scores, split, labels, probs, parts = twin_star_dataset(tmp_path)
    out = tmp_path / "b1"
    rc = main(["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
               "--knn", "1", "--mode", "exch", "--repeats", "1", "--bootstrap", "1", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    test = np.array(parts) == "test"
    pos, neg = probs[test & (labels == 1), 1], probs[test & (labels == 0), 1]
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
    pos_b = pos[rng.integers(0, pos.size, (1, pos.size))[0]]
    neg_b = neg[rng.integers(0, neg.size, (1, neg.size))[0]]
    boot = read_band_csv(out / "bootstrap_band.csv")
    for lo, up, resample in (("sen_lo", "sen_up", pos_b), ("spe_lo", "spe_up", neg_b)):
        want = _frac_above(resample, boot["lambda"])
        assert np.array_equal(boot[lo], want) and np.array_equal(boot[up], want)


def test_plot_empty_file_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plot", str(empty), "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize("row", ["0.5,nan,1,1,1", "0.5,1,1"])
def test_plot_bad_band_row_exit_2(tmp_path, capsys, row):
    band = tmp_path / "band.csv"
    band.write_text("# config\nlambda,sen_lo,sen_up,spe_lo,spe_up\n0.0,1,1,1,1\n" + row + "\n")
    assert main(["plot", str(band), "--out", str(tmp_path / "x.svg")]) == 2
    assert f"{band}:4:" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()
    # nothing is created before every band file is read and checked
    assert main(["plot", str(band), "--out", str(tmp_path / "newdir") + os.sep]) == 2
    assert not (tmp_path / "newdir").exists()


def test_plot_escapes_band_names_and_the_title(tmp_path):
    band = tmp_path / "a&b<c>.csv"
    grid = np.linspace(0.0, 1.0, 3)
    write_band_csv(band, grid, grid, grid, grid, grid)
    assert main(["plot", str(band), "--out", str(tmp_path / "p.svg")]) == 0
    legend = [node.firstChild.data for node in minidom.parse(str(tmp_path / "p.svg")).getElementsByTagName("text")]
    assert "a&b<c>" in legend
    band_svg([], tmp_path / "t.svg", title="x < y & z")
    titles = [node.firstChild.data for node in minidom.parse(str(tmp_path / "t.svg")).getElementsByTagName("text")]
    assert "x < y & z" in titles


@pytest.mark.parametrize("comment", ["a--b", "a---b", "----", "ends in -"])
def test_svg_comments_parse_whatever_their_dashes(tmp_path, comment):
    """An XML comment may hold no "--", so `band_svg` writes a space after
    every dash that a dash follows; the comment keeps its other characters."""
    band_svg([], tmp_path / "c.svg", comment=comment)
    nodes = minidom.parse(str(tmp_path / "c.svg")).documentElement.childNodes
    (node,) = [node for node in nodes if node.nodeType == node.COMMENT_NODE]
    assert node.data.replace(" ", "") == comment.replace(" ", "")


def test_plot_out_with_dashes_writes_a_well_formed_svg(tmp_path, monkeypatch):
    # the config comment of the SVG names --out, three dashes in a row included
    band = tmp_path / "b.csv"
    band.write_text("# config\nlambda,sen_lo,sen_up,spe_lo,spe_up\n0.0,1,1,1,1\n1.0,0,0,0,0\n")
    monkeypatch.chdir(tmp_path)
    assert main(["plot", "b.csv", "--out", "o---x/"]) == 0
    assert minidom.parse("o---x/bands.svg").documentElement.tagName == "svg"


def test_plot_writes_utf8_under_an_ascii_locale(tmp_path):
    # the file name's bytes are UTF-8 whatever the locale of this process
    name = "bänd.csv".encode()
    grid = np.linspace(0.0, 1.0, 3)
    write_band_csv(tmp_path / os.fsdecode(name), grid, grid, grid, grid, grid)
    proc = run_cli(["plot", name, "--out", "o2/p.svg"], cwd=tmp_path,
                   env={"PYTHONUTF8": "0", "LC_ALL": "C"})
    assert proc.returncode == 0, proc.stderr
    texts = minidom.parse(str(tmp_path / "o2" / "p.svg")).getElementsByTagName("text")
    assert "bänd" in [node.firstChild.data for node in texts]


_SVG_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, -0.25, 1.75, 5e-324, -1e-9]) | st.floats(-3.0, 3.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(_SVG_VALUES, min_size=n, max_size=n), min_size=4, max_size=4)), max_size=3))
@example([[[-0.0, 0.0, -0.0], [1.5, -0.5, 1.5], [2.0, -0.0, 0.0], [-1.0, 1.0, -0.0]]])
def test_band_svg_bytes_equal_a_per_point_reference(tmp_path_factory, bands):
    root = tmp_path_factory.mktemp("svg")
    named = [(f"b{i}", *map(np.array, band)) for i, band in enumerate(bands)]
    band_svg(named, root / "got.svg", title="t")
    with mock.patch.object(svgplot, "_path", reference.svg_path):
        band_svg(named, root / "want.svg", title="t")
    assert (root / "got.svg").read_bytes() == (root / "want.svg").read_bytes()


@pytest.mark.parametrize("out, svg", [
    ("newdir" + os.sep, "newdir/bands.svg"), ("missing/x.svg", "missing/x.svg"), (".", "bands.svg"),
])
def test_plot_out_names_a_directory_or_the_svg_file(tmp_path, monkeypatch, out, svg):
    band = tmp_path / "band.csv"
    band.write_text("# config\nlambda,sen_lo,sen_up,spe_lo,spe_up\n0.0,1,1,1,1\n1.0,0,0,0,0\n")
    monkeypatch.chdir(tmp_path)
    assert main(["plot", str(band), "--out", out]) == 0
    assert (tmp_path / svg).read_text().startswith("<?xml")
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["band.csv", *Path(svg).parts])


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


@pytest.mark.parametrize("flag", ["--dim", "--n-train", "--n-calib", "--n-test"])
def test_simulate_size_below_one_exit_2_before_any_file(tmp_path, capsys, flag):
    out = tmp_path / "sim"
    rc = main(["simulate", flag, "0", "--beta", "", "--repeats", "1", "--out", str(out)])
    assert rc == 2 and f"{flag} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("flag, value", [
    ("--beta", "inf,0,0"), ("--beta", "nan,1,1"), ("--shift", "nan,0,0"), ("--shift", "inf,0,0"),
    ("--beta", "1,x"), ("--shift", "0,,y"), ("--missing", "a"), ("--missing", "1.5"),
])
def test_simulate_non_finite_list_exit_2_before_any_file(tmp_path, capsys, flag, value):
    out = tmp_path / "sim"
    rc = main(["simulate", "--dim", "3", flag, value, "--repeats", "1", "--out", str(out)])
    what = "integers" if flag == "--missing" else "finite numbers"
    assert rc == 2 and f"{flag} must hold {what}, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_simulate_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (line,) = [ln for ln in readme.replace("\\\n", " ").splitlines() if ln.startswith("cproc simulate ")]
    small = ["--n-train", "150", "--n-calib", "80", "--n-test", "60", "--knn", "10", "--repeats", "1",
             "--out", str(tmp_path / "sim")]
    assert main(shlex.split(line)[1:] + small) == 0


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
    # file values pass the same checks as flags and are reported by their flag
    for line, message in (("pool_split=1.5", "--pool-split must lie in (0, 1), got 1.5"),
                          ("mode=both", "--mode: 'both' is not one of ['cond', 'exch']")):
        cfgfile.write_text(base.replace("mode=exch\n", "") + line + "\n")
        assert main(["bands", "--config", str(cfgfile)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "summary.json").exists()
    # a key of another subcommand is accepted, so one file can serve several
    cfgfile.write_text(base + "n_train=300\npi-resolution=10\nalpha=0.5\n")
    assert main(["bands", "--config", str(cfgfile)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["alpha"] == 0.5 and summary["config"]["n_train"] == 2000


def test_config_file_may_start_with_a_bom(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    text = f"knn=3\ndataset={data}\nscores={scores}\nsplit={split}\nmode=exch\nrepeats=1\nout={tmp_path / 'o'}\n"
    cfgfile.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(["bands", "--config", str(cfgfile)]) == 0
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["config"]["knn"] == 3


def test_config_file_lines_end_only_at_newlines(tmp_path):
    # "\r\n" and "\r" end a line; U+2028, U+0085, a form feed and "\x1c" stay in their value
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_bytes("knn=7\r\nout=a\u2028b\rdataset=d\x0ce\u0085f\x1cg\nscores=s\n".encode())
    assert _read_config_file(str(cfgfile)) == {"knn": "7", "out": "a\u2028b", "dataset": "d\x0ce\u0085f\x1cg",
                                               "scores": "s"}
    cfgfile.write_bytes("knn=7\nout=a\u2028b\nsplit\n".encode())
    with pytest.raises(ValueError, match=r"c\.cfg:3: expected key=value, got 'split'"):
        _read_config_file(str(cfgfile))


def test_config_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    twin_star_dataset(tmp_path)
    (tmp_path / "run.cfg").write_bytes("# bande à K=1, répétée une fois\ndataset=STARS\nscores=scores.csv\n"
                                       "split=split.csv\nknn=1\nmode=exch\nrepeats=1\nout=o\n".encode())
    proc = run_cli(["bands", "--config", "run.cfg"], cwd=tmp_path, env={"PYTHONUTF8": "0", "LC_ALL": "C"})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "band.csv").exists()


def test_config_file_paths_open_under_an_ascii_filesystem_encoding(tmp_path):
    """A non-ASCII path in a config file names the file that the same path
    given as a flag names, byte for byte, under an ASCII filesystem encoding."""
    twin_star_dataset(tmp_path)
    common = "dataset=STARS\nscores=scores.csv\nsplit=split.csv\nknn=1\nmode=exch\nrepeats=1\n"
    (tmp_path / "run.cfg").write_bytes((common + "out=rés\n").encode())
    (tmp_path / "flag.cfg").write_bytes(common.encode())
    ascii_env = {"PYTHONUTF8": "0", "LC_ALL": "C"}
    by_config = run_cli(["bands", "--config", "run.cfg"], cwd=tmp_path, env=ascii_env)
    assert by_config.returncode == 0, by_config.stderr
    made = (tmp_path / "rés").rename(tmp_path / "by-config")
    by_flag = run_cli(["bands", "--config", "flag.cfg", "--out", "rés".encode()], cwd=tmp_path, env=ascii_env)
    assert by_flag.returncode == 0, by_flag.stderr
    assert "rés".encode() in os.listdir(bytes(tmp_path))
    for name in ("band.csv", "summary.json"):
        assert (made / name).read_bytes() == (tmp_path / "rés" / name).read_bytes()


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
    assert "3 labels" in err and "One-vs-rest bands" in err
    assert not (tmp_path / "o" / "band.csv").exists()


def test_bands_simmat_of_another_size_exit_2_before_out(tmp_path, capsys):
    ds = generate(SyntheticSpec(n_train=60, n_calib=40, n_test=30, dim=2, beta=(1.0, -1.0), seed=2))
    write_scores(scored_dataset(ds, ds.pi), tmp_path / "s.csv")
    save_matrix(SimilarityMatrix(values=np.zeros((137, 137))), tmp_path / "wrong.simmat")
    rc = main(["bands", "--scores", str(tmp_path / "s.csv"), "--simmat", str(tmp_path / "wrong.simmat"),
               "--out", str(tmp_path / "X")])
    assert rc == 2
    assert "scores cover 130 graphs but matrix is 137x137" in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


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
    assert f"{scores}:2: could not convert string to float: 'x'" in capsys.readouterr().err
    assert not list(out.glob("*.simmat"))


@pytest.mark.parametrize("offset", [12, 20])
def test_bands_rebuild_a_cache_whose_header_sizes_exceed_the_file(tmp_path, offset):
    # offset 12 holds the matrix size n, offset 20 the metadata length
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "out"
    bands = ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
             "--knn", "1", "--mode", "exch", "--out", str(out)]
    assert main(bands) == 0
    cache = out / "STARS_degree_p1.simmat"
    good = cache.read_bytes()
    blob = bytearray(good)
    blob[offset : offset + 8] = struct.pack("<Q", 2**40)
    cache.write_bytes(bytes(blob))
    with pytest.warns(UserWarning, match="similarity cache unusable"):
        assert main(bands) == 0
    assert cache.read_bytes() == good


def test_bands_rebuild_a_version_2_cache_once(tmp_path, capsys):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "out"
    bands = ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
             "--knn", "1", "--mode", "exch", "--out", str(out)]
    assert main(bands) == 0
    cache = out / "STARS_degree_p1.simmat"
    good = cache.read_bytes()
    matrix = load_matrix(cache)
    # the same matrix and key in the two-digest layout
    write_simmat_v2(cache, matrix.values, cap=matrix.cap, key=matrix.key)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="unsupported format version 2.*recomputing"):
        assert main(bands) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert cache.read_bytes() == good
    assert main(bands) == 0
    assert "simmat cache hit" in capsys.readouterr().out


@pytest.mark.parametrize("knn, min_stratum", [("3", "3"), ("9", "2")])
def test_bands_failing_repeat_with_simmat_leaves_no_out(tmp_path, capsys, knn, min_stratum):
    # at --knn 3 the first repeat fails; at --knn 9 the first passes and the second fails
    ds = generate(SyntheticSpec(n_train=60, n_calib=40, n_test=30, dim=2, beta=(1.0, -1.0), seed=2))
    write_scores(scored_dataset(ds, ds.pi), tmp_path / "s.csv")
    save_matrix(covariate_distance_matrix(ds), tmp_path / "m.simmat")
    rc = main(["bands", "--scores", str(tmp_path / "s.csv"), "--simmat", str(tmp_path / "m.simmat"),
               "--knn", knn, "--min-stratum", min_stratum, "--repeats", "10", "--out", str(tmp_path / "X")])
    assert rc == 2
    assert "nearest calibration neighbors (need" in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


def test_bands_failing_run_reports_the_earliest_repeat_error(tmp_path, capsys):
    """Repeat 0 has a thin positive stratum and a later repeat's test part
    has no positive: the run exits 2 with repeat 0's message, which a loop
    of one-split `cp_roc_bands` calls also raises first, and writes no --out."""
    n_train, n = 20, 30
    labels = np.zeros(n, dtype=np.int64)
    labels[[3, 8, 20, 21]] = 1  # the pool (ids 20-29) holds two positives
    p1 = np.linspace(0.1, 0.9, n)
    write_scores(ScoredDataset(labels=labels, probs=np.column_stack([1.0 - p1, p1])), tmp_path / "s.csv")
    raw = np.random.default_rng(5).random((n, n))
    values = raw + raw.T
    np.fill_diagonal(values, 0.0)
    save_matrix(SimilarityMatrix(values=values), tmp_path / "m.simmat")
    base = SplitAssignment(tuple(["train"] * n_train + ["calib"] * 5 + ["test"] * 5))
    write_split_manifest(base, tmp_path / "split.csv")
    scored = load_scores(tmp_path / "s.csv")

    def degenerate(split):
        return len(set(labels[split.ids("test")].tolist())) < 2

    seed = next(s for s in range(200) if not degenerate(resplit(base, 0.5, s))
                and any(degenerate(resplit(base, 0.5, s + i)) for i in range(1, 4)))
    with pytest.raises(StratumError) as first:
        for i in range(4):
            cp_roc_bands(scored.with_split(resplit(base, 0.5, seed + i)), SimilarityMatrix(values=values),
                         K=4, alpha=0.1, mode="conditional", min_stratum=3)
    assert "nearest calibration neighbors (need 3)" in str(first.value)
    rc = main(["bands", "--scores", str(tmp_path / "s.csv"), "--simmat", str(tmp_path / "m.simmat"),
               "--split", str(tmp_path / "split.csv"), "--repeats", "4", "--seed", str(seed),
               "--calib-split", "0.5", "--knn", "4", "--min-stratum", "3", "--out", str(tmp_path / "X")])
    assert rc == 2
    assert capsys.readouterr().err == f"cproc: error: {first.value}\n"
    assert not (tmp_path / "X").exists()


def test_bands_failing_repeat_keeps_only_the_cache(tmp_path):
    # the first two repeats pass and a later one fails; the cache was written when it was built
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    out = tmp_path / "out"
    rc = main(["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
               "--knn", "7", "--min-stratum", "3", "--repeats", "5", "--mode", "cond", "--out", str(out)])
    assert rc == 2
    assert [path.name for path in out.iterdir()] == ["STARS_degree_p1.simmat"]


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


def test_cache_hits_run_no_filtration(tmp_path, capsys, monkeypatch):
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    out = tmp_path / "out"
    simmat = ["simmat", "--dataset", str(data), "--out", str(out)]
    bands = ["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
             "--knn", "3", "--mode", "exch", "--bootstrap", "20", "--out", str(out)]
    assert main(simmat) == 0

    def refuse(g, kind):
        raise RuntimeError("a filtration ran on a cache hit")

    monkeypatch.setattr("cproc.cli.compute_filtration", refuse)
    monkeypatch.setattr("cproc.cli.dataset_diagrams", refuse)
    monkeypatch.setattr("cproc.topology._filtration", refuse)  # the dataset pass of a miss
    capsys.readouterr()
    for argv in (bands, simmat):
        assert main(argv) == 0
        assert "simmat cache hit" in capsys.readouterr().out


def test_cold_runs_build_no_graph_and_no_diagram(tmp_path, capsys, monkeypatch):
    """A cold `cproc bands` or `cproc simmat` keeps the dataset in tables from
    the parse to the distances, and its distances are those of the parsed
    graphs' diagrams."""
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    out = tmp_path / "out"

    def refuse(*args, **kwargs):
        raise AssertionError("a cold run built a Graph or a PersistenceDiagram")

    for target in ("cproc.graphdata.Graph", "cproc.topology.PersistenceDiagram", "cproc.similarity.PersistenceDiagram"):
        monkeypatch.setattr(target, refuse)
    for argv in (["bands", "--dataset", str(data), "--scores", str(scores), "--split", str(split),
                  "--knn", "3", "--mode", "exch", "--out", str(out)],
                 ["simmat", "--dataset", str(data), "--force", "--out", str(out)]):
        assert main(argv) == 0, capsys.readouterr().err
        assert "cache hit" not in capsys.readouterr().out
    monkeypatch.undo()
    graphs = parse_tu_dataset(data, "STARS")
    diagrams = [sublevel_persistence(g, compute_filtration(g, FiltrationKind.DEGREE)) for g in graphs]
    matrix = load_matrix(out / "STARS_degree_p1.simmat")
    assert matrix.values.tobytes() == build_similarity_matrix(diagrams).values.tobytes()
    assert (out / "band.csv").exists()


@pytest.mark.parametrize("command", ["topo", "simmat", "bands"])
def test_a_cold_run_makes_one_dataset_pass_and_builds_no_graph(tmp_path, capsys, monkeypatch, command):
    """A cold `cproc topo`, `simmat` or `bands` reads the dataset as tables,
    and its diagrams come from one `dataset_diagrams` call."""
    data, scores, split, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    dataset = ["--dataset", str(data), "--out", str(tmp_path / "out")]
    argv = {"topo": ["topo", *dataset], "simmat": ["simmat", *dataset],
            "bands": ["bands", *dataset, "--scores", str(scores), "--split", str(split), "--knn", "3",
                      "--mode", "exch"]}[command]

    def refuse(*args, **kwargs):
        raise AssertionError("a cold run built a Graph")

    monkeypatch.setattr("cproc.graphdata.Graph", refuse)
    dataset_pass = mock.Mock(wraps=cproc.topology.dataset_diagrams)
    monkeypatch.setattr("cproc.cli.dataset_diagrams", dataset_pass)
    assert main(argv) == 0, capsys.readouterr().err
    assert dataset_pass.call_count == 1


def test_cache_key_names_version_not_cap_and_old_keys_rebuild_once(tmp_path, capsys):
    data, *_ = twin_star_dataset(tmp_path, n_pairs=16)
    out = tmp_path / "out"
    simmat = ["simmat", "--dataset", str(data), "--out", str(out)]
    assert main(simmat) == 0
    cache = out / "STARS_degree_p1.simmat"
    matrix = load_matrix(cache)
    graphs = parse_tu_dataset(data, "STARS")
    diagrams = [sublevel_persistence(g, compute_filtration(g, FiltrationKind.DEGREE)) for g in graphs]
    assert VERSION in matrix.key.split("|") and "cap=" not in matrix.key
    assert matrix.cap == max_finite_value(diagrams)
    # a cache written under the earlier key, which named the cap and no version
    old_key = f"STARS|degree|p=1.0|cap={matrix.cap!r}|dims=(0, 1)|graphs={_graphs_digest(EdgeTable.of(graphs))}"
    save_matrix(SimilarityMatrix(values=matrix.values, cap=matrix.cap, key=old_key), cache)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="cache key mismatch"):
        assert main(simmat) == 0
    assert "cache hit" not in capsys.readouterr().out
    rebuilt = load_matrix(cache)
    assert rebuilt.key == matrix.key and rebuilt.cap == matrix.cap
    assert np.array_equal(rebuilt.values, matrix.values)
    assert main(simmat) == 0
    assert "simmat cache hit" in capsys.readouterr().out


def graphs_key(root, a_text: str, indicator_text: str, labels_text: str = "0\n1\n") -> str:
    """The `graphs=` part of the key that `cproc simmat` writes for a TU set
    with these files, all named SET; the set goes to `root`/SET."""
    data = root / "SET"
    data.mkdir(parents=True)
    for suffix, text in (("A", a_text), ("graph_indicator", indicator_text), ("graph_labels", labels_text)):
        (data / f"SET_{suffix}.txt").write_text(text)
    assert main(["simmat", "--dataset", str(data), "--out", str(root / "out")]) == 0
    return next(part for part in load_matrix(root / "out" / "SET_degree_p1.simmat").key.split("|")
                if part.startswith("graphs="))


def test_cache_key_changes_when_an_edge_or_a_graph_boundary_moves(tmp_path):
    # every total stays the same: 2 graphs, 6 nodes, 3 edges
    edges, indicator = "1, 2\n4, 5\n5, 6\n", "1\n1\n1\n2\n2\n2\n"
    base = graphs_key(tmp_path / "base", edges, indicator)
    # the edge 5-6 of graph 1 becomes the edge 2-3 of graph 0
    moved_edge = graphs_key(tmp_path / "edge", "1, 2\n2, 3\n4, 5\n", indicator)
    # node 3 moves to graph 1: only the node counts change, not the global edge ids
    moved_boundary = graphs_key(tmp_path / "boundary", edges, "1\n1\n2\n2\n2\n2\n")
    assert len({base, moved_edge, moved_boundary}) == 3


def test_cache_key_is_the_same_for_comma_and_tab_separated_files(tmp_path):
    text = "1, 2\n2, 1\n2, 3\n4, 5\n5, 6\n"
    indicator = "1\n1\n1\n2\n2\n2\n"
    tabs = text.replace(", ", "\t")
    assert graphs_key(tmp_path / "comma", text, indicator) == graphs_key(tmp_path / "tab", tabs, indicator)


def test_a_cache_with_the_repr_graphs_digest_is_rebuilt_once(tmp_path, capsys):
    import hashlib

    data, *_ = twin_star_dataset(tmp_path, n_pairs=8)
    out = tmp_path / "out"
    simmat = ["simmat", "--dataset", str(data), "--out", str(out)]
    assert main(simmat) == 0
    cache = out / "STARS_degree_p1.simmat"
    matrix = load_matrix(cache)
    parsed = parse_tu_dataset(data, "STARS")
    # the digest that earlier versions wrote: the repr of (node count, edges), graph by graph
    digest = hashlib.sha256()
    for g in parsed:
        digest.update(repr((g.num_nodes, g.edges)).encode())
    graphs = f"graphs={_graphs_digest(EdgeTable.of(parsed))}"
    assert graphs in matrix.key.split("|")
    old_key = matrix.key.replace(graphs, f"graphs={digest.hexdigest()}")
    save_matrix(SimilarityMatrix(values=matrix.values, cap=matrix.cap, key=old_key), cache)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="similarity cache unusable.*cache key mismatch"):
        assert main(simmat) == 0
    assert "cache hit" not in capsys.readouterr().out
    rebuilt = load_matrix(cache)
    assert rebuilt.key == matrix.key and np.array_equal(rebuilt.values, matrix.values)
    assert main(simmat) == 0
    assert "simmat cache hit" in capsys.readouterr().out


def test_cache_key_names_the_distance_code_digest(tmp_path, capsys):
    # an edit of topology.py or similarity.py without a version bump must not
    # hit a cache built by the old code
    data, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "out"
    simmat = ["simmat", "--dataset", str(data), "--out", str(out)]
    assert main(simmat) == 0
    cache = out / "STARS_degree_p1.simmat"
    matrix = load_matrix(cache)
    code = f"code={_code_digest()}"
    assert code in matrix.key.split("|")
    stale_key = matrix.key.replace(code, "code=" + "0" * 64)
    save_matrix(SimilarityMatrix(values=matrix.values, cap=matrix.cap, key=stale_key), cache)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="cache key mismatch"):
        assert main(simmat) == 0
    assert "cache hit" not in capsys.readouterr().out
    rebuilt = load_matrix(cache)
    assert rebuilt.key == matrix.key and np.array_equal(rebuilt.values, matrix.values)


def test_cache_key_names_numpy_and_scipy(tmp_path, capsys, monkeypatch):
    # their arithmetic and tie-breaking decide the last bits of the distances
    data, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "out"
    simmat = ["simmat", "--dataset", str(data), "--out", str(out)]
    assert main(simmat) == 0
    key = load_matrix(out / "STARS_degree_p1.simmat").key.split("|")
    assert f"numpy={np.__version__}" in key and f"scipy={scipy.__version__}" in key
    monkeypatch.setattr(scipy, "__version__", "0.0.0")
    capsys.readouterr()
    with pytest.warns(UserWarning, match="cache key mismatch"):
        assert main(simmat) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert "scipy=0.0.0" in load_matrix(out / "STARS_degree_p1.simmat").key.split("|")


def test_outputs_embed_version_and_config(tmp_path):
    data, scores, split, *_ = twin_star_dataset(tmp_path)
    out = tmp_path / "prov"
    dataset = ["--dataset", str(data), "--out", str(out)]
    assert main([
        "bands", *dataset, "--scores", str(scores), "--split", str(split),
        "--knn", "1", "--mode", "exch", "--repeats", "1", "--bootstrap", "20",
    ]) == 0
    assert main(["simmat", *dataset]) == 0
    assert main(["topo", *dataset]) == 0
    assert main([
        "simulate", "--n-train", "200", "--n-calib", "100", "--n-test", "60", "--knn", "10",
        "--out", str(out),
    ]) == 0
    for name in (
        "band.csv", "band_rep0.csv", "split_rep0.csv", "bootstrap_band.csv", "STARS_degree_p1.csv",
        "STARS_degree_diagrams.csv", "STARS_degree_images.csv", "coverage_replicates.csv",
    ):
        head = (out / name).read_text().splitlines()[:2]
        assert head[0] == f"# {VERSION}" and head[1].startswith('# config: {"alpha": '), name
    for name, command in (("summary.json", "bands"), ("coverage.json", "simulate")):
        report = json.loads((out / name).read_text())
        assert report["version"] == VERSION and report["config"]["command"] == command, name
    svg = (out / "band.svg").read_text()
    assert "cproc-0." in svg


_FLAGS = {
    "topo": "--dataset --filtration --name --out --pi-resolution",
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


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_subcommand_help_lists_exactly_its_runconfig_flags(command, capsys):
    """`main` gives only the invoked subcommand its flags; its help must
    still list every RunConfig field of that subcommand and no other."""
    import re
    from dataclasses import fields

    from cproc.cli import RunConfig

    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    want = {"--" + f.name.replace("_", "-") for f in fields(RunConfig) if command in f.metadata.get("commands", ())}
    assert listed == want | {"--help", "--config"}
    assert sorted(want) == _FLAGS[command].split()
