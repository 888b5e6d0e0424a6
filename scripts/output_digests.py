"""Print the sha256 of every file that a fixed set of `cproc bands`,
`cproc simmat`, `cproc simulate`, `cproc topo` and `cproc plot` runs and
three one-vs-rest `cp_roc_bands` calls write.

Run it from the repository root with the cproc to be checked on the path:

    PYTHONPATH=src python3 scripts/output_digests.py

Each run works in a fresh temporary directory and passes relative paths, so
the configuration line that every output embeds names no machine path; BLAS
is held to one thread unless the environment sets its thread counts, so a
run with more threads shows whether they change an output. Two runs of the
script print the same lines, and a change that keeps every output
byte-identical prints the same lines as its parent. The inputs are fabricated here (the twin-star fixture of acceptance
criterion 10, the criterion-1 synthetic design) or by `perfbench/gen.py`
(the BZR-shaped set of the tu-cold workload and the MUTAG-shaped set of the
tu-warm workload), and the script uses only cproc names that older versions
also have, so it can be run against them. The one-vs-rest case binarizes a
3-label synthetic set label by label, as the README's recipe does, and
passes each binary set to `cp_roc_bands`.

Six runs reach code that the others leave alone: `cproc bands` with the
fixture's split manifest and `--repeats 1` (the manifest is used as is),
`cproc simmat --wasserstein-p 2` on the fixture (every dimension is matched
pair by pair at p != 1), `cproc topo` on a copy of the fixture whose
adjacency file starts with a whitespace-only line (the TU line reader), a
small `cproc simulate` design with a `--shift` of its test part, and
`cproc simmat --filtration eigenvector` on the BZR-shaped set, whose dim-0
sets of up to 29 points are the largest assignments any run solves (ties
between optimal matchings are likeliest there).

The warm case runs `cproc simmat` and then two `cproc bands` calls with a
1000-resample bootstrap in the same directory; both must hit the similarity
cache, and the outputs are hashed after each call, so the cache-hit path
and the bootstrap are covered. Then come `cproc topo` with the eigenvector
filtration on the MUTAG-shaped set and a `cproc plot` that overlays the
cond and exch twin-star bands, so every subcommand writes files that are
hashed. Last, `cproc simmat` runs with the betweenness, closeness and
communicability filtrations on the MUTAG-shaped set, so every filtration
builds a matrix, closeness runs once more with `--pairs-parallel 2` in
its own directory, and betweenness once more with `--wasserstein-p 1.5`
(its `.csv` export pins the values at a non-integer order). The script
exits non-zero unless the pooled matrix's values equal the serial ones bit
for bit (its files differ, since they record the configuration).

Every `.svg` file it hashes is parsed with `xml.dom.minidom` and every
`.json` file with `json.load`; the script exits non-zero, naming the file,
when one is not well formed.

Every `.simmat` file gets a second line: the sha256 of its values, read back
with `load_matrix`, and its cap. The file's own digest changes with every
edit of `topology.py` or `similarity.py`, since the cache key it records
holds a digest of that code; the values line shows whether the distances
kept their bits through such an edit.

No CLI output holds a Euclidean covariate matrix, so one more line pins the
bytes of the full table that `covariate_distance_matrix` gives on criterion
5's design (n = 150/80/60, dim 3, seed 600).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from xml.dom import minidom  # noqa: E402
from xml.parsers.expat import ExpatError  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from cproc.cli import main  # noqa: E402
from cproc.graphdata import Graph, ScoredDataset, write_tu_dataset  # noqa: E402
from cproc.rocbands import cp_roc_bands, write_band_csv  # noqa: E402
from cproc.similarity import load_matrix  # noqa: E402
from cproc.synthetic import SyntheticSpec, covariate_distance_matrix, generate  # noqa: E402


def twin_stars(root: Path, n_pairs: int = 16) -> None:
    """Acceptance criterion 10's fixture: pairs of identical star graphs with
    identical scores, one twin in train and the other in calib or test."""
    graphs, labels, p1s, parts = [], [], [], []
    levels = np.linspace(0.9, 0.25, n_pairs)
    for i in range(n_pairs):
        label = 1 if i % 2 == 0 else 0
        p1 = float(levels[i]) if label == 1 else float(1.0 - levels[i])
        for twin in range(2):
            gid = 2 * i + twin
            graphs.append(Graph(id=gid, num_nodes=i + 3, edges=tuple((0, j) for j in range(1, i + 3)),
                                label=label))
            labels.append(label)
            p1s.append(p1)
            parts.append("train" if twin == 0 else ("calib" if i % 4 < 2 else "test"))
    write_tu_dataset(graphs, root / "STARS", "STARS")
    lines = ["graph_id,label,p0,p1"] + [f"{gid},{label},{1.0 - p1!r},{p1!r}"
                                         for gid, (label, p1) in enumerate(zip(labels, p1s))]
    (root / "stars_scores.csv").write_text("\n".join(lines) + "\n", newline="\r\n")  # as csv.writer ends rows
    lines = ["graph_id,part"] + [f"{gid},{part}" for gid, part in enumerate(parts)]
    (root / "stars_split.csv").write_text("\n".join(lines) + "\n")


def cli(*argv: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = main(list(argv))
    if rc != 0:
        raise SystemExit(f"cproc {' '.join(argv)} exited {rc}")
    return stdout.getvalue()


def check_well_formed(path: Path) -> None:
    try:
        if path.suffix == ".svg":
            minidom.parse(str(path))
        elif path.suffix == ".json":
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
    except (ExpatError, ValueError) as exc:
        raise SystemExit(f"{path.as_posix()} is not well formed: {exc}") from None


def digests(out: str, note: str = "") -> list[str]:
    lines = []
    for path in sorted(Path(out).iterdir()):
        check_well_formed(path)
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}{note}")
        if path.suffix == ".simmat":
            matrix = load_matrix(path)
            values = hashlib.sha256(matrix.values.tobytes()).hexdigest()
            lines.append(f"{values}  {path.as_posix()} values, cap {matrix.cap!r}{note}")
    return lines


def multilabel(out: Path) -> None:
    """Three one-vs-rest conditional bands on synthetic covariates: label k
    against the rest, scored by p_k."""
    ds = generate(SyntheticSpec(n_train=300, n_calib=200, n_test=150, dim=3, beta=(1.0, -0.8, 0.6), seed=5))
    labels = np.digitize(ds.x[:, 0], [-0.4, 0.4])
    rng = np.random.default_rng(5)
    logits = np.eye(3)[labels] * 1.5 + rng.normal(0.0, 1.0, (ds.n, 3))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    matrix = covariate_distance_matrix(ds)
    out.mkdir()
    for k in range(3):
        scored = ScoredDataset(labels=(labels == k).astype(np.int64), split=ds.split,
                               probs=np.column_stack([1.0 - probs[:, k], probs[:, k]]))
        band = cp_roc_bands(scored, matrix, K=20, alpha=0.1, min_stratum=3, thin_stratum="widen")
        write_band_csv(out / f"band_label{k}.csv", band.lambda_grid, band.sen_lo, band.sen_up,
                       band.spe_lo, band.spe_up, comments=(f"auc: [{band.auc_lo!r}, {band.auc_up!r}]",))


def run_all() -> list[str]:
    twin_stars(Path("."))
    stars = ("bands", "--dataset", "STARS", "--scores", "stars_scores.csv", "--split", "stars_split.csv",
             "--knn", "3", "--min-stratum", "2", "--repeats", "3", "--seed", "42")
    cli(*stars, "--mode", "cond", "--thin-stratum", "widen", "--out", "stars-cond")
    cli(*stars, "--mode", "exch", "--bootstrap", "40", "--out", "stars-exch")

    design = ("simulate", "--dim", "12", "--beta", ",".join(repr(float(b)) for b in gen.criterion1_beta()),
              "--seed", "20240", "--repeats", "3")
    cli(*design, "--knn", "50", "--mode", "cond", "--out", "sim-cond")
    cli(*design, "--knn", "50", "--mode", "exch", "--out", "sim-exch")
    cli(*design, "--knn", "6", "--min-stratum", "4", "--mode", "cond", "--out", "sim-thin")

    scores = gen.write_tu(gen.tu_set(gen.BZR_LIKE, 1), Path("BZRX") / "BZRX")
    cli("bands", "--dataset", "BZRX/BZRX", "--scores", scores.as_posix(), "--filtration", "degree",
        "--knn", "20", "--mode", "cond", "--thin-stratum", "widen", "--min-stratum", "5",
        "--alpha", "0.1", "--repeats", "10", "--seed", "7", "--pool-split", "0.7",
        "--calib-split", "0.6", "--pairs-parallel", "1", "--out", "tu-cold")

    multilabel(Path("multilabel"))

    cli(*stars, "--mode", "cond", "--thin-stratum", "widen", "--repeats", "1", "--out", "stars-manifest")
    cli("simmat", "--dataset", "STARS", "--wasserstein-p", "2", "--out", "stars-p2")
    shutil.copytree("STARS", Path("stars-blank", "STARS"))
    adjacency = Path("stars-blank", "STARS", "STARS_A.txt")
    adjacency.write_text(" \t \n" + adjacency.read_text())
    cli("topo", "--dataset", "stars-blank/STARS", "--out", "topo-blank")
    cli("simulate", "--n-train", "300", "--n-calib", "200", "--n-test", "150", "--dim", "3",
        "--beta", "1.0,-0.8,0.6", "--shift", "0.5,0.5,0", "--knn", "20", "--seed", "61", "--repeats", "2",
        "--mode", "cond", "--out", "sim-shift")
    cli("simmat", "--dataset", "BZRX/BZRX", "--filtration", "eigenvector", "--pairs-parallel", "1",
        "--out", "tu-cold-eig")

    lines = []
    for out in ("stars-cond", "stars-exch", "stars-manifest", "stars-p2", "topo-blank", "sim-cond", "sim-exch",
                "sim-thin", "sim-shift", "tu-cold", "tu-cold-eig", "multilabel"):
        lines += digests(out)

    scores = gen.write_tu(gen.tu_set(gen.MUTAG_LIKE, 1), Path("MUTAGX") / "MUTAGX")
    cli("simmat", "--dataset", "MUTAGX/MUTAGX", "--filtration", "eigenvector", "--pairs-parallel", "1",
        "--out", "tu-warm")
    for seed in ("7", "8"):
        stdout = cli("bands", "--dataset", "MUTAGX/MUTAGX", "--scores", scores.as_posix(),
                     "--filtration", "eigenvector", "--knn", "20", "--mode", "cond", "--thin-stratum", "widen",
                     "--min-stratum", "5", "--alpha", "0.1", "--repeats", "10", "--seed", seed,
                     "--pool-split", "0.5", "--calib-split", "0.6", "--bootstrap", "1000",
                     "--pairs-parallel", "1", "--out", "tu-warm")
        if "simmat cache hit" not in stdout:
            raise SystemExit(f"tu-warm bands --seed {seed} missed the similarity cache")
        lines += digests("tu-warm", f" (after bands --seed {seed})")

    cli("topo", "--dataset", "MUTAGX/MUTAGX", "--filtration", "eigenvector", "--out", "topo")
    Path("plot").mkdir()
    cli("plot", "stars-cond/band.csv", "stars-exch/band.csv", "--out", "plot")
    lines += digests("topo") + digests("plot")

    for kind, workers, p, out in (("betweenness", "1", "1", "tu-pairs"), ("closeness", "1", "1", "tu-pairs"),
                                  ("communicability", "1", "1", "tu-pairs"), ("closeness", "2", "1", "tu-pairs-pool"),
                                  ("betweenness", "1", "1.5", "tu-pairs")):
        cli("simmat", "--dataset", "MUTAGX/MUTAGX", "--filtration", kind, "--pairs-parallel", workers,
            "--wasserstein-p", p, "--out", out)
    serial, pooled = (load_matrix(Path(out, "MUTAGX_closeness_p1.simmat")).values.tobytes()
                      for out in ("tu-pairs", "tu-pairs-pool"))
    if serial != pooled:
        raise SystemExit("closeness simmat --pairs-parallel 2 differs from --pairs-parallel 1")
    covariates = covariate_distance_matrix(generate(SyntheticSpec(n_train=150, n_calib=80, n_test=60, seed=600)))
    table = hashlib.sha256(covariates.values.tobytes()).hexdigest()
    return lines + digests("tu-pairs") + digests("tu-pairs-pool") + [f"{table}  covariate_distance_matrix seed 600"]


def main_() -> int:
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            lines = run_all()
        finally:
            os.chdir(here)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
