import hashlib
import json
import struct

import numpy as np
import pytest

from cproc.graphdata import Graph, ScoredDataset, write_tables


@pytest.fixture
def triangle() -> Graph:
    return Graph(id=0, num_nodes=3, edges=((0, 1), (0, 2), (1, 2)), label=1)


@pytest.fixture
def path3() -> Graph:
    return Graph(id=0, num_nodes=3, edges=((0, 1), (1, 2)), label=0)


def random_er_graph(rng: np.random.Generator, gid: int = 0, max_nodes: int = 30) -> Graph:
    n = int(rng.integers(1, max_nodes + 1))
    p = float(rng.uniform(0.05, 0.6))
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(id=gid, num_nodes=n, edges=edges, label=int(rng.integers(0, 2)))


def write_tiny_fixture(root, name="TINY"):
    """Two graphs: a triangle labeled 1 and a single edge labeled -1."""
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{name}_A.txt").write_text(
        "1, 2\n2, 1\n1, 3\n3, 1\n2, 3\n3, 2\n4, 5\n5, 4\n"
    )
    (root / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (root / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    return root


def write_scores(scored: ScoredDataset, path) -> None:
    """Scores CSV in the schema `load_scores` reads: graph_id,label,p0..p{L-1}."""
    header = ["graph_id", "label"] + [f"p{k}" for k in range(scored.num_labels)]
    columns = [np.arange(scored.n), np.asarray(scored.labels, dtype=np.int64), *scored.probs.T]
    write_tables([(path, columns, header, ())])


def write_simmat_v2(path, values, cap: float, key: str) -> None:
    """A `.simmat` file in the version-2 layout: magic, version, n, p,
    sha256(key), sha256(values), metadata length, JSON metadata (with
    `kinds`), values."""
    blob = json.dumps({"cap": cap, "key": key, "kinds": ["degree"]}, sort_keys=True).encode()
    raw = np.ascontiguousarray(values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(b"CPROCSIM")
        fh.write(struct.pack("<IQd", 2, len(values), 1.0))
        fh.write(hashlib.sha256(key.encode()).digest())
        fh.write(hashlib.sha256(raw).digest())
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(raw)
