"""Seeded input generators: fabricated TU graph sets with classifier scores,
and the criterion-1 synthetic design.

Everything is a pure function of the seed. Node counts, extra-edge counts and
labels are drawn as seed-permuted stratified sequences, so every seed gives
the same multiset of graph sizes and the same positive count; only the graph
structure and the score noise change with the seed. That keeps the work per
operation nearly constant across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_VALENCE = 4


@dataclass(frozen=True)
class TuShape:
    name: str
    n_graphs: int
    min_nodes: int
    max_nodes: int
    max_extra_edges: int
    positive_rate: float


# 405 graphs of 10-60 nodes, ~30 % positives, like BZR
BZR_LIKE = TuShape("BZRX", 405, 10, 60, 3, 0.30)
# 188 graphs of 10-28 nodes, ~33 % positives, like MUTAG
MUTAG_LIKE = TuShape("MUTAGX", 188, 10, 28, 3, 0.33)


@dataclass(frozen=True)
class TuSet:
    shape: TuShape
    sizes: np.ndarray  # nodes per graph
    edges: list[list[tuple[int, int]]]  # 0-indexed, u < v, per graph
    labels: np.ndarray  # 0/1
    p1: np.ndarray  # classifier probability of label 1

    @property
    def n_edges(self) -> np.ndarray:
        return np.array([len(e) for e in self.edges])


def _stratified(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """n integers spread evenly over [lo, hi], in seed-permuted order."""
    return rng.permutation(lo + (np.arange(n) * (hi - lo + 1)) // n)


def molecule_graph(rng: np.random.Generator, n: int, extra: int) -> list[tuple[int, int]]:
    """Random tree with valence <= 4 plus `extra` ring-closing edges."""
    degree = np.zeros(n, dtype=int)
    edges = set()
    for v in range(1, n):
        open_nodes = np.flatnonzero(degree[:v] < MAX_VALENCE)
        u = int(rng.choice(open_nodes))
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    added = 0
    for _ in range(50 * (extra + 1)):
        if added == extra:
            break
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) in edges or degree[u] >= MAX_VALENCE or degree[v] >= MAX_VALENCE:
            continue
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
        added += 1
    return sorted(edges)


def tu_set(shape: TuShape, seed: int) -> TuSet:
    rng = np.random.default_rng([seed, shape.n_graphs])
    n = shape.n_graphs
    sizes = _stratified(rng, n, shape.min_nodes, shape.max_nodes)
    extras = _stratified(rng, n, 0, shape.max_extra_edges)
    edges = [molecule_graph(rng, int(k), int(e)) for k, e in zip(sizes, extras)]
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.permutation(n)[: round(shape.positive_rate * n)]] = 1
    # scores: a noisy logit that leans towards the true label
    z = 1.2 * (2.0 * labels - 1.0) + rng.normal(0.0, 1.0, n)
    p1 = 1.0 / (1.0 + np.exp(-z))
    return TuSet(shape, sizes, edges, labels, p1)


def write_tu(ds: TuSet, root: Path) -> Path:
    """TU text layout (1-indexed global node ids, both edge directions) plus
    a `graph_id,label,p0,p1` scores CSV. Returns the scores path."""
    name = ds.shape.name
    root.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines = [], []
    offset = 0
    for gid, (k, edges) in enumerate(zip(ds.sizes, ds.edges)):
        for u, v in edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        ind_lines.extend([str(gid + 1)] * int(k))
        offset += int(k)
    (root / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (root / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (root / f"{name}_graph_labels.txt").write_text("\n".join(str(int(y)) for y in ds.labels) + "\n")
    scores = root.parent / f"{name}_scores.csv"
    rows = ["graph_id,label,p0,p1"]
    rows += [f"{g},{int(y)},{1.0 - p!r},{p!r}" for g, (y, p) in enumerate(zip(ds.labels, ds.p1.tolist()))]
    scores.write_text("\n".join(rows) + "\n")
    return scores


# criterion-1 design: n = 2000/1000/500, dim 12, |beta| = 2.5
PATTERN = np.array([1.0, -0.8, 0.6, -0.7, 0.9, -0.5, 0.4, -0.6, 0.55, -0.45, 0.65, -0.35])


def criterion1_beta(dim: int = 12, norm: float = 2.5) -> tuple[float, ...]:
    b = PATTERN[:dim]
    return tuple(b / np.linalg.norm(b) * norm)


def op_seed(seed: int, stream: int, i: int) -> int:
    """Seed of operation i. cproc derives seed+r for its re-splits and
    seed+b for bootstrap resamples (b < B <= 1000), so operations are spaced
    1009 apart to keep those derived streams distinct across operations."""
    start = int(np.random.default_rng([seed, stream]).integers(0, 2**30))
    return start + 1009 * i
