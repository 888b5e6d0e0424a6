"""TU-format graph datasets, deterministic splits, and classifier score ingestion.

TU benchmark files are 1-indexed; everything here is rebased to 0-indexed
graphs and per-graph 0-indexed nodes. Duplicate and reversed edges collapse
to a single undirected edge, and self-loops are dropped (counted in a
warning). Only the files the distances use are read: node label and
attribute files are ignored. `split_dataset` and `resplit` cut the
calib/test pool by one rule, and `write_table` is the one writer of every
CSV that cproc emits.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ScoreIngestError, SplitError

PARTS = ("train", "valid", "calib", "test")


@dataclass(frozen=True)
class Graph:
    """One undirected graph: unit of classification."""

    id: int
    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    label: int

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"graph {self.id}: self-loop ({u},{v})")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"graph {self.id}: edge ({u},{v}) out of range")

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix."""
        a = np.zeros((self.num_nodes, self.num_nodes))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a


def write_table(path: str | Path, rows, header=None, comments: tuple[str, ...] = ()) -> None:
    """Write `comments` as `# ` lines, then `header` (if any) and `rows` as CSV."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def opens_with_comments(path: str | Path, comments: tuple[str, ...]) -> bool:
    """Whether the file at `path` opens with `comments` as `write_table` writes them."""
    prologue = "".join(f"# {line}\n" for line in comments).encode()
    with open(path, "rb") as fh:
        return fh.read(len(prologue)) == prologue


def _read_rows(path: Path) -> Iterator[tuple[int, list[int]]]:
    """Yield (line number, row of ints) for each non-blank line of `path`."""
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [int(tok) for tok in line.replace(",", " ").split()]
            except ValueError as exc:
                raise ParseError(f"{path.name}:{ln}: {exc}") from None
            yield ln, row


def _read_column(path: Path) -> list[int]:
    """The one integer on each non-blank line of `path`."""
    values = []
    for ln, row in _read_rows(path):
        if len(row) != 1:
            raise ParseError(f"{path.name}:{ln}: expected one integer, got {row}")
        values.append(row[0])
    return values


def parse_tu_dataset(dir_path: str | Path, name: str) -> list[Graph]:
    """Parse a dataset directory in the TU benchmark layout.

    Mandatory files: ``NAME_A.txt`` (edge list, 1-indexed global node ids),
    ``NAME_graph_indicator.txt`` (node -> graph id), ``NAME_graph_labels.txt``.
    No filtration or distance uses node labels or attributes, so
    ``NAME_node_labels.txt`` and ``NAME_node_attributes.txt`` are not read.

    Graph labels are remapped onto {0, 1, ...} preserving the sorted order of
    the original values.
    """
    root = Path(dir_path)
    for fname in (f"{name}_A.txt", f"{name}_graph_indicator.txt", f"{name}_graph_labels.txt"):
        if not (root / fname).exists():
            raise ParseError(f"missing mandatory file {fname} in {root}")

    indicator = _read_column(root / f"{name}_graph_indicator.txt")
    raw_labels = _read_column(root / f"{name}_graph_labels.txt")
    if not raw_labels:
        raise ParseError(f"{name}: empty dataset (no graph labels)")
    label_map = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}

    n_graphs = len(raw_labels)
    # nodes per graph, in file order; TU node ids are global and 1-indexed,
    # so node u belongs to graph indicator[u - 1]
    local_index: list[int] = []
    counts = [0] * n_graphs
    for node_1idx, g_1idx in enumerate(indicator, 1):
        if not (1 <= g_1idx <= n_graphs):
            raise ParseError(f"{name}_graph_indicator.txt: node {node_1idx} points at graph {g_1idx}")
        local_index.append(counts[g_1idx - 1])
        counts[g_1idx - 1] += 1

    edges: list[set[tuple[int, int]]] = [set() for _ in range(n_graphs)]
    dropped_loops = 0
    for ln, row in _read_rows(root / f"{name}_A.txt"):
        if len(row) != 2:
            raise ParseError(f"{name}_A.txt:{ln}: expected two node ids, got {row}")
        u, v = row
        if not (1 <= u <= len(indicator) and 1 <= v <= len(indicator)):
            raise ParseError(f"{name}_A.txt:{ln}: edge ({u},{v}) references unknown node")
        if indicator[u - 1] != indicator[v - 1]:
            raise ParseError(f"{name}_A.txt:{ln}: edge ({u},{v}) crosses graphs")
        if u == v:
            dropped_loops += 1
            continue
        a, b = local_index[u - 1], local_index[v - 1]
        edges[indicator[u - 1] - 1].add((min(a, b), max(a, b)))
    if dropped_loops:
        warnings.warn(f"{name}: dropped {dropped_loops} self-loop(s)", stacklevel=2)

    graphs = []
    for gid in range(n_graphs):
        if counts[gid] == 0:
            raise ParseError(f"{name}: graph {gid} has no nodes")
        graphs.append(
            Graph(
                id=gid,
                num_nodes=counts[gid],
                edges=tuple(sorted(edges[gid])),
                label=label_map[raw_labels[gid]],
            )
        )
    return graphs


def write_tu_dataset(graphs: list[Graph], dir_path: str | Path, name: str) -> None:
    """Serialize graphs back into the TU layout (fixture format, 1-indexed)."""
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    offset = 0
    a_lines, ind_lines = [], []
    for g in graphs:
        for u, v in g.edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        ind_lines.extend([str(g.id + 1)] * g.num_nodes)
        offset += g.num_nodes
    (root / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (root / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (root / f"{name}_graph_labels.txt").write_text("\n".join(str(g.label) for g in graphs) + "\n")


@dataclass(frozen=True)
class SplitAssignment:
    """Four-way train/valid/calib/test partition: `parts[i]` is graph i's part."""

    parts: tuple[str, ...]

    def ids(self, part: str) -> np.ndarray:
        if part not in PARTS:
            raise ValueError(f"unknown part {part!r}")
        return np.array([i for i, p in enumerate(self.parts) if p == part], dtype=np.int64)

    def sizes(self) -> dict[str, int]:
        return {part: int(sum(p == part for p in self.parts)) for part in PARTS}


def _deal(parts: list[str], pool: np.ndarray, calib_split: float) -> SplitAssignment:
    """Give the first floor(|pool| * calib_split) ids of the shuffled `pool`
    to calib and the rest to test; an empty calib or test raises SplitError."""
    n_calib = int(np.floor(pool.size * calib_split))
    for part, ids in (("calib", pool[:n_calib]), ("test", pool[n_calib:])):
        if ids.size == 0:
            raise SplitError(f"split leaves {part} empty: {pool.size} pooled, calib_split={calib_split}")
        for i in ids:
            parts[i] = part
    return SplitAssignment(tuple(parts))


def split_dataset(
    n: int,
    seed: int,
    pool_split: float = 0.8,
    calib_split: float = 0.5,
) -> SplitAssignment:
    """Shuffle 0..n-1 with `seed` and cut into train/calib/test.

    Rounding rule (fixed for determinism): |train| = floor(n * pool_split),
    and the remaining pool is dealt by `_deal`, the rule `resplit` shares.
    """
    if not (0.0 < pool_split < 1.0 and 0.0 < calib_split < 1.0):
        raise ValueError("pool_split and calib_split must lie strictly inside (0, 1)")
    if n < 4:
        raise SplitError(f"need at least 4 graphs, got {n}")

    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(n * pool_split))
    if n_train == 0:
        raise SplitError(f"split leaves train empty: {n} graphs, pool_split={pool_split}")
    return _deal(["train"] * n, perm[n_train:], calib_split)


def resplit(split: SplitAssignment, calib_split: float, seed: int) -> SplitAssignment:
    """Re-deal the calib+test pool of `split` with `seed`; train and valid
    rows stay where they are."""
    pool = np.flatnonzero(np.isin(split.parts, ("calib", "test")))
    return _deal(list(split.parts), pool[np.random.default_rng(seed).permutation(pool.size)], calib_split)


def write_split_manifest(split: SplitAssignment, path: str | Path, comments: tuple[str, ...] = ()) -> None:
    write_table(path, enumerate(split.parts), ["graph_id", "part"], comments)


def read_split_manifest(path: str | Path) -> SplitAssignment:
    """Read a `graph_id,part` CSV written by `write_split_manifest`.

    Rows may come in any order; their ids must cover 0..n-1 exactly once,
    where n is the row count.
    """
    with open(path, newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != ["graph_id", "part"]:
            raise ParseError(f"{path}: bad split manifest header {header}")
        rows = list(reader)
    parts = [""] * len(rows)
    for row in rows:
        if len(row) != 2 or row[1] not in PARTS:
            raise ParseError(f"{path}: bad manifest row {row}")
        try:
            gid = int(row[0])
        except ValueError:
            raise ParseError(f"{path}: manifest row {row}: graph_id is not an integer") from None
        if not 0 <= gid < len(rows):
            raise ParseError(f"{path}: manifest row {row}: graph_id outside [0, {len(rows)})")
        if parts[gid]:
            raise ParseError(f"{path}: manifest row {row}: duplicate graph_id {gid}")
        parts[gid] = row[1]
    return SplitAssignment(tuple(parts))


@dataclass(frozen=True)
class ScoredDataset:
    """Labels plus per-label predicted probabilities for every graph."""

    labels: np.ndarray
    probs: np.ndarray  # (n, L), rows sum to 1
    split: SplitAssignment | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_labels(self) -> int:
        return self.probs.shape[1]

    def with_split(self, split: SplitAssignment) -> "ScoredDataset":
        if len(split.parts) != self.n:
            raise ValueError("split size does not match dataset size")
        return replace(self, split=split)

    def part_ids(self, part: str) -> np.ndarray:
        if self.split is None:
            raise ValueError("dataset carries no split assignment")
        return self.split.ids(part)


def load_scores(path: str | Path, graphs: list[Graph] | None = None) -> ScoredDataset:
    """Read and validate a `graph_id,label,p0,...,p{L-1}` CSV.

    Ids must cover 0..n-1 exactly once, where n is len(graphs), or the row
    count when no graphs are given (e.g. an external distance matrix). Ids
    and labels must be integers, labels must lie in [0, L) and, with graphs,
    match the parsed labels; each probability vector must be finite, lie in
    [0, 1] and sum to 1 within 1e-6.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 4 or header[:2] != ["graph_id", "label"]:
            raise ScoreIngestError(f"{path}: bad header {header}")
        num_labels = len(header) - 2
        if [h.strip() for h in header[2:]] != [f"p{k}" for k in range(num_labels)]:
            raise ScoreIngestError(f"{path}: probability columns must be p0..p{num_labels - 1}")
        rows = list(enumerate(reader, 2))
    n = len(rows) if graphs is None else len(graphs)
    if n == 0:
        raise ScoreIngestError(f"{path}: no score rows")
    labels = np.full(n, -1, dtype=np.int64)
    probs = np.zeros((n, num_labels))
    seen = np.zeros(n, dtype=bool)
    for rownum, row in rows:
        if len(row) != 2 + num_labels:
            raise ScoreIngestError(f"row {rownum}: expected {2 + num_labels} fields")
        try:
            gid, label = int(row[0]), int(row[1])
            vec = np.array([float(x) for x in row[2:]])
        except ValueError as exc:
            raise ScoreIngestError(f"row {rownum}: {exc}") from None
        if not (0 <= gid < n):
            raise ScoreIngestError(f"row {rownum}: unknown graph_id {gid}")
        if seen[gid]:
            raise ScoreIngestError(f"row {rownum}: duplicate graph_id {gid}")
        if not (0 <= label < num_labels):
            raise ScoreIngestError(f"row {rownum}: label {label} outside [0, {num_labels})")
        if graphs is not None and label != graphs[gid].label:
            raise ScoreIngestError(
                f"row {rownum}: label {label} does not match parsed label {graphs[gid].label}"
            )
        if not np.all((vec >= 0.0) & (vec <= 1.0)):  # NaN fails both comparisons
            raise ScoreIngestError(f"row {rownum}: probability outside [0,1] or not a number")
        if abs(float(vec.sum()) - 1.0) > 1e-6:
            raise ScoreIngestError(f"row {rownum}: probabilities sum to {vec.sum():.8f}")
        labels[gid] = label
        probs[gid] = vec
        seen[gid] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ScoreIngestError(f"graph_id {missing} has no score row")
    return ScoredDataset(labels=labels, probs=probs)


def write_scores(scored: ScoredDataset, path: str | Path) -> None:
    header = ["graph_id", "label"] + [f"p{k}" for k in range(scored.num_labels)]
    rows = enumerate(zip(scored.labels, scored.probs.tolist()))
    write_table(path, ([gid, int(label), *map(repr, probs)] for gid, (label, probs) in rows), header)
