"""Loop versions of the TU parser and of sublevel persistence, kept as the
references that the numpy parser and the list union-find are compared
against. They are the implementations these replaced, moved here as they
were, so a property test can require equal results on random input.
`load_scores` is the row-by-row scores reader whose first fault the column
checks must name. `quantile` is the one-multiset order statistic that the
batched engine's endpoints are checked against. `write_rows` (a
`csv.writer` over rows) and `svg_path` (one point at a time) are the
writers that `write_tables` and `svgplot._path` must match byte for byte.
`adjacency` is the dense matrix whose row sums are the degree filtration's
oracle. `matching_cost` is the one-pair assignment that
`similarity._matching_costs` batches over pairs of equal set sizes."""

from __future__ import annotations

import csv
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from cproc.conformal import _rank
from cproc.errors import ParseError, ScoreIngestError
from cproc.graphdata import Graph, ScoredDataset
from cproc.svgplot import _px, _py
from cproc.topology import PersistenceDiagram


def quantile(values, gamma: float) -> float:
    """The floor(gamma * n)-th order statistic, clamped to [1, n]."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("quantile of an empty multiset")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return float(arr[_rank(gamma, arr.size) - 1])


def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix; its row sums are the degree oracle."""
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def matching_cost(sets, i: int, j: int, p: float) -> float:
    """Optimal matching cost (sum of p-th powers) between prepared point sets i and j."""
    # canonical orientation makes the computation literally identical under
    # argument swap, so W(a,b) == W(b,a) exactly
    if sets.rank[i] > sets.rank[j]:
        i, j = j, i
    elif sets.rank[i] == sets.rank[j]:
        return 0.0
    n1, n2 = sets.size[i], sets.size[j]
    if n1 == 0:
        return float(sets.diag_sum[j])
    a_births, a_deaths, a_diag = sets.table[:, i, :n1]
    b_births, b_deaths, b_diag = sets.table[:, j, :n2]
    # every b-point starts on the diagonal (sum of diag_b); matching it to
    # a_i instead changes the total by c(a_i, b_j)^p - diag_b[j]
    cost = np.full((n1, n2 + n1), np.inf)
    pair = cost[:, :n2]
    np.maximum(np.abs(a_births[:, None] - b_births), np.abs(a_deaths[:, None] - b_deaths), out=pair)
    if p != 1.0:
        pair **= p
    pair -= b_diag
    # a-point -> own diagonal slot (row i, column n2 + i); other slots stay forbidden
    cost.reshape(-1)[n2 :: n1 + n2 + 1] = a_diag
    rows, cols = linear_sum_assignment(cost)
    # the offset form can round a zero optimum to a hair below it
    return max(0.0, float(sets.diag_sum[j]) + float(cost[rows, cols].sum()))


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
    """`cproc.graphdata.parse_tu_dataset` as a per-line loop."""
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


class _UnionFind:
    """Disjoint sets with the elder rule: on a merge the component with the
    smaller (birth value, birth vertex) pair survives."""

    def __init__(self, values: np.ndarray) -> None:
        self.parent = list(range(len(values)))
        self.birth = [(float(values[v]), v) for v in range(len(values))]

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def merge(self, u: int, v: int) -> float | None:
        """Union the sets of u and v; return the birth value of the dying
        (younger) component, or None when u and v are already connected."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return None
        if self.birth[rv] < self.birth[ru]:
            ru, rv = rv, ru
        dying_birth = self.birth[rv][0]
        self.parent[rv] = ru
        return dying_birth


def sublevel_persistence(g: Graph, values: np.ndarray) -> PersistenceDiagram:
    """`cproc.topology.sublevel_persistence` on a `_UnionFind` object."""
    values = np.asarray(values, dtype=float)
    if values.shape != (g.num_nodes,) or not np.all(np.isfinite(values)):
        raise ValueError("need one finite filtration value per vertex")

    order = sorted(g.edges, key=lambda e: (max(values[e[0]], values[e[1]]), e))
    uf = _UnionFind(values)
    dim0: list[tuple[float, float]] = []
    dim1: list[tuple[float, float]] = []
    for u, v in order:
        t = float(max(values[u], values[v]))
        dying_birth = uf.merge(u, v)
        if dying_birth is None:
            dim1.append((t, np.inf))
        else:
            dim0.append((dying_birth, t))

    roots = {uf.find(v) for v in range(g.num_nodes)}
    dim0.extend((float(values[r]), np.inf) for r in sorted(roots))

    d0 = np.array(sorted(dim0), dtype=float).reshape(-1, 2)
    d1 = np.array(sorted(dim1), dtype=float).reshape(-1, 2)
    return PersistenceDiagram(graph_id=g.id, dim0=d0, dim1=d1)


def load_scores(path: str | Path, graphs: list[Graph] | None = None) -> ScoredDataset:
    """Read and validate a `graph_id,label,p0,...,p{L-1}` CSV.

    Ids must cover 0..n-1 exactly once, where n is len(graphs), or the row
    count when no graphs are given (e.g. an external distance matrix). Ids
    and labels must be integers, labels must lie in [0, L) and, with graphs,
    match the parsed labels; each probability vector must be finite, lie in
    [0, 1] and sum to 1 within 1e-6.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [cell.strip() for cell in next(reader, [])]
        if len(header) < 4 or header[:2] != ["graph_id", "label"]:
            raise ScoreIngestError(f"{path}: bad header {header}")
        num_labels = len(header) - 2
        if header[2:] != [f"p{k}" for k in range(num_labels)]:
            raise ScoreIngestError(f"{path}: probability columns must be p0..p{num_labels - 1}")
        # line_num is the file line the row ends on, blank lines counted
        rows = [(reader.line_num, row) for row in reader if row]
    n = len(rows) if graphs is None else len(graphs)
    if n == 0:
        raise ScoreIngestError(f"{path}: no score rows")
    labels = np.full(n, -1, dtype=np.int64)
    probs = np.zeros((n, num_labels))
    seen = np.zeros(n, dtype=bool)
    for line, row in rows:
        if len(row) != 2 + num_labels:
            raise ScoreIngestError(f"{path}:{line}: expected {2 + num_labels} fields")
        try:
            gid, label = int(row[0]), int(row[1])
            vec = np.array([float(x) for x in row[2:]])
        except ValueError as exc:
            raise ScoreIngestError(f"{path}:{line}: {exc}") from None
        if not (0 <= gid < n):
            raise ScoreIngestError(f"{path}:{line}: unknown graph_id {gid}")
        if seen[gid]:
            raise ScoreIngestError(f"{path}:{line}: duplicate graph_id {gid}")
        if not (0 <= label < num_labels):
            raise ScoreIngestError(f"{path}:{line}: label {label} outside [0, {num_labels})")
        if graphs is not None and label != graphs[gid].label:
            raise ScoreIngestError(
                f"{path}:{line}: label {label} does not match parsed label {graphs[gid].label}"
            )
        if not np.all((vec >= 0.0) & (vec <= 1.0)):  # NaN fails both comparisons
            raise ScoreIngestError(f"{path}:{line}: probability outside [0,1] or not a number")
        if abs(float(vec.sum()) - 1.0) > 1e-6:
            raise ScoreIngestError(f"{path}:{line}: probabilities sum to {vec.sum():.8f}")
        labels[gid] = label
        probs[gid] = vec
        seen[gid] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ScoreIngestError(f"{path}: graph_id {missing} has no score row")
    return ScoredDataset(labels=labels, probs=probs)


def write_rows(path, rows, header=None, comments: tuple[str, ...] = ()) -> None:
    """`comments` as `# ` lines, then `header` (if any) and `rows` through `csv.writer`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def svg_path(xs, ys) -> str:
    """SVG path data, one point and one format call at a time."""
    return " ".join(
        f"{'M' if i == 0 else 'L'} {_px(float(x)):.2f} {_py(float(y)):.2f}"
        for i, (x, y) in enumerate(zip(xs, ys))
    )
