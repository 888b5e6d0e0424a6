"""TU-format graph datasets, deterministic splits, and classifier score ingestion.

TU benchmark files are 1-indexed; everything here is rebased to 0-indexed
graphs and per-graph 0-indexed nodes. Duplicate and reversed edges collapse
to a single undirected edge, and self-loops are dropped (counted in a
warning). Only the files the distances use are read: node label and
attribute files are ignored. numpy's `loadtxt` reads a file whose lines all
split at ","; a per-line reader, about 6x slower on a BZR-sized edge file,
reads any other and names the line of every fault, and turns its values into
int64 arrays one chunk of lines at a time.
One stable argsort numbers the nodes of each graph and one np.unique over
int64 keys dedupes and orders the edges, which makes them an `EdgeTable`'s
global vertex ids, graph by graph: the parser yields that table and the
graph labels, the input of a cold run, and `parse_tu_dataset`'s `Graph`
list is a view of them whose edges skip `Graph.__post_init__`'s per-edge
loop. `load_scores` reads each cell with int() or float() and checks whole
columns. `split_dataset` and `resplit` cut the calib/test pool by one rule,
and `write_tables` is the one writer of every CSV that cproc emits: it
writes a list of tables, formats the float columns of all of them in a few
whole-array passes, and drops each table's cells before its file write.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

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
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"graph {self.id}: self-loop ({u},{v})")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"graph {self.id}: edge ({u},{v}) out of range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"graph {self.id}: duplicate edge ({u},{v})")
            seen.add(key)


class EdgeTable(NamedTuple):
    """Every graph of a dataset as flat arrays: graph g owns the vertices
    nodes[:g].sum() + 0..nodes[g]-1 and the edges rows sizes[:g].sum() +
    0..sizes[g]-1 of `edges`, each (u, v) as the graph gives it."""

    ids: tuple  # each graph's id
    nodes: np.ndarray  # (G,) int64 node counts
    sizes: np.ndarray  # (G,) int64 edge counts
    edges: np.ndarray  # (E, 2) int64 global vertex ids

    @classmethod
    def of(cls, graphs: list[Graph]) -> EdgeTable:
        nodes = np.fromiter((g.num_nodes for g in graphs), np.int64, len(graphs))
        sizes = np.fromiter((len(g.edges) for g in graphs), np.int64, len(graphs))
        ends = chain.from_iterable(chain.from_iterable(g.edges for g in graphs))
        edges = np.fromiter(ends, np.int64, 2 * int(sizes.sum())).reshape(-1, 2)
        edges += np.repeat(np.cumsum(nodes) - nodes, sizes)[:, None]
        return cls(tuple(g.id for g in graphs), nodes, sizes, edges)


def format_floats(values, fmt) -> list[str]:
    """`fmt` of each value of `values` as a Python float, in order, called
    once per distinct bit pattern: np.unique on the values themselves would
    merge -0.0 with 0.0."""
    values = np.ravel(np.asarray(values, dtype=np.float64))
    first, inverse = np.unique(values.view(np.uint64), return_index=True, return_inverse=True)[1:]
    text = [fmt(v) for v in values[first].tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _csv_cells(column) -> list[str]:
    """One column's cells as `csv.writer` writes them: an integer or bool
    array's str, and otherwise each value's str, quoted with inner quotes
    doubled when it holds a comma, a quote or a line break."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "biu":
            return list(map(str, column.tolist()))
        column = column.tolist()
    cells = list(map(str, column))
    return ['"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\r" in c or "\n" in c else c for c in cells]


# float cells `write_tables` formats in one `format_floats` call (whole
# columns, at least one): a `cproc bands` run's 38k cells or a 405 x 405
# matrix take one call, and an image table's np.unique temporaries stay a
# few MB however many pixels it has
_FORMAT_CELLS = 1 << 18


def write_tables(tables) -> None:
    """Write each `(path, columns, header, comments)` entry of `tables`:
    `comments` as `# ` lines, then `header` (None for none) and the rows
    that `columns`, equal-length sequences, make, byte for byte as
    `csv.writer` writes `.tolist()` rows. Each cell is its str (a float's
    repr), quoted when it holds a comma, a quote or a line break, and lines
    end in "\\r\\n". The float array columns of all entries are formatted
    together, whole columns at a time in `format_floats` calls of at most
    `_FORMAT_CELLS` cells (or one column), so each call reprs a distinct bit
    pattern once; an entry's cells are dropped once its lines are joined,
    before its file is written."""
    tables = list(tables)
    cells = [[] for _ in tables]
    floats = []  # (cells of its entry, index there, column) of every float array column
    for out, (_, columns, _, _) in zip(cells, tables):
        for column in columns:
            if isinstance(column, np.ndarray) and column.dtype.kind == "f":
                floats.append((out, len(out), column))
                out.append(None)
            else:
                out.append(_csv_cells(column))
    start = 0
    while start < len(floats):
        stop, size = start + 1, floats[start][2].size
        while stop < len(floats) and size + floats[stop][2].size <= _FORMAT_CELLS:
            size += floats[stop][2].size
            stop += 1
        text, at = format_floats(np.concatenate([column for *_, column in floats[start:stop]]), repr), 0
        for out, j, column in floats[start:stop]:
            out[j] = text[at:at + column.size]
            at += column.size
        del text
        start = stop
    for (path, _, header, comments), columns in zip(tables, cells):
        lines = [] if header is None else [",".join(_csv_cells(header))]
        lines += map(",".join, zip(*columns, strict=True))
        columns.clear()
        if "" in lines:  # a row of one empty cell is the one empty line, and csv.writer writes it as ""
            lines = [line or '""' for line in lines]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(f"# {line}\n" for line in comments)
            fh.write("\r\n".join([*lines, ""]))


_CHUNK_LINES = 4096  # the line reader turns its Python ints into arrays this many lines at a time


def _int_array(values) -> np.ndarray:
    """`values` as int64, or as Python ints when one is beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _line_rows(path: Path, width: int, what: str) -> tuple[np.ndarray, np.ndarray, ParseError | None]:
    """The int() values of the non-blank lines of `path` as a (k, width)
    array (see `_int_array`), their line numbers, and the ParseError of the
    first line that int() rejects or that does not hold `width` integers
    ("expected {what}"), or None; they stop there. A non-UTF-8 byte becomes
    U+FFFD, which int() rejects. Values are held as Python ints for at most
    `_CHUNK_LINES` lines at a time."""
    rows, lines = [], []  # one array per chunk
    chunk, chunk_lines, fault = [], [], None
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [int(tok) for tok in line.replace(",", " ").split()]
            except ValueError as exc:
                fault = ParseError(f"{path.name}:{ln}: {exc}")
                break
            if len(row) != width:
                fault = ParseError(f"{path.name}:{ln}: expected {what}, got {row}")
                break
            chunk += row
            chunk_lines.append(ln)
            if len(chunk_lines) == _CHUNK_LINES:
                rows.append(_int_array(chunk))
                lines.append(np.array(chunk_lines, dtype=np.int64))
                chunk, chunk_lines = [], []
    rows.append(_int_array(chunk))
    lines.append(np.array(chunk_lines, dtype=np.int64))
    return np.concatenate(rows).reshape(-1, width), np.concatenate(lines), fault


def _int_rows(path: Path, width: int, what: str) -> tuple[np.ndarray, np.ndarray | None, ParseError | None]:
    """`_line_rows(path, width, what)`, unless numpy's reader reads the whole
    file into `width` columns of int64 split at ",", without a warning: its
    rows are the same, and the line numbers are None, since it skips empty
    lines without counting them."""
    with warnings.catch_warnings():
        # an empty file warns, and so does a float token on numpy releases that cast it to int64
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(path, np.int64, comments=None, delimiter=",", ndmin=2, encoding="utf-8-sig")
        except (ValueError, Warning):
            rows = None
    if rows is not None and rows.shape[1] == width:
        return rows, None, None
    return _line_rows(path, width, what)


def _column(path: Path) -> np.ndarray:
    """The one integer on each non-blank line of `path`."""
    rows, _, fault = _int_rows(path, 1, "one integer")
    if fault is not None:
        raise fault
    return rows[:, 0]


def _edge_keys(path: Path, name: str, graph_of: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, int]:
    """The sorted distinct keys rank(smaller) * n_nodes + rank(larger) of the
    edges in `path` that are not self-loops, and the number of self-loops.
    The first faulty line raises, whether the fault is in reading or in the
    node ids."""
    rows, lines, fault = _int_rows(path, 2, "two node ids")
    n_nodes = graph_of.size
    unknown = ((rows < 1) | (rows > n_nodes)).any(axis=1)
    u, v = np.where(unknown[:, None], 0, rows - 1).astype(np.int64, copy=False).T
    bad = np.flatnonzero(unknown | (graph_of[u] != graph_of[v]))
    if bad.size:
        i = int(bad[0])
        if lines is None:
            lines = _line_rows(path, 2, "two node ids")[1]
        kind = "references unknown node" if unknown[i] else "crosses graphs"
        raise ParseError(f"{name}_A.txt:{lines[i]}: edge ({rows[i, 0]},{rows[i, 1]}) {kind}")
    if fault is not None:
        raise fault
    del rows  # the keys need only the ranks of the non-loop edges
    keep = u != v
    ru, rv = rank[u[keep]], rank[v[keep]]
    del u, v
    keys = np.minimum(ru, rv)
    keys *= n_nodes
    keys += np.maximum(ru, rv)
    return np.unique(keys), keep.size - keys.size


def _tu_table(dir_path: str | Path, name: str) -> tuple[EdgeTable, np.ndarray]:
    """The dataset of `parse_tu_dataset` as its `EdgeTable`, and the graph labels."""
    root = Path(dir_path)
    for fname in (f"{name}_A.txt", f"{name}_graph_indicator.txt", f"{name}_graph_labels.txt"):
        if not (root / fname).exists():
            raise ParseError(f"missing mandatory file {fname} in {root}")

    indicator = _column(root / f"{name}_graph_indicator.txt")
    raw_labels = _column(root / f"{name}_graph_labels.txt")
    if not raw_labels.size:
        raise ParseError(f"{name}: empty dataset (no graph labels)")
    labels = np.searchsorted(np.unique(raw_labels), raw_labels)

    n_graphs, n_nodes = labels.size, indicator.size
    out_of_range = np.flatnonzero((indicator < 1) | (indicator > n_graphs))
    if out_of_range.size:
        node = int(out_of_range[0])
        raise ParseError(f"{name}_graph_indicator.txt: node {node + 1} points at graph {indicator[node]}")
    # TU node ids are global and 1-indexed, so node u belongs to graph
    # graph_of[u - 1]; rank orders the nodes by graph, then by file order
    graph_of = indicator.astype(np.int64) - 1
    counts = np.bincount(graph_of, minlength=n_graphs)
    rank = np.empty(n_nodes, dtype=np.int64)
    rank[np.argsort(graph_of, kind="stable")] = np.arange(n_nodes)

    keys, dropped_loops = _edge_keys(root / f"{name}_A.txt", name, graph_of, rank)
    if dropped_loops:
        warnings.warn(f"{name}: dropped {dropped_loops} self-loop(s)", stacklevel=3)

    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ParseError(f"{name}: graph {empty[0]} has no nodes")
    # the ranks are the table's global vertex ids, and the sorted keys order
    # the edges by (graph, smaller, larger id): the table's edge order
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n_nodes, out=(edges[:, 0], edges[:, 1]))
    sizes = np.diff(np.searchsorted(edges[:, 0], np.append(np.cumsum(counts) - counts, n_nodes)))
    return EdgeTable(tuple(range(n_graphs)), counts, sizes, edges), labels


def parse_tu_dataset(dir_path: str | Path, name: str) -> list[Graph]:
    """Parse a dataset directory in the TU benchmark layout.

    Mandatory files: ``NAME_A.txt`` (edge list, 1-indexed global node ids),
    ``NAME_graph_indicator.txt`` (node -> graph id), ``NAME_graph_labels.txt``.
    No filtration or distance uses node labels or attributes, so
    ``NAME_node_labels.txt`` and ``NAME_node_attributes.txt`` are not read.

    Graph labels are remapped onto {0, 1, ...} preserving the sorted order of
    the original values.

    Faults are reported in a fixed order: the indicator file, the labels
    file, an empty dataset, an indicator value out of range, then the lines
    of ``NAME_A.txt`` in file order, and last a graph without nodes.
    """
    table, labels = _tu_table(dir_path, name)  # its checks stand in for Graph.__post_init__
    local = table.edges - np.repeat(np.cumsum(table.nodes) - table.nodes, table.sizes)[:, None]
    pairs = list(zip(*local.T.tolist()))
    cuts = np.append(0, np.cumsum(table.sizes)).tolist()
    graphs = [object.__new__(Graph) for _ in table.ids]
    for g, gid, k, label, lo, hi in zip(graphs, table.ids, table.nodes.tolist(), labels.tolist(), cuts, cuts[1:]):
        g.__dict__.update(id=gid, num_nodes=k, edges=tuple(pairs[lo:hi]), label=label)
    return graphs


def write_tu_dataset(graphs: list[Graph], dir_path: str | Path, name: str) -> None:
    """Serialize graphs back into the TU layout (fixture format, 1-indexed).

    The indicator numbers graphs by their position in `graphs`, not by
    `Graph.id`, so any subset of a parsed dataset reads back."""
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    offset = 0
    a_lines, ind_lines = [], []
    for pos, g in enumerate(graphs, 1):
        for u, v in g.edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        ind_lines.extend([str(pos)] * g.num_nodes)
        offset += g.num_nodes
    (root / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (root / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (root / f"{name}_graph_labels.txt").write_text("\n".join(str(g.label) for g in graphs) + "\n")


@dataclass(frozen=True)
class SplitAssignment:
    """Four-way train/valid/calib/test partition: `parts[i]` is graph i's part."""

    parts: tuple[str, ...]

    @cached_property
    def _codes(self) -> np.ndarray:
        """Each graph's part as its index in PARTS (-1 for any other string)."""
        code = {p: i for i, p in enumerate(PARTS)}
        return np.array([code.get(p, -1) for p in self.parts], dtype=np.int8)

    def ids(self, part: str) -> np.ndarray:
        """The ids in `part`, ascending, as a new array on every call."""
        if part not in PARTS:
            raise ValueError(f"unknown part {part!r}")
        return np.flatnonzero(self._codes == PARTS.index(part))


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


def split_table(split: SplitAssignment, path: str | Path, comments: tuple[str, ...] = ()) -> tuple:
    """The `write_tables` entry of a `graph_id,part` split manifest."""
    return path, [np.arange(len(split.parts)), split.parts], ["graph_id", "part"], comments


def write_split_manifest(split: SplitAssignment, path: str | Path, comments: tuple[str, ...] = ()) -> None:
    write_tables([split_table(split, path, comments)])


def read_split_manifest(path: str | Path) -> SplitAssignment:
    """Read a `graph_id,part` CSV written by `write_split_manifest`.

    Rows may come in any order; their ids must cover 0..n-1 exactly once,
    where n is the row count. Cells are stripped; a bad row raises
    ParseError naming `path:line`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = [(ln, line) for ln, line in enumerate(fh, 1) if line.strip() and not line.startswith("#")]
    rows = [(ln, [cell.strip() for cell in next(csv.reader([line]))]) for ln, line in lines]
    header = rows.pop(0)[1] if rows else None
    if header != ["graph_id", "part"]:
        raise ParseError(f"{path}: bad split manifest header {header}")
    parts = [""] * len(rows)
    for ln, row in rows:
        if len(row) != 2 or row[1] not in PARTS:
            raise ParseError(f"{path}:{ln}: bad manifest row {row}")
        try:
            gid = int(row[0])
        except ValueError:
            raise ParseError(f"{path}:{ln}: manifest row {row}: graph_id is not an integer") from None
        if not 0 <= gid < len(rows):
            raise ParseError(f"{path}:{ln}: manifest row {row}: graph_id outside [0, {len(rows)})")
        if parts[gid]:
            raise ParseError(f"{path}:{ln}: manifest row {row}: duplicate graph_id {gid}")
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


def load_scores(path: str | Path, graphs=None) -> ScoredDataset:
    """Read and validate a `graph_id,label,p0,...,p{L-1}` CSV.

    Ids must cover 0..n-1 exactly once, where n is the number of `graphs`
    (the parsed `Graph` list, or the parser's label array), or the row count
    when no graphs are given (e.g. an external distance matrix). Ids and
    labels must be integers, labels must lie in [0, L) and, with graphs,
    match the parsed labels; each probability vector must be finite, lie in
    [0, 1] and sum to 1 within 1e-6. The first faulty line is named, with
    its first fault in that order.
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
    parsed = graphs if graphs is None or isinstance(graphs, np.ndarray) else [g.label for g in graphs]
    n = len(rows) if parsed is None else len(parsed)
    if n == 0:
        raise ScoreIngestError(f"{path}: no score rows")
    done, fault = [], None  # the rows before the first that int() or float() rejects
    for line, row in rows:
        if len(row) != 2 + num_labels:
            fault = ScoreIngestError(f"{path}:{line}: expected {2 + num_labels} fields")
            break
        try:
            done.append((int(row[0]), int(row[1]), [float(x) for x in row[2:]]))
        except ValueError as exc:
            fault = ScoreIngestError(f"{path}:{line}: {exc}")
            break
    ids, marks, cells = zip(*done) if done else ((), (), ())
    gid, label = _int_array(ids), _int_array(marks)  # Python ints where one is beyond int64
    probs = np.array(cells, dtype=float).reshape(len(done), num_labels)
    known = (gid >= 0) & (gid < n)
    at = np.where(known, gid, 0).astype(np.int64)
    repeat = np.ones(len(done), dtype=bool)
    repeat[np.unique(at, return_index=True)[1]] = False  # an id's first row is no repeat
    want = label if parsed is None else np.asarray(parsed)[at]
    outside = ~((probs >= 0.0) & (probs <= 1.0)).all(axis=1)  # NaN fails both comparisons
    sums = np.where(outside[:, None], 0.0, probs).sum(axis=1)
    bad = np.column_stack([
        ~known, repeat, (label < 0) | (label >= num_labels), label != want, outside, np.abs(sums - 1.0) > 1e-6,
    ])
    faulty = np.flatnonzero(bad.any(axis=1))
    if faulty.size:
        r = int(faulty[0])
        g, k = ids[r], marks[r]
        raise ScoreIngestError(f"{path}:{rows[r][0]}: " + (
            f"unknown graph_id {g}", f"duplicate graph_id {g}", f"label {k} outside [0, {num_labels})",
            f"label {k} does not match parsed label {want[r]}",
            "probability outside [0,1] or not a number", f"probabilities sum to {sums[r]:.8f}",
        )[int(bad[r].argmax())])
    if fault is not None:
        raise fault
    labels = np.full(n, -1, dtype=np.int64)
    labels[at] = label
    scores = np.zeros((n, num_labels))
    scores[at] = probs
    missing = np.flatnonzero(labels < 0)
    if missing.size:
        raise ScoreIngestError(f"{path}: graph_id {missing[0]} has no score row")
    return ScoredDataset(labels=labels, probs=scores)
