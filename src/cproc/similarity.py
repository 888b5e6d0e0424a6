"""Wasserstein distances between persistence diagrams, pairwise distance
tables read by blocks, and K-nearest-neighbor queries restricted to split
parts.

A point of one diagram may match a point of the other diagram or its own
diagonal projection ((b+d)/2, (b+d)/2); ground cost is the L-infinity norm
raised to the p-th power, so matching (b, d) to the diagonal costs
((d-b)/2)^p. The solver is exact, so oracle tests can demand equality.

Each diagram is prepared once: validated (finite, death >= birth), stripped
of its zero-persistence points (birth == death), and given its diagonal costs
and their sum. Dropping those points is exact: such a point z lies on the
diagonal and matches it at cost 0, and a point x matched to z pays at least
x's own distance to the diagonal (triangle inequality), so sending both to
the diagonal is never worse. Each pair is then solved as a rectangular
assignment whose rows are the smaller diagram's points and whose columns are
the other diagram's points plus one own-diagonal slot per row; the other
diagram's diagonal costs enter as an offset.

A `SimilarityMatrix` hands out `block(rows, cols)`, the only way the conformal
pipeline reads distances. It has two backends: a dense array (every `.simmat`
file and Wasserstein build), whose blocks are slices, and Euclidean points
(synthetic runs), whose blocks are `cdist` of the rows' and columns' points,
so no n x n table is built unless `values` is asked for.

`knn_indices` orders neighbours by ascending (distance, id). It selects the K
nearest with `argpartition` and sorts only those; a row whose K-th distance
is tied with a distance outside the K selected (or is NaN) is ranked by a
full stable sort instead, so the result always equals the full sort's first
K columns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import ParseError
from .topology import PersistenceDiagram, max_finite_value

_MAGIC = b"CPROCSIM"
_FORMAT_VERSION = 2


@dataclass(frozen=True)
class _Points:
    """One dimension of a prepared diagram: its positive-persistence points."""

    births: np.ndarray
    deaths: np.ndarray
    diag: np.ndarray  # ((death - birth) / 2) ** p, the cost of the diagonal
    diag_sum: float
    key: tuple[int, bytes]  # canonical orientation of a pair, see _matching_cost


def _prepare_points(arr: np.ndarray, p: float, label: str) -> _Points:
    pts = np.asarray(arr, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{label} contains non-finite points; cap essential deaths first")
    if np.any(pts[:, 1] < pts[:, 0]):
        raise ValueError(f"{label} contains a point whose death precedes its birth")
    pts = pts[pts[:, 1] > pts[:, 0]]
    diag = (pts[:, 1] - pts[:, 0]) / 2.0
    if p != 1.0:
        diag **= p
    return _Points(
        births=pts[:, 0].copy(),
        deaths=pts[:, 1].copy(),
        diag=diag,
        diag_sum=float(diag.sum()),
        key=(len(pts), pts.tobytes()),
    )


def _prepare(d: PersistenceDiagram, p: float) -> tuple[_Points, _Points]:
    """Validate a finite diagram once and precompute what every pair reuses."""
    if p < 1.0:
        raise ValueError(f"Wasserstein order must be >= 1, got {p}")
    return tuple(_prepare_points(d.points(dim), p, f"diagram {d.graph_id} dim{dim}") for dim in (0, 1))


def _matching_cost(a: _Points, b: _Points, p: float) -> float:
    """Optimal matching cost (sum of p-th powers) between two prepared point sets."""
    # canonical orientation makes the computation literally identical under
    # argument swap, so W(a,b) == W(b,a) exactly
    if a.key > b.key:
        a, b = b, a
    elif a.key == b.key:
        return 0.0
    n1, n2 = len(a.diag), len(b.diag)
    if n1 == 0:
        return b.diag_sum
    # every b-point starts on the diagonal (sum of diag_b); matching it to
    # a_i instead changes the total by c(a_i, b_j)^p - diag_b[j]
    cost = np.full((n1, n2 + n1), np.inf)
    pair = cost[:, :n2]
    np.maximum(
        np.abs(a.births[:, None] - b.births), np.abs(a.deaths[:, None] - b.deaths), out=pair
    )
    if p != 1.0:
        pair **= p
    pair -= b.diag
    # a-point -> own diagonal slot (row i, column n2 + i); other slots stay forbidden
    cost.reshape(-1)[n2 :: n1 + n2 + 1] = a.diag
    rows, cols = linear_sum_assignment(cost)
    # the offset form can round a zero optimum to a hair below it
    return max(0.0, b.diag_sum + float(cost[rows, cols].sum()))


def _distance(a: tuple[_Points, _Points], b: tuple[_Points, _Points], p: float) -> float:
    """Wasserstein distance between two prepared diagrams."""
    return (_matching_cost(a[0], b[0], p) + _matching_cost(a[1], b[1], p)) ** (1.0 / p)


def wasserstein_distance(d1: PersistenceDiagram, d2: PersistenceDiagram, p: float = 1.0) -> float:
    """p-Wasserstein distance; dim0 and dim1 are matched separately and
    combined as (W0^p + W1^p)^(1/p). Essential deaths must be capped already."""
    return _distance(_prepare(d1, p), _prepare(d2, p), p)


def capped_diagram(
    d: PersistenceDiagram,
    cap: float,
    dims: tuple[int, ...] = (0, 1),
    keep_dim0_essential: bool = False,
) -> PersistenceDiagram:
    """Finite version of a diagram for distance computation.

    dim0 keeps only finite pairs unless `keep_dim0_essential` (then deaths are
    capped); dim1 deaths are capped. Dimensions missing from `dims` come back
    empty.
    """
    empty = np.zeros((0, 2))
    if 0 in dims:
        d0 = d.dim0
        if keep_dim0_essential:
            d0 = np.column_stack([d0[:, 0], np.minimum(d0[:, 1], cap)])
        else:
            d0 = d0[np.isfinite(d0[:, 1])]
    else:
        d0 = empty
    if 1 in dims:
        d1 = np.column_stack([d.dim1[:, 0], np.minimum(d.dim1[:, 1], cap)]) if len(d.dim1) else empty
    else:
        d1 = empty
    return PersistenceDiagram(graph_id=d.graph_id, dim0=d0, dim1=d1)


class SimilarityMatrix:
    """Symmetric pairwise-distance table over all graphs, read by blocks.

    Backed by a dense `values` array, or by Euclidean `points` (one row per
    graph); for points, `values` is squareform(pdist(points)), built on first
    access, and blocks never touch it.
    """

    def __init__(self, values=None, p: float = 1.0, kinds: tuple[str, ...] = (), cap: float = 0.0,
                 key: str = "", *, points=None) -> None:
        if (values is None) == (points is None):
            raise ValueError("a similarity matrix needs exactly one of values and points")
        self._values = None if values is None else np.asarray(values)
        self.points = None if points is None else np.asarray(points, dtype=float)
        self.p, self.kinds, self.cap, self.key = p, tuple(kinds), cap, key

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = squareform(pdist(self.points))
        return self._values

    @property
    def n(self) -> int:
        return len(self.points) if self.points is not None else self._values.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def block(self, rows, cols) -> np.ndarray:
        """Distances from each graph in `rows` to each graph in `cols`."""
        if self.points is not None:
            return cdist(self.points[rows], self.points[cols])
        return self._values[np.ix_(rows, cols)]


_WORKER_PREPARED: list[tuple[_Points, _Points]] = []
_WORKER_P = 1.0


def _pool_init(prepared: list[tuple[_Points, _Points]], p: float) -> None:
    global _WORKER_PREPARED, _WORKER_P
    _WORKER_PREPARED = prepared
    _WORKER_P = p


def _pool_pairs(pairs: list[tuple[int, int]]) -> list[tuple[int, int, float]]:
    return [(i, j, _distance(_WORKER_PREPARED[i], _WORKER_PREPARED[j], _WORKER_P)) for i, j in pairs]


def build_similarity_matrix(
    diagrams: list[PersistenceDiagram],
    p: float = 1.0,
    cap: float | None = None,
    dims: tuple[int, ...] = (0, 1),
    kinds: tuple[str, ...] = (),
    key: str = "",
    workers: int | None = None,
) -> SimilarityMatrix:
    """All-pairs Wasserstein distances (symmetric, zero diagonal).

    `cap` defaults to the largest finite birth/death in the dataset and is
    applied to every diagram before matching.
    """
    if cap is None:
        cap = max_finite_value(diagrams)
    prepared = [_prepare(capped_diagram(d, cap, dims=dims), p) for d in diagrams]
    n = len(prepared)
    values = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if workers and workers > 1 and len(pairs) > 1:
        chunks = [pairs[k::workers] for k in range(workers) if pairs[k::workers]]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(prepared, p)
        ) as pool:
            for result in pool.map(_pool_pairs, chunks):
                for i, j, dist in result:
                    values[i, j] = values[j, i] = dist
    else:
        for i, j in pairs:
            values[i, j] = values[j, i] = _distance(prepared[i], prepared[j], p)
    return SimilarityMatrix(values=values, p=p, kinds=kinds, cap=cap, key=key)


def knn_indices(values, query_ids, pool_ids, K: int) -> np.ndarray:
    """Row r holds the ids of the min(K, |pool|) pool members nearest to
    query_ids[r], by ascending (distance, id); the pool's order is irrelevant.
    Queries must not be pool members. `values` is a SimilarityMatrix or a
    dense distance array."""
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    pool_sorted = np.sort(np.asarray(pool_ids, dtype=np.int64))
    if pool_sorted.size == 0:
        raise ValueError("empty neighbor pool")
    inside = np.isin(query_ids, pool_sorted)
    if inside.any():
        raise ValueError(f"query {int(query_ids[inside][0])} must not be a member of the pool")
    if isinstance(values, SimilarityMatrix):
        sub = values.block(query_ids, pool_sorted)
    else:
        sub = np.asarray(values)[np.ix_(query_ids, pool_sorted)]
    width = min(K, pool_sorted.size)
    # columns are in id order, so a stable sort of a row ranks by (distance, id)
    pick = np.argpartition(sub, width - 1, axis=1)[:, :width]
    kth = np.take_along_axis(sub, pick[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(sub <= kth, axis=1) != width)
    if tied.size:
        pick[tied] = np.argsort(sub[tied], axis=1, kind="stable")[:, :width]
    pick.sort(axis=1)
    rank = np.argsort(np.take_along_axis(sub, pick, axis=1), axis=1, kind="stable")
    return pool_sorted[np.take_along_axis(pick, rank, axis=1)]


def save_matrix(matrix: SimilarityMatrix, path: str | Path, extra_meta: dict | None = None) -> None:
    """Binary layout: magic, format version, n, p, sha256(key), sha256(values),
    JSON metadata, row-major float64 values."""
    meta = {
        "kinds": list(matrix.kinds),
        "cap": matrix.cap,
        "key": matrix.key,
        **(extra_meta or {}),
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    digest = hashlib.sha256(matrix.key.encode()).digest()
    raw = np.ascontiguousarray(matrix.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQd", _FORMAT_VERSION, matrix.n, matrix.p))
        fh.write(digest)
        fh.write(hashlib.sha256(raw).digest())
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(raw)


def load_matrix(path: str | Path, expect_key: str | None = None) -> SimilarityMatrix:
    """Read a matrix file; raises ParseError on corruption, an older format
    version or key mismatch."""
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ParseError(f"{path}: bad magic")
            version, n, p = struct.unpack("<IQd", fh.read(20))
            if version != _FORMAT_VERSION:
                raise ParseError(f"{path}: unsupported format version {version}")
            digest = fh.read(32)
            values_digest = fh.read(32)
            (meta_len,) = struct.unpack("<Q", fh.read(8))
            meta = json.loads(fh.read(meta_len).decode())
            raw = fh.read(n * n * 8)
            if len(raw) != n * n * 8:
                raise ParseError(f"{path}: truncated value block")
            if hashlib.sha256(raw).digest() != values_digest:
                raise ParseError(f"{path}: value block checksum mismatch")
            values = np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()
    except (OSError, struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    key = meta.get("key", "")
    if hashlib.sha256(key.encode()).digest() != digest:
        raise ParseError(f"{path}: metadata hash mismatch")
    if expect_key is not None and key != expect_key:
        raise ParseError(f"{path}: cache key mismatch (have {key!r}, want {expect_key!r})")
    return SimilarityMatrix(
        values=values, p=p, kinds=tuple(meta.get("kinds", ())), cap=float(meta.get("cap", 0.0)), key=key
    )


def export_matrix_csv(matrix: SimilarityMatrix, path: str | Path, comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        for row in matrix.values:
            writer.writerow([repr(float(x)) for x in row])
