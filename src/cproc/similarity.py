"""Wasserstein distances between persistence diagrams, pairwise distance
tables read by blocks, and K-nearest-neighbor queries restricted to split
parts.

A point of one diagram may match a point of the other diagram or its own
diagonal projection ((b+d)/2, (b+d)/2); ground cost is the L-infinity norm
raised to the p-th power, so matching (b, d) to the diagonal costs
((d-b)/2)^p. The solver is exact, so oracle tests can demand equality.

Each homology dimension is prepared once, as one table of every diagram's
points and their owners: capped, validated (finite, death >= birth) and
stripped of its zero-persistence points. Dropping those is exact: such a
point z lies on the diagonal and matches it at cost 0, and a point x matched
to z pays at least x's own distance to the diagonal (triangle inequality), so
sending both to the diagonal is never worse. A dimension matched pair by pair
is cut into per-diagram point sets with their diagonal costs; each pair is a
rectangular assignment of the smaller set's points to the other's points plus
one own-diagonal slot per row, the other's diagonal costs as an offset.

For p = 1, `build_similarity_matrix` solves a homology dimension whose points
are all integer without assignments. With the diagonal as one root node, W1 is
a transport over the dataset's T distinct points, so by Kantorovich-Rubinstein
duality 2 W1(a, b) is the largest (c_a - c_b) . g over the vertices g of
{|g_x - g_y| <= 2 Linf(x, y), |g_x| <= death(x) - birth(x)}, where c counts a
diagram's copies of each point. Its constraint matrix is a graph incidence
matrix, so every vertex is an integer point: the integer points are walked
coordinate by coordinate, and a point is a vertex when its tight constraints
connect every point to the root (rank T). The polytope is symmetric under
g -> -g, so its vertex set V is too, and the largest (c_a - c_b) . g is the
Chebyshev distance of rows a and b of the dual embedding E = c V^T: one
product and one `cdist`. The lattice holds every 0/1 point, so T <= 16, and
the all-zero prefix's width at each type is at most `_MAX_LATTICE_POINTS`, so
a coordinate lies within 5e4 of 0 or of an earlier one: an entry of E is an
integer of at most (points per diagram) * 16 * 5e4. Held to 2^52, float64 is
exact throughout, bit-equal to the assignment (both sum exact half-integers).
A dimension past that, with a non-integer point, p != 1, or more than
`_MAX_LATTICE_POINTS` integer points is left to the pair path.

On the pair path, a pair whose points all share one death (every capped dim 1; an empty
set pairs with any) takes no assignment: matching two such points costs
|b - b'|^p, convex in b - b', so some optimal matching never crosses, and
`_shared_death_costs` finds one for all such pairs at once with a DP over
sorted births. It sums the traced matching as `_matching_cost` sums its
assignment (the first set's offset-form entries in their given order, left to
right: numpy's order below eight terms), so most pairs keep the assignment's
bits. The rest are tied optima, crossing matchings of equal cost that the
assignment may pick and round differently (by about 1e-14).
`wasserstein_distance` runs the same code for its one pair, so a build stays
bit-equal to pairwise calls, serial or pooled.

A `SimilarityMatrix` hands out `block(rows, cols)`, the one way the conformal
pipeline and `knn_indices` read distances. Its constructor alone knows where
they come from and installs the block function once: a slice of a dense table
(every `.simmat` file and Wasserstein build), or `cdist` of the rows' and
columns' Euclidean points (synthetic runs), so no n x n table is built unless
`values` is asked for. A `.simmat` file carries one sha256 over its metadata
and values (see `save_matrix`); `load_matrix` checks the header's sizes
against the file's length before it reads on, and the digest before it
decodes the metadata.

`knn_indices` orders neighbours by ascending (distance, id). It reads and
ranks one block of rows at a time, about `_KNN_BLOCK_CELLS` (2^17) distances,
so no |queries| x |pool| array exists; rows never interact, so the result
does not depend on the block size. In each block it selects the K nearest
with `argpartition` and sorts only those; a row whose K-th distance is tied
with a distance outside the K selected (or is not finite) is ranked by a full
stable sort instead, so the result always equals the full sort's first K
columns. A per-row member mask ranks each row over its own subset of the pool
(one split's calibration graphs, within the union of several splits'), with
non-members placed after every member.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import ParseError
from .graphdata import write_table
from .topology import PersistenceDiagram, max_finite_value

_MAGIC = b"CPROCSIM"
_FORMAT_VERSION = 3
# integer points of one dimension's dual polytope that the exact p = 1 path
# may enumerate; a larger polytope takes the assignment path. The polytope
# holds every 0/1 point, so this also keeps the path to at most 16 types.
_MAX_LATTICE_POINTS = 100_000
# distances `knn_indices` reads and ranks at a time (1 MB of float64): a block
# of rows stays in cache and no |queries| x |pool| array is ever allocated
_KNN_BLOCK_CELLS = 1 << 17
# DP cells `_shared_death_costs` fills at a time (2048 pairs of 3-point sets),
# so its temporaries stay small whatever the number of pairs
_DP_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class _Points:
    """One dimension of a prepared diagram: its positive-persistence points."""

    births: np.ndarray
    deaths: np.ndarray
    diag: np.ndarray  # ((death - birth) / 2) ** p, the cost of the diagonal
    diag_sum: float
    key: tuple[int, bytes]  # canonical orientation of a pair, see _matching_cost


def _point_tables(diagrams: list[PersistenceDiagram], p: float, cap: float | None = None) -> Iterator[tuple]:
    """Dims 0 and 1 in turn: every diagram's points as one C-contiguous (m, 2)
    table and the sorted index of each point's diagram. Given a `cap`, dim 0
    keeps its finite pairs and dim 1 deaths are capped at it; the points are
    then validated and those of zero persistence dropped."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"Wasserstein order must be finite and >= 1, got {p}")
    for dim in (0, 1):
        parts = [np.asarray(d.points(dim), dtype=float).reshape(-1, 2) for d in diagrams]
        pts = np.concatenate([np.zeros((0, 2)), *parts])  # a copy: the caller's arrays stay as they are
        owner = np.repeat(np.arange(len(parts)), [len(a) for a in parts])
        if cap is not None and dim == 0:
            keep = np.isfinite(pts[:, 1])
            pts, owner = pts[keep], owner[keep]
        elif cap is not None:
            np.minimum(pts[:, 1], cap, out=pts[:, 1])
        finite = np.isfinite(pts).all(1)
        bad = ~finite | (pts[:, 1] < pts[:, 0])
        if bad.any():
            first = owner[bad.argmax()]
            what = ("contains a point whose death precedes its birth" if finite[owner == first].all()
                    else "contains non-finite points; cap essential deaths first")
            raise ValueError(f"diagram {diagrams[first].graph_id} dim{dim} {what}")
        keep = pts[:, 1] > pts[:, 0]
        yield pts[keep], owner[keep]


def _per_diagram(pts: np.ndarray, owner: np.ndarray, n: int, p: float) -> list[_Points]:
    """One dimension's table cut into the point sets of its n diagrams."""
    cuts = np.searchsorted(owner, np.arange(n + 1)).tolist()
    births, deaths = pts.T.copy()
    diag = (deaths - births) / 2.0 if p == 1.0 else ((deaths - births) / 2.0) ** p
    return [_Points(births[i:j], deaths[i:j], diag[i:j], float(diag[i:j].sum()), (j - i, pts[i:j].tobytes()))
            for i, j in zip(cuts, cuts[1:])]


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


def _shared_death_costs(points: list[_Points], first: np.ndarray, second: np.ndarray, p: float) -> np.ndarray:
    """`_matching_cost` of each pair (first[k], second[k]) of one dimension's
    point sets whose points all share one death (or that holds an empty set),
    NaN for every other pair. Pairs are oriented by key, as `_matching_cost`
    does; the DP runs over sorted births in blocks of about `_DP_BLOCK_CELLS`
    cells, pairs grouped by the larger set's size."""
    size = np.array([len(q.births) for q in points], dtype=np.int64)
    death = np.array([q.deaths[0] if size[d] and (q.deaths == q.deaths[0]).all() else np.nan
                      for d, q in enumerate(points)])  # the death a set's points share, NaN if none
    by_key = {key: r for r, key in enumerate(sorted({q.key for q in points}))}
    rank = np.array([by_key[q.key] for q in points], dtype=np.int64)
    swap = rank[first] > rank[second]
    a, b = np.where(swap, second, first), np.where(swap, first, second)
    out = np.where(rank[a] == rank[b], 0.0, np.nan)
    # after orientation a's set is the smaller (an empty one is a's)
    todo = (rank[a] != rank[b]) & ((size[a] == 0) | (death[a] == death[b]))
    if not todo.any():
        return out
    width = int(size.max())
    births, diag = np.zeros((len(points), width)), np.zeros((len(points), width))
    slot = np.zeros((len(points), 1), dtype=np.int64) + np.arange(width)  # each given point's place in birth order
    for d, q in enumerate(points):
        order = np.argsort(q.births, kind="stable")
        births[d, : size[d]], diag[d, : size[d]] = q.births[order], q.diag[order]
        slot[d, order] = np.arange(size[d])
    diag_sum = np.array([q.diag_sum for q in points])
    for m in sorted(set(size[b[todo]].tolist())):
        group = np.flatnonzero(todo & (size[b] == m))
        step = max(1, _DP_BLOCK_CELLS // (m + 1) ** 2)
        for start in range(0, group.size, step):
            k = group[start : start + step]
            ka, kb = a[k], b[k]
            total = _sorted_matching(births[ka, :m], diag[ka, :m], slot[ka, :m], size[ka],
                                     births[kb, :m], diag[kb, :m], p)
            out[k] = np.maximum(0.0, diag_sum[kb] + total)
    return out


def _sorted_matching(x, dx, slot_x, nx, y, dy, p: float) -> np.ndarray:
    """Offset-form optimal matching costs, row by row, of sorted births x
    (the first nx[r] real, diagonal costs dx) against sorted births y (all
    real, diagonal costs dy) whose points share one death. cost[i, j] is the
    best over the first i x and j y points; its last move sends x_i or y_j
    to its diagonal (y_j at 0 in the offset form) or matches the two. The
    traced matching is summed over the x points in their given order
    (`slot_x`), left to right."""
    rows, m = y.shape
    gap = np.abs(x[:, :, None] - y[:, None, :])
    if p != 1.0:
        gap **= p
    gap -= dy[:, None, :]  # x_i to y_j instead of y_j to its diagonal
    # the points a move uses up: bit 0 y_j, bit 1 x_i (1: y_j off, 2: x_i off, 3: matched)
    move = np.zeros((rows, m + 1, m + 1), dtype=np.int8)
    move[:, 0, 1:], move[:, 1:, 0] = 1, 2
    cost = np.zeros((rows, m + 1))  # no x point yet: every y point on its diagonal
    for i in range(1, m + 1):
        best = cost + dx[:, i - 1 : i]  # x_i to its diagonal
        pair = cost[:, :-1] + gap[:, i - 1]
        take = pair < best[:, 1:]
        np.minimum(best[:, 1:], pair, out=best[:, 1:])
        cost = np.minimum.accumulate(best, axis=1)  # or y_j to its diagonal
        move[:, i, 1:] = np.where(cost[:, :-1] < best[:, 1:], 1, 2 + take)
    # trace back from (nx, m); partner[r, i] is the y point sorted x_i goes to
    partner = np.full((rows, m), -1)
    i, j, every = nx.copy(), np.full(rows, m), np.arange(rows)
    for _ in range(int(nx.max()) + m):
        step = move[every, i, j]
        paired = step == 3
        partner[every[paired], i[paired] - 1] = j[paired] - 1
        i -= step >> 1
        j -= step & 1
    every = every[:, None]
    entry = np.where(partner >= 0, gap[every, np.arange(m), np.maximum(partner, 0)], dx)[every, slot_x]
    total = np.zeros(rows)
    for column in entry.T:
        total += column
    return total


def _dual_embedding(pts: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray | None:
    """The dual embedding of n diagrams in one dimension's table: twice the
    p = 1 matching cost of two is the Chebyshev distance of their rows. None
    unless every point is integer, the lattice holds at most _MAX_LATTICE_POINTS
    points, and a diagram's points times the largest |coordinate| <= 2^52."""
    if not np.array_equal(pts, np.round(pts)):
        return None
    types, kind = np.unique(pts, axis=0, return_inverse=True)
    T = len(types)
    counts = np.bincount(owner * T + kind.reshape(-1), minlength=n * T).reshape(n, T)
    reach = types[:, 1] - types[:, 0]  # twice the cost of the diagonal
    gap = 2.0 * np.abs(types[:, None, :] - types[None, :, :]).max(2)  # twice the L-infinity cost
    # every integer g with |g_x - g_y| <= gap[x, y] and |g_x| <= reach[x],
    # placed one coordinate at a time (floats: exact for these integers, and
    # a huge reach or gap cannot overflow before the size check)
    lattice = np.zeros((1, 0))
    for x in range(T):
        lo = np.maximum(-reach[x], (lattice - gap[x, :x]).max(1, initial=-np.inf))
        hi = np.minimum(reach[x], (lattice + gap[x, :x]).min(1, initial=np.inf))
        width = hi - lo + 1
        if width.sum() > _MAX_LATTICE_POINTS:
            return None
        width = width.astype(np.int64)
        rows = np.repeat(np.arange(len(lattice)), width)
        step = np.arange(rows.size) - np.repeat(np.cumsum(width) - width, width)
        lattice = np.column_stack([lattice[rows], lo[rows] + step])
    # a vertex's tight constraints have rank T: as graph edges (a tight
    # |g_x| row joins x to the diagonal), they connect every type to it
    tight = [np.abs(lattice - lattice[:, [y]]) == gap[y] for y in range(T)]
    linked = np.abs(lattice) == reach
    for _ in range(T - 1):
        for y in range(T):
            linked |= tight[y] & linked[:, [y]]
    vertices = lattice[linked.all(1)]
    if counts.sum(1).max() * np.abs(vertices).max(initial=0.0) > 2.0**52:
        return None
    return counts @ vertices.T


def wasserstein_distance(d1: PersistenceDiagram, d2: PersistenceDiagram, p: float = 1.0) -> float:
    """p-Wasserstein distance; dim0 and dim1 are matched separately and
    combined as (W0^p + W1^p)^(1/p). Essential deaths must be capped already."""
    by_dim = [_per_diagram(*table, 2, p) for table in _point_tables([d1, d2], p)]
    known = [_shared_death_costs(points, np.array([0]), np.array([1]), p) for points in by_dim]
    return _pair_distance(list(zip(*by_dim)), p, known, (0, (0, 1)))


class SimilarityMatrix:
    """Symmetric pairwise-distance table over all graphs, read by blocks.

    Built from exactly one of a dense square `values` table and Euclidean
    `points` (one row per graph). `block(rows, cols)` gives the distances from
    each graph in `rows` to each graph in `cols`: a slice of the table, or
    `cdist` of the points. For points, `values` is the block of every graph
    against every graph, built on first access.
    """

    def __init__(self, values=None, *, points=None, cap: float = 0.0, key: str = "") -> None:
        if (values is None) == (points is None):
            raise ValueError("a similarity matrix needs exactly one of values and points")
        if values is not None:
            table = np.asarray(values)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise ValueError(f"similarity values must be a square 2-D array, got shape {table.shape}")
            self.values = table
            self.block = lambda rows, cols: table[np.ix_(rows, cols)]
        else:
            table = np.asarray(points, dtype=float)
            self.block = lambda rows, cols: cdist(table[rows], table[cols])
        self.n = len(table)
        self.shape = (self.n, self.n)
        self.cap, self.key = cap, key

    @cached_property
    def values(self) -> np.ndarray:
        every = np.arange(self.n)
        return self.block(every, every)


def _pair_distance(prepared: list[tuple[_Points, ...]], p: float, known: list[np.ndarray], task) -> float:
    """Wasserstein distance between the prepared diagrams of pair k = (i, j),
    task = (k, (i, j)), over the dimensions they hold; a dimension whose
    known[dim][k] is NaN is matched by assignment."""
    k, (i, j) = task
    cost = 0.0
    for a, b, costs in zip(prepared[i], prepared[j], known):
        dim_cost = float(costs[k])
        cost += _matching_cost(a, b, p) if math.isnan(dim_cost) else dim_cost
    return cost ** (1.0 / p)


def build_similarity_matrix(
    diagrams: list[PersistenceDiagram],
    p: float = 1.0,
    cap: float | None = None,
    key: str = "",
    workers: int = 1,
) -> SimilarityMatrix:
    """All-pairs Wasserstein distances (symmetric, zero diagonal).

    `cap` defaults to the largest finite birth/death in the dataset; dim 0
    keeps its finite pairs and dim 1 deaths are capped at it, in copies. A
    fault of dim 0 in any diagram is reported before one of dim 1. For p = 1,
    a dimension whose points are all integer is solved by duality for all
    pairs at once. In the dimensions left, the pairs whose points share one
    death are solved by one DP here; `_pair_distance` is given those costs
    and the points of the dimensions left, and solves an assignment for each
    other pair, in this process or, for `workers` > 1, on a pool of that many
    processes (at most the CPUs this process may use) that each take one
    contiguous run of the pairs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cap = max_finite_value(diagrams) if cap is None else cap
    tables = list(_point_tables(diagrams, p, cap))
    n = len(diagrams)
    values = np.zeros((n, n))
    left = [0, 1]  # dimensions left to match pair by pair
    if p == 1.0 and n > 1:
        for dim in (0, 1):
            embedding = _dual_embedding(*tables[dim], n)
            if embedding is not None:
                values += cdist(embedding, embedding, "chebyshev") / 2.0
                left.remove(dim)
    by_dim = [_per_diagram(*tables[dim], n, p) for dim in left]
    first, second = np.triu_indices(n if left else 0, 1)  # no pairs once every dimension is done
    known = [_shared_death_costs(points, first, second, p) for points in by_dim]
    # the pool forks all its workers at the first submit
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cpus)
    solve = partial(_pair_distance, list(zip(*by_dim)), p, known)
    tasks = enumerate(zip(first.tolist(), second.tolist()))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 and len(first) > 1 else None
    with pool or contextlib.nullcontext():
        dists = pool.map(solve, tasks, chunksize=math.ceil(len(first) / workers)) if pool else map(solve, tasks)
        values[first, second] += np.fromiter(dists, float, len(first))
    values[second, first] = values[first, second]
    return SimilarityMatrix(values=values, cap=cap, key=key)


def knn_indices(values, query_ids, pool_ids, K: int, member=None) -> np.ndarray:
    """Row r holds the ids of the min(K, |pool|) pool members nearest to
    query_ids[r], by ascending (distance, id); the pool's order is irrelevant.
    Queries must not be pool members. `values` is a SimilarityMatrix or a
    dense distance array.

    With `member`, a bool array aligned to (query_ids, pool_ids), row r ranks
    only the pool ids that member[r] marks, and may hold one of them as its
    own query; rows are min(K, most members of any row) wide, and a row with
    fewer members is padded with -1. A row without members raises.

    Distances are read and ranked one block of about `_KNN_BLOCK_CELLS`
    cells (whole rows, at least one) at a time, straight into the result."""
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    pool_ids = np.asarray(pool_ids, dtype=np.int64)
    order = np.argsort(pool_ids, kind="stable")
    pool_sorted = pool_ids[order]
    if pool_sorted.size == 0:
        raise ValueError("empty neighbor pool")
    slot = np.minimum(np.searchsorted(pool_sorted, query_ids), pool_sorted.size - 1)
    inside = pool_sorted[slot] == query_ids
    if member is not None:
        member = np.asarray(member, dtype=bool)[:, order]
        inside &= member[np.arange(query_ids.size), slot]
        counts = member.sum(axis=1)
        if not counts.all():
            raise ValueError("empty neighbor pool")
    if inside.any():
        raise ValueError(f"query {int(query_ids[inside][0])} must not be a member of the pool")
    matrix = values if isinstance(values, SimilarityMatrix) else SimilarityMatrix(values=values)
    width = min(K, pool_sorted.size if member is None else int(counts.max(initial=1)))
    near = np.empty((query_ids.size, width), dtype=np.int64)

    def stable_rank(keys):
        # columns are in id order, so a stable sort of a row ranks by (distance, id)
        return np.argsort(keys[0], axis=1, kind="stable") if len(keys) == 1 else np.lexsort(keys, axis=1)

    # one block's arrays live until the next block's replace them: freeing them
    # all at the end of every block lets glibc trim the heap and fault it back
    # in once per block (9.8k minor faults per criterion-1 replicate, not 1.3k)
    step = max(1, _KNN_BLOCK_CELLS // pool_sorted.size)
    for start in range(0, query_ids.size, step):
        rows = slice(start, start + step)
        sub = matrix.block(query_ids[rows], pool_sorted)
        masked = ()  # a lexsort key that ranks before the distance: members first
        if member is not None:
            sub = np.where(member[rows], sub, np.inf)
            masked = (~member[rows],)
        pick = np.argpartition(sub, width - 1, axis=1)[:, :width]
        kth = np.take_along_axis(sub, pick[:, -1:], axis=1)
        tied = np.flatnonzero((np.count_nonzero(sub <= kth, axis=1) != width) | ~np.isfinite(kth[:, 0]))
        if tied.size:
            pick[tied] = stable_rank([a[tied] for a in (sub, *masked)])[:, :width]
        pick.sort(axis=1)
        rank = stable_rank([np.take_along_axis(a, pick, axis=1) for a in (sub, *masked)])
        near[rows] = pool_sorted[np.take_along_axis(pick, rank, axis=1)]
    if member is not None:
        near[np.arange(width) >= np.minimum(counts, K)[:, None]] = -1
    return near


def save_matrix(matrix: SimilarityMatrix, path: str | Path, extra_meta: dict | None = None) -> None:
    """Binary layout (version 3): magic, u32 version, u64 n, u64 metadata
    length, sha256 of the metadata bytes followed by the value bytes, then the
    JSON metadata (`cap`, `key` and `extra_meta`) and the row-major float64
    values."""
    blob = json.dumps({"cap": matrix.cap, "key": matrix.key, **(extra_meta or {})}, sort_keys=True).encode()
    values = np.ascontiguousarray(matrix.values, dtype="<f8")
    digest = hashlib.sha256(blob)
    digest.update(values)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IQQ", _FORMAT_VERSION, matrix.n, len(blob)) + digest.digest())
        fh.write(blob)
        fh.write(values)


def load_matrix(path: str | Path, expect_key: str | None = None) -> SimilarityMatrix:
    """Read a matrix file; raises ParseError on corruption, another format
    version or key mismatch."""
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ParseError(f"{path}: bad magic")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != _FORMAT_VERSION:
                raise ParseError(f"{path}: unsupported format version {version}")
            n, meta_len, digest = struct.unpack("<QQ32s", fh.read(48))
            if meta_len + n * n * 8 != os.fstat(fh.fileno()).st_size - fh.tell():
                raise ParseError(f"{path}: truncated or overlong (header says {meta_len} + 8*{n}^2 more bytes)")
            blob = fh.read(meta_len)
            raw = fh.read(n * n * 8)
        check = hashlib.sha256(blob)
        check.update(raw)
        if check.digest() != digest:
            raise ParseError(f"{path}: checksum mismatch")
        meta = json.loads(blob.decode())
    except (OSError, struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    key = meta.get("key", "")
    if expect_key is not None and key != expect_key:
        raise ParseError(f"{path}: cache key mismatch (have {key!r}, want {expect_key!r})")
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()
    return SimilarityMatrix(values=values, cap=float(meta.get("cap", 0.0)), key=key)


def export_matrix_csv(matrix: SimilarityMatrix, path: str | Path, comments: tuple[str, ...] = ()) -> None:
    write_table(path, np.asarray(matrix.values, dtype=float).T, comments=comments)
