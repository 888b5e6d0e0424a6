"""Wasserstein distances between persistence diagrams, pairwise distance
tables read by blocks, and K-nearest-neighbor queries restricted to split
parts.

A point of one diagram may match a point of the other diagram or its own
diagonal projection ((b+d)/2, (b+d)/2); ground cost is the L-infinity norm
raised to the p-th power, so matching (b, d) to the diagonal costs
((d-b)/2)^p. The solver is exact, so oracle tests can demand equality.

Both homology dimensions are prepared once, as one table of every diagram's
points and their sets (dim * n + diagram): capped, validated (finite,
death >= birth) and stripped of zero-persistence points. Dropping those is
exact: such a point z lies on the diagonal and matches it at cost 0, and a
point x matched to z pays at least x's own distance to the diagonal
(triangle inequality), so sending both to the diagonal is never worse. The
dimensions matched pair by pair are cut into point sets, padded into one
table with their diagonal costs; each pair is a rectangular assignment of
the smaller set's points to the other's points plus one own-diagonal slot per
row, the other's diagonal costs as an offset.

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

On the pair path, `_matching_costs` solves every pair of one dimension in
one call. It orients each pair by the rank of its sets' (size,
point bytes) keys, so W(a, b) and W(b, a) are the same computation, and
groups the pairs by route and set sizes. Most pairs take an assignment: the
offset-form matrices of a group are built as one (pairs, n1, n2 + n1) array,
in blocks of about `_DP_BLOCK_CELLS` cells, with one `linear_sum_assignment`
per pair and every pair's chosen entries summed at once, row by row. Each
matrix and each row sum is the one a single pair gets, element for element,
so batching changes no bit. A pair whose points all share one death (every
capped dim 1) and whose larger set holds fewer than `_PAIRWISE_SUM_TERMS`
points takes no assignment: matching two such points costs |b - b'|^p,
convex in b - b', so some optimal matching never crosses, and a DP over
sorted births finds one. It sums the traced matching as the assignment's
entries are summed (in the first set's given order, left to right: numpy's
order below eight terms), so most pairs keep the assignment's bits. The rest
are tied optima, crossing matchings of equal cost that the assignment may
pick and round differently (by about 1e-14). `wasserstein_distance` runs the
same code for its one pair, so a build stays bit-equal to pairwise calls,
serial or pooled.

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

import hashlib
import json
import os
import struct
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

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
# DP or cost-matrix cells `_matching_costs` fills at a time (2048 pairs of
# 3-point sets), so its temporaries stay small whatever the number of pairs
_DP_BLOCK_CELLS = 1 << 15
# numpy adds fewer than eight terms left to right and more pairwise (eight
# accumulators), which the DP's left-to-right re-sum of its matching does not
# follow; so a pair whose larger set holds this many points takes the
# assignment even when its points share one death, and keeps its bits
_PAIRWISE_SUM_TERMS = 8


class _Sets(NamedTuple):
    """Point sets prepared for matching. table[:, s] holds set s's
    positive-persistence points in their given order as three rows (births,
    deaths, and diagonal costs ((death - birth) / 2) ** p), padded with zeros."""

    size: np.ndarray  # points per set
    table: np.ndarray  # (3, sets, most points in a set)
    diag_sum: np.ndarray  # the sum of a set's own diagonal costs, as one array
    rank: np.ndarray  # of (size, point bytes): the canonical orientation of a pair


def _point_tables(diagrams: list[PersistenceDiagram], p: float, cap: float | None = None) -> tuple:
    """Every diagram's points in dims 0 and 1 as one C-contiguous (m, 2)
    table, and the sorted set of each point: dim * n + i for diagram i of n.
    Given a `cap`, dim 0 keeps its finite pairs and dim 1 deaths are capped
    at it; the points are then validated (a fault of dim 0 is named before
    one of dim 1) and those of zero persistence dropped."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"Wasserstein order must be finite and >= 1, got {p}")
    n = len(diagrams)
    parts = [np.asarray(d.points(dim), dtype=float).reshape(-1, 2) for dim in (0, 1) for d in diagrams]
    pts = np.concatenate([np.zeros((0, 2)), *parts])  # a copy: the caller's arrays stay as they are
    owner = np.repeat(np.arange(len(parts)), [len(a) for a in parts])
    if cap is not None:
        dim1 = owner >= n
        np.minimum(pts[:, 1], cap, out=pts[:, 1], where=dim1)
        keep = dim1 | np.isfinite(pts[:, 1])
        pts, owner = pts[keep], owner[keep]
    finite = np.isfinite(pts).all(1)
    bad = ~finite | (pts[:, 1] < pts[:, 0])
    if bad.any():
        first = owner[bad.argmax()]
        what = ("contains a point whose death precedes its birth" if finite[owner == first].all()
                else "contains non-finite points; cap essential deaths first")
        raise ValueError(f"diagram {diagrams[first % n].graph_id} dim{first // n} {what}")
    keep = pts[:, 1] > pts[:, 0]
    return pts[keep], owner[keep]


def _per_diagram(pts: np.ndarray, owner: np.ndarray, count: int, p: float) -> _Sets:
    """A table of points cut into `count` sets by their sorted owners."""
    cuts = np.searchsorted(owner, np.arange(count + 1))
    births, deaths = pts.T.copy()
    diag = (deaths - births) / 2.0 if p == 1.0 else ((deaths - births) / 2.0) ** p
    size = cuts[1:] - cuts[:-1]
    real = np.arange(size.max(initial=0)) < size[:, None]
    table = np.zeros((3, *real.shape))
    table[:, real] = births, deaths, diag
    spans = list(zip(cuts.tolist(), cuts[1:].tolist()))
    keys = [(j - i, pts[i:j].tobytes()) for i, j in spans]
    by_key = {key: r for r, key in enumerate(sorted(set(keys)))}
    return _Sets(size, table, np.array([float(diag[i:j].sum()) for i, j in spans]),
                 np.array([by_key[key] for key in keys], dtype=np.int64))


def _matching_costs(sets: _Sets, first: np.ndarray, second: np.ndarray, p: float) -> np.ndarray:
    """Optimal matching cost (sum of p-th powers) of each pair (first[k],
    second[k]) of prepared point sets. Each pair is oriented by rank, so
    W(a, b) and W(b, a) are literally the same computation: equal keys cost
    exactly 0.0 and an empty first set the other's diagonal sum. A pair whose
    points all share one death and whose larger set holds fewer than
    `_PAIRWISE_SUM_TERMS` points takes the DP over sorted births; every other
    one its own `linear_sum_assignment`. Both run on blocks of about
    `_DP_BLOCK_CELLS` cells of pairs grouped by set sizes, and no pair's
    cost depends on the pairs solved with it."""
    size, table, diag_sum, rank = sets
    births, deaths, _ = table
    swap = rank[first] > rank[second]
    a, b = np.where(swap, second, first), np.where(swap, first, second)
    n1, n2 = size[a], size[b]  # after orientation a's set is the smaller (an empty one is a's)
    out = np.where(n1 == 0, diag_sum[b], 0.0)
    todo = (rank[a] != rank[b]) & (n1 > 0)
    if not todo.any():
        return out
    real = np.arange(births.shape[1]) < size[:, None]
    # the death every point of a set shares, NaN if none
    death = np.where((deaths == np.where(real, deaths[:, :1], deaths)).all(1), deaths[:, 0], np.nan)
    dp = todo & (death[a] == death[b]) & (n2 < _PAIRWISE_SUM_TERMS)
    if dp.any():
        order = np.argsort(np.where(real, births, np.inf), axis=1, kind="stable")
        slot = np.argsort(order, axis=1)  # each given point's place in birth order
        up = table[::2][:, np.arange(len(size))[:, None], order]  # births and diagonal costs, sorted
    # one group per route and pair of set sizes; the DP pads the smaller set
    # to the larger, so its groups go by the larger set's size alone
    width = births.shape[1] + 1
    group = (dp * width + np.where(dp, 0, n1)) * width + n2
    pick = np.flatnonzero(todo)
    pick = pick[np.argsort(group[pick], kind="stable")]
    group = group[pick]
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()]
    kinds = zip(*(x[pick[cuts]].tolist() for x in (dp, n1, n2)))
    for i, j, (shared, s1, s2) in zip(cuts, cuts[1:] + [pick.size], kinds):
        step = max(1, _DP_BLOCK_CELLS // ((s2 + 1) ** 2 if shared else s1 * (s1 + s2)))
        for start in range(i, j, step):
            k = pick[start : min(start + step, j)]
            ka, kb = a[k], b[k]
            if shared:
                total = _sorted_matching(up[:, ka, :s2], slot[ka, :s2], n1[k], up[:, kb, :s2], p)
            else:
                total = _assigned_matching(table[:, ka, :s1], table[:, kb, :s2], p)
            # the offset form can round a zero optimum to a hair below it
            out[k] = np.maximum(0.0, diag_sum[kb] + total)
    return out


def _assigned_matching(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Offset-form optimal matching costs, row by row, of points x (births,
    deaths and diagonal costs x = (xb, xd, dx)) against at least as many
    points y = (yb, yd, dy): one `linear_sum_assignment` per row. Every y
    point starts on its diagonal (at 0 in the offset form); matching it to x_i
    instead changes the total by c(x_i, y_j)^p - dy[j], and x_i may take its
    own diagonal slot (column n2 + i) alone. A row's chosen entries are summed
    as one contiguous array, in numpy's order."""
    (xb, xd, dx), (yb, yd, dy) = x, y
    rows, n1 = xb.shape
    n2 = yb.shape[1]
    cost = np.full((rows, n1, n2 + n1), np.inf)
    pair = cost[:, :, :n2]
    gap = np.subtract(xd[:, :, None], yd[:, None, :])
    np.subtract(xb[:, :, None], yb[:, None, :], out=pair)
    np.maximum(np.abs(pair, out=pair), np.abs(gap, out=gap), out=pair)
    if p != 1.0:
        pair **= p
    pair -= dy[:, None, :]
    cost.reshape(rows, -1)[:, n2 :: n1 + n2 + 1] = dx
    cols = np.array([linear_sum_assignment(c)[1] for c in cost]).reshape(rows, n1)
    return cost[np.arange(rows)[:, None], np.arange(n1), cols].sum(axis=1)


def _sorted_matching(xs: np.ndarray, slot_x: np.ndarray, nx: np.ndarray, ys: np.ndarray, p: float) -> np.ndarray:
    """Offset-form optimal matching costs, row by row, of sorted births x
    (the first nx[r] real) with diagonal costs dx, xs = (x, dx), against
    sorted births y (all real), ys = (y, dy), whose points share one death.
    cost[i, j] is the best over the first i x and j y points; its last move
    sends x_i or y_j to its diagonal (y_j at 0 in the offset form) or matches
    the two. The traced matching is summed over the x points in their given
    order (`slot_x`), left to right."""
    (x, dx), (y, dy) = xs, ys
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
    # trace back from (nx, m) over the flat cells i * (m + 1) + j
    cells, every = move.reshape(rows, -1), np.arange(rows)
    back = np.array([0, 1, m + 1, m + 2])  # the cells a move steps back
    at = nx * (m + 1) + m
    trail = np.empty((rows, int(nx.max()) + m), dtype=np.int64)
    for s in range(trail.shape[1]):
        trail[:, s] = at
        at -= back[cells[every, at]]
    # partner[r, i] is x_i's column of gap: its y point, or m for its own diagonal (dx)
    every = every[:, None]
    i, j = np.divmod(trail, m + 1)
    partner = np.full((rows, m + 1), m)  # the spare last column takes the moves that match nothing
    partner[every, np.where(cells[every, trail] == 3, i - 1, m)] = j - 1
    partner = partner[:, :m]
    entry = np.where(partner < m, gap[every, np.arange(m), np.minimum(partner, m - 1)], dx)[every, slot_x]
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
    sets = _per_diagram(*_point_tables([d1, d2], p), 4, p)
    # sets 0 and 1 are dim 0, sets 2 and 3 dim 1: one call solves both (with
    # the sum and root of `build_similarity_matrix`, so the bits are its entry's)
    dim0, dim1 = _matching_costs(sets, np.array([0, 2]), np.array([1, 3]), p).tolist()
    return ((0.0 + dim0) + dim1) ** (1.0 / p)


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


def _pair_costs(sets: _Sets, n: int, p: float, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The p-th power of the Wasserstein distance of each pair (i, j) of n
    diagrams: the matching costs of sets i and j (dim 0) and of sets n + i
    and n + j (dim 1), solved one dimension at a time (so one dimension's
    pair arrays are alive at once) and added as (0.0 + c0) + c1."""
    first, second = pairs
    return (0.0 + _matching_costs(sets, first, second, p)) + _matching_costs(sets, first + n, second + n, p)


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
    pairs at once. The dimensions left are solved by `_matching_costs` (a DP
    for small sets whose points share one death, an assignment per pair for
    the rest, both batched over pairs grouped by set sizes) and summed per pair
    by `_pair_costs`, in this process or, for `workers` > 1, on a pool of
    that many processes (at most the CPUs this process may use) that each
    take one contiguous run of the pairs. Each pair's distance is then the
    Python `** (1.0 / p)` of its sum, as in `wasserstein_distance`, so every
    entry is bit-equal to that pairwise call.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cap = max_finite_value(diagrams) if cap is None else cap
    pts, owner = _point_tables(diagrams, p, cap)
    n = len(diagrams)
    values = np.zeros((n, n))
    solved = np.zeros(2, dtype=bool)  # dimensions solved by duality
    if p == 1.0 and n > 1:
        cuts = np.searchsorted(owner, [0, n, 2 * n]).tolist()
        for dim in (0, 1):
            rows = slice(cuts[dim], cuts[dim + 1])
            embedding = _dual_embedding(pts[rows], owner[rows] - dim * n, n)
            if embedding is not None:
                values += cdist(embedding, embedding, "chebyshev") / 2.0
                solved[dim] = True
    if n < 2 or solved.all():  # no pair left to match
        return SimilarityMatrix(values=values, cap=cap, key=key)
    # a dimension solved by duality keeps only empty sets, whose pairs cost exactly 0.0
    left = ~solved[owner // n]
    first, second = np.triu_indices(n, 1)
    # the pool forks all its workers at the first submit
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cpus)
    solve = partial(_pair_costs, _per_diagram(pts[left], owner[left], 2 * n, p), n, p)
    if workers > 1 and len(first) > 1:
        from concurrent.futures import ProcessPoolExecutor  # it imports multiprocessing: only for a pool

        runs = np.array_split(np.arange(len(first)), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cost = np.concatenate(list(pool.map(solve, [(first[r], second[r]) for r in runs])))
    else:
        cost = solve((first, second))
    values[first, second] += np.fromiter((c ** (1.0 / p) for c in cost.tolist()), float, len(first))
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
