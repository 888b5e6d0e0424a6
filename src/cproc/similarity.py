"""Wasserstein distances between persistence diagrams, pairwise distance
tables read by blocks, and K-nearest-neighbor queries restricted to split
parts.

A point of one diagram may match a point of the other diagram or its own
diagonal projection ((b+d)/2, (b+d)/2); ground cost is the L-infinity norm
raised to the p-th power, so matching (b, d) to the diagonal costs
((d-b)/2)^p. The solver is exact, so oracle tests can demand equality.

Both homology dimensions are prepared once, from one table of every
diagram's points and their sets (dim * n + diagram): the dataset pass's own
(`topology._Points`), or a list of diagrams stacked into one. The points are
capped, validated (finite, death >= birth) and stripped of zero-persistence
points. Dropping those is exact: such a point z lies on the diagonal and
matches it at cost 0, and a point x matched to z pays at least x's own
distance to the diagonal (triangle inequality), so sending both to the
diagonal is never worse. The dimensions matched pair by pair are cut into
point sets, padded into one table with their diagonal costs; each pair is a
rectangular assignment of the smaller set's points to the other's points
plus one own-diagonal slot per row, the other's diagonal costs as an offset.

For p = 1, `build_similarity_matrix` solves a homology dimension whose points
are all integer without assignments. With the diagonal as one root node, W1 is
a transport over the dataset's T distinct points, so by Kantorovich-Rubinstein
duality 2 W1(a, b) is the largest (c_a - c_b) . g over the vertices g of
{|g_x - g_y| <= 2 Linf(x, y), |g_x| <= death(x) - birth(x)}, where c counts a
diagram's copies of each point. Its constraint matrix is a graph incidence
matrix, so every vertex is an integer point: the integer points are walked
coordinate by coordinate, and a point is a vertex when its tight constraints
connect every point to the root (rank T). The polytope is symmetric under
g -> -g, so its vertex set is too, and the largest (c_a - c_b) . g is the
Chebyshev distance of rows a and b of the dual embedding E = c V^T, where V
holds one vertex of each pair g, -g: one product and one `cdist` over half
the vertices. The lattice holds every 0/1 point, so T <= 16, and
the all-zero prefix's width at each type is at most `_MAX_LATTICE_POINTS`, so
a coordinate lies within 5e4 of 0 or of an earlier one: an entry of E is an
integer of at most (points per diagram) * 16 * 5e4. Held to 2^52, float64 is
exact throughout, bit-equal to the assignment (both sum exact half-integers).
A dimension past that, with a non-integer point, p != 1, or more than
`_MAX_LATTICE_POINTS` integer points is left to the pair path.

On the pair path, `_matching_costs` solves every pair of one dimension in
one call. It orients each pair by the rank of its sets' (size,
point bytes) keys, so W(a, b) and W(b, a) are the same computation, and
groups the pairs by set sizes. Each pair takes an assignment: the
offset-form matrices of a group are built as one (pairs, n1, n2 + n1) array,
in blocks of about `_BLOCK_CELLS` cells, with one `linear_sum_assignment`
per pair and every pair's chosen entries summed at once, row by row. Each
matrix and each row sum is the one a single pair gets, element for element,
so batching changes no bit. `wasserstein_distance` runs the same code for
its one pair, so a build stays bit-equal to pairwise calls, serial or
pooled.

A `SimilarityMatrix` hands out `block(rows, ids)`, the one way the conformal
pipeline reads distances: each of `rows` against a 1-D `ids` (a block) or its
own row of a 2-D `ids` (picked cells). Its constructor alone knows where they
come from and installs that read once, with a screen for `knn_indices` (keys
in distance order, a per-row bound): an index into a dense table (every
`.simmat` file and Wasserstein build), or a loop over Euclidean points'
coordinates that sums as `cdist` does (synthetic runs), so no n x n table is
built unless `values` is asked for. A `.simmat` file carries one sha256 over
its metadata and values (see `save_matrix`); `load_matrix` checks the
header's sizes against the file's length before it reads on, and the digest
before it decodes the metadata.

`knn_indices` orders neighbours by ascending (distance, id). It screens and
ranks one block of rows at a time, about `_KNN_BLOCK_CELLS` (2^17) cells, so
no |queries| x |pool| array exists; rows never interact, so the result does
not depend on the block size. In each block one `argpartition` at kth = K
yields each row's K smallest keys and its (K+1)-th. A row whose (K+1)-th key
exceeds its K-th by more than the row's bound is decided: its K cells are its
K nearest, and only their distances are read and sorted. Any other row (a
tie across the cut, keys closer than rounding can separate, or a K-th key
that is not finite) is ranked by a full stable sort of its exact block. So
the result always equals the full sort's first K columns. A table's keys
are its distances and its bound is 0, which is the plain tie rule. Points
are screened by squared distances from one float64 GEMM (the bound's
derivation is in `SimilarityMatrix`); a criterion-1 row never needs the full
sort. A per-row member mask ranks each row over its own subset of the pool
(one split's calibration graphs, within the union of several splits'), with
non-members keyed inf and placed after every member.
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
from .graphdata import write_tables
from .topology import PersistenceDiagram, _Points, max_finite_value

_MAGIC = b"CPROCSIM"
_FORMAT_VERSION = 3
# integer points of one dimension's dual polytope that the exact p = 1 path
# may enumerate; a larger polytope takes the assignment path. The polytope
# holds every 0/1 point, so this also keeps the path to at most 16 types.
_MAX_LATTICE_POINTS = 100_000
# distances `knn_indices` reads and ranks at a time (1 MB of float64): a block
# of rows stays in cache and no |queries| x |pool| array is ever allocated
_KNN_BLOCK_CELLS = 1 << 17
# cost-matrix cells `_matching_costs` fills at a time (4096 pairs of 2-point
# sets), so its temporaries stay small whatever the number of pairs
_BLOCK_CELLS = 1 << 15


class _Sets(NamedTuple):
    """Point sets prepared for matching. table[:, s] holds set s's
    positive-persistence points in their given order as three rows (births,
    deaths, and diagonal costs ((death - birth) / 2) ** p), padded with zeros."""

    size: np.ndarray  # points per set
    table: np.ndarray  # (3, sets, most points in a set)
    diag_sum: np.ndarray  # the sum of a set's own diagonal costs, as one array
    rank: np.ndarray  # of (size, point bytes): the canonical orientation of a pair


def _point_tables(diagrams, p: float, cap: float | None = None) -> tuple:
    """The points of `diagrams` (a list, or the dataset pass's table; see
    `topology._Points`) and their owners, with zero-persistence points
    dropped. Given a `cap`, dim 0 keeps its finite pairs and dim 1 deaths
    are capped at it, in a copy; the points are then validated (a fault of
    dim 0 is named before one of dim 1)."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"Wasserstein order must be finite and >= 1, got {p}")
    table = _Points.of(diagrams)
    pts, owner, n = table.points, table.owner, len(table.ids)
    if cap is not None:
        dim1 = owner >= n
        keep = dim1 | np.isfinite(pts[:, 1])
        pts, owner, dim1 = pts[keep], owner[keep], dim1[keep]  # copies: the caller's table stays as it is
        np.minimum(pts[:, 1], cap, out=pts[:, 1], where=dim1)
    finite = np.isfinite(pts).all(1)
    bad = ~finite | (pts[:, 1] < pts[:, 0])
    if bad.any():
        first = owner[bad.argmax()]
        what = ("contains a point whose death precedes its birth" if finite[owner == first].all()
                else "contains non-finite points; cap essential deaths first")
        raise ValueError(f"diagram {table.ids[first % n]} dim{first // n} {what}")
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
    exactly 0.0 and an empty first set the other's diagonal sum. Every other
    pair takes its own `linear_sum_assignment`, on blocks of about
    `_BLOCK_CELLS` cost-matrix cells of pairs grouped by set sizes, and no
    pair's cost depends on the pairs solved with it."""
    size, table, diag_sum, rank = sets
    swap = rank[first] > rank[second]
    a, b = np.where(swap, second, first), np.where(swap, first, second)
    n1, n2 = size[a], size[b]  # after orientation a's set is the smaller (an empty one is a's)
    out = np.where(n1 == 0, diag_sum[b], 0.0)
    pick = np.flatnonzero((rank[a] != rank[b]) & (n1 > 0))
    if not pick.size:
        return out
    group = n1[pick] * (table.shape[2] + 1) + n2[pick]
    order = np.argsort(group, kind="stable")
    pick, group = pick[order], group[order]
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), pick.size]
    for i, j in zip(cuts, cuts[1:]):
        s1, s2 = int(n1[pick[i]]), int(n2[pick[i]])
        step = max(1, _BLOCK_CELLS // (s1 * (s1 + s2)))
        for start in range(i, j, step):
            k = pick[start : min(start + step, j)]
            total = _assigned_matching(table[:, a[k], :s1], table[:, b[k], :s2], p)
            # the offset form can round a zero optimum to a hair below it
            out[k] = np.maximum(0.0, diag_sum[b[k]] + total)
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


def _dual_vertices(types: np.ndarray) -> np.ndarray | None:
    """Every vertex of the dual polytope of the integer point `types`, in
    lexicographic order, or None when the lattice holds more than
    _MAX_LATTICE_POINTS points."""
    T = len(types)
    reach = types[:, 1] - types[:, 0]  # twice the cost of the diagonal
    gap = 2.0 * np.abs(types[:, None, :] - types[None, :, :]).max(2)  # twice the L-infinity cost
    # every integer g with |g_x - g_y| <= gap[x, y] and |g_x| <= reach[x],
    # placed one coordinate at a time in ascending order (floats: exact for
    # these integers, and a huge reach or gap cannot overflow before the size check)
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
    return lattice[linked.all(1)]


def _point_types(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(pts, axis=0, return_inverse=True)` of a (points, 2) table,
    with a 1-D inverse: each (birth, death) row is read as one complex number,
    which sorts in the same order, and a 1-D unique is about 13x faster."""
    types, kind = np.unique(np.ascontiguousarray(pts).view(np.complex128)[:, 0], return_inverse=True)
    return types.view(np.float64).reshape(-1, 2), kind


def _dual_embedding(pts: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray | None:
    """The dual embedding of n diagrams in one dimension's table: twice the
    p = 1 matching cost of two is the Chebyshev distance of their rows. None
    unless every point is integer, the lattice holds at most _MAX_LATTICE_POINTS
    points, and a diagram's points times the largest |coordinate| <= 2^52."""
    if not np.array_equal(pts, np.round(pts)):
        return None
    types, kind = _point_types(pts)
    vertices = _dual_vertices(types)
    if vertices is None:
        return None
    # the vertex set is closed under g -> -g and in lexicographic order, so
    # vertices[-1 - i] = -vertices[i]: the first half (with the middle, the
    # zero vector of no types) gives the same Chebyshev distances
    vertices = vertices[: (len(vertices) + 1) // 2]
    T = len(types)
    counts = np.bincount(owner * T + kind, minlength=n * T).reshape(n, T)
    if counts.sum(1).max() * np.abs(vertices).max(initial=0.0) > 2.0**52:
        return None
    return counts @ vertices.T


def _root(costs: np.ndarray, p: float) -> np.ndarray:
    """The distances of matching costs (sums of p-th powers): Python's
    `c ** (1.0 / p)` of each, which `np.power` does not match bit for bit.
    For p = 1 that is the costs themselves, as x ** 1.0 == x for every double."""
    if p == 1.0:
        return costs
    return np.fromiter((c ** (1.0 / p) for c in costs.tolist()), float, len(costs))


def wasserstein_distance(d1: PersistenceDiagram, d2: PersistenceDiagram, p: float = 1.0) -> float:
    """p-Wasserstein distance; dim0 and dim1 are matched separately and
    combined as (W0^p + W1^p)^(1/p). Essential deaths must be capped already."""
    sets = _per_diagram(*_point_tables([d1, d2], p), 4, p)
    (cost,) = _root(_pair_costs(sets, 2, p, (np.array([0]), np.array([1]))), p).tolist()
    return cost


def _euclidean_screen(points: np.ndarray, cols: np.ndarray):
    """The screen of `points[cols]`: a function of `rows` that returns keys,
    keys[r, c] the squared distance from points[rows[r]] to points[cols[c]]
    read off one GEMM, [q, |q|^2, 1] . [-2p, 1, |p|^2], and bounds, bound[r]
    the separation bound of row r (see `SimilarityMatrix`)."""
    d = points.shape[1]
    pool = points[cols]
    norms = np.einsum("ij,ij->i", pool, pool)
    right = np.vstack([-2.0 * pool.T, np.ones(cols.size), norms])
    top = norms.max()

    def screen(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = points[rows]
        left = np.column_stack([q, np.einsum("ij,ij->i", q, q), np.ones(rows.size)])
        # 8 (|q|^2 + top) overflows, making the bound inf, before any partial sum of the product can
        return left @ right, 8.0 * (left[:, d] + top) * ((d + 2) * 2.0**-51) + np.finfo(float).tiny

    return screen


def _euclidean_cells(points: np.ndarray, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The distance from points[rows[r]] to points[ids[c]] (1-D ids: a
    block) or to points[ids[r, c]] (2-D ids: picked cells), as `cdist`
    computes it: the squares of the coordinate differences summed in
    coordinate order from 0.0, then `sqrt`, so bit for bit."""
    acc = np.zeros((len(rows), ids.shape[-1]))
    for q, p in zip(points[rows].T, points.T):
        step = q[:, None] - p[ids]
        acc += np.multiply(step, step, out=step)
    return np.sqrt(acc, out=acc)


class SimilarityMatrix:
    """Symmetric pairwise-distance table over all graphs, read by blocks.

    Built from exactly one of a dense square `values` table and Euclidean
    `points` (one row per graph). `block(rows, ids)`, of integer arrays,
    gives the distances from each graph in `rows` to each graph of a 1-D
    `ids`, or to the graphs of its own row of a 2-D `ids`: table entries, or
    `_euclidean_cells`' loop over coordinates, bit-equal to `cdist`. For
    points, `values` is the block of every graph against every graph, built
    on first access.

    `knn_indices` reads one more thing. `_screen(cols)` returns a function
    of `rows` that gives screening keys, ordered as the distances, and a
    per-row bound: two cells of a row whose keys differ by more than the
    bound have distances in the same strict order. For a table the keys are
    its block and the bound is 0.

    For points, a key is the squared distance read off one float64 GEMM of
    the augmented rows [q, |q|^2, 1] and columns [-2p, 1, |p|^2]: d + 2
    products per cell, against 3d operations in the exact loop. The bound is
    (d + 2) 2^-48 (|q|^2 + M) plus the smallest normal double, with M the
    largest |p|^2 over `cols`. Write u = 2^-53, g = (d + 2) u / (1 - (d
    + 2) u) (Higham's gamma_{d+2}, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1), Q = |q|^2 and P = |p|^2 in exact
    arithmetic, and s the exact squared distance. The squared norms and the
    product are inner products, so in any summation order, with or without
    FMA, each lies within g times the sum of its terms' magnitudes of its
    exact value; as 2|q_k p_k| <= q_k^2 + p_k^2, a key lies
    within 3.01 g (Q + P) of s, at most a quarter of the bound. The exact sum
    S of the loop has only nonnegative terms, each rounded three times, so
    |S - s| <= g s; and S_j > (1 + 5u) S_i forces fl(sqrt(S_j)) >
    fl(sqrt(S_i)), since a correctly rounded `sqrt` moves each side by at
    most a factor 1 +- u. With s_i <= 2 (Q + P_i), keys more than 2 * 3.01 g
    (Q + M) + 2 (Q + M) (2.01 g + 5.01 u) <= 13.4 (d + 2) u (Q + M) apart,
    less than half the bound, have distances in the same strict order. The
    smallest normal double absorbs the absolute errors of underflow. The
    bound is inf once 8 (|q|^2 + M) overflows, before any partial sum of the
    product can, and inf or NaN wherever a norm is; a non-finite K-th key or
    bound sends its row to the exact path.
    """

    def __init__(self, values=None, *, points=None, cap: float = 0.0, key: str = "") -> None:
        if (values is None) == (points is None):
            raise ValueError("a similarity matrix needs exactly one of values and points")
        if values is not None:
            table = np.asarray(values)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise ValueError(f"similarity values must be a square 2-D array, got shape {table.shape}")
            self.values = table
            # closes over `block`, not `self`: no reference cycle keeps a loaded table alive
            self.block = block = lambda rows, ids: table[rows[:, None], ids]
            self._screen = lambda cols: lambda rows: (block(rows, cols).astype(float, copy=False), 0.0)
        else:
            table = np.asarray(points, dtype=float)
            if table.ndim != 2:
                raise ValueError(f"similarity points must be a 2-D array, got shape {table.shape}")
            self.block = partial(_euclidean_cells, table)
            self._screen = partial(_euclidean_screen, table)
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
    diagrams,
    p: float = 1.0,
    cap: float | None = None,
    key: str = "",
    workers: int = 1,
) -> SimilarityMatrix:
    """All-pairs Wasserstein distances (symmetric, zero diagonal) between
    `diagrams`, a list of them or the dataset pass's table of their points.

    `cap` defaults to the largest finite birth/death in the dataset; dim 0
    keeps its finite pairs and dim 1 deaths are capped at it, in copies. A
    fault of dim 0 in any diagram is reported before one of dim 1. For p = 1,
    a dimension whose points are all integer is solved by duality for all
    pairs at once. The dimensions left are solved by `_matching_costs` (an
    assignment per pair, batched over pairs grouped by set sizes) and summed
    per pair by `_pair_costs`, in this process or, for `workers` > 1, on a pool of
    that many processes (at most the CPUs this process may use) that each
    take one contiguous run of the pairs. Each pair's distance is then the
    `_root` of its sum, as in `wasserstein_distance`, so every entry is
    bit-equal to that pairwise call.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    table = _Points.of(diagrams)
    cap = max_finite_value(table) if cap is None else cap
    pts, owner = _point_tables(table, p, cap)
    n = len(table.ids)
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
    values[first, second] += _root(cost, p)
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
    # one block's arrays live until the next block's replace them: freeing them
    # all at the end of every block lets glibc trim the heap and fault it back
    # in once per block (9.8k minor faults per criterion-1 replicate, not 1.3k)
    screen = matrix._screen(pool_sorted)
    last = pool_sorted.size - 1
    step = max(1, _KNN_BLOCK_CELLS // pool_sorted.size)
    for start in range(0, query_ids.size, step):
        rows = slice(start, start + step)
        ids = query_ids[rows]
        key, bound = screen(ids)
        masked = ()  # a lexsort key that ranks before the distance: members first
        if member is not None:
            masked = (~member[rows],)
            key[masked[0]] = np.inf
        pick = np.argpartition(key, min(width, last), axis=1)
        after = np.take_along_axis(key, pick[:, width : width + 1], axis=1)[:, 0] if width <= last else np.inf
        pick = pick[:, :width]
        kth = np.take_along_axis(key, pick, axis=1).max(axis=1)
        # a row is decided when its (K+1)-th key exceeds the K-th by more than
        # the bound (never when the K-th is not finite): the keys' K cells are
        # its K nearest. The others are ranked by a full stable sort; columns
        # are in id order, so a stable sort of a row ranks by (distance, id)
        tied = np.flatnonzero(~(after > kth + bound))
        if tied.size:
            full = [matrix.block(ids[tied], pool_sorted), *(a[tied] for a in masked)]
            pick[tied] = np.lexsort(full, axis=1)[:, :width]
        pick.sort(axis=1)
        cells = matrix.block(ids, pool_sorted[pick])
        rank = np.lexsort([cells, *(np.take_along_axis(a, pick, axis=1) for a in masked)], axis=1)
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
    write_tables([(path, np.asarray(matrix.values, dtype=float).T, None, comments)])
