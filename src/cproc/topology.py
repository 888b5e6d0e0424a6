"""Vertex filtrations, sublevel-set persistent homology, persistence images.

A dataset is read as one `graphdata.EdgeTable`: flat int64 arrays of the
node and edge counts of its graphs and of every edge, in global vertex ids,
graph by graph. `dataset_diagrams` returns every graph's diagram from one
pass as one table of points (`_Points`), which the cap, the distances and
the diagrams CSV read as it is; `.diagrams()` cuts it per graph, and
`compute_filtration` and `sublevel_persistence` are its one-graph calls.
The degree filtration is one bincount over the table. The other four are
numpy on each graph's dense adjacency: betweenness is Brandes' dependency
accumulation and harmonic closeness a sum of 1/d, both over one
level-by-level count of shortest paths from every source; the eigenvector
filtration is the absolute top `eigh` eigenvector of each component.

Persistence is one union-find over every edge of the dataset, in
(level, u, v) order, with path halving on plain Python lists; by the elder
rule a merge kills the root with the larger (value, vertex) rank. The
graphs share no vertex, so a merge in one graph never touches another, and
each graph sees its own edges in its own order whatever the edges of other
graphs between them: the pass gives every graph the pairs its own
union-find would. One stable lexsort by (dimension and graph, birth, death)
then orders the pairs as the graphs' diagrams, stacked dim 0 first. Graphs
carry no 2-cells, so every independent cycle is an essential H1 class
(death = +inf); deaths are capped only when vectorizing or comparing
diagrams. Zero-persistence H0 pairs are kept so that the diagram always has
exactly one dim-0 entry per vertex. A persistence image is a plain (P, P)
array; diagrams and images are one-entry calls of `graphdata.write_tables`,
which formats an image table's pixels in a few whole-array passes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graphdata import EdgeTable, Graph, write_tables


class FiltrationKind(enum.Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    CLOSENESS = "closeness"
    COMMUNICABILITY = "communicability"
    EIGENVECTOR = "eigenvector"


@dataclass(frozen=True)
class PersistenceDiagram:
    """Birth/death multisets for H0 and H1; +inf marks essential classes."""

    graph_id: int
    dim0: np.ndarray  # (k, 2)
    dim1: np.ndarray  # (m, 2)

    def points(self, dim: int) -> np.ndarray:
        return self.dim0 if dim == 0 else self.dim1


class _Points(NamedTuple):
    """The diagrams of a dataset as one table: points[k] is a point of
    dimension owner[k] // n of diagram owner[k] % n (graph ids[owner[k] % n]),
    with n = len(ids). Owners ascend, so dim 0 of every diagram comes first,
    then dim 1, and each diagram's points keep their order."""

    ids: tuple
    points: np.ndarray  # (m, 2) births and deaths
    owner: np.ndarray  # (m,) int64

    @classmethod
    def of(cls, diagrams) -> _Points:
        """A table as it is, or a list of diagrams stacked into one: the one
        place where a list becomes a table."""
        if isinstance(diagrams, cls):
            return diagrams
        parts = [np.asarray(d.points(dim), dtype=float).reshape(-1, 2) for dim in (0, 1) for d in diagrams]
        owner = np.repeat(np.arange(len(parts)), [len(a) for a in parts])
        return cls(tuple(d.graph_id for d in diagrams), np.concatenate([np.zeros((0, 2)), *parts]), owner)

    def diagrams(self) -> list[PersistenceDiagram]:
        """One diagram per graph, cut from the table."""
        n = len(self.ids)
        cut = np.searchsorted(self.owner, np.arange(2 * n + 1)).tolist()
        pts = self.points
        return [PersistenceDiagram(gid, pts[cut[i] : cut[i + 1]], pts[cut[n + i] : cut[n + i + 1]])
                for i, gid in enumerate(self.ids)]


def _hop_paths(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Hop distances (inf when unreachable), shortest-path counts and the
    largest finite distance, from every source of adjacency `a` at once.
    Each level is the last level's counts times `a`, kept only where no
    shorter path exists; raw powers of `a` would overflow on long paths."""
    sigma = frontier = np.eye(len(a))
    dist = np.where(sigma > 0, 0.0, np.inf)
    depth = 0
    while (frontier := np.where(np.isfinite(dist), 0.0, frontier @ a)).any():
        depth += 1
        dist[frontier > 0] = depth
        sigma = sigma + frontier
    return dist, sigma, depth


def _betweenness(a: np.ndarray) -> np.ndarray:
    """Unnormalized betweenness: Brandes' dependencies of all sources at once,
    deepest level first; each unordered pair counts once."""
    dist, sigma, depth = _hop_paths(a)
    delta = np.zeros_like(sigma)
    for k in range(depth, 1, -1):
        coef = np.divide(1.0 + delta, sigma, out=np.zeros_like(delta), where=dist == k)
        delta += np.where(dist == k - 1, sigma * (coef @ a), 0.0)
    return delta.sum(axis=0) / 2


def _eigenvector(a: np.ndarray) -> np.ndarray:
    """Unit principal eigenvector of each component, made non-negative;
    isolated vertices get 0."""
    values = np.zeros(len(a))
    reach = np.isfinite(_hop_paths(a)[0])
    for root in np.unique(reach.argmax(axis=1)):
        nodes = np.flatnonzero(reach[root])
        if len(nodes) > 1:
            values[nodes] = np.abs(np.linalg.eigh(a[np.ix_(nodes, nodes)])[1][:, -1])
    return values


def _dense_filtration(a: np.ndarray, kind: FiltrationKind) -> np.ndarray:
    """A filtration other than degree, from one graph's dense adjacency `a`."""
    if kind is FiltrationKind.BETWEENNESS:
        return _betweenness(a)
    if kind is FiltrationKind.CLOSENESS:
        # 1/d(s, v) summed over the sources s != v in id order, as networkx does
        dist = _hop_paths(a)[0]
        return np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0).sum(axis=0)
    if kind is FiltrationKind.COMMUNICABILITY:
        lam, vec = np.linalg.eigh(a)
        return (vec**2) @ np.exp(lam)
    if kind is FiltrationKind.EIGENVECTOR:
        return _eigenvector(a)
    raise ValueError(f"unknown filtration kind {kind!r}")


def _filtration(table: EdgeTable, kind: FiltrationKind) -> np.ndarray:
    """One finite real per vertex of the table, according to `kind`."""
    if (table.nodes == 0).any():
        raise ValueError("cannot compute a filtration on an empty graph")
    if kind is FiltrationKind.DEGREE:
        return np.bincount(table.edges.ravel(), minlength=int(table.nodes.sum())).astype(float)
    first = np.cumsum(table.nodes) - table.nodes
    local = table.edges - np.repeat(first, table.sizes)[:, None]
    cut = np.append(0, np.cumsum(table.sizes)).tolist()
    values = [np.zeros(0)]
    for g, n in enumerate(table.nodes.tolist()):
        u, v = local[cut[g] : cut[g + 1]].T
        a = np.zeros((n, n))
        a[u, v] = a[v, u] = 1.0
        values.append(_dense_filtration(a, kind))
    return np.concatenate(values)


def _union_find(graph_of, a_of, b_of, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join edge i, (a_of[i], b_of[i]) of graph graph_of[i], in turn, where
    graph g has the vertices 0..nodes[g]-1 and the smaller of two roots is
    the elder. Returns the root each edge kills, or -1 where it closes a
    cycle, and every graph's parent list, one after the other."""
    # local numbers are small ints that Python shares, where global ids would
    # allocate an int object per vertex and edge end (1.3 MB of tu-cold's peak RSS)
    parents = [list(range(k)) for k in nodes.tolist()]
    dying = []
    for g, a, b in zip(graph_of.tolist(), a_of.tolist(), b_of.tolist()):
        parent = parents[g]
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            dying.append(-1)
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        dying.append(b)
    return np.array(dying, dtype=np.int64), np.fromiter(chain.from_iterable(parents), np.int64, int(nodes.sum()))


def _diagrams(table: EdgeTable, values) -> _Points:
    """H0/H1 persistence of the vertex sublevel filtration of every graph.

    Vertex v enters at values[v]; edge (u,v) at max(values[u], values[v]).
    Every merge emits (birth of the younger component, merge value); each
    cycle-closing edge emits an essential H1 class.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (int(table.nodes.sum()),) or not np.all(np.isfinite(values)):
        raise ValueError("need one finite filtration value per vertex")
    # the table is made once the pass's arrays are freed: made above them, it
    # pinned the heap they left (2.3 MB of RSS after a BZR-shaped pass, not 0.7)
    birth, death, owner = _pairs(table, values)
    rows = np.lexsort((death, birth, owner))
    return _Points(table.ids, np.column_stack([birth, death])[rows], owner[rows])


def _pairs(table: EdgeTable, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The births, deaths and owners (dim * graphs + graph) of the pairs of
    `_diagrams`, unsorted: every dim-0 pair, then every dim-1 pair."""
    n = values.size
    u, v = table.edges.T
    fu, fv = values[u], values[v]
    level = np.where(fv > fu, fv, fu)  # Python's max(fu, fv): the first of two equal values
    order = np.lexsort((v, u, level))
    # each graph numbers its vertices by (value, vertex) age, so the elder of
    # two roots is the smaller number; by_age[first[g] + k] is graph g's number k
    vertex_graph = np.repeat(np.arange(len(table.ids)), table.nodes)
    first = np.cumsum(table.nodes) - table.nodes
    by_age = np.lexsort((values, vertex_graph))
    local = np.arange(n) - first[vertex_graph]
    number = np.empty_like(local)
    number[by_age] = local
    edge_graph = np.repeat(np.arange(len(table.ids)), table.sizes)[order]
    dying, parent = _union_find(edge_graph, number[u[order]], number[v[order]], table.nodes)
    merges = dying >= 0
    # dim 0: the merges in edge order, then the surviving roots in vertex
    # order, so a stable sort orders ties as sorting one graph's pairs would;
    # dim 1: the cycles in edge order, owned by graph + number of graphs
    roots = np.sort(by_age[parent == local])
    born = np.concatenate([by_age[first[edge_graph[merges]] + dying[merges]], roots])
    cycles = order[~merges]
    birth = np.concatenate([values[born], level[cycles]])
    death = np.concatenate([level[order[merges]], np.full(roots.size + cycles.size, np.inf)])
    owner = np.concatenate([vertex_graph[born], edge_graph[~merges] + len(table.ids)])
    return birth, death, owner


def dataset_diagrams(table: EdgeTable, kind: FiltrationKind) -> _Points:
    """Every graph's diagram under `kind`, in one pass, as one table of points: its
    `.diagrams()` are graph by graph `sublevel_persistence(g, compute_filtration(g, kind))`."""
    return _diagrams(table, _filtration(table, kind))


def compute_filtration(g: Graph, kind: FiltrationKind) -> np.ndarray:
    """One finite real per vertex, according to `kind`."""
    return _filtration(EdgeTable.of([g]), kind)


def sublevel_persistence(g: Graph, values: np.ndarray) -> PersistenceDiagram:
    """H0/H1 persistence of the vertex sublevel filtration of `g` (see `_diagrams`)."""
    return _diagrams(EdgeTable.of([g]), values).diagrams()[0]


def persistence_image(
    d: PersistenceDiagram,
    resolution: int = 50,
    sigma: float | None = None,
    cap: float = 1.0,
) -> np.ndarray:
    """Gaussian-splat vectorization on a [0,cap]^2 (birth, persistence) grid,
    as a (P, P) array with axis 0 = persistence and axis 1 = birth.

    Each point contributes an isotropic Gaussian of width sigma (default
    cap/20) weighted by persistence/cap; a pixel holds the center-evaluated
    density times the pixel area. Infinite deaths are replaced by `cap`. An
    empty diagram or a cap <= 0 (every finite value 0) gives the zero image.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if sigma is not None and sigma <= 0:
        raise ValueError("sigma must be positive")

    pts = np.concatenate([d.dim0, d.dim1])
    if not len(pts) or cap <= 0:
        return np.zeros((resolution, resolution))
    if sigma is None:
        sigma = cap / 20.0

    births = pts[:, 0]
    deaths = np.minimum(pts[:, 1], cap)
    pers = deaths - births
    weights = pers / cap

    step = cap / resolution
    centers = (np.arange(resolution) + 0.5) * step
    bx = centers[None, None, :]  # birth axis
    py = centers[None, :, None]  # persistence axis
    gauss = np.exp(
        -((bx - births[:, None, None]) ** 2 + (py - pers[:, None, None]) ** 2) / (2.0 * sigma**2)
    ) / (2.0 * math.pi * sigma**2)
    return np.einsum("k,kij->ij", weights, gauss) * step**2


def max_finite_value(diagrams) -> float:
    """Largest finite birth/death across a dataset's diagrams (a list, or
    the dataset pass's table); the default diagram cap."""
    values = _Points.of(diagrams).points.ravel()
    # Python's max keeps the floor +0.0 where numpy's could return -0.0
    return max(0.0, float(values[np.isfinite(values)].max(initial=0.0)))


def diagrams_to_csv(diagrams, path: str | Path, comments: tuple[str, ...] = ()) -> None:
    """One (graph_id, dim, birth, death) row per point of `diagrams` (a list,
    or the table `dataset_diagrams` returns), graph by graph, dim 0 first."""
    table = _Points.of(diagrams)
    n = len(table.ids)
    rows = np.argsort(table.owner % n, kind="stable")
    owner = table.owner[rows]
    columns = [np.asarray(table.ids)[owner % n], owner // n, *table.points[rows].T]
    write_tables([(path, columns, ["graph_id", "dim", "birth", "death"], comments)])


def images_to_csv(
    images: list[tuple[int, np.ndarray]], path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    pixels = np.array([img.reshape(-1) for _, img in images])
    write_tables([(path, [[gid for gid, _ in images], *pixels.T], None, comments)])
