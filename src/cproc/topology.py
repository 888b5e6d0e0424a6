"""Vertex filtrations, sublevel-set persistent homology, persistence images.

Filtrations are numpy on the dense adjacency: betweenness is Brandes'
dependency accumulation and harmonic closeness a sum of 1/d, both over one
level-by-level count of shortest paths from every source; the eigenvector
filtration is the absolute top `eigh` eigenvector of each component.

Sublevel persistence sorts the edges once and pairs them by the elder rule
with a union-find on plain Python lists (path halving), which beats numpy on
graphs of a few dozen vertices. Graphs carry no 2-cells, so every
independent cycle is an essential H1 class (death = +inf); deaths are
capped only when vectorizing or comparing diagrams. Zero-persistence H0
pairs are kept so that the diagram always has exactly one dim-0 entry per
vertex. A persistence image is a plain (P, P) array; diagrams and images
are written through `graphdata.write_table`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphdata import Graph, write_table


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


def compute_filtration(g: Graph, kind: FiltrationKind) -> np.ndarray:
    """One finite real per vertex, according to `kind`."""
    if g.num_nodes == 0:
        raise ValueError("cannot compute a filtration on an empty graph")
    a = g.adjacency()
    if kind is FiltrationKind.DEGREE:
        return a.sum(axis=1)
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


def sublevel_persistence(g: Graph, values: np.ndarray) -> PersistenceDiagram:
    """H0/H1 persistence of the vertex sublevel filtration.

    Vertex v enters at values[v]; edge (u,v) at max(values[u], values[v]).
    Every merge emits (birth of the younger component, merge value); each
    cycle-closing edge emits an essential H1 class.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (g.num_nodes,) or not np.all(np.isfinite(values)):
        raise ValueError("need one finite filtration value per vertex")

    f = values.tolist()
    parent = list(range(g.num_nodes))
    dim0: list[tuple[float, float]] = []
    dim1: list[tuple[float, float]] = []
    for t, u, v in sorted([(max(f[u], f[v]), u, v) for u, v in g.edges]):
        while parent[u] != u:  # path halving
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            dim1.append((t, math.inf))
            continue
        # elder rule: the root with the smaller (value, vertex) survives
        if (f[v], v) < (f[u], u):
            u, v = v, u
        parent[v] = u
        dim0.append((f[v], t))
    dim0.extend((f[r], math.inf) for r in range(g.num_nodes) if parent[r] == r)

    d0 = np.array(sorted(dim0), dtype=float).reshape(-1, 2)
    d1 = np.array(sorted(dim1), dtype=float).reshape(-1, 2)
    return PersistenceDiagram(graph_id=g.id, dim0=d0, dim1=d1)


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


def max_finite_value(diagrams: list[PersistenceDiagram]) -> float:
    """Largest finite birth/death across a dataset; the default diagram cap."""
    values = np.concatenate([np.zeros(0), *(np.ravel(arr) for d in diagrams for arr in (d.dim0, d.dim1))])
    # Python's max keeps the floor +0.0 where numpy's could return -0.0
    return max(0.0, float(values[np.isfinite(values)].max(initial=0.0)))


def diagrams_to_csv(
    diagrams: list[PersistenceDiagram], path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    blocks = [np.asarray(d.points(dim), dtype=float).reshape(-1, 2) for d in diagrams for dim in (0, 1)]
    sizes = [len(block) for block in blocks]
    ids = np.repeat([d.graph_id for d in diagrams for _ in (0, 1)], sizes)
    dims = np.repeat([0, 1] * len(diagrams), sizes)
    points = np.concatenate([np.zeros((0, 2)), *blocks])
    write_table(path, [ids, dims, *points.T], ["graph_id", "dim", "birth", "death"], comments)


def images_to_csv(
    images: list[tuple[int, np.ndarray]], path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    pixels = np.array([img.reshape(-1) for _, img in images])
    write_table(path, [[gid for gid, _ in images], *pixels.T], comments=comments)
