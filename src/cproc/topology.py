"""Vertex filtrations, sublevel-set persistent homology, persistence images.

Graphs carry no 2-cells, so every independent cycle is an essential H1 class
(death = +inf); deaths are capped only when vectorizing or comparing
diagrams. Zero-persistence H0 pairs are kept so that the diagram always has
exactly one dim-0 entry per vertex. A persistence image is a plain (P, P)
array; diagrams and images are written through `graphdata.write_table`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

from .errors import NumericalError
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


def _to_networkx(g: Graph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.num_nodes))
    gx.add_edges_from(g.edges)
    return gx


def _eigenvector_values(g: Graph) -> np.ndarray:
    """Principal adjacency eigenvector per connected component, L2-normalized.

    Power iteration runs on A + I; the shift leaves eigenvectors unchanged but
    guarantees a dominant eigenvalue on bipartite components. It stops when a
    step moves the vector by at most 1e-10 and fails after 10,000 steps.
    Isolated vertices get 0.
    """
    values = np.zeros(g.num_nodes)
    a = g.adjacency()
    for comp in nx.connected_components(_to_networkx(g)):
        nodes = sorted(comp)
        if len(nodes) == 1:
            continue
        sub = a[np.ix_(nodes, nodes)] + np.eye(len(nodes))
        x = np.full(len(nodes), 1.0 / math.sqrt(len(nodes)))
        for _ in range(10_000):
            y = sub @ x
            y /= np.linalg.norm(y)
            if np.linalg.norm(y - x) <= 1e-10:
                x = y
                break
            x = y
        else:
            raise NumericalError(
                f"eigenvector power iteration did not converge on graph {g.id} "
                f"(component of size {len(nodes)})"
            )
        values[nodes] = x
    return values


def compute_filtration(g: Graph, kind: FiltrationKind) -> np.ndarray:
    """One finite real per vertex, according to `kind`."""
    if g.num_nodes == 0:
        raise ValueError("cannot compute a filtration on an empty graph")
    if kind is FiltrationKind.DEGREE:
        return g.degrees()
    if kind is FiltrationKind.BETWEENNESS:
        cent = nx.betweenness_centrality(_to_networkx(g), normalized=False)
        return np.array([cent[v] for v in range(g.num_nodes)])
    if kind is FiltrationKind.CLOSENESS:
        cent = nx.harmonic_centrality(_to_networkx(g))
        return np.array([cent[v] for v in range(g.num_nodes)])
    if kind is FiltrationKind.COMMUNICABILITY:
        lam, vec = np.linalg.eigh(g.adjacency())
        return (vec**2) @ np.exp(lam)
    if kind is FiltrationKind.EIGENVECTOR:
        return _eigenvector_values(g)
    raise ValueError(f"unknown filtration kind {kind!r}")


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
        # ru is now the elder; rv's component dies
        dying_birth = self.birth[rv][0]
        self.parent[rv] = ru
        return dying_birth


def sublevel_persistence(g: Graph, values: np.ndarray) -> PersistenceDiagram:
    """H0/H1 persistence of the vertex sublevel filtration.

    Vertex v enters at values[v]; edge (u,v) at max(values[u], values[v]).
    Every merge emits (birth of the younger component, merge value); each
    cycle-closing edge emits an essential H1 class.
    """
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
    density times the pixel area. Infinite deaths are replaced by `cap`.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if sigma is None:
        sigma = cap / 20.0
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    pts = [p for dim in (d.dim0, d.dim1) for p in dim]
    if not pts or cap <= 0:
        return np.zeros((resolution, resolution))

    births = np.array([p[0] for p in pts])
    deaths = np.minimum(np.array([p[1] for p in pts]), cap)
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
    best = 0.0
    for d in diagrams:
        for arr in (d.dim0, d.dim1):
            finite = arr[np.isfinite(arr)]
            if finite.size:
                best = max(best, float(finite.max()))
    return best


def diagrams_to_csv(
    diagrams: list[PersistenceDiagram], path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    rows = (
        [d.graph_id, dim, repr(float(birth)), "inf" if math.isinf(death) else repr(float(death))]
        for d in diagrams
        for dim in (0, 1)
        for birth, death in d.points(dim)
    )
    write_table(path, rows, ["graph_id", "dim", "birth", "death"], comments)


def images_to_csv(
    images: list[tuple[int, np.ndarray]], path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    rows = ([gid, *map(repr, img.reshape(-1).tolist())] for gid, img in images)
    write_table(path, rows, comments=comments)
