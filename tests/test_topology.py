import csv
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cproc import topology
from cproc.graphdata import Graph
from cproc.topology import (
    EdgeTable,
    FiltrationKind,
    PersistenceDiagram,
    compute_filtration,
    dataset_diagrams,
    diagrams_to_csv,
    images_to_csv,
    max_finite_value,
    persistence_image,
    sublevel_persistence,
)

import reference
from conftest import random_er_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


def to_nx(g: Graph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.num_nodes))
    gx.add_edges_from(g.edges)
    return gx


def brute_force_betweenness(g: Graph) -> np.ndarray:
    """Enumerate every simple path between every pair; split evenly among
    shortest paths. Independent of the production implementation."""
    gx = to_nx(g)
    values = np.zeros(g.num_nodes)
    for s, t in itertools.combinations(range(g.num_nodes), 2):
        paths = list(nx.all_simple_paths(gx, s, t)) if nx.has_path(gx, s, t) else []
        if s == t or not paths:
            continue
        shortest = min(len(p) for p in paths)
        geodesics = [p for p in paths if len(p) == shortest]
        for p in geodesics:
            for v in p[1:-1]:
                values[v] += 1.0 / len(geodesics)
    return values


def as_multiset(arr: np.ndarray) -> list[tuple[float, float]]:
    return sorted((float(b), float(d)) for b, d in arr)


def test_degree_path(path3):
    assert compute_filtration(path3, FiltrationKind.DEGREE).tolist() == [1.0, 2.0, 1.0]


def test_betweenness_path(path3):
    assert compute_filtration(path3, FiltrationKind.BETWEENNESS).tolist() == [0.0, 1.0, 0.0]


def test_betweenness_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_er_graph(rng, max_nodes=8)
        got = compute_filtration(g, FiltrationKind.BETWEENNESS)
        want = brute_force_betweenness(g)
        assert np.allclose(got, want, atol=1e-9), (g.edges, got, want)


def test_harmonic_closeness_path(path3):
    # end vertices: 1/1 + 1/2; middle: 1/1 + 1/1
    assert compute_filtration(path3, FiltrationKind.CLOSENESS).tolist() == [1.5, 2.0, 1.5]


def test_harmonic_closeness_disconnected():
    g = Graph(id=0, num_nodes=3, edges=((0, 1),), label=0)
    assert compute_filtration(g, FiltrationKind.CLOSENESS).tolist() == [1.0, 1.0, 0.0]


def test_communicability_matches_expm():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_er_graph(rng, max_nodes=12)
        got = compute_filtration(g, FiltrationKind.COMMUNICABILITY)
        want = np.diag(expm(reference.adjacency(g)))
        assert np.allclose(got, want, atol=1e-8)


def test_eigenvector_triangle(triangle):
    got = compute_filtration(triangle, FiltrationKind.EIGENVECTOR)
    assert np.allclose(got, 1.0 / np.sqrt(3.0), atol=1e-9)


def test_eigenvector_matches_eigh_per_component():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_er_graph(rng, max_nodes=12)
        got = compute_filtration(g, FiltrationKind.EIGENVECTOR)
        a = reference.adjacency(g)
        for comp in nx.connected_components(to_nx(g)):
            nodes = sorted(comp)
            if len(nodes) == 1:
                assert got[nodes[0]] == 0.0
                continue
            lam, vec = np.linalg.eigh(a[np.ix_(nodes, nodes)])
            principal = np.abs(vec[:, -1])  # Perron vector is sign-free
            assert np.allclose(got[nodes], principal, atol=1e-12)


def test_eigenvector_bipartite_takes_the_positive_eigenvalue(path3):
    # a bipartite component has both +lambda_max and -lambda_max; the
    # filtration is the Perron vector of +lambda_max
    got = compute_filtration(path3, FiltrationKind.EIGENVECTOR)
    want = np.array([0.5, np.sqrt(0.5), 0.5])
    assert np.allclose(got, want, atol=1e-8)


def clique_with_tail(clique: int = 20, tail: int = 300) -> Graph:
    """A clique with a long path hanging off vertex 0: raw powers of A
    overflow here (19^300 > 1e308), shortest-path counts do not."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(0 if v == clique else v - 1, v) for v in range(clique, clique + tail)]
    return Graph(id=0, num_nodes=clique + tail, edges=tuple(edges), label=0)


def assert_centralities_match_networkx(g: Graph) -> None:
    """Betweenness within relative 1e-12 of networkx, harmonic closeness
    bit-equal to it."""
    gx = to_nx(g)
    bc = nx.betweenness_centrality(gx, normalized=False)
    got = compute_filtration(g, FiltrationKind.BETWEENNESS)
    np.testing.assert_allclose(got, [bc[v] for v in range(g.num_nodes)], rtol=1e-12, atol=0)
    hc = nx.harmonic_centrality(gx)
    assert compute_filtration(g, FiltrationKind.CLOSENESS).tolist() == [hc[v] for v in range(g.num_nodes)]


def test_clique_with_tail_matches_networkx():
    assert_centralities_match_networkx(clique_with_tail())


@st.composite
def _forests_of_blocks(draw) -> Graph:
    """A disjoint union of 1-4 random blocks (isolated vertices included)
    with the vertex ids shuffled across blocks."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    edges, start = [], 0
    for size in sizes:
        pairs = list(itertools.combinations(range(start, start + size), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges += [tuple(sorted((perm[u], perm[v]))) for (u, v), k in zip(pairs, keep) if k]
        start += size
    return Graph(id=0, num_nodes=n, edges=tuple(sorted(edges)), label=0)


@settings(max_examples=200, deadline=None)
@given(_forests_of_blocks())
def test_property_filtrations_match_networkx_and_eigh(g):
    assert_centralities_match_networkx(g)
    x = compute_filtration(g, FiltrationKind.EIGENVECTOR)
    a = reference.adjacency(g)
    for comp in nx.connected_components(to_nx(g)):
        nodes = sorted(comp)
        if len(nodes) == 1:
            assert x[nodes[0]] == 0.0
            continue
        sub, xc = a[np.ix_(nodes, nodes)], x[nodes]
        assert np.all(xc >= 0.0)
        assert abs(np.linalg.norm(xc) - 1.0) <= 1e-12
        assert np.linalg.norm(sub @ xc - np.linalg.eigvalsh(sub)[-1] * xc) <= 1e-10


def test_filtration_empty_graph_rejected():
    g = Graph(id=0, num_nodes=0, edges=(), label=0)
    with pytest.raises(ValueError):
        compute_filtration(g, FiltrationKind.DEGREE)


# --- sublevel persistence -----------------------------------------------------


def test_persistence_two_isolated_vertices():
    g = Graph(id=0, num_nodes=2, edges=(), label=0)
    d = sublevel_persistence(g, np.array([0.0, 1.0]))
    assert as_multiset(d.dim0) == [(0.0, np.inf), (1.0, np.inf)]
    assert len(d.dim1) == 0


def test_persistence_path(path3):
    d = sublevel_persistence(path3, np.array([0.0, 1.0, 2.0]))
    assert as_multiset(d.dim0) == [(0.0, np.inf), (1.0, 1.0), (2.0, 2.0)]
    assert len(d.dim1) == 0


def test_persistence_flat_triangle(triangle):
    d = sublevel_persistence(triangle, np.zeros(3))
    assert as_multiset(d.dim0) == [(0.0, 0.0), (0.0, 0.0), (0.0, np.inf)]
    assert as_multiset(d.dim1) == [(0.0, np.inf)]


def test_persistence_structure_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        g = random_er_graph(rng)
        values = rng.normal(size=g.num_nodes)
        d = sublevel_persistence(g, values)
        n_comp = nx.number_connected_components(to_nx(g))
        assert len(d.dim0) == g.num_nodes
        assert np.isinf(d.dim0[:, 1]).sum() == n_comp
        assert len(d.dim1) == len(g.edges) - g.num_nodes + n_comp
        assert np.all(d.dim0[:, 1] >= d.dim0[:, 0])


def assert_bit_equal(a: PersistenceDiagram, b: PersistenceDiagram) -> None:
    assert a.graph_id == b.graph_id
    for dim in (0, 1):
        x, y = a.points(dim), b.points(dim)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def graphs_with_values(draw):
    """Graphs with isolated vertices, several components or no edges, and
    values with ties, equal values of both signs of zero, or one value."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = {(min(u, v), max(u, v)): (u, v) for u, v in pairs if u != v}
    g = Graph(id=draw(st.integers(0, 9)), num_nodes=n, edges=tuple(edges.values()), label=0)
    pool = draw(st.sampled_from(((0.0,), (0.0, -0.0), (0.0, 1.0, 2.0), (-1.5, 0.25, 0.25, 3.0))))
    values = draw(st.lists(st.sampled_from(pool) | st.floats(-5, 5), min_size=n, max_size=n))
    return g, np.array(values)


@settings(max_examples=400, deadline=None)
@given(case=graphs_with_values())
def test_persistence_equals_union_find_reference(case):
    g, values = case
    assert_bit_equal(sublevel_persistence(g, values), reference.sublevel_persistence(g, values))


def test_persistence_equals_reference_on_a_bzr_shaped_set():
    tu = gen.tu_set(gen.BZR_LIKE, seed=0)
    graphs = [
        Graph(id=i, num_nodes=int(k), edges=tuple(e), label=0) for i, (k, e) in enumerate(zip(tu.sizes, tu.edges))
    ]
    for kind in FiltrationKind:
        for g in graphs:
            values = compute_filtration(g, kind)
            assert_bit_equal(sublevel_persistence(g, values), reference.sublevel_persistence(g, values))


@st.composite
def datasets_with_values(draw, min_nodes: int = 0):
    """1-6 graphs, some without edges and, with `min_nodes` 0, some without
    nodes; edges keep the orientation they are drawn in. The values are
    tie-heavy: small integers, zeros of both signs, or a few floats."""
    graphs = []
    for gid in range(draw(st.integers(1, 6))):
        n = draw(st.integers(min_nodes, 8))
        ends = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
        edges = {(min(u, v), max(u, v)): (u, v) for u, v in pairs if u != v}
        graphs.append(Graph(id=draw(st.integers(0, 9)), num_nodes=n, edges=tuple(edges.values()), label=0))
    total = sum(g.num_nodes for g in graphs)
    pool = st.integers(-2, 3).map(float) | st.sampled_from((0.0, -0.0, 0.25, 0.1 + 0.2)) | st.floats(-5, 5)
    return graphs, np.array(draw(st.lists(pool, min_size=total, max_size=total)), dtype=float)


@settings(max_examples=400, deadline=None)
@given(case=datasets_with_values())
def test_dataset_persistence_equals_the_reference_graph_by_graph(case):
    graphs, values = case
    table = topology._diagrams(EdgeTable.of(graphs), values)
    diagrams = table.diagrams()
    cuts = np.cumsum([0] + [g.num_nodes for g in graphs]).tolist()
    assert len(diagrams) == len(graphs)
    # the pass's table is the diagrams' points stacked dim 0 first, owned by dim * n + graph
    stacked = topology._Points.of(diagrams)
    assert table.ids == stacked.ids == tuple(g.id for g in graphs)
    assert table.points.tobytes() == stacked.points.tobytes()
    assert table.owner.tolist() == stacked.owner.tolist()
    for g, d, lo, hi in zip(graphs, diagrams, cuts, cuts[1:]):
        assert_bit_equal(d, reference.sublevel_persistence(g, values[lo:hi]))
        assert_bit_equal(sublevel_persistence(g, values[lo:hi]), d)


@settings(max_examples=100, deadline=None)
@given(case=datasets_with_values(min_nodes=1))
def test_dataset_diagrams_equal_the_one_graph_calls(case):
    graphs, _ = case
    table = EdgeTable.of(graphs)
    degree = np.concatenate([reference.adjacency(g).sum(axis=1) for g in graphs])
    assert topology._filtration(table, FiltrationKind.DEGREE).tobytes() == degree.tobytes()
    for kind in FiltrationKind:
        for g, d in zip(graphs, dataset_diagrams(table, kind).diagrams(), strict=True):
            values = compute_filtration(g, kind)
            assert_bit_equal(d, reference.sublevel_persistence(g, values))
            if kind is FiltrationKind.DEGREE:
                assert values.tobytes() == reference.adjacency(g).sum(axis=1).tobytes()


@pytest.mark.parametrize("edit", [
    lambda v: np.append(v, 1.0), lambda v: v[:-1], lambda v: np.where(v == v.max(), np.nan, v),
    lambda v: np.where(v == v.min(), -np.inf, v),
])
def test_persistence_refuses_values_that_are_not_one_finite_value_per_vertex(edit, triangle, path3):
    graphs = [triangle, replace(path3, id=1)]
    values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="^need one finite filtration value per vertex$"):
        topology._diagrams(EdgeTable.of(graphs), edit(values))
    with pytest.raises(ValueError, match="^need one finite filtration value per vertex$"):
        sublevel_persistence(triangle, edit(values[:3]))


def test_dataset_filtration_refuses_a_graph_without_nodes(triangle):
    table = EdgeTable.of([triangle, Graph(id=1, num_nodes=0, edges=(), label=0)])
    with pytest.raises(ValueError, match="cannot compute a filtration on an empty graph"):
        dataset_diagrams(table, FiltrationKind.DEGREE)


def test_persistence_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_er_graph(rng, max_nodes=15)
        values = rng.normal(size=g.num_nodes)
        base = sublevel_persistence(g, values)
        shifted = sublevel_persistence(g, values + 2.5)
        for dim in (0, 1):
            a, b = base.points(dim), shifted.points(dim)
            assert np.allclose(np.asarray(as_multiset(a)) + 2.5, as_multiset(b))


def test_persistence_permutation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_er_graph(rng, max_nodes=12)
        values = rng.normal(size=g.num_nodes)
        perm = rng.permutation(g.num_nodes)
        g2 = Graph(
            id=g.id,
            num_nodes=g.num_nodes,
            edges=tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)),
            label=g.label,
        )
        values2 = np.empty_like(values)
        values2[perm] = values
        a = sublevel_persistence(g, values)
        b = sublevel_persistence(g2, values2)
        for dim in (0, 1):
            assert as_multiset(a.points(dim)) == as_multiset(b.points(dim))


# --- persistence images --------------------------------------------------------


def test_image_empty_diagram():
    # with cap 0 (every finite value 0) the default sigma is 0 as well; the image is still all zeros
    for points, cap in ((np.zeros((0, 2)), 1.0), (np.array([[0.0, np.inf], [0.0, 0.0]]), 0.0)):
        d = PersistenceDiagram(0, points, np.zeros((0, 2)))
        for sigma in (0.1, None):
            img = persistence_image(d, resolution=10, sigma=sigma, cap=cap)
            assert img.shape == (10, 10)
            assert np.all(img == 0.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            persistence_image(d, resolution=10, sigma=0.0, cap=cap)


def test_image_single_point_mass_and_location():
    # birth 0.31 and persistence 0.63 are pixel centers at P=50, cap=1
    d = PersistenceDiagram(0, np.array([[0.31, 0.94]]), np.zeros((0, 2)))
    img = persistence_image(d, resolution=50, sigma=0.04, cap=1.0)
    # total mass approximates the weight w = persistence / cap
    assert img.sum() == pytest.approx(0.63, rel=0.05)
    iy, ix = np.unravel_index(np.argmax(img), img.shape)
    assert (iy, ix) == (31, 15)


def test_image_pixel_matches_quadrature():
    from scipy.integrate import dblquad

    d = PersistenceDiagram(0, np.array([[0.4, np.inf]]), np.zeros((0, 2)))
    img = persistence_image(d, resolution=10, sigma=0.2, cap=1.0)
    birth, pers, w = 0.4, 0.6, 0.6
    ix, iy = 5, 7
    lo_x, hi_x = ix * 0.1, (ix + 1) * 0.1
    lo_y, hi_y = iy * 0.1, (iy + 1) * 0.1

    def density(y, x):
        return w * np.exp(-((x - birth) ** 2 + (y - pers) ** 2) / (2 * 0.2**2)) / (2 * np.pi * 0.2**2)

    exact, _ = dblquad(density, lo_x, hi_x, lo_y, hi_y)
    assert img[iy, ix] == pytest.approx(exact, rel=0.02)


def test_image_resolution_50_flattens_to_2500():
    d = PersistenceDiagram(0, np.array([[0.1, 0.5]]), np.zeros((0, 2)))
    assert persistence_image(d, resolution=50, cap=1.0).reshape(-1).shape == (2500,)


def test_image_infinite_deaths_capped():
    d = PersistenceDiagram(0, np.array([[0.0, np.inf]]), np.array([[0.5, np.inf]]))
    img = persistence_image(d, resolution=20, sigma=0.05, cap=2.0)
    assert np.all(np.isfinite(img)) and img.sum() > 0


# --- serialization --------------------------------------------------------------


def diagrams_from_csv(path) -> list[PersistenceDiagram]:
    """Reads a `diagrams_to_csv` file back, one diagram per graph id."""
    rows: dict[int, dict[int, list[tuple[float, float]]]] = {}
    with open(path, newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        next(reader)
        for gid_s, dim_s, birth_s, death_s in reader:
            gid, dim = int(gid_s), int(dim_s)
            death = np.inf if death_s == "inf" else float(death_s)
            rows.setdefault(gid, {0: [], 1: []})[dim].append((float(birth_s), death))
    out = []
    for gid in sorted(rows):
        out.append(
            PersistenceDiagram(
                graph_id=gid,
                dim0=np.array(sorted(rows[gid][0]), dtype=float).reshape(-1, 2),
                dim1=np.array(sorted(rows[gid][1]), dtype=float).reshape(-1, 2),
            )
        )
    return out


def test_diagram_csv_roundtrip(tmp_path, triangle):
    d1 = sublevel_persistence(triangle, np.array([0.0, 0.5, 1.0]))
    g2 = Graph(id=1, num_nodes=2, edges=((0, 1),), label=0)
    d2 = sublevel_persistence(g2, np.array([0.25, 0.75]))
    # values whose text is easy to get wrong are written as repr writes them
    d3 = PersistenceDiagram(2, np.array([[-0.0, np.inf], [5e-324, 0.1 + 0.2]]), np.array([[0.1 + 0.2, np.inf]]))
    diagrams_to_csv([d1, d2, d3], tmp_path / "d.csv", comments=("test",))
    back = diagrams_from_csv(tmp_path / "d.csv")
    for orig, loaded in zip([d1, d2, d3], back):
        assert loaded.graph_id == orig.graph_id
        for dim in (0, 1):
            assert as_multiset(loaded.points(dim)) == as_multiset(orig.points(dim))
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[-3:] == ["2,0,-0.0,inf", "2,0,5e-324,0.30000000000000004", "2,1,0.30000000000000004,inf"]
    images_to_csv([(2, np.array([[-0.0, 5e-324], [0.1 + 0.2, np.inf]]))], tmp_path / "i.csv")
    assert (tmp_path / "i.csv").read_bytes() == b"2,-0.0,5e-324,0.30000000000000004,inf\r\n"


@settings(max_examples=150, deadline=None)
@given(case=datasets_with_values())
def test_property_diagrams_csv_of_the_table_equals_its_diagrams(tmp_path_factory, case):
    """The pass's table and the list of its diagrams write the same bytes:
    graph by graph, dim 0 first, each diagram's points in their order."""
    graphs, values = case
    table = topology._diagrams(EdgeTable.of(graphs), values)
    root = tmp_path_factory.mktemp("csv")
    diagrams_to_csv(table, root / "table.csv", comments=("c",))
    diagrams_to_csv(table.diagrams(), root / "list.csv", comments=("c",))
    rows = [f"{d.graph_id},{dim},{b!r},{e!r}" for d in table.diagrams() for dim in (0, 1)
            for b, e in d.points(dim).tolist()]
    want = "# c\n" + "\r\n".join(["graph_id,dim,birth,death", *rows, ""])
    assert (root / "table.csv").read_bytes() == (root / "list.csv").read_bytes() == want.encode()


def test_max_finite_value():
    d = PersistenceDiagram(0, np.array([[0.0, np.inf], [1.0, 3.5]]), np.array([[2.0, np.inf]]))
    assert max_finite_value([d]) == 3.5
