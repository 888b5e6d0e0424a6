import hashlib
import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cproc.errors import ParseError
from cproc.graphdata import Graph
from cproc.similarity import (
    SimilarityMatrix,
    build_similarity_matrix,
    capped_diagram,
    export_matrix_csv,
    knn_indices,
    load_matrix,
    save_matrix,
    wasserstein_distance,
)
from cproc.topology import (
    FiltrationKind,
    PersistenceDiagram,
    compute_filtration,
    max_finite_value,
    sublevel_persistence,
)


def exhaustive_matching_cost(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """Minimum p-power matching cost over every partial bijection, the rest
    matched to the diagonal. Exponential; fine for <= 4 points."""

    def linf(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def diag(x):
        return (x[1] - x[0]) / 2.0

    best = np.inf
    idx_a, idx_b = range(len(a)), range(len(b))
    for k in range(min(len(a), len(b)) + 1):
        for sub_a in itertools.combinations(idx_a, k):
            for sub_b in itertools.permutations(idx_b, k):
                cost = sum(linf(a[i], b[j]) ** p for i, j in zip(sub_a, sub_b))
                cost += sum(diag(a[i]) ** p for i in idx_a if i not in sub_a)
                cost += sum(diag(b[j]) ** p for j in idx_b if j not in sub_b)
                best = min(best, cost)
    return best


def exhaustive_wasserstein(d1, d2, p):
    total = 0.0
    for dim in (0, 1):
        total += exhaustive_matching_cost(d1.points(dim), d2.points(dim), p)
    return total ** (1.0 / p)


def square_matching_cost(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """Slow reference: the (n1+n2)^2 diagonal-augmented assignment, with
    every point (zero persistence included) fed to the solver."""
    if (len(a), a.tobytes()) > (len(b), b.tobytes()):
        a, b = b, a
    n1, n2 = len(a), len(b)
    if n1 == 0 and n2 == 0:
        return 0.0
    diag_a = ((a[:, 1] - a[:, 0]) / 2.0) ** p if n1 else np.zeros(0)
    diag_b = ((b[:, 1] - b[:, 0]) / 2.0) ** p if n2 else np.zeros(0)
    size = n1 + n2
    cost = np.zeros((size, size))
    if n1 and n2:
        cost[:n1, :n2] = (
            np.maximum(
                np.abs(a[:, None, 0] - b[None, :, 0]),
                np.abs(a[:, None, 1] - b[None, :, 1]),
            )
            ** p
        )
    # a-point -> own diagonal slot; all other slots forbidden
    cost[:n1, n2:] = np.inf
    cost[:n1, n2:][np.arange(n1), np.arange(n1)] = diag_a
    cost[n1:, :n2] = np.inf
    cost[n1:, :n2][np.arange(n2), np.arange(n2)] = diag_b
    # diagonal-to-diagonal matches are free (the zero block is already zero)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def reference_wasserstein(d1, d2, p):
    total = 0.0
    for dim in (0, 1):
        a = np.asarray(d1.points(dim), dtype=float).reshape(-1, 2)
        b = np.asarray(d2.points(dim), dtype=float).reshape(-1, 2)
        total += square_matching_cost(a, b, p)
    return total ** (1.0 / p)


def random_diagram(rng, gid=0, max_points=4):
    def pts(k):
        births = rng.uniform(0, 1, size=k)
        deaths = births + rng.uniform(0, 1, size=k)
        return np.column_stack([births, deaths])

    return PersistenceDiagram(gid, pts(int(rng.integers(0, max_points + 1))),
                              pts(int(rng.integers(0, max_points + 1))))


def diag_only(points, gid=0):
    return PersistenceDiagram(gid, np.asarray(points, dtype=float).reshape(-1, 2), np.zeros((0, 2)))


def test_identity_distance_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = random_diagram(rng)
        assert wasserstein_distance(d, d, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_single_point_vs_empty():
    assert wasserstein_distance(diag_only([[0.0, 1.0]]), diag_only([], 1), 1.0) == pytest.approx(0.5)


def test_direct_match_beats_double_diagonal():
    d1, d2 = diag_only([[0.0, 2.0]]), diag_only([[0.0, 1.0]], 1)
    assert wasserstein_distance(d1, d2, 1.0) == pytest.approx(1.0)


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        d1, d2 = random_diagram(rng, 0), random_diagram(rng, 1)
        p = float(rng.choice([1.0, 2.0]))
        assert wasserstein_distance(d1, d2, p) == pytest.approx(
            exhaustive_wasserstein(d1, d2, p), abs=1e-9
        )


def test_symmetry_exact():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d1, d2 = random_diagram(rng, 0), random_diagram(rng, 1)
        assert wasserstein_distance(d1, d2, 1.0) == wasserstein_distance(d2, d1, 1.0)


def test_triangle_inequality():
    rng = np.random.default_rng(22)
    for _ in range(100):
        a, b, c = (random_diagram(rng, i) for i in range(3))
        for p in (1.0, 2.0):
            ab = wasserstein_distance(a, b, p)
            bc = wasserstein_distance(b, c, p)
            ac = wasserstein_distance(a, c, p)
            assert ac <= ab + bc + 1e-9


def test_dims_matched_separately():
    d1 = PersistenceDiagram(0, np.array([[0.0, 1.0]]), np.array([[0.0, 2.0]]))
    d2 = PersistenceDiagram(1, np.zeros((0, 2)), np.zeros((0, 2)))
    # p=2: (0.5^2 + 1.0^2)^(1/2)
    assert wasserstein_distance(d1, d2, 2.0) == pytest.approx(np.sqrt(1.25))


def test_rejects_infinite_points():
    d = PersistenceDiagram(0, np.array([[0.0, np.inf]]), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="cap"):
        wasserstein_distance(d, diag_only([], 1), 1.0)


def test_rejects_bad_order():
    with pytest.raises(ValueError, match="order"):
        wasserstein_distance(diag_only([]), diag_only([], 1), 0.5)


def test_capped_diagram_policy():
    d = PersistenceDiagram(
        0, np.array([[0.0, np.inf], [0.2, 0.7]]), np.array([[0.5, np.inf]])
    )
    capped = capped_diagram(d, cap=2.0)
    assert capped.dim0.tolist() == [[0.2, 0.7]]  # dim0 essentials dropped
    assert capped.dim1.tolist() == [[0.5, 2.0]]  # dim1 essentials capped
    kept = capped_diagram(d, cap=2.0, keep_dim0_essential=True)
    assert kept.dim0.tolist() == [[0.0, 2.0], [0.2, 0.7]]
    only0 = capped_diagram(d, cap=2.0, dims=(0,))
    assert len(only0.dim1) == 0


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_rejects_death_before_birth(p):
    bad, empty = diag_only([[1.0, 0.0]]), diag_only([], 1)
    with pytest.raises(ValueError, match="death precedes its birth"):
        wasserstein_distance(bad, empty, p)
    with pytest.raises(ValueError, match="death precedes its birth"):
        wasserstein_distance(bad, bad, p)


def test_cap_below_a_birth_is_rejected():
    d = PersistenceDiagram(0, np.zeros((0, 2)), np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="death precedes its birth"):
        build_similarity_matrix([d, diag_only([], 1)], cap=0.5)


# --- prepared solver against the square reference -----------------------------


def molecule_like_graph(rng, gid, n, rings):
    """Random tree of valence <= 4 plus up to `rings` ring-closing edges."""
    degree = np.zeros(n, dtype=int)
    edges = set()
    for v in range(1, n):
        u = int(rng.choice(np.flatnonzero(degree[:v] < 4)))
        edges.add((u, v))
        degree[[u, v]] += 1
    for _ in range(20 * rings):
        if len(edges) == n - 1 + rings:
            break
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in edges and degree[u] < 4 and degree[v] < 4:
            edges.add((u, v))
            degree[[u, v]] += 1
    return Graph(id=gid, num_nodes=n, edges=tuple(sorted(edges)), label=gid % 2)


def molecule_like_diagrams(kind, n_graphs=24, seed=0):
    """Capped diagrams of fabricated molecule-like graphs: they carry the
    zero-persistence and duplicate points that random_diagram never draws."""
    rng = np.random.default_rng(seed)
    graphs = [
        molecule_like_graph(rng, gid, int(rng.integers(4, 30)), int(rng.integers(0, 4)))
        for gid in range(n_graphs)
    ]
    diagrams = [sublevel_persistence(g, compute_filtration(g, kind)) for g in graphs]
    cap = max_finite_value(diagrams)
    return [capped_diagram(d, cap) for d in diagrams], cap


@pytest.mark.parametrize("kind", [FiltrationKind.DEGREE, FiltrationKind.EIGENVECTOR])
def test_real_shaped_diagrams_match_square_reference(kind):
    diagrams, cap = molecule_like_diagrams(kind)
    points = np.concatenate([d.dim0 for d in diagrams] + [d.dim1 for d in diagrams])
    assert np.any(points[:, 0] == points[:, 1])  # zero persistence present
    assert len(np.unique(points, axis=0)) < len(points)  # duplicates present
    mat = build_similarity_matrix(diagrams, p=1.0, cap=cap)
    for p in (1.0, 2.0):
        for i, j in itertools.combinations(range(len(diagrams)), 2):
            got = wasserstein_distance(diagrams[i], diagrams[j], p)
            want = reference_wasserstein(diagrams[i], diagrams[j], p)
            if kind is FiltrationKind.DEGREE:
                # integer filtration values: every cost is exact, so is the sum
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-9)
            if p == 1.0:
                assert mat.values[i, j] == got


_coord = st.floats(0.0, 10.0, allow_nan=False)
_point = st.one_of(
    st.tuples(_coord, _coord).map(lambda bd: (min(bd), max(bd))),
    _coord.map(lambda t: (t, t)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda bd: (float(min(bd)), float(max(bd)))),
)
_points = st.lists(_point, max_size=7)
_order = st.sampled_from([1.0, 1.5, 2.0])


def _diagram(gid, dim0, dim1):
    return PersistenceDiagram(
        gid, np.asarray(dim0, dtype=float).reshape(-1, 2), np.asarray(dim1, dtype=float).reshape(-1, 2)
    )


@settings(deadline=None)
@given(_points, _points, _points, _points, _order)
def test_property_matches_square_reference(a0, a1, b0, b1, p):
    a, b = _diagram(0, a0, a1), _diagram(1, b0, b1)
    assert wasserstein_distance(a, b, p) == pytest.approx(reference_wasserstein(a, b, p), abs=1e-9)


@settings(deadline=None)
@given(_points, _points, _points, _points, _order)
def test_property_symmetric_bit_exact(a0, a1, b0, b1, p):
    a, b = _diagram(0, a0, a1), _diagram(1, b0, b1)
    assert wasserstein_distance(a, b, p) == wasserstein_distance(b, a, p)


@settings(deadline=None)
@given(_points, _points, _order)
def test_property_self_distance_zero(a0, a1, p):
    a = _diagram(0, a0, a1)
    assert wasserstein_distance(a, a, p) == 0.0


@settings(deadline=None)
@given(_points, _points, _points, _points, _order, st.data())
def test_property_diagonal_points_change_nothing(a0, a1, b0, b1, p, data):
    a, b = _diagram(0, a0, a1), _diagram(1, b0, b1)

    def with_diagonal_points(pts):
        pts = list(pts)
        for t in data.draw(st.lists(_coord, max_size=5)):
            pts.insert(data.draw(st.integers(0, len(pts))), (t, t))
        return pts

    padded = _diagram(0, with_diagonal_points(a0), with_diagonal_points(a1))
    assert wasserstein_distance(padded, b, p) == wasserstein_distance(a, b, p)


# --- similarity matrix -------------------------------------------------------


def test_identical_diagrams_zero_matrix():
    d = diag_only([[0.0, 1.0]])
    mat = build_similarity_matrix([d, d, d], p=1.0, cap=1.0)
    assert np.array_equal(mat.values, np.zeros((3, 3)))


def test_matrix_entries_match_pairwise_calls():
    rng = np.random.default_rng(33)
    diagrams = [random_diagram(rng, gid) for gid in range(4)]
    cap = 3.0
    mat = build_similarity_matrix(diagrams, p=1.0, cap=cap)
    for i, j in itertools.combinations(range(4), 2):
        want = wasserstein_distance(capped_diagram(diagrams[i], cap), capped_diagram(diagrams[j], cap), 1.0)
        assert mat.values[i, j] == pytest.approx(want, abs=1e-12)
        assert mat.values[i, j] == mat.values[j, i]
    assert np.array_equal(np.diag(mat.values), np.zeros(4))


def test_parallel_matches_serial():
    rng = np.random.default_rng(44)
    diagrams = [random_diagram(rng, gid) for gid in range(8)]
    serial = build_similarity_matrix(diagrams, p=1.0)
    parallel = build_similarity_matrix(diagrams, p=1.0, workers=2)
    assert np.array_equal(serial.values, parallel.values)


# --- knn ----------------------------------------------------------------------


def test_knn_singleton_pool():
    vals = np.array([[0.0, 2.5], [2.5, 0.0]])
    got = knn_indices(vals, [0], [1], K=5)
    assert got.tolist() == [[1]] and vals[0, got[0]].tolist() == [2.5]


def test_knn_sorts_by_distance():
    vals = np.zeros((4, 4))
    vals[0, 1], vals[0, 2], vals[0, 3] = 3.0, 1.0, 2.0
    vals += vals.T
    assert knn_indices(vals, [0], [1, 2, 3], K=2).tolist() == [[2, 3]]


def test_knn_brute_force_oracle():
    rng = np.random.default_rng(55)
    raw = rng.uniform(0, 1, size=(200, 200))
    vals = np.triu(raw, 1)
    vals = vals + vals.T
    pool = list(range(1, 200))
    for _ in range(300):
        q = 0
        K = int(rng.integers(1, 25))
        got = knn_indices(vals, [q], pool, K)[0]
        want = sorted(((vals[q, j], j) for j in pool))[:K]
        assert got.tolist() == [j for _, j in want]


def test_knn_tie_break_by_id_and_pool_order_invariance():
    vals = np.zeros((4, 4))
    vals[0, 1] = vals[0, 2] = vals[0, 3] = 1.0
    vals += vals.T
    a = knn_indices(vals, [0], [3, 1, 2], K=2)
    b = knn_indices(vals, [0], [1, 2, 3], K=2)
    assert a.tolist() == b.tolist() == [[1, 2]]
    assert vals[0, a[0]].tolist() == [1.0, 1.0]


def test_knn_argument_errors():
    vals = np.zeros((2, 2))
    with pytest.raises(ValueError, match="K"):
        knn_indices(vals, [0], [1], K=0)
    with pytest.raises(ValueError, match="pool"):
        knn_indices(vals, [0], [0, 1], K=1)
    with pytest.raises(ValueError, match="empty"):
        knn_indices(vals, [0], [], K=1)


def test_knn_indices_matches_single_queries():
    rng = np.random.default_rng(66)
    raw = rng.uniform(0, 1, (30, 30))
    vals = np.triu(raw, 1)
    vals = vals + vals.T
    queries = np.array([0, 5, 7])
    pool = np.array(sorted(set(range(30)) - {0, 5, 7}))
    block = knn_indices(vals, queries, pool, 6)
    for row, q in zip(block, queries):
        assert row.tolist() == knn_indices(vals, [int(q)], pool, 6)[0].tolist()
        assert row.tolist() == [j for _, j in sorted((vals[q, j], j) for j in pool)][:6]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_knn_tie_rule_pool_order_and_errors(data):
    """Integer distances force ties: rows follow ascending (distance, id),
    the pool's order does not matter, and bad arguments are refused."""
    n = data.draw(st.integers(2, 14))
    raw = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)), float)
    vals = np.minimum(raw.reshape(n, n), raw.reshape(n, n).T)
    np.fill_diagonal(vals, 0.0)
    perm = data.draw(st.permutations(range(n)))
    n_query = data.draw(st.integers(1, n - 1))
    queries, pool = perm[:n_query], perm[n_query:]
    K = data.draw(st.integers(1, len(pool) + 2))
    got = knn_indices(vals, queries, pool, K)
    for row, q in zip(got.tolist(), queries):
        assert row == [j for _, j in sorted((vals[q, j], j) for j in pool)][:K]
    assert np.array_equal(knn_indices(vals, queries, data.draw(st.permutations(pool)), K), got)
    with pytest.raises(ValueError, match="K must be positive"):
        knn_indices(vals, queries, pool, data.draw(st.integers(-3, 0)))
    with pytest.raises(ValueError, match="empty neighbor pool"):
        knn_indices(vals, queries, [], K)
    member = data.draw(st.sampled_from(queries))
    with pytest.raises(ValueError, match=f"query {member} must not be a member of the pool"):
        knn_indices(vals, queries, pool + [member], K)


def reference_knn_indices(values, query_ids, pool_ids, K):
    """Slow reference: a full stable argsort of every row over the id-sorted pool."""
    pool_sorted = np.sort(np.asarray(pool_ids, dtype=np.int64))
    sub = np.asarray(values)[np.ix_(np.asarray(query_ids, dtype=np.int64), pool_sorted)]
    return pool_sorted[np.argsort(sub, axis=1, kind="stable")[:, : min(K, pool_sorted.size)]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_partition_knn_equals_full_sort(data):
    """Integer distances in a small range tie across the K boundary often;
    every K from 1 to |pool| must match the full stable sort, for a dense
    array and for a SimilarityMatrix alike."""
    n = data.draw(st.integers(2, 24))
    top = data.draw(st.integers(0, 4))
    raw = np.array(data.draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n)), float)
    vals = np.minimum(raw.reshape(n, n), raw.reshape(n, n).T)
    np.fill_diagonal(vals, 0.0)
    perm = data.draw(st.permutations(range(n)))
    n_query = data.draw(st.integers(1, n - 1))
    queries, pool = perm[:n_query], perm[n_query:]
    mat = SimilarityMatrix(values=vals)
    for K in range(1, len(pool) + 1):
        want = reference_knn_indices(vals, queries, pool, K)
        assert np.array_equal(knn_indices(vals, queries, pool, K), want)
        assert np.array_equal(knn_indices(mat, queries, pool, K), want)


def test_partition_knn_ties_straddling_the_boundary():
    # distances 1, 0, 1, 1, 2, 1 to ids 1..6: K=3 keeps 0 and the two
    # smallest ids at distance 1, though the partition may pick any of four
    vals = np.zeros((7, 7))
    vals[0, 1:] = [1.0, 0.0, 1.0, 1.0, 2.0, 1.0]
    vals += vals.T
    pool = [6, 5, 4, 3, 2, 1]
    assert knn_indices(vals, [0], pool, 3).tolist() == [[2, 1, 3]]
    assert knn_indices(vals, [0], pool, 5).tolist() == [[2, 1, 3, 4, 6]]
    for K in range(1, 7):
        assert np.array_equal(knn_indices(vals, [0], pool, K), reference_knn_indices(vals, [0], pool, K))


def test_partition_knn_ranks_nan_last_like_the_full_sort():
    vals = np.zeros((6, 6))
    vals[0, 1:] = [np.nan, 3.0, np.nan, 1.0, 2.0]
    for K in range(1, 6):
        assert np.array_equal(knn_indices(vals, [0], range(1, 6), K),
                              reference_knn_indices(vals, [0], range(1, 6), K))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_euclidean_block_bit_equal_to_dense_values(data):
    n = data.draw(st.integers(2, 20))
    dim = data.draw(st.integers(1, 6))
    coords = data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n * dim, max_size=n * dim))
    mat = SimilarityMatrix(points=np.array(coords).reshape(n, dim), p=2.0)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    block = mat.block(rows, cols)
    assert mat.shape == (n, n) and mat.n == n
    assert np.array_equal(block, mat.values[np.ix_(rows, cols)])
    assert np.array_equal(mat.values, mat.values.T) and not np.diag(mat.values).any()


def test_similarity_matrix_needs_one_backend():
    with pytest.raises(ValueError, match="exactly one"):
        SimilarityMatrix()
    with pytest.raises(ValueError, match="exactly one"):
        SimilarityMatrix(values=np.zeros((2, 2)), points=np.zeros((2, 1)))


# --- disk format ---------------------------------------------------------------


def test_matrix_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(77)
    raw = rng.uniform(0, 1, (5, 5))
    vals = np.triu(raw, 1)
    vals = vals + vals.T
    mat = SimilarityMatrix(values=vals, p=2.0, kinds=("degree",), cap=4.0, key="k1")
    save_matrix(mat, tmp_path / "m.simmat")
    back = load_matrix(tmp_path / "m.simmat", expect_key="k1")
    assert np.array_equal(back.values, mat.values)
    assert back.p == 2.0 and back.kinds == ("degree",) and back.cap == 4.0


def test_matrix_key_mismatch(tmp_path):
    mat = SimilarityMatrix(values=np.zeros((2, 2)), p=1.0, kinds=(), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    with pytest.raises(ParseError, match="key mismatch"):
        load_matrix(tmp_path / "m.simmat", expect_key="b")


def test_matrix_corruption_detected(tmp_path):
    mat = SimilarityMatrix(values=np.eye(3), p=1.0, kinds=(), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = (tmp_path / "m.simmat").read_bytes()
    (tmp_path / "m.simmat").write_bytes(blob[: len(blob) - 16])  # truncate values
    with pytest.raises(ParseError, match="truncated"):
        load_matrix(tmp_path / "m.simmat")
    (tmp_path / "m.simmat").write_bytes(b"garbage" + blob[7:])
    with pytest.raises(ParseError, match="magic"):
        load_matrix(tmp_path / "m.simmat")


def test_matrix_csv_export(tmp_path):
    mat = SimilarityMatrix(values=np.array([[0.0, 1.5], [1.5, 0.0]]), p=1.0, kinds=(), cap=1.0)
    export_matrix_csv(mat, tmp_path / "m.csv")
    rows = (tmp_path / "m.csv").read_text().strip().splitlines()
    assert [float(v) for v in rows[0].split(",")] == [0.0, 1.5]


def test_matrix_value_checksum(tmp_path):
    mat = SimilarityMatrix(values=np.eye(3), p=1.0, kinds=(), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = bytearray((tmp_path / "m.simmat").read_bytes())
    blob[-5] ^= 0x01  # one bit of the last value
    (tmp_path / "m.simmat").write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="checksum"):
        load_matrix(tmp_path / "m.simmat")


def test_matrix_format_v1_rejected(tmp_path):
    # the version-1 layout: no checksum of the value block
    values = np.zeros((2, 2))
    blob = json.dumps({"cap": 1.0, "key": "a", "kinds": []}, sort_keys=True).encode()
    with open(tmp_path / "old.simmat", "wb") as fh:
        fh.write(b"CPROCSIM")
        fh.write(struct.pack("<IQd", 1, 2, 1.0))
        fh.write(hashlib.sha256(b"a").digest())
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(values.astype("<f8").tobytes())
    with pytest.raises(ParseError, match="format version 1"):
        load_matrix(tmp_path / "old.simmat", expect_key="a")


def test_matrix_metadata_not_utf8(tmp_path):
    mat = SimilarityMatrix(values=np.eye(2), p=1.0, kinds=(), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = bytearray((tmp_path / "m.simmat").read_bytes())
    blob[101] = 0xFF  # inside the JSON metadata, which starts after the 100-byte header
    (tmp_path / "m.simmat").write_bytes(bytes(blob))
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "m.simmat")
