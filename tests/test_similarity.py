import hashlib
import itertools
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist, squareform

import cproc.similarity as similarity
from cproc.errors import ParseError
from cproc.graphdata import Graph
from cproc.similarity import (
    SimilarityMatrix,
    build_similarity_matrix,
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

from conftest import write_simmat_v2
from reference import matching_cost


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


def hand_capped(d, cap):
    """A hand-capped copy, as a build caps: dim0 keeps its finite pairs, dim1 deaths are capped at `cap`."""
    return PersistenceDiagram(d.graph_id, d.dim0[np.isfinite(d.dim0[:, 1])],
                              np.column_stack([d.dim1[:, 0], np.minimum(d.dim1[:, 1], cap)]))


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
    for p in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="order"):
            wasserstein_distance(diag_only([]), diag_only([], 1), p)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_build_drops_dim0_essentials_and_caps_dim1_deaths(p):
    d = PersistenceDiagram(0, np.array([[0.0, np.inf], [0.2, 0.7]]), np.array([[0.5, np.inf]]))
    empty = PersistenceDiagram(1, np.array([[0.0, np.inf]]), np.zeros((0, 2)))
    # d is left with (0.2, 0.7) in dim0 and (0.5, 2.0) in dim1, the other with nothing
    want = (0.25**p + 0.75**p) ** (1 / p)
    assert build_similarity_matrix([d, empty], p=p, cap=2.0).values[0, 1] == pytest.approx(want)
    rng = np.random.default_rng(8)
    diagrams = []
    for gid in range(6):
        r = random_diagram(rng, gid)
        essential = np.column_stack([rng.uniform(0, 1, 2), [np.inf, 1.5]])
        diagrams.append(PersistenceDiagram(gid, np.vstack([r.dim0, essential[:1]]), np.vstack([r.dim1, essential])))
    mat = build_similarity_matrix(diagrams, p=p, cap=2.5)
    capped = [hand_capped(d, 2.5) for d in diagrams]
    for i, j in itertools.combinations(range(6), 2):
        assert mat.values[i, j] == wasserstein_distance(capped[i], capped[j], p)


def test_a_fault_names_the_graph_id_and_dimension():
    ok = [diag_only([[0.0, 1.0]], gid) for gid in (5, 3)]
    backwards = PersistenceDiagram(9, np.array([[0.0, 2.0]]), np.array([[2.0, 1.0]]))
    with pytest.raises(ValueError, match=r"^diagram 9 dim1 contains a point whose death precedes its birth$"):
        build_similarity_matrix([*ok, backwards, diag_only([], 1)], cap=4.0)
    # within one diagram and dimension a non-finite point is named before a backwards one
    both = PersistenceDiagram(7, np.zeros((0, 2)), np.array([[1.0, 0.0], [0.5, np.inf]]))
    with pytest.raises(ValueError, match=r"^diagram 7 dim1 contains non-finite points; cap essential deaths first"):
        wasserstein_distance(ok[1], both, 1.0)
    with pytest.raises(ValueError, match="order"):  # the order is checked before any point
        wasserstein_distance(ok[1], both, 0.5)
    nan = PersistenceDiagram(4, np.array([[np.nan, 1.0]]), np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"^diagram 4 dim0 contains non-finite points"):
        build_similarity_matrix([ok[0], nan, ok[1]])


def test_dim0_faults_come_first_and_the_diagrams_stay_unchanged():
    # the earlier diagram's dim-1 fault is named after the later one's dim-0 fault
    dim1_fault = PersistenceDiagram(2, np.zeros((0, 2)), np.array([[3.0, 1.0]]))
    dim0_fault = PersistenceDiagram(8, np.array([[2.0, 1.0]]), np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"^diagram 8 dim0 "):
        build_similarity_matrix([dim1_fault, dim0_fault], cap=5.0)
    diagrams = [PersistenceDiagram(0, np.array([[0.0, np.inf], [1.0, 1.0]]), np.array([[0.5, np.inf], [1.0, 4.0]])),
                PersistenceDiagram(1, np.array([[0.0, 2.0]]), np.array([[1.0, np.inf]]))]
    before = [(d.dim0.copy(), d.dim1.copy()) for d in diagrams]
    for p in (1.0, 2.0):
        build_similarity_matrix(diagrams, p=p, cap=3.0)
    for d, (dim0, dim1) in zip(diagrams, before):
        assert np.array_equal(d.dim0, dim0) and np.array_equal(d.dim1, dim1)


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
    return [hand_capped(d, cap) for d in diagrams], cap


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
@given(_points, _points, _points, _points, _points, _points, _order)
def test_property_triangle_inequality(a0, a1, b0, b1, c0, c1, p):
    a, b, c = _diagram(0, a0, a1), _diagram(1, b0, b1), _diagram(2, c0, c1)
    ab, bc, ac = (wasserstein_distance(x, y, p) for x, y in ((a, b), (b, c), (a, c)))
    assert ac <= ab + bc + 1e-9


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


# --- the batched pair costs ---------------------------------------------------


def _all_pair_costs(point_sets, p):
    """`_matching_costs` of every pair of the given point sets, as the dim-1
    sets of diagrams with an empty dim 0 (both orientations and blocks of one
    cell give the same bytes), with the prepared sets (diagram i's dim 1 is
    set n + i), the diagrams and their pairs."""
    n = len(point_sets)
    diagrams = [_diagram(gid, [], pts) for gid, pts in enumerate(point_sets)]
    sets = similarity._per_diagram(*similarity._point_tables(diagrams, p), 2 * n, p)
    first, second = np.triu_indices(n, 1)
    costs = similarity._matching_costs(sets, n + first, n + second, p)
    assert similarity._matching_costs(sets, n + second, n + first, p).tobytes() == costs.tobytes()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(similarity, "_DP_BLOCK_CELLS", 1)
        assert similarity._matching_costs(sets, n + first, n + second, p).tobytes() == costs.tobytes()
    return costs, sets, diagrams, zip(first.tolist(), second.tolist())


# sets whose points have pairwise different deaths: no two points share one,
# so every pair of nonempty sets (one point each aside) takes the assignment
_distinct_deaths = st.lists(_point, max_size=7, unique_by=lambda pt: pt[1])


@settings(deadline=None)
@given(st.lists(_distinct_deaths, min_size=1, max_size=6), _order)
def test_property_batched_assignments_equal_the_one_pair_reference(sets, p):
    """Point sets of up to seven points, empty ones among them, plus a copy
    (equal keys) and a reversed copy of the first: every batched cost has the
    bits of the one-pair assignment."""
    sets = [*sets, sets[0], sets[0][::-1]]
    costs, prepared, _, pairs = _all_pair_costs(sets, p)
    for k, (i, j) in enumerate(pairs):
        assert costs[k] == matching_cost(prepared, len(sets) + i, len(sets) + j, p)


# births on [0, 10] against the one death 10: repeated values give tied
# births and tied costs, and a birth of 10 is a zero-persistence point
_shared_birth = st.one_of(st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0]), _coord)


@settings(deadline=None)
@given(st.lists(st.lists(_shared_birth, max_size=5), min_size=1, max_size=5), _order)
def test_property_shared_death_dp_matches_assignment(births, p):
    """Diagrams whose dim-1 points share one death, in any order, with empty
    diagrams and copies (one with equal keys, one in reverse order): every DP
    cost is the assignment's and the square reference's, both orientations
    give the same bits, and so do blocks of one cell."""
    births = [*births, births[0], births[0][::-1]]
    dp, prepared, diagrams, pairs = _all_pair_costs([[(b, 10.0) for b in bs] for bs in births], p)
    for k, (i, j) in enumerate(pairs):
        assert dp[k] == pytest.approx(matching_cost(prepared, len(births) + i, len(births) + j, p), abs=1e-9)
        assert dp[k] == pytest.approx(square_matching_cost(diagrams[i].dim1, diagrams[j].dim1, p), abs=1e-9)
        assert wasserstein_distance(diagrams[i], diagrams[j], p) == wasserstein_distance(diagrams[j], diagrams[i], p)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_shared_birth, min_size=8, max_size=40), min_size=1, max_size=4), _order)
def test_property_large_shared_death_sets_take_the_assignment(births, p):
    """Sets of 8-40 points that share one death, with an empty set: numpy
    sums eight or more terms pairwise, so these take the assignment and keep
    the one-pair reference's bits."""
    births = [[], *births, births[0][::-1]]
    costs, prepared, _, pairs = _all_pair_costs([[(b, 10.0) for b in bs] for bs in births], p)
    for k, (i, j) in enumerate(pairs):
        assert costs[k] == matching_cost(prepared, len(births) + i, len(births) + j, p)


def test_only_sets_that_share_one_death_take_the_dp(monkeypatch):
    # an empty set pairs with any set; two sets pair when every point of both
    # has one death; every other pair solves one assignment of its own shape
    sets = [[], [(0.0, 4.0), (1.0, 4.0)], [(2.0, 4.0)], [(2.0, 5.0)], [(0.0, 4.0), (1.0, 5.0)]]
    diagrams = [_diagram(gid, [], pts) for gid, pts in enumerate(sets)]
    prepared = similarity._per_diagram(*similarity._point_tables(diagrams, 1.0), 2 * len(sets), 1.0)
    first, second = np.triu_indices(len(sets), 1)
    first, second = first + len(sets), second + len(sets)  # the dim-1 sets
    shapes = []

    def counted(cost):
        shapes.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(similarity, "linear_sum_assignment", counted)
    dp = similarity._matching_costs(prepared, first, second, 1.0)
    # sets {1, 3}, {2, 4} and {3, 4} are (1, 1 + 2), {2, 3} is (1, 1 + 1), {1, 4} is (2, 2 + 2)
    assert sorted(shapes) == [(1, 2), (1, 3), (1, 3), (1, 3), (2, 4)]
    assert dp[0] == 3.5  # the empty set against (0, 4) and (1, 4): 2 + 1.5
    assert dp[4] == 3.0  # (2, 4) matches (1, 4) at 1 and (0, 4) goes to its diagonal at 2


# --- similarity matrix -------------------------------------------------------


def test_identical_diagrams_zero_matrix():
    d = diag_only([[0.0, 1.0]])
    mat = build_similarity_matrix([d, d, d], p=1.0, cap=1.0)
    assert np.array_equal(mat.values, np.zeros((3, 3)))
    assert build_similarity_matrix([], p=1.0).values.shape == (0, 0)


def test_matrix_entries_match_pairwise_calls():
    rng = np.random.default_rng(33)
    diagrams = [random_diagram(rng, gid) for gid in range(4)]
    cap = 3.0
    mat = build_similarity_matrix(diagrams, p=1.0, cap=cap)
    for i, j in itertools.combinations(range(4), 2):
        want = wasserstein_distance(hand_capped(diagrams[i], cap), hand_capped(diagrams[j], cap), 1.0)
        assert mat.values[i, j] == pytest.approx(want, abs=1e-12)
        assert mat.values[i, j] == mat.values[j, i]
    assert np.array_equal(np.diag(mat.values), np.zeros(4))


def test_parallel_matches_serial():
    rng = np.random.default_rng(44)
    diagrams = [random_diagram(rng, gid) for gid in range(8)]
    serial = build_similarity_matrix(diagrams, p=1.0)
    parallel = build_similarity_matrix(diagrams, p=1.0, workers=2)
    assert np.array_equal(serial.values, parallel.values)


# --- the p = 1 dual path and its fallback -----------------------------------

# integer points with birth 0..5 and persistence 0..4: zero persistence included
_lattice_point = st.tuples(st.integers(0, 5), st.integers(0, 4)).map(lambda bl: (float(bl[0]), float(sum(bl))))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_dual_build_bit_equal_to_pairwise_distances(data):
    """Diagrams over random integer lattices of 1-8 types per dimension, with
    duplicates and empty dimensions: every entry is the pairwise distance."""
    lattices = [data.draw(st.lists(_lattice_point, min_size=1, max_size=8, unique=True)) for _ in (0, 1)]
    n = data.draw(st.integers(2, 12))
    diagrams = [
        _diagram(gid, *(data.draw(st.lists(st.sampled_from(types), max_size=6)) for types in lattices))
        for gid in range(n)
    ]
    mat = build_similarity_matrix(diagrams, p=1.0)
    capped = [hand_capped(d, mat.cap) for d in diagrams]
    for i, j in itertools.permutations(range(n), 2):
        assert mat.values[i, j] == wasserstein_distance(capped[i], capped[j], 1.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_dual_embedding_is_symmetric_under_negation(data):
    """The vertex set of the dual polytope is closed under g -> -g, so for any
    two rows of the embedding the largest difference either way is the same:
    the Chebyshev distance of the rows is the largest (c_a - c_b) . g."""
    lattices = [data.draw(st.lists(_lattice_point, min_size=1, max_size=8, unique=True)) for _ in (0, 1)]
    n = data.draw(st.integers(2, 12))
    diagrams = [
        _diagram(gid, *(data.draw(st.lists(st.sampled_from(types), max_size=6)) for types in lattices))
        for gid in range(n)
    ]
    pts, owner = similarity._point_tables(diagrams, 1.0, max_finite_value(diagrams))
    for dim in (0, 1):
        rows = owner // n == dim
        embedding = similarity._dual_embedding(pts[rows], owner[rows] - dim * n, n)
        if embedding is None:  # a polytope past the lattice limit has none
            continue
        for i, j in itertools.combinations(range(n), 2):
            assert (embedding[i] - embedding[j]).max() == (embedding[j] - embedding[i]).max()


def test_many_copies_of_one_point_are_exact_without_assignments(monkeypatch):
    # 150,001 copies of (1, 4), each 1.5 from the diagonal, against an empty diagram
    copies = 150_001
    diagrams = [_diagram(0, np.tile([1.0, 4.0], (copies, 1)), []), _diagram(1, [], [])]
    mat, calls = assignment_calls(monkeypatch, lambda: build_similarity_matrix(diagrams, p=1.0))
    assert calls == 0
    assert mat.values[0, 1] == mat.values[1, 0] == copies * 1.5


def test_integer_diagrams_solve_no_assignment(monkeypatch):
    diagrams, cap = molecule_like_diagrams(FiltrationKind.DEGREE, 60)
    want = [[wasserstein_distance(a, b, 1.0) for b in diagrams] for a in diagrams]

    def refuse(cost):
        raise AssertionError("the dual path solves no assignment")

    monkeypatch.setattr(similarity, "linear_sum_assignment", refuse)
    assert np.array_equal(build_similarity_matrix(diagrams, p=1.0, cap=cap).values, want)


def test_capped_dim1_solves_no_assignment(monkeypatch):
    # eigenvector-shaped: one assignment per pair, each the shape of the pair's dim-0 sets
    diagrams, cap = molecule_like_diagrams(FiltrationKind.EIGENVECTOR)
    shapes = []

    def counted(cost):
        shapes.append(cost.shape)
        return linear_sum_assignment(cost)

    with monkeypatch.context() as m:
        m.setattr(similarity, "linear_sum_assignment", counted)
        build_similarity_matrix(diagrams, p=1.0, cap=cap)
    prepared = similarity._per_diagram(*similarity._point_tables(diagrams, 1.0, cap), 2 * len(diagrams), 1.0)
    size, rank = prepared.size[: len(diagrams)], prepared.rank[: len(diagrams)]  # the dim-0 sets
    assert size.min() > 0 and len(set(rank.tolist())) == len(size)
    pairs = itertools.combinations(size.tolist(), 2)
    # solved in groups of equal shape, so the shapes are compared as sorted lists
    assert sorted(shapes) == sorted((min(sizes), sum(sizes)) for sizes in pairs)
    # an integer dim 0 at p = 1 (the dual path) plus a non-integer capped dim 1 (the DP) solves none
    degree, cap = molecule_like_diagrams(FiltrationKind.DEGREE)
    shifted = [PersistenceDiagram(d.graph_id, d.dim0, d.dim1 + [0.0, 0.5]) for d in degree]
    assert_build_equals_pairwise(monkeypatch, shifted, 1.0, (), cap=cap + 0.5)


def assignment_calls(monkeypatch, fn):
    """fn's result and the number of assignments it solved in this process."""
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    with monkeypatch.context() as m:
        m.setattr(similarity, "linear_sum_assignment", counted)
        return fn(), len(calls)


def assert_build_equals_pairwise(monkeypatch, diagrams, p, matched_dims, **kw):
    """The build equals pairwise `wasserstein_distance` bit for bit and solves
    the assignments that pairwise calls solve on the dimensions `matched_dims`
    alone. A dimension whose points share one death (every capped dim 1)
    solves none either way."""
    mat, calls = assignment_calls(monkeypatch, lambda: build_similarity_matrix(diagrams, p=p, **kw))
    capped = [hand_capped(d, mat.cap) for d in diagrams]
    pairs = list(itertools.combinations(range(len(diagrams)), 2))

    def only(d):
        kept = (d.points(k) if k in matched_dims else np.zeros((0, 2)) for k in (0, 1))
        return PersistenceDiagram(d.graph_id, *kept)

    _, want_calls = assignment_calls(
        monkeypatch, lambda: [wasserstein_distance(only(capped[i]), only(capped[j]), p) for i, j in pairs]
    )
    assert calls == want_calls
    for i, j in pairs:
        assert mat.values[i, j] == mat.values[j, i] == wasserstein_distance(capped[i], capped[j], p)


def test_non_integer_dim0_is_matched_pair_by_pair(monkeypatch):
    diagrams, cap = molecule_like_diagrams(FiltrationKind.EIGENVECTOR)
    assert_build_equals_pairwise(monkeypatch, diagrams, 1.0, (0, 1), cap=cap)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_order_above_one_is_matched_pair_by_pair(monkeypatch, p):
    # worker processes solve the assignments, so with workers this process solves none
    diagrams, cap = molecule_like_diagrams(FiltrationKind.DEGREE)
    assert_build_equals_pairwise(monkeypatch, diagrams, p, (0, 1), cap=cap)
    assert_build_equals_pairwise(monkeypatch, diagrams, p, (), cap=cap, workers=2)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(workers):
    diagrams, cap = molecule_like_diagrams(FiltrationKind.EIGENVECTOR)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        build_similarity_matrix(diagrams, cap=cap, workers=workers)


def test_lattice_over_the_limit_is_matched_pair_by_pair(monkeypatch):
    diagrams, cap = molecule_like_diagrams(FiltrationKind.DEGREE)
    monkeypatch.setattr(similarity, "_MAX_LATTICE_POINTS", 0)
    assert_build_equals_pairwise(monkeypatch, diagrams, 1.0, (0, 1), cap=cap)


@pytest.mark.parametrize("workers", [1, 2])
def test_only_the_non_integer_dimension_is_matched(monkeypatch, workers):
    # dim-1 deaths moved off the integers, where the capped dim 1 takes the
    # shared-death DP in this process; dim 0 keeps them and takes the dual path
    diagrams, cap = molecule_like_diagrams(FiltrationKind.DEGREE)
    assert any(len(d.dim1) for d in diagrams)
    shifted = [PersistenceDiagram(d.graph_id, d.dim0, d.dim1 + [0.0, 0.5]) for d in diagrams]
    assert_build_equals_pairwise(monkeypatch, shifted, 1.0, (1,) if workers == 1 else (), cap=cap + 0.5,
                                 workers=workers)


def test_workers_leave_the_dual_path_alone(monkeypatch):
    diagrams, cap = molecule_like_diagrams(FiltrationKind.DEGREE)
    assert_build_equals_pairwise(monkeypatch, diagrams, 1.0, (), cap=cap, workers=2)


def test_pairs_pool_never_exceeds_the_usable_cpus(monkeypatch):
    """A pool forks all its workers at once, so `workers` is capped at the
    CPUs this process may use. A stand-in pool records its size and maps in
    this process; no real pool is started."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    diagrams, cap = molecule_like_diagrams(FiltrationKind.EIGENVECTOR)
    serial = build_similarity_matrix(diagrams, p=1.0, cap=cap)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    pooled = build_similarity_matrix(diagrams, p=1.0, cap=cap, workers=10_000)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert sizes == ([cpus] if cpus > 1 else [])
    assert np.array_equal(pooled.values, serial.values)


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
    array, a table-backed SimilarityMatrix (with some query rows all NaN) and
    a points-backed one over small integer coordinates with repeated points.

    The same holds on any subset of the pool, which the conformal engine
    relies on when it widens a thin row with a same-label kNN:
    `knn_indices(M, q, pool[mask], m)` is the mask-filtered full order cut
    at m."""
    n = data.draw(st.integers(2, 24))
    top = data.draw(st.integers(0, 4))
    raw = np.array(data.draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n)), float)
    vals = np.minimum(raw.reshape(n, n), raw.reshape(n, n).T)
    np.fill_diagonal(vals, 0.0)
    perm = data.draw(st.permutations(range(n)))
    n_query = data.draw(st.integers(1, n - 1))
    queries, pool = np.array(perm[:n_query]), np.array(perm[n_query:])
    vals[data.draw(st.lists(st.sampled_from(queries.tolist()), max_size=n_query)), :] = np.nan
    dim = data.draw(st.integers(1, 3))
    x = np.array(data.draw(st.lists(st.integers(0, top), min_size=n * dim, max_size=n * dim)), float).reshape(n, dim)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size)))
    cases = [(vals, vals), (vals, SimilarityMatrix(values=vals)), (squareform(pdist(x)), SimilarityMatrix(points=x))]
    for dense, source in cases:
        for K in range(1, len(pool) + 1):
            assert np.array_equal(knn_indices(source, queries, pool, K), reference_knn_indices(dense, queries, pool, K))
        order = reference_knn_indices(dense, queries, pool, pool.size)
        filtered = order[np.isin(order, pool[mask])].reshape(queries.size, int(mask.sum()))
        for m in range(1, int(mask.sum()) + 1):
            assert np.array_equal(knn_indices(source, queries, pool[mask], m), filtered[:, :m])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_member_mask_knn_equals_filtered_full_sort(data):
    """With a member mask, row r is the stable (distance, id) order of the
    pool ids that member[r] marks, cut at K and padded with -1 to the widest
    row; a query may sit in the pool when its own row leaves it out. Tied
    integer distances, NaN rows and float distances are drawn."""
    n = data.draw(st.integers(2, 16))
    if data.draw(st.booleans()):
        raw = np.array(data.draw(st.lists(st.integers(0, data.draw(st.integers(0, 4))), min_size=n * n,
                                          max_size=n * n)), float)
    else:
        raw = np.array(data.draw(st.lists(st.floats(0, 10), min_size=n * n, max_size=n * n)))
    vals = np.minimum(raw.reshape(n, n), raw.reshape(n, n).T)
    np.fill_diagonal(vals, 0.0)
    pool = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    queries = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
    vals[data.draw(st.lists(st.sampled_from(queries.tolist()), max_size=2)), :] = np.nan
    member = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size),
                                         min_size=queries.size, max_size=queries.size)))
    member &= pool[None, :] != queries[:, None]
    keep = member.any(axis=1)  # a row without members raises, as checked below
    assume(keep.any())
    queries, member = queries[keep], member[keep]
    for source in (vals, SimilarityMatrix(values=vals)):
        for K in range(1, pool.size + 2):
            got = knn_indices(source, queries, pool, K, member=member)
            width = min(K, int(member.sum(axis=1).max()))
            assert got.shape == (queries.size, width)
            for row, q, marks in zip(got.tolist(), queries, member):
                ids = np.sort(pool[marks])
                want = ids[np.argsort(vals[q, ids], kind="stable")][:K].tolist()
                assert row == want + [-1] * (width - len(want))
    empty = member.copy()
    empty[-1] = False
    with pytest.raises(ValueError, match="empty neighbor pool"):
        knn_indices(vals, queries, pool, 1, member=empty)
    if np.isin(queries[0], pool):
        own = member.copy()
        own[0, pool == queries[0]] = True
        with pytest.raises(ValueError, match=f"query {queries[0]} must not be a member of the pool"):
            knn_indices(vals, queries, pool, 1, member=own)


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


def brute_force_knn(dense, queries, pool, K, member=None):
    """Each row's pool ids (those member[r] marks) by ascending (distance, id),
    cut at K and padded with -1 to the widest row."""
    rows = [[j for _, j in sorted((dense[q, j], j) for j in (pool if member is None else pool[member[r]]))][:K]
            for r, q in enumerate(queries)]
    width = max(map(len, rows))
    return np.array([row + [-1] * (width - len(row)) for row in rows], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_knn_row_blocks_equal_one_block(data):
    """`knn_indices` reads and ranks a few rows at a time. With blocks of 1 to
    64 cells, its result is still the one-block result and the brute-force
    (distance, id) order, and bad arguments are refused as before. Drawn:
    dense tables of tied integers or floats, both with inf; Euclidean points
    on a small integer grid (repeated points) or floats; member masks whose
    narrow rows pad with -1 in other blocks than the widest row's; K up to
    |pool| + 2."""
    n = data.draw(st.integers(2, 20))
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 3))
        coord = st.integers(0, 3).map(float) if data.draw(st.booleans()) else st.floats(-10, 10)
        x = np.array(data.draw(st.lists(coord, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
        dense = squareform(pdist(x))
        source = SimilarityMatrix(points=x)
    else:
        cell = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf]) if data.draw(st.booleans()) else \
            st.floats(0, 10) | st.just(np.inf)
        raw = np.array(data.draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
        dense = np.minimum(raw, raw.T)
        np.fill_diagonal(dense, 0.0)
        source = data.draw(st.sampled_from([dense, SimilarityMatrix(values=dense)]))
    member = None
    if data.draw(st.booleans()):
        pool = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        queries = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10)))
        member = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size),
                                             min_size=queries.size, max_size=queries.size)))
        member &= pool[None, :] != queries[:, None]
        keep = member.any(axis=1)
        assume(keep.any())
        queries, member = queries[keep], member[keep]
    else:
        perm = data.draw(st.permutations(range(n)))
        n_query = data.draw(st.integers(1, n - 1))
        queries, pool = np.array(perm[:n_query]), np.array(perm[n_query:])
    K = data.draw(st.integers(1, pool.size + 2))
    whole = knn_indices(source, queries, pool, K, member=member)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(similarity, "_KNN_BLOCK_CELLS", data.draw(st.integers(1, 64)))
        got = knn_indices(source, queries, pool, K, member=member)
        with pytest.raises(ValueError, match="K must be positive"):
            knn_indices(source, queries, pool, data.draw(st.integers(-3, 0)), member=member)
        with pytest.raises(ValueError, match="empty neighbor pool"):
            knn_indices(source, queries, pool[:0], K)
        with pytest.raises(ValueError, match=f"query {queries[0]} must not be a member of the pool"):
            knn_indices(source, queries[:1], np.union1d(pool, queries[:1]), K)
        if member is not None:
            empty = member.copy()
            empty[-1] = False
            with pytest.raises(ValueError, match="empty neighbor pool"):
                knn_indices(source, queries, pool, K, member=empty)
    assert got.dtype == whole.dtype == np.int64
    assert np.array_equal(got, whole)
    assert np.array_equal(got, brute_force_knn(dense, queries, pool, K, member))


def test_knn_pads_narrow_rows_read_in_other_blocks(monkeypatch):
    vals = np.zeros((6, 6))
    vals[:3, 3:] = [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]]
    vals += vals.T
    member = np.array([[True, False, True], [True, True, True], [False, True, False]])
    monkeypatch.setattr(similarity, "_KNN_BLOCK_CELLS", 3)  # one row of three pool ids per block
    assert knn_indices(vals, [0, 1, 2], [3, 4, 5], 3, member=member).tolist() == [
        [3, 5, -1], [5, 4, 3], [4, -1, -1]]
    assert knn_indices(vals, [0, 1, 2], [5, 4, 3], 2, member=member[:, ::-1]).tolist() == [
        [3, 5], [5, 4], [4, -1]]


def test_knn_peak_memory_is_a_few_row_blocks():
    """1000 queries against a pool of 2000 Euclidean points, K = 50: the
    distances alone would take 16 MB as one float64 block."""
    x = np.random.default_rng(8).normal(size=(3000, 12))
    matrix = SimilarityMatrix(points=x)
    queries, pool = np.arange(2000, 3000), np.arange(2000)
    tracemalloc.start()
    try:
        near = knn_indices(matrix, queries, pool, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6 / 4, f"peak {peak / 1e6:.1f} MB"
    sample = queries[::97]
    assert np.array_equal(near[::97], np.argsort(matrix.block(sample, pool), axis=1, kind="stable")[:, :50])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_euclidean_block_bit_equal_to_dense_values(data):
    n = data.draw(st.integers(2, 20))
    dim = data.draw(st.integers(1, 6))
    coords = data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n * dim, max_size=n * dim))
    points = np.array(coords).reshape(n, dim)
    mat = SimilarityMatrix(points=points)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    want = squareform(pdist(points))
    assert mat.shape == (n, n) and mat.n == n
    assert np.array_equal(mat.block(rows, cols), want[np.ix_(rows, cols)])
    assert np.array_equal(mat.values, want)


def test_similarity_matrix_needs_one_backend():
    with pytest.raises(ValueError, match="exactly one"):
        SimilarityMatrix()
    with pytest.raises(ValueError, match="exactly one"):
        SimilarityMatrix(values=np.zeros((2, 2)), points=np.zeros((2, 1)))


@pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
def test_similarity_matrix_values_must_be_square(shape):
    with pytest.raises(ValueError, match=rf"square 2-D array, got shape \({', '.join(map(str, shape))},?\)"):
        SimilarityMatrix(values=np.zeros(shape))


# --- disk format ---------------------------------------------------------------


def test_matrix_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(77)
    raw = rng.uniform(0, 1, (5, 5))
    vals = np.triu(raw, 1)
    vals = vals + vals.T
    mat = SimilarityMatrix(values=vals, cap=4.0, key="k1")
    save_matrix(mat, tmp_path / "m.simmat")
    back = load_matrix(tmp_path / "m.simmat", expect_key="k1")
    assert np.array_equal(back.values, mat.values)
    assert back.cap == 4.0 and back.key == "k1"


def test_similarity_matrix_takes_cap_and_key_by_keyword():
    # a caller that still passes the removed `p` positionally fails loudly
    with pytest.raises(TypeError):
        SimilarityMatrix(np.eye(2), 1.0)


def test_matrix_key_mismatch(tmp_path):
    mat = SimilarityMatrix(values=np.zeros((2, 2)), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    with pytest.raises(ParseError, match="key mismatch"):
        load_matrix(tmp_path / "m.simmat", expect_key="b")


def test_matrix_corruption_detected(tmp_path):
    mat = SimilarityMatrix(values=np.eye(3), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = (tmp_path / "m.simmat").read_bytes()
    (tmp_path / "m.simmat").write_bytes(blob[: len(blob) - 16])  # truncate values
    with pytest.raises(ParseError, match="truncated"):
        load_matrix(tmp_path / "m.simmat")
    (tmp_path / "m.simmat").write_bytes(blob + b"\0")  # a byte no digest covers
    with pytest.raises(ParseError, match="overlong"):
        load_matrix(tmp_path / "m.simmat")
    (tmp_path / "m.simmat").write_bytes(b"garbage" + blob[7:])
    with pytest.raises(ParseError, match="magic"):
        load_matrix(tmp_path / "m.simmat")


@pytest.mark.parametrize("offset", [12, 20])
def test_matrix_header_sizes_beyond_the_file(tmp_path, offset):
    # offset 12 holds n, offset 20 the metadata length; both patched to 2**40
    mat = SimilarityMatrix(values=np.eye(3), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = bytearray((tmp_path / "m.simmat").read_bytes())
    blob[offset : offset + 8] = struct.pack("<Q", 2**40)
    (tmp_path / "m.simmat").write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="truncated"):
        load_matrix(tmp_path / "m.simmat")


def test_matrix_csv_export(tmp_path):
    mat = SimilarityMatrix(values=np.array([[0.0, 1.5], [1.5, 0.0]]), cap=1.0)
    export_matrix_csv(mat, tmp_path / "m.csv")
    rows = (tmp_path / "m.csv").read_text().strip().splitlines()
    assert [float(v) for v in rows[0].split(",")] == [0.0, 1.5]
    edge = SimilarityMatrix(values=np.array([[-0.0, 5e-324], [0.1 + 0.2, np.inf]]), cap=1.0)
    export_matrix_csv(edge, tmp_path / "edge.csv")
    assert (tmp_path / "edge.csv").read_bytes() == b"-0.0,5e-324\r\n0.30000000000000004,inf\r\n"


def test_matrix_value_checksum(tmp_path):
    mat = SimilarityMatrix(values=np.eye(3), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = bytearray((tmp_path / "m.simmat").read_bytes())
    blob[-5] ^= 0x01  # one bit of the last value
    (tmp_path / "m.simmat").write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="checksum mismatch"):
        load_matrix(tmp_path / "m.simmat")


@pytest.mark.parametrize("entry, edit", [(b'"cap": 4.0', b'"cap": 9.0'), (b'"key": "k1"', b'"key": "k2"'),
                                         (b'"alpha": 0.1', b'"alpha": 0.2')])
def test_matrix_metadata_checksum(tmp_path, entry, edit):
    # the digest covers every metadata byte: the cap, the key and the `config` entry
    mat = SimilarityMatrix(values=np.eye(3), cap=4.0, key="k1")
    save_matrix(mat, tmp_path / "m.simmat", extra_meta={"config": {"alpha": 0.1}})
    blob = (tmp_path / "m.simmat").read_bytes()
    assert blob.count(entry) == 1
    (tmp_path / "m.simmat").write_bytes(blob.replace(entry, edit))
    with pytest.raises(ParseError, match="checksum mismatch"):
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


def test_matrix_format_v2_rejected(tmp_path):
    # the version-2 layout: one digest of the key and one of the values
    write_simmat_v2(tmp_path / "old.simmat", np.eye(2), cap=1.0, key="a")
    with pytest.raises(ParseError, match="unsupported format version 2"):
        load_matrix(tmp_path / "old.simmat", expect_key="a")


def test_matrix_metadata_not_utf8(tmp_path):
    mat = SimilarityMatrix(values=np.eye(2), cap=1.0, key="a")
    save_matrix(mat, tmp_path / "m.simmat")
    blob = bytearray((tmp_path / "m.simmat").read_bytes())
    blob[61] = 0xFF  # inside the JSON metadata, which starts after the 60-byte header
    blob[28:60] = hashlib.sha256(blob[60:]).digest()  # a digest that matches, so the JSON is decoded
    (tmp_path / "m.simmat").write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="codec can't decode"):
        load_matrix(tmp_path / "m.simmat")
