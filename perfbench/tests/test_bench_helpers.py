"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import statistics
import time

import numpy as np
import pytest

import cproc.cli as cli
import cproc.similarity as similarity
from cproc.similarity import knn_indices, wasserstein_distance
from cproc.synthetic import SyntheticSpec, covariate_distance_matrix, generate, scored_dataset
from cproc.rocbands import cp_roc_bands
from cproc.topology import PersistenceDiagram

import gen
import oracle
import spans
import speed
from stats import latency_summary, relative_spread, tail_rank


def test_tail_rank_leaves_ten_samples_beyond():
    for n in range(11, 300):
        rank = tail_rank(n)
        assert n - rank == 10  # exactly ten beyond: the highest such rank


def test_tail_rank_falls_back_to_max_below_eleven_samples():
    assert [tail_rank(n) for n in range(1, 11)] == list(range(1, 11))
    with pytest.raises(ValueError):
        tail_rank(0)


def test_latency_summary_reports_percentile_and_count():
    samples = [float(v) for v in range(100, 0, -1)]  # 1..100, unordered
    lat = latency_summary(samples)
    assert lat == {"count": 100, "p50": 50.5, "tail": 90.0, "tail_percentile": 90.0, "tail_beyond": 10}
    one = latency_summary([2.5])
    assert (one["p50"], one["tail"], one["tail_percentile"], one["tail_beyond"]) == (2.5, 2.5, 100.0, 0)


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == (q3 - q1) / statistics.median(values)


def random_diagram(rng, gid=0, max_points=4):
    """The criterion-3 generator: births U(0,1), persistence U(0,1), 0-4
    points per dimension."""

    def pts(k):
        births = rng.uniform(0, 1, size=k)
        return np.column_stack([births, births + rng.uniform(0, 1, size=k)])

    return PersistenceDiagram(gid, pts(int(rng.integers(0, max_points + 1))),
                              pts(int(rng.integers(0, max_points + 1))))


def test_wasserstein_oracle_matches_cproc_on_criterion3_diagrams():
    rng = np.random.default_rng(2025)
    for _ in range(300):
        d1, d2 = random_diagram(rng, 0), random_diagram(rng, 1)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        want = wasserstein_distance(d1, d2, p)
        got = oracle.wasserstein((d1.dim0, d1.dim1), (d2.dim0, d2.dim1), p)
        assert abs(got - want) <= oracle.WASSERSTEIN_TOL


def test_wasserstein_oracle_hand_cases():
    empty = np.zeros((0, 2))
    one = np.array([[0.0, 2.0]])
    assert oracle.wasserstein((one, empty), (empty, empty)) == 1.0  # to the diagonal
    assert oracle.wasserstein((one, empty), (np.array([[0.0, 1.0]]), empty)) == 1.0  # direct match
    assert oracle.wasserstein((empty, empty), (empty, empty)) == 0.0


def test_capped_points_drop_essential_h0_and_cap_h1():
    d0 = np.array([[0.0, 1.0], [0.0, np.inf], [2.0, 2.0]])
    d1 = np.array([[1.0, np.inf]])
    h0, h1 = oracle.capped_points(d0, d1, cap=3.0)
    assert h0.tolist() == [[0.0, 1.0], [2.0, 2.0]]
    assert h1.tolist() == [[1.0, 3.0]]
    assert oracle.zero_persistence([h0, h1]) == (1, 3)


def test_knn_oracle_breaks_ties_by_id():
    row = np.array([0.0, 2.0, 1.0, 1.0, 0.5, 1.0, 2.0])
    assert oracle.knn(row, [6, 5, 3, 2, 1, 4], 4) == [4, 2, 3, 5]
    assert oracle.knn(row, [1, 6], 5) == [1, 6]


def test_knn_oracle_agrees_with_cproc_on_tied_distances():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 4, size=(60, 60)).astype(float)  # many ties
    values = np.minimum(values, values.T)
    np.fill_diagonal(values, 0.0)
    pool = np.arange(20, 60)
    for q in range(20):
        want = oracle.knn(values[q], pool, 7)
        assert knn_indices(values, np.array([q]), pool, 7)[0].tolist() == want


def test_order_statistic_definition():
    assert oracle.order_statistic([3.0, 1.0, 2.0], 0.05) == 1.0  # rank clamped up to 1
    assert oracle.order_statistic([3.0, 1.0, 2.0], 0.95) == 2.0  # floor(2.85) = 2
    assert oracle.order_statistic([3.0, 1.0, 2.0], 1.0) == 3.0


def test_conditional_interval_oracle_is_bit_equal_to_cproc():
    spec = SyntheticSpec(n_train=150, n_calib=80, n_test=60, dim=3, beta=(1.0, -0.8, 0.6), seed=5)
    ds = generate(spec)
    matrix = covariate_distance_matrix(ds)
    band = cp_roc_bands(scored_dataset(ds, ds.pi), matrix, K=15, alpha=0.1, mode="conditional",
                        min_stratum=5, thin_stratum="widen")
    positive = ds.labels == 1
    calib, train, test = (np.sort(ds.split.ids(p)) for p in ("calib", "train", "test"))
    got = [(lo, up) for ids, los, ups in ((test[positive[test]], band.lo_pos, band.up_pos),
                                          (test[~positive[test]], band.lo_neg, band.up_neg))
           for lo, up in zip(los.tolist(), ups.tolist())]
    want = [oracle.conditional_interval(matrix.values, ds.pi, positive, calib, train, int(t), 15, 0.1, 5)
            for t in np.concatenate([test[positive[test]], test[~positive[test]]])]
    assert got == want


def test_band_invariant_errors():
    ok = {"sen_lo": np.array([0.0, 0.5]), "sen_up": np.array([0.5, 1.0]),
          "spe_lo": np.array([0.0, 0.2]), "spe_up": np.array([0.1, 0.2])}
    assert oracle.band_invariant_errors(ok, 0.4, 0.6) == []
    bad = dict(ok, sen_lo=np.array([0.6, 0.5]), spe_up=np.array([0.1, 1.5]))
    errors = oracle.band_invariant_errors(bad, 0.7, 0.6)
    assert any("sen_lo > sen_up" in e for e in errors)
    assert any("spe_up leaves" in e for e in errors)
    assert any("auc_lo" in e for e in errors)


def test_generator_is_a_function_of_the_seed():
    a, b = gen.tu_set(gen.MUTAG_LIKE, 3), gen.tu_set(gen.MUTAG_LIKE, 3)
    assert a.edges == b.edges and np.array_equal(a.p1, b.p1) and np.array_equal(a.labels, b.labels)
    c = gen.tu_set(gen.MUTAG_LIKE, 4)
    assert a.edges != c.edges
    # stratified sizes and labels: same multiset for every seed
    assert sorted(a.sizes) == sorted(c.sizes) and a.labels.sum() == c.labels.sum()
    assert a.sizes.min() == 10 and a.sizes.max() == 28


def test_op_seeds_leave_room_for_derived_streams():
    seeds = [gen.op_seed(1, 3, i) for i in range(50)]
    assert seeds == [gen.op_seed(1, 3, i) for i in range(50)]
    assert all(b - a > 1000 for a, b in zip(seeds, seeds[1:]))


def test_tracer_install_restores_the_originals():
    before = (cli.build_similarity_matrix, similarity.wasserstein_distance, cli.json)
    tracer = spans.Tracer()
    with tracer.install():
        assert cli.build_similarity_matrix is not before[0]
        assert similarity.wasserstein_distance is not before[1]
    assert (cli.build_similarity_matrix, similarity.wasserstein_distance, cli.json) == before


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        [0, 0, None, "op", 0.0, 10.0],
        [0, 1, 0, "cli.main", 1.0, 9.0],
        [0, 2, 1, "similarity.build", 2.0, 6.0],
        [0, 3, 1, "cli.output", 7.0, 8.0],
    ]
    assert tracer.self_times() == {0: 2.0, 1: 3.0, 2: 4.0, 3: 1.0}


def test_pairs_read_counts_each_distinct_off_diagonal_entry_once():
    tracer = spans.Tracer()
    tracer.run = 0
    values = np.zeros((6, 6))
    tracer._note_knn(values, [0, 1], [2, 3, 4])
    tracer._note_knn(values, [2, 3], [0, 1, 2])  # (2,0),(2,1),(3,0),(3,1) again; (2,2) is the diagonal
    assert tracer.counts[0]["similarity.pairs_read"] == 0.0  # folded in only by finish_run
    tracer.finish_run()
    c = tracer.counts[0]
    assert (c["similarity.knn_calls"], c["similarity.knn_cells_sorted"]) == (2, 12)
    assert c["similarity.pairs_read"] == 7  # {0,1} x {2,3,4} plus (2,3)


def probe_with(samples):
    probe = speed.SpeedProbe()
    probe.times = [t for t, _ in samples]
    probe.durations = [d for _, d in samples]
    return probe


def test_speed_factor_uses_the_samples_around_a_span():
    probe = probe_with([(float(t), speed.REF_S * (2.0 if 10 <= t <= 20 else 1.0)) for t in range(31)])
    assert probe.factor(2.0, 6.0) == 1.0  # samples 1..7 all at the reference speed
    assert probe.factor(12.0, 18.0) == 0.5  # twice as slow: a span there counts half
    assert probe.adjusted(12.0, 18.0) == 3.0


def test_speed_window_widens_to_the_nearest_samples():
    probe = probe_with([(0.0, 1.0), (10.0, 2.0), (11.0, 3.0), (30.0, 4.0), (31.0, 5.0), (32.0, 6.0)])
    assert probe.window(30.5, 30.6) == [2.0, 3.0, 4.0, 5.0, 6.0]  # 32 first, then back to 11 and 10
    # nothing lies within PAD_S of 10.2..10.4; the nearer side grows first
    assert probe.window(10.2, 10.4) == [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError):
        probe_with([]).window(0.0, 1.0)


def test_speed_probe_times_the_kernel_while_running():
    probe = speed.SpeedProbe()
    with probe.running():
        end = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 3
    assert probe.times == sorted(probe.times)
    assert all(d > 0 for d in probe.durations)
