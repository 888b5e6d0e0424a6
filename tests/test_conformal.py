import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from cproc.conformal import conformal_intervals, conformal_p_value, quantile, score_table
from cproc.errors import StratumError
from cproc.rocbands import band_from_intervals, cp_roc_bands
from cproc.similarity import SimilarityMatrix, knn_indices
from cproc.synthetic import SyntheticSpec, covariate_distance_matrix, generate, scored_dataset


def dist_matrix_from_coords(coords: np.ndarray) -> SimilarityMatrix:
    vals = np.abs(coords[:, None] - coords[None, :])
    return SimilarityMatrix(values=vals, p=1.0, kinds=("coord",), cap=1.0)


def soft_prob(query: int, mat: SimilarityMatrix, train, probs: np.ndarray, K: int) -> float:
    """pi_tilde of one graph: the mean probability of its K nearest training graphs."""
    return float(np.mean(probs[knn_indices(mat.values, [query], train, K)[0]]))


def marginal(f_hat: float, scores, alpha: float):
    lo, up = conformal_intervals([0], np.array([f_hat]), scores, np.ones(len(scores), bool), alpha, label=1)
    return float(lo[0]), float(up[0])


def label_conditional(f_hat: float, k: int, scores, labels, alpha: float):
    lo, up = conformal_intervals([0], np.array([f_hat]), scores, np.asarray(labels) == k, alpha, label=k)
    return float(lo[0]), float(up[0])


def local(gid, k, mat, calib, scores, labels, probs, K, alpha, min_stratum=5, widen=False):
    """Engine call for one query's local interval; scores align with sorted calib."""
    calib = np.sort(np.asarray(calib))
    order = np.searchsorted(calib, knn_indices(mat.values, [gid], calib, calib.size))
    lo, up = conformal_intervals([gid], probs, scores, labels[calib] == k, alpha, label=k,
                                 order=order, K=K, min_stratum=min_stratum, widen=widen)
    return float(lo[0]), float(up[0])


def reference_local_interval(gid, k, values, calib_pool, train_pool, probs, labels, K, alpha,
                             min_stratum=5, widen=False, score_cache=None):
    """Slow per-point reference for the local interval: the label-k scores in
    the query's K-nearest calibration neighborhood, widened to `min_stratum`
    label-k graphs of the full calibration order when allowed."""
    calib_sorted = np.sort(np.asarray(list(calib_pool), dtype=np.int64))
    order = knn_indices(values, np.array([gid]), calib_sorted, calib_sorted.size)[0]
    neighborhood = order[: min(K, order.size)]
    stratum = neighborhood[labels[neighborhood] == k]
    if stratum.size < min_stratum:
        if not widen:
            raise StratumError(
                f"graph {gid}: {stratum.size} label-{k} graph(s) among its {neighborhood.size} "
                f"nearest calibration neighbors (need {min_stratum})"
            )
        stratum = order[labels[order] == k][:min_stratum]
        if stratum.size < min_stratum:
            raise StratumError(
                f"graph {gid}: calibration pool holds only {stratum.size} label-{k} graph(s) "
                f"(need {min_stratum})"
            )
    if score_cache is not None:
        scores = np.array([score_cache[int(i)] for i in stratum])
    else:
        train_sorted = np.asarray(sorted(train_pool), dtype=np.int64)
        neigh = knn_indices(values, stratum, train_sorted, K)
        scores = probs[neigh].mean(axis=1) - probs[stratum]
    return (float(probs[gid] + quantile(scores, alpha / 2.0)),
            float(probs[gid] + quantile(scores, 1.0 - alpha / 2.0)))


# --- quantile ------------------------------------------------------------------


def test_quantile_examples():
    assert quantile([1, 2, 3, 4], 0.5) == 2.0
    assert quantile([7], 0.1) == 7.0
    assert quantile([7], 0.99) == 7.0


def test_quantile_matches_sort_oracle():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        values = rng.normal(size=int(rng.integers(1, 60))).tolist()
        gamma = float(rng.uniform(0, 1))
        m = int(np.floor(gamma * len(values)))
        m = min(max(m, 1), len(values))
        assert quantile(values, gamma) == sorted(values)[m - 1]


def test_quantile_errors():
    with pytest.raises(ValueError, match="empty"):
        quantile([], 0.5)
    with pytest.raises(ValueError, match="gamma"):
        quantile([1.0], 1.5)


def test_conformal_p_value_formula():
    scores = [-0.2, -0.1, 0.0, 0.1, 0.2]
    # s_G(pi) = 0.05 -> 3 scores strictly below, (3 + 1) / 5
    assert conformal_p_value(pi=0.55, f_hat=0.5, calib_scores=scores) == pytest.approx(0.8)


# --- soft probability estimate ---------------------------------------------------


def test_soft_prob_estimate_mean():
    coords = np.array([0.0, 1.0, 2.0, 3.0, 50.0])
    mat = dist_matrix_from_coords(coords)
    probs = np.array([0.0, 0.2, 0.4, 0.6, 0.9])
    got = soft_prob(0, mat, [1, 2, 3, 4], probs, K=3)
    assert got == pytest.approx((0.2 + 0.4 + 0.6) / 3)


def test_soft_prob_estimate_constant():
    coords = np.arange(6, dtype=float)
    mat = dist_matrix_from_coords(coords)
    probs = np.full(6, 0.37)
    for k in (1, 3, 5):
        assert soft_prob(0, mat, [1, 2, 3, 4, 5], probs, k) == pytest.approx(0.37)


def test_soft_prob_estimate_consistency_oracle_probs():
    # with f_hat = pi, the KNN mean tracks the oracle probability
    spec = SyntheticSpec(n_train=2000, n_calib=400, n_test=4, dim=3, beta=(1.0, -0.8, 0.6), seed=9)
    ds = generate(spec)
    mat = covariate_distance_matrix(ds)
    calib = ds.split.ids("calib")
    train = ds.split.ids("train")
    ids, scores = score_table(mat, calib, train, ds.pi, K=50)
    mae = float(np.mean(np.abs(scores)))  # score = knn-mean(pi) - pi
    assert mae < 0.05


def test_score_table_matches_single_queries():
    spec = SyntheticSpec(n_train=40, n_calib=10, n_test=4, dim=2, beta=(1.0, -1.0), seed=3)
    ds = generate(spec)
    mat = covariate_distance_matrix(ds)
    calib = ds.split.ids("calib")
    train = ds.split.ids("train")
    probs = ds.pi
    ids, scores = score_table(mat, calib, train, probs, K=7)
    for gid, s in zip(ids, scores):
        pi_tilde = soft_prob(int(gid), mat, train, probs, K=7)
        assert s == pytest.approx(pi_tilde - probs[gid], abs=1e-12)


def test_calibration_scores_carry_labels():
    spec = SyntheticSpec(n_train=30, n_calib=8, n_test=4, dim=2, beta=(1.0, 0.5), seed=5)
    ds = generate(spec)
    mat = covariate_distance_matrix(ds)
    calib, train = ds.split.ids("calib"), ds.split.ids("train")
    ids, scores = score_table(mat, calib[::-1], train, ds.pi, K=5)
    # scores are keyed by the sorted calibration ids, so labels[ids] gives each score's label
    assert ids.tolist() == sorted(calib.tolist())
    for gid, s in zip(ids, scores):
        assert s == score_table(mat, [gid], train, ds.pi, K=5)[1][0]


# --- intervals --------------------------------------------------------------------


def test_marginal_interval_degenerate():
    lo, up = marginal(0.4, np.zeros(20), alpha=0.1)
    assert lo == up == pytest.approx(0.4)


def test_marginal_interval_symmetric_scores():
    scores = np.concatenate([np.full(50, -0.1), np.full(50, 0.1)])
    lo, up = marginal(0.5, scores, alpha=0.1)
    assert up - lo == pytest.approx(0.2)


def test_interval_endpoints_ordered_and_alpha_monotone():
    rng = np.random.default_rng(17)
    for _ in range(100):
        scores = rng.normal(size=int(rng.integers(2, 80)))
        f = float(rng.uniform(0, 1))
        inner = marginal(f, scores, alpha=0.2)
        outer = marginal(f, scores, alpha=0.05)
        assert inner[0] <= inner[1]
        assert outer[0] <= inner[0] and inner[1] <= outer[1]


def test_interval_clamped_reporting():
    lo, up = marginal(0.05, np.array([-0.3, 0.3]), alpha=0.5)
    assert lo < 0.0  # raw endpoint retained
    assert min(max(lo, 0.0), 1.0) == 0.0
    # the band keeps the raw endpoint for its indicators
    band = band_from_intervals([lo], [up], [0.5], [0.5], lambda_grid=np.array([0.0]))
    assert band.lo_pos[0] == lo


def test_label_conditional_differs_between_labels():
    tight = np.full(30, 0.0)
    wide = np.concatenate([np.full(15, -0.4), np.full(15, 0.4)])
    scores = np.concatenate([tight, wide])
    labels = np.repeat([0, 1], 30)
    iv0 = label_conditional(0.5, 0, scores, labels, alpha=0.1)
    iv1 = label_conditional(0.5, 1, scores, labels, alpha=0.1)
    assert (iv1[1] - iv1[0]) > (iv0[1] - iv0[0])
    assert iv0 == marginal(0.5, tight, alpha=0.1) and iv1 == marginal(0.5, wide, alpha=0.1)


def test_label_conditional_empty_stratum():
    with pytest.raises(StratumError, match="no calibration graphs with binarized label 1"):
        label_conditional(0.5, 1, np.array([0.1, 0.2]), np.array([0, 0]), alpha=0.1)


def test_local_interval_argument_errors():
    mat, calib, labels, scores, probs = _local_setup()
    with pytest.raises(ValueError, match="min_stratum"):
        local(120, 1, mat, calib, scores, labels, probs, K=10, alpha=0.1, min_stratum=0)
    with pytest.raises(ValueError, match="alpha"):
        marginal(0.5, scores, alpha=1.0)


def _local_setup():
    """Cluster A at 0 (tight scores), cluster B at 10 (wide scores); labels all 1."""
    coords = np.concatenate([np.linspace(0, 1, 60), np.linspace(10, 11, 60), [0.5]])
    mat = dist_matrix_from_coords(coords)
    calib = np.arange(120)
    labels = np.ones(121, dtype=np.int64)
    rng = np.random.default_rng(8)
    scores = np.concatenate([rng.normal(0, 0.01, 60), rng.normal(0, 0.5, 60)])
    probs = np.full(121, 0.5)
    return mat, calib, labels, scores, probs


def test_local_interval_narrower_in_low_noise_cluster():
    mat, calib, labels, scores, probs = _local_setup()
    lo, up = local(120, 1, mat, calib, scores, labels, probs, K=40, alpha=0.1)
    m_lo, m_up = marginal(0.5, scores, alpha=0.1)
    assert (up - lo) < (m_up - m_lo)


def test_local_interval_reduces_to_label_conditional():
    mat, calib, labels, scores, probs = _local_setup()
    got = local(120, 1, mat, calib, scores, labels, probs, K=len(calib), alpha=0.1)
    assert got == label_conditional(0.5, 1, scores, labels[calib], alpha=0.1)


def test_local_interval_thin_stratum_error_and_widen():
    mat, calib, labels, scores, probs = _local_setup()
    labels = labels.copy()
    labels[:115] = 0  # only five label-1 calib graphs, all in cluster B
    with pytest.raises(StratumError, match="nearest calibration neighbors"):
        local(120, 1, mat, calib, scores, labels, probs, K=10, alpha=0.1)
    lo, up = local(120, 1, mat, calib, scores, labels, probs, K=10, alpha=0.1, widen=True)
    assert lo <= up
    labels[:] = 0  # no label-1 graphs at all: widening cannot help
    with pytest.raises(StratumError, match="calibration pool"):
        local(120, 1, mat, calib, scores, labels, probs, K=10, alpha=0.1, widen=True)


def test_local_coverage_under_covariate_shift():
    """Heteroskedastic two-cluster design: test points live in the wide-noise
    cluster that is rare in calibration. Local intervals keep coverage; the
    global (label-conditional) interval undercovers."""
    rng = np.random.default_rng(2024)
    n_a, n_b = 500, 100
    pi = 0.5
    hits_local, hits_global = [], []
    for _ in range(30):
        coords = np.concatenate([
            rng.normal(0.0, 1.0, n_a), rng.normal(12.0, 1.0, n_b),  # train
            rng.normal(0.0, 1.0, n_a), rng.normal(12.0, 1.0, n_b),  # calib
            rng.normal(12.0, 1.0, 20),                              # test, cluster B
        ])
        n_train, n_calib = n_a + n_b, n_a + n_b
        noise_scale = np.where(np.abs(coords - 12.0) < 6.0, 0.25, 0.02)
        fhat = np.clip(pi + rng.normal(0, 1, coords.size) * noise_scale, 0.01, 0.99)
        mat = dist_matrix_from_coords(coords)
        train = np.arange(n_train)
        calib = np.arange(n_train, n_train + n_calib)
        tests = np.arange(n_train + n_calib, coords.size)
        labels = np.ones(coords.size, dtype=np.int64)
        ids, scores = score_table(mat, calib, train, fhat, K=60)
        for t in tests:
            lo, up = local(int(t), 1, mat, calib, scores, labels, fhat, K=60, alpha=0.1)
            g_lo, g_up = label_conditional(float(fhat[t]), 1, scores, labels[ids], alpha=0.1)
            hits_local.append(lo <= pi <= up)
            hits_global.append(g_lo <= pi <= g_up)
    assert np.mean(hits_local) >= 0.87
    assert np.mean(hits_global) < 0.80


def test_exchangeable_marginal_coverage():
    """iid synthetic, marginal intervals: average coverage of pi within
    1 - alpha - 0.03, and most replicates individually above 0.87."""
    per_rep = []
    for r in range(200):
        spec = SyntheticSpec(
            n_train=600, n_calib=500, n_test=150, dim=3, beta=(1.0, -0.8, 0.6), seed=5000 + r
        )
        ds = generate(spec)
        mat = covariate_distance_matrix(ds)
        train, calib, test = (ds.split.ids(p) for p in ("train", "calib", "test"))
        fit_free_fhat = ds.pi  # oracle probabilities; exchangeability is what is tested
        ids, scores = score_table(mat, calib, train, fit_free_fhat, K=30)
        q_lo = quantile(scores, 0.05)
        q_up = quantile(scores, 0.95)
        lo = fit_free_fhat[test] + q_lo
        up = fit_free_fhat[test] + q_up
        per_rep.append(float(np.mean((lo <= ds.pi[test]) & (ds.pi[test] <= up))))
    assert float(np.mean(per_rep)) >= 0.87
    assert float(np.mean(np.asarray(per_rep) >= 0.87)) >= 0.95


def reference_label_interval(f_hat, k, scores, same_label, alpha):
    if not same_label.any():
        raise StratumError(f"no calibration graphs with binarized label {k}")
    return (float(f_hat + quantile(scores[same_label], alpha / 2.0)),
            float(f_hat + quantile(scores[same_label], 1.0 - alpha / 2.0)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_engine_bit_equal_to_reference(data):
    """Small random instances with tied distances and tied scores: the batched
    engine gives bit-equal endpoints, or the same StratumError, as the
    per-point reference (local) and the quantile definition (label-conditional)."""
    n_calib, n_train, n_query = (data.draw(st.integers(1, hi)) for hi in (12, 6, 5))
    n = n_calib + n_train + n_query
    raw = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)), float)
    values = np.minimum(raw.reshape(n, n), raw.reshape(n, n).T)
    np.fill_diagonal(values, 0.0)
    probs = np.array(data.draw(st.lists(st.one_of(st.floats(0, 1), st.sampled_from([0.2, 0.5, 0.8])),
                                        min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    perm = np.array(data.draw(st.permutations(range(n))))
    calib, train, queries = perm[:n_calib], perm[n_calib:n_calib + n_train], perm[n_calib + n_train:]
    K = data.draw(st.integers(1, n_calib))
    min_stratum = data.draw(st.integers(1, 4))
    widen = data.draw(st.booleans())
    alpha = data.draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]))
    k = data.draw(st.integers(0, 1))
    mat = SimilarityMatrix(values=values, p=1.0, kinds=("test",), cap=1.0)
    calib_sorted, scores = score_table(mat, calib, train, probs, K)
    same = labels[calib_sorted] == k

    def outcome(fn):
        try:
            return fn(), None
        except StratumError as exc:
            return None, str(exc)

    want = outcome(lambda: [reference_local_interval(int(q), k, values, calib, train, probs, labels, K,
                                                     alpha, min_stratum, widen) for q in queries])
    order = np.searchsorted(calib_sorted, knn_indices(values, queries, calib_sorted, calib_sorted.size))
    got = outcome(lambda: list(zip(*(e.tolist() for e in conformal_intervals(
        queries, probs, scores, same, alpha, label=k, order=order, K=K,
        min_stratum=min_stratum, widen=widen)))))
    assert got == want

    want = outcome(lambda: [reference_label_interval(probs[q], k, scores, same, alpha) for q in queries])
    got = outcome(lambda: list(zip(*(e.tolist() for e in conformal_intervals(
        queries, probs, scores, same, alpha, label=k)))))
    assert got == want


def test_thin_rows_widen_alike_on_euclidean_and_dense_backends():
    """Only thin test points get their whole calibration order; the bands
    still equal the engine handed every point's whole order, on both backends."""
    ds = generate(SyntheticSpec(n_train=300, n_calib=150, n_test=80, dim=3, beta=(2.0, -1.5, 1.0), seed=17))
    fhat, labels = ds.pi, ds.labels
    euclidean = covariate_distance_matrix(ds)
    dense = SimilarityMatrix(values=squareform(pdist(ds.x)), p=2.0)
    train, calib, test = (np.sort(ds.split.ids(p)) for p in ("train", "calib", "test"))
    K, min_stratum = 4, 3
    same = labels[knn_indices(dense, test, calib, K)] == labels[test][:, None]
    assert 0 < np.count_nonzero(same.sum(axis=1) < min_stratum) < test.size
    bands = [cp_roc_bands(scored_dataset(ds, fhat), mat, K, 0.1, min_stratum=min_stratum,
                          thin_stratum="widen") for mat in (euclidean, dense)]
    calib_sorted, scores = score_table(dense, calib, train, fhat, K)
    for k, ends in ((1, ("lo_pos", "up_pos")), (0, ("lo_neg", "up_neg"))):
        ids = test[labels[test] == k]
        order = np.searchsorted(calib_sorted, knn_indices(dense.values, ids, calib_sorted, calib_sorted.size))
        want = conformal_intervals(ids, fhat, scores, labels[calib_sorted] == k, 0.1, label=k, order=order,
                                   K=K, min_stratum=min_stratum, widen=True)
        for band in bands:
            for got, expected in zip((getattr(band, e) for e in ends), want):
                assert np.array_equal(got, expected)
