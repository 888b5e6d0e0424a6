import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

import reference

from cproc.errors import DegenerateTestError, StratumError
from cproc.graphdata import ScoredDataset, SplitAssignment
from cproc.rocbands import (
    BAND_COLUMNS,
    band_from_intervals,
    cp_roc_bands,
    default_lambda_grid,
    empirical_roc,
    oracle_rates,
    read_band_csv,
    roc_from_arrays,
    split_bands,
    staircase_auc,
    write_band_csv,
)
from cproc.similarity import SimilarityMatrix
from cproc.synthetic import (
    SyntheticSpec,
    covariate_distance_matrix,
    generate,
    scored_dataset,
)


def band_of(pos, neg):
    """Band from (lo, up) endpoint pairs of the positives and the negatives."""
    pos, neg = np.array(pos, dtype=float).reshape(-1, 2), np.array(neg, dtype=float).reshape(-1, 2)
    return band_from_intervals(pos[:, 0], pos[:, 1], neg[:, 0], neg[:, 1])


def degenerate(values):
    return [(v, v) for v in values]


# --- empirical ROC ------------------------------------------------------------


def test_roc_perfect_separation():
    curve = roc_from_arrays(np.array([1, 1, 0, 0], dtype=bool), np.array([0.9, 0.8, 0.2, 0.1]))
    assert curve.auc == pytest.approx(1.0)


def test_roc_concordant_pairs_example():
    # scores 0.9:+, 0.8:-, 0.7:+, 0.6:- -> 3 of 4 concordant pairs
    curve = roc_from_arrays(np.array([1, 0, 1, 0], dtype=bool), np.array([0.9, 0.8, 0.7, 0.6]))
    assert curve.auc == pytest.approx(0.75)


def test_roc_random_scores_auc_half():
    rng = np.random.default_rng(4)
    labels = rng.random(20000) < 0.5
    scores = rng.random(20000)
    curve = roc_from_arrays(labels, scores)
    assert curve.auc == pytest.approx(0.5, abs=0.05)


def test_roc_staircase_monotone():
    rng = np.random.default_rng(14)
    curve = roc_from_arrays(rng.random(200) < 0.4, rng.random(200))
    assert np.all(np.diff(curve.fpr) >= 0) and np.all(np.diff(curve.tpr) >= 0)
    assert curve.fpr[0] == 0.0 and curve.tpr[-1] == 1.0


def test_roc_single_class_rejected():
    with pytest.raises(DegenerateTestError):
        roc_from_arrays(np.array([True, True]), np.array([0.5, 0.6]))


def test_staircase_auc_pads_to_unit_square():
    # flat curve at tpr=0.5 spanning fpr in [0.2, 0.6] only
    assert staircase_auc(np.array([0.6, 0.2]), np.array([0.5, 0.5])) == pytest.approx(0.5)


# --- bands ----------------------------------------------------------------------


def test_band_degenerate_intervals_equal_empirical_rates():
    rng = np.random.default_rng(6)
    pos = rng.uniform(0, 1, 40)
    neg = rng.uniform(0, 1, 60)
    band = band_of(degenerate(pos), degenerate(neg))
    for lam in np.linspace(0, 1, 97):
        tpr = np.mean(pos > lam)
        fpr = np.mean(neg > lam)
        lo, up = band.sen_at(lam)
        assert lo == up == pytest.approx(tpr)
        lo, up = band.spe_at(lam)
        assert lo == up == pytest.approx(fpr)


def test_band_boundary_strict_inequality():
    band = band_of([(0.2, 1.0), (0.3, 0.9)], [(0.1, 0.8)])
    assert band.lambda_grid[-1] == 1.0
    assert band.sen_up[-1] == 0.0  # no endpoint exceeds 1, strict > makes it 0


def test_band_widened_intervals_contain_original():
    rng = np.random.default_rng(61)
    for _ in range(20):
        f_pos = rng.uniform(0, 1, 30)
        f_neg = rng.uniform(0, 1, 30)
        w_pos = rng.uniform(0, 0.2, (30, 2))
        w_neg = rng.uniform(0, 0.2, (30, 2))
        delta = 0.07
        grid = np.linspace(0, 1, 257)
        base = band_of(
            [(f - a, f + b) for f, (a, b) in zip(f_pos, w_pos)],
            [(f - a, f + b) for f, (a, b) in zip(f_neg, w_neg)],
        )
        wide = band_of(
            [(f - a - delta, f + b + delta) for f, (a, b) in zip(f_pos, w_pos)],
            [(f - a - delta, f + b + delta) for f, (a, b) in zip(f_neg, w_neg)],
        )
        for at in ("sen_at", "spe_at"):
            (base_lo, base_up), (wide_lo, wide_up) = getattr(base, at)(grid), getattr(wide, at)(grid)
            assert np.all(wide_lo <= base_lo) and np.all(base_up <= wide_up)


def test_band_invariants_ordering_and_monotone():
    rng = np.random.default_rng(62)
    intervals_pos = [(f - w, f + w) for f, w in zip(rng.uniform(0, 1, 50), rng.uniform(0, 0.3, 50))]
    intervals_neg = [(f - w, f + w) for f, w in zip(rng.uniform(0, 1, 50), rng.uniform(0, 0.3, 50))]
    band = band_of(intervals_pos, intervals_neg)
    for lo, up in ((band.sen_lo, band.sen_up), (band.spe_lo, band.spe_up)):
        assert np.all(lo <= up)
        assert np.all(np.diff(lo) <= 0) and np.all(np.diff(up) <= 0)
        assert np.all((0 <= lo) & (up <= 1))


def test_band_sandwich_and_auc_ordering_under_straddle():
    rng = np.random.default_rng(63)
    for _ in range(25):
        n_pos, n_neg = int(rng.integers(5, 60)), int(rng.integers(5, 60))
        f_pos, f_neg = rng.uniform(0, 1, n_pos), rng.uniform(0, 1, n_neg)
        grid = default_lambda_grid(f_pos, f_neg)
        pos = [(f - rng.uniform(0, 0.3), f + rng.uniform(0, 0.3)) for f in f_pos]
        neg = [(f - rng.uniform(0, 0.3), f + rng.uniform(0, 0.3)) for f in f_neg]
        band = band_of(pos, neg)
        point = band_of(degenerate(f_pos), degenerate(f_neg))
        # exact indicator arithmetic: lo <= f <= up lifts through the sums
        for at in ("sen_at", "spe_at"):
            (band_lo, band_up), (point_lo, point_up) = getattr(band, at)(grid), getattr(point, at)(grid)
            assert np.all(band_lo <= point_lo) and np.all(point_up <= band_up)
        assert band.auc_lo <= point.auc_lo + 1e-12
        assert point.auc_up <= band.auc_up + 1e-12


_prob = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
_width = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
# (f_hat, width below, width above) for one test point; ties are likely
_point = st.tuples(_prob, _width, _width)
_points = st.lists(_point, min_size=1, max_size=25)


def _endpoints(points):
    f, below, above = (np.array(col, dtype=float) for col in zip(*points))
    return f, f - below, f + above


@settings(deadline=None)
@given(_points, _points, st.one_of(st.none(), st.lists(_prob, min_size=1, max_size=40)))
def test_property_bands_monotone_in_lambda_and_ordered(pos, neg, grid):
    """On any grid the four bounds fall as lambda rises, and lo <= up."""
    _, lo_pos, up_pos = _endpoints(pos)
    _, lo_neg, up_neg = _endpoints(neg)
    band = band_from_intervals(lo_pos, up_pos, lo_neg, up_neg)
    grid = band.lambda_grid if grid is None else np.unique(grid)
    for lo, up in (band.sen_at(grid), band.spe_at(grid)):
        assert np.all(lo <= up)
        assert np.all(np.diff(lo) <= 0) and np.all(np.diff(up) <= 0)


@settings(deadline=None)
@given(_points, _points)
def test_property_covering_intervals_sandwich_empirical_auc(pos, neg):
    """If every interval contains its test point's f_hat, the AUC interval
    contains the empirical AUC (up to rounding in the trapezoid sums)."""
    f_pos, lo_pos, up_pos = _endpoints(pos)
    f_neg, lo_neg, up_neg = _endpoints(neg)
    band = band_from_intervals(lo_pos, up_pos, lo_neg, up_neg)
    mask = np.r_[np.ones(f_pos.size, bool), np.zeros(f_neg.size, bool)]
    auc = roc_from_arrays(mask, np.r_[f_pos, f_neg]).auc
    assert band.auc_lo <= auc + 1e-12 and auc <= band.auc_up + 1e-12


def test_band_empty_class_rejected():
    with pytest.raises(DegenerateTestError):
        band_of([], [(0.1, 0.2)])


def test_band_endpoint_lengths_must_match():
    with pytest.raises(ValueError, match="equal lengths"):
        band_from_intervals([0.1, 0.2], [0.3], [0.1], [0.2])


def test_default_grid_contains_endpoints():
    grid = default_lambda_grid(np.array([0.123, -0.2]), np.array([0.987, 1.7]))
    assert 0.123 in grid and 0.987 in grid
    assert grid.min() == 0.0 and grid.max() == 1.0


# --- oracle rates ----------------------------------------------------------------


def test_oracle_rates_boundaries():
    pis = np.array([1.0, 1.0, 0.4, 0.2])
    mask = np.array([True, True, False, False])
    tpr, fpr = oracle_rates(pis, mask, [0.5])
    assert tpr[0] == 1.0
    tpr, fpr = oracle_rates(pis, mask, [0.0])
    assert tpr[0] == 1.0 and fpr[0] == 1.0  # pi >= 0 always


def test_oracle_rates_brute_force():
    rng = np.random.default_rng(64)
    pis = rng.uniform(0, 1, 200)
    mask = rng.random(200) < 0.5
    lams = rng.uniform(0, 1, 50)
    tpr, fpr = oracle_rates(pis, mask, lams)
    for i, lam in enumerate(lams):
        assert tpr[i] == np.mean(pis[mask] >= lam)
        assert fpr[i] == np.mean(pis[~mask] >= lam)


# --- pipeline --------------------------------------------------------------------


def _pipeline_inputs(seed=11, n_train=300, n_calib=120, n_test=80, shift=None):
    spec = SyntheticSpec(
        n_train=n_train, n_calib=n_calib, n_test=n_test, dim=3,
        beta=(1.0, -0.8, 0.6), shift=shift, seed=seed,
    )
    ds = generate(spec)
    scored = scored_dataset(ds, ds.pi)
    return scored, covariate_distance_matrix(ds)


def test_reduction_identity_bit_exact():
    scored, mat = _pipeline_inputs()
    n_calib = len(scored.part_ids("calib"))
    cond = cp_roc_bands(scored, mat, K=n_calib, alpha=0.1, mode="conditional")
    exch = cp_roc_bands(scored, mat, K=n_calib, alpha=0.1, mode="exchangeable")
    assert np.array_equal(cond.sen_lo, exch.sen_lo)
    assert np.array_equal(cond.sen_up, exch.sen_up)
    assert np.array_equal(cond.spe_lo, exch.spe_lo)
    assert np.array_equal(cond.spe_up, exch.spe_up)
    assert cond.auc_lo == exch.auc_lo and cond.auc_up == exch.auc_up


def test_pipeline_thin_stratum_policies():
    # shift the test part toward the high-probability region so that test
    # negatives see few label-0 calibration neighbors
    scored, mat = _pipeline_inputs(seed=13, shift=(1.2, -1.0, 0.6))
    with pytest.raises(StratumError):
        cp_roc_bands(scored, mat, K=20, alpha=0.1, mode="conditional", thin_stratum="error")
    band = cp_roc_bands(scored, mat, K=20, alpha=0.1, mode="conditional", thin_stratum="widen")
    assert np.all(band.sen_lo <= band.sen_up)


def test_pipeline_degenerate_test_part():
    scored, mat = _pipeline_inputs(seed=17)
    labels = scored.labels.copy()
    labels[scored.part_ids("test")] = 1
    scored = ScoredDataset(labels=labels, probs=scored.probs, split=scored.split)
    with pytest.raises(DegenerateTestError):
        cp_roc_bands(scored, mat, K=10, alpha=0.1)


@pytest.mark.parametrize("size", [137, 100])
def test_pipeline_rejects_a_matrix_of_another_size(size):
    scored, _ = _pipeline_inputs(n_train=60, n_calib=40, n_test=30)
    with pytest.raises(ValueError, match=f"^scores cover 130 graphs but matrix is {size}x{size}$"):
        cp_roc_bands(scored, SimilarityMatrix(values=np.zeros((size, size))), K=10, alpha=0.1)


def _one_vs_rest(scored: ScoredDataset, k: int) -> ScoredDataset:
    """The README's one-vs-rest recipe: label k against the rest, scored by p_k."""
    return ScoredDataset(labels=(scored.labels == k).astype(np.int64), split=scored.split,
                         probs=np.column_stack([1.0 - scored.probs[:, k], scored.probs[:, k]]))


def _three_class_inputs():
    rng = np.random.default_rng(23)
    n = 360
    x = rng.normal(size=(n, 2))
    logits = np.column_stack([x @ np.array([1.0, 0.0]), x @ np.array([0.0, 1.0]), x @ np.array([-1.0, -1.0])])
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(3, p=p) for p in probs])
    parts = ("train",) * 200 + ("calib",) * 100 + ("test",) * 60
    scored = ScoredDataset(labels=labels, probs=probs, split=SplitAssignment(parts))
    mat = SimilarityMatrix(values=squareform(pdist(x)), cap=0.0)
    return scored, mat


def test_pipeline_rejects_three_labels():
    scored, mat = _three_class_inputs()
    with pytest.raises(ValueError, match="need 2 labels, got 3"):
        cp_roc_bands(scored, mat, K=30, alpha=0.1, mode="conditional", thin_stratum="widen")


def test_one_vs_rest_binary_reduces_to_binary_pipeline():
    scored, mat = _pipeline_inputs(seed=19)
    ovr = cp_roc_bands(_one_vs_rest(scored, 1), mat, K=25, alpha=0.1, mode="conditional", thin_stratum="widen")
    direct = cp_roc_bands(scored, mat, K=25, alpha=0.1, mode="conditional", thin_stratum="widen")
    assert np.array_equal(ovr.sen_lo, direct.sen_lo)
    assert np.array_equal(ovr.spe_up, direct.spe_up)


def test_one_vs_rest_three_classes():
    scored, mat = _three_class_inputs()
    for k in range(3):
        band = cp_roc_bands(_one_vs_rest(scored, k), mat, K=30, alpha=0.1, mode="conditional", thin_stratum="widen")
        assert np.all(band.sen_lo <= band.sen_up)
        assert np.all(np.diff(band.sen_up) <= 0)


def test_empirical_roc_from_scored_dataset():
    scored, _ = _pipeline_inputs(seed=31)
    curve = empirical_roc(scored)
    assert 0.5 < curve.auc <= 1.0  # oracle probabilities rank well above chance


# --- CSV ------------------------------------------------------------------------


def test_band_csv_roundtrip(tmp_path):
    scored, mat = _pipeline_inputs(seed=37)
    band = cp_roc_bands(scored, mat, K=15, alpha=0.1, mode="exchangeable")
    write_band_csv(
        tmp_path / "band.csv", band.lambda_grid, band.sen_lo, band.sen_up,
        band.spe_lo, band.spe_up, comments=("version x", "config: {}"),
    )
    data = read_band_csv(tmp_path / "band.csv")
    assert np.array_equal(data["lambda"], band.lambda_grid)
    assert np.array_equal(data["sen_lo"], band.sen_lo)
    assert np.array_equal(data["spe_up"], band.spe_up)
    edge = np.array([-0.0, 5e-324, 0.1 + 0.2])
    write_band_csv(tmp_path / "edge.csv", edge, edge, edge, edge, edge)
    assert (tmp_path / "edge.csv").read_text().splitlines()[1:] == [
        ",".join([repr(x)] * 5) for x in (-0.0, 5e-324, 0.30000000000000004)
    ]
    assert read_band_csv(tmp_path / "edge.csv")["lambda"].tobytes() == edge.tobytes()


def test_band_csv_may_space_its_cells_and_start_with_a_bom(tmp_path):
    rows = "0.5,0.1,0.9,0.2,0.8\n1.0,0.0,1.0,0.0,1.0\n"
    (tmp_path / "plain.csv").write_text(",".join(BAND_COLUMNS) + "\n" + rows)
    spaced = "\ufeff" + ", ".join(BAND_COLUMNS) + "\n" + rows.replace(",", ", ")
    (tmp_path / "spaced.csv").write_bytes(spaced.encode())
    want, got = read_band_csv(tmp_path / "plain.csv"), read_band_csv(tmp_path / "spaced.csv")
    assert all(np.array_equal(got[name], want[name]) for name in BAND_COLUMNS)


def test_band_csv_rejects_garbage(tmp_path):
    (tmp_path / "bad.csv").write_text("# comment\nnot,a,band\n")
    with pytest.raises(ValueError, match="band CSV"):
        read_band_csv(tmp_path / "bad.csv")


# --- several splits in one pass ------------------------------------------------------


def _reference_split_endpoints(values, fhat, binary, split, K, alpha, mode, min_stratum, widen):
    """One split's four endpoint arrays by brute force: every neighbour order
    is a stable sort of (distance, id) pairs, every quantile is
    `reference.quantile`; errors are raised in the one-split order (test
    classes, positives, negatives)."""
    train, calib, test = (split.ids(part) for part in ("train", "calib", "test"))

    def order(q, ids):
        return [int(j) for _, j in sorted(((values[q, j], j) for j in ids), key=lambda pair: pair[0])]

    scores = {int(c): float(np.mean(fhat[order(c, train)[:K]])) - fhat[c] for c in calib}
    pos, neg = test[binary[test]], test[~binary[test]]
    if not pos.size or not neg.size:
        raise DegenerateTestError(
            f"test part lacks a class for label 1 ({pos.size} positive / {neg.size} negative)")
    ends = []
    for ids, k in ((pos, 1), (neg, 0)):
        lo, up = [], []
        for q in ids.tolist():
            same = [c for c in order(q, calib) if binary[c] == bool(k)]
            if mode == "exchangeable":
                if not same:
                    raise StratumError(f"no calibration graphs with binarized label {k}")
                stratum = same
            else:
                near = order(q, calib)[:K]
                stratum = [c for c in near if binary[c] == bool(k)]
                if len(stratum) < min_stratum:
                    if not widen:
                        raise StratumError(f"graph {q}: {len(stratum)} label-{k} graph(s) among its "
                                           f"{len(near)} nearest calibration neighbors (need {min_stratum})")
                    if len(same) < min_stratum:
                        raise StratumError(f"graph {q}: calibration pool holds only {len(same)} "
                                           f"label-{k} graph(s) (need {min_stratum})")
                    stratum = same[:min_stratum]
            values_k = [scores[c] for c in stratum]
            lo.append(fhat[q] + reference.quantile(values_k, alpha / 2.0))
            up.append(fhat[q] + reference.quantile(values_k, 1.0 - alpha / 2.0))
        ends += [np.array(lo, dtype=float), np.array(up, dtype=float)]
    return ends


def _outcome(fn):
    try:
        return fn(), None
    except (StratumError, DegenerateTestError) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_split_bands_equal_a_brute_force_reference_per_split(data):
    """`split_bands` over 1-6 re-splits of one calib+test pool gives every
    split's endpoints `tobytes`-equal to the brute-force reference, or raises
    the error a loop over the splits meets first; `cp_roc_bands` split by
    split agrees. Integer distances tie often; K may reach past |calib|."""
    n_train = data.draw(st.integers(1, 6))
    n_pool = data.draw(st.integers(2, 12))
    n = n_train + n_pool
    if data.draw(st.booleans()):
        raw = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)), float)
    else:
        raw = np.array(data.draw(st.lists(st.floats(0, 5), min_size=n * n, max_size=n * n)))
    values = np.minimum(raw.reshape(n, n), raw.reshape(n, n).T)
    np.fill_diagonal(values, 0.0)
    fhat = np.array(data.draw(st.lists(st.one_of(st.floats(0, 1), st.sampled_from([0.2, 0.5, 0.8])),
                                       min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    perm = np.array(data.draw(st.permutations(range(n))))
    splits = []
    for _ in range(data.draw(st.integers(1, 6))):
        pool = np.array(data.draw(st.permutations(perm[n_train:].tolist())))
        n_calib = data.draw(st.integers(1, n_pool - 1))
        parts = np.full(n, "train", dtype=object)
        parts[pool[:n_calib]], parts[pool[n_calib:]] = "calib", "test"
        splits.append(SplitAssignment(tuple(parts)))
    mode = data.draw(st.sampled_from(["exchangeable", "conditional"]))
    thin = data.draw(st.sampled_from(["error", "widen"]))
    K = data.draw(st.integers(1, n_pool + 1))
    min_stratum = data.draw(st.integers(1, 4))
    alpha = data.draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]))
    scored = ScoredDataset(labels=labels, probs=np.column_stack([1.0 - fhat, fhat]))
    mat = SimilarityMatrix(values=values)

    def reference_loop():
        return [_reference_split_endpoints(values, fhat, labels == 1, split, K, alpha, mode, min_stratum,
                                           thin == "widen") for split in splits]

    def engine(bands):
        return [[b.lo_pos, b.up_pos, b.lo_neg, b.up_neg] for b in bands]

    want, want_error = _outcome(reference_loop)
    got, got_error = _outcome(lambda: engine(split_bands(scored, splits, mat, K, alpha, mode, min_stratum, thin)))
    one, one_error = _outcome(lambda: engine(cp_roc_bands(scored.with_split(split), mat, K, alpha, mode,
                                                          min_stratum, thin) for split in splits))
    assert got_error == want_error == one_error
    if want is not None:
        for got_ends, one_ends, want_ends in zip(got, one, want):
            for a, b, c in zip(got_ends, one_ends, want_ends):
                assert a.tobytes() == b.tobytes() == c.tobytes()


def test_split_bands_need_one_train_part():
    scored, mat = _pipeline_inputs(n_train=60, n_calib=40, n_test=30)
    parts = list(scored.split.parts)
    moved = parts.index("calib")
    parts[moved] = "train"
    with pytest.raises(ValueError, match="^the splits must share their train ids$"):
        split_bands(scored, [scored.split, SplitAssignment(tuple(parts))], mat, K=10, alpha=0.1)
