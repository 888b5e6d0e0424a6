import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cproc.baseline import bootstrap_bands
from cproc.errors import DegenerateTestError
from cproc.rocbands import _frac_above


def test_single_resample_collapses_band():
    rng = np.random.default_rng(1)
    mask = rng.random(80) < 0.5
    scores = rng.random(80)
    grid = np.linspace(0, 1, 33)
    band = bootstrap_bands(mask, scores, grid, B=1, level=0.95, seed=7)
    assert np.array_equal(band.tpr_lo, band.tpr_up)
    pos = scores[mask]
    resample = pos[np.random.default_rng(7).integers(0, pos.size, pos.size)]
    assert np.array_equal(band.tpr_lo, _frac_above(resample, grid))


def test_constant_class_scores_zero_width():
    mask = np.array([True] * 5 + [False] * 5)
    scores = np.array([0.9] * 5 + [0.1] * 5)
    grid = np.linspace(0, 1, 21)
    band = bootstrap_bands(mask, scores, grid, B=200, level=0.95, seed=0)
    assert np.array_equal(band.tpr_lo, band.tpr_up)
    assert np.array_equal(band.fpr_lo, band.fpr_up)
    assert band.tpr_up[grid < 0.9].min() == 1.0


def test_determinism():
    rng = np.random.default_rng(3)
    mask = rng.random(60) < 0.4
    scores = rng.random(60)
    grid = np.linspace(0, 1, 65)
    a = bootstrap_bands(mask, scores, grid, B=50, level=0.9, seed=11)
    b = bootstrap_bands(mask, scores, grid, B=50, level=0.9, seed=11)
    assert np.array_equal(a.tpr_lo, b.tpr_lo) and np.array_equal(a.fpr_up, b.fpr_up)


def test_high_level_contains_point_curve():
    rng = np.random.default_rng(5)
    mask = rng.random(100) < 0.5
    scores = rng.random(100)
    grid = np.linspace(0, 1, 101)
    band = bootstrap_bands(mask, scores, grid, B=400, level=0.999, seed=2)
    tpr = _frac_above(scores[mask], grid)
    fpr = _frac_above(scores[~mask], grid)
    assert np.all(band.tpr_lo <= tpr) and np.all(tpr <= band.tpr_up)
    assert np.all(band.fpr_lo <= fpr) and np.all(fpr <= band.fpr_up)


def test_bounds_ordered_and_in_unit_interval():
    rng = np.random.default_rng(9)
    mask = rng.random(200) < 0.1  # imbalanced
    mask[:2] = True
    band = bootstrap_bands(mask, rng.random(200), np.linspace(0, 1, 41), B=100, level=0.95, seed=1)
    for lo, up in ((band.tpr_lo, band.tpr_up), (band.fpr_lo, band.fpr_up)):
        assert np.all(lo <= up) and np.all((0 <= lo) & (up <= 1))


def test_argument_validation():
    mask = np.array([True, False])
    scores = np.array([0.5, 0.5])
    grid = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="resample"):
        bootstrap_bands(mask, scores, grid, B=0)
    with pytest.raises(ValueError, match="level"):
        bootstrap_bands(mask, scores, grid, B=1, level=1.0)
    with pytest.raises(DegenerateTestError):
        bootstrap_bands(np.array([True, True]), scores, grid, B=1)


def reference_bootstrap_bands(positive_mask, scores, lambda_grid, B, level, seed):
    """Slow reference: one generator draws every positive resample, then
    every negative one; sort each resample, then four percentile calls over
    resample-major rates."""
    pos, neg = scores[positive_mask], scores[~positive_mask]
    rng = np.random.default_rng(seed)
    pos_draws = rng.integers(0, pos.size, (B, pos.size))
    neg_draws = rng.integers(0, neg.size, (B, neg.size))
    tprs = np.empty((B, lambda_grid.size))
    fprs = np.empty((B, lambda_grid.size))
    for b in range(B):
        tprs[b] = _frac_above(pos[pos_draws[b]], lambda_grid)
        fprs[b] = _frac_above(neg[neg_draws[b]], lambda_grid)
    lo_q, up_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    return (np.quantile(tprs, lo_q, axis=0), np.quantile(tprs, up_q, axis=0),
            np.quantile(fprs, lo_q, axis=0), np.quantile(fprs, up_q, axis=0))


@st.composite
def _bootstrap_inputs(draw):
    """Scores on a coarse lattice, so ties and scores lying exactly on grid
    points are common; each class has at least one point."""
    n_pos, n_neg = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lattice = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1)
    scores = np.array(draw(st.lists(lattice, min_size=n_pos + n_neg, max_size=n_pos + n_neg)))
    mask = np.array(draw(st.permutations([True] * n_pos + [False] * n_neg)))
    grid = np.linspace(0.0, 1.0, draw(st.sampled_from([2, 5, 9, 33])))
    B = draw(st.integers(1, 60) | st.integers(1, 1200))
    level = draw(st.sampled_from([0.5, 0.9, 0.95, 0.999]))
    return mask, scores, grid, B, level, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_bootstrap_inputs())
@example((np.array([True, False]), np.array([0.5, 0.5]), np.linspace(0, 1, 5), 1, 0.95, 0))
@example((np.array([True, False, False, False]), np.array([0.25, 0.25, 0.75, 0.75]),
          np.linspace(0, 1, 9), 200, 0.9, 3))
# B = 1: the virtual index (B - 1) * q is 0 = B - 1, where numpy reads the largest value twice
@example((np.array([True, True, False, True, False]), np.array([0.1, 0.6, 0.3, 0.9, 0.75]),
          np.linspace(0, 1, 33), 1, 0.9, 5))
# B = 41, level 0.95: the upper virtual index 40 * 0.975 is exactly 39.0, so gamma is 0
@example((np.array([True, False] * 6), np.linspace(0, 1, 12), np.linspace(0, 1, 33), 41, 0.95, 8))
@example((np.array([True] * 12 + [False] * 12), np.random.default_rng(4).random(24), np.linspace(0, 1, 33),
          1200, 0.95, 9))
def test_property_counting_bit_equal_to_sorting_reference(inputs):
    mask, scores, grid, B, level, seed = inputs
    band = bootstrap_bands(mask, scores, grid, B=B, level=level, seed=seed)
    want = reference_bootstrap_bands(mask, scores, grid, B, level, seed)
    for got, ref in zip((band.tpr_lo, band.tpr_up, band.fpr_lo, band.fpr_up), want):
        assert got.tobytes() == ref.tobytes()
