import numpy as np
import pytest

from spp import (
    NofM,
    PatternError,
    PrunedLayer,
    Rng,
    ShapeError,
    SparseMask,
    Unstructured,
    apply_mask,
    build_mask,
    collect_calibration,
    mask_report,
    parse_pattern,
    score_magnitude,
    score_wanda,
    verify_mask,
)

from spp.pruning import off_mask

from helpers import (
    nofm_mask_oracle,
    peak_transient_bytes,
    rand_matrix,
    unstructured_mask_oracle,
)


def test_pattern_parsing():
    assert parse_pattern("2:4") == NofM(2, 4)
    assert parse_pattern("1:8") == NofM(1, 8)
    assert parse_pattern("unstructured", 0.75) == Unstructured(0.75)
    with pytest.raises(PatternError):
        parse_pattern("4:4")
    with pytest.raises(PatternError):
        parse_pattern("banana")
    with pytest.raises(PatternError):
        Unstructured(1.0)
    with pytest.raises(PatternError):
        Unstructured(-0.1)


def test_build_mask_nofm_hand_example():
    scores = np.array([[1.0, 3.0, 2.0, 4.0]])
    mask = build_mask(scores, NofM(2, 4))
    assert mask.mask.tolist() == [[0.0, 1.0, 0.0, 1.0]]


def test_masks_are_contiguous_bool_keep_matrices():
    scores = rand_matrix(Rng(30), 4, 8, 0.0, 1.0)
    for pattern, row_wise in (
        (NofM(2, 4), False),
        (Unstructured(0.5), False),
        (Unstructured(0.5), True),
        (Unstructured(0.0), False),
    ):
        mask = build_mask(scores, pattern, row_wise=row_wise).mask
        assert mask.dtype == bool and mask.flags.c_contiguous
    from_floats = SparseMask(np.array([[1.0, 0.0], [-0.0, 1.0]]), Unstructured(0.5))
    assert from_floats.mask.dtype == bool
    assert from_floats.mask.tolist() == [[True, False], [False, True]]


def test_sparse_mask_rejects_bad_input():
    pattern = Unstructured(0.5)
    for bad in (np.array([[1, 2]]), np.array([[1.0, np.nan]]), np.array([[0.5, 1.0]])):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            SparseMask(bad, pattern)
    for bad in (np.ones((2, 2, 2)), np.ones((0, 4)), np.ones(4)):
        with pytest.raises(ShapeError):
            SparseMask(bad, pattern)
    with pytest.raises(PatternError):
        SparseMask(np.ones((2, 6)), NofM(2, 4))


def test_inferred_unstructured_ratio_matches_the_zero_count():
    # zeros / total alone falls one short for some pairs: int((15/22) * 22) == 14.
    assert int((15 / 22) * 22) == 14
    assert Unstructured.matching(15, 22).ratio > 15 / 22
    for total in range(1, 513):
        for zeros in range(total):
            ratio = Unstructured.matching(zeros, total).ratio
            assert int(ratio * total) == zeros, (zeros, total)


def test_build_mask_tie_break_keeps_earliest():
    scores = np.ones((1, 4))
    mask = build_mask(scores, NofM(2, 4))
    assert mask.mask.tolist() == [[1.0, 1.0, 0.0, 0.0]]
    # same rule for the unstructured cut boundary
    mask2 = build_mask(np.ones((2, 2)), Unstructured(0.5))
    assert mask2.mask.ravel().tolist() == [1.0, 1.0, 0.0, 0.0]


def test_build_mask_nofm_group_counts_property():
    rng = Rng(31)
    for n_keep, m_group in ((1, 4), (2, 4), (2, 8), (4, 8)):
        for _ in range(10):
            scores = rand_matrix(rng, 8, 16, 0.0, 1.0)
            mask = build_mask(scores, NofM(n_keep, m_group))
            groups = mask.mask.reshape(8, 16 // m_group, m_group).sum(axis=2)
            assert (groups == n_keep).all()


def test_build_mask_unstructured_zero_count():
    rng = Rng(32)
    for ratio in (0.0, 0.25, 0.5, 0.75, 0.9):
        scores = rand_matrix(rng, 9, 13, 0.0, 1.0)
        mask = build_mask(scores, Unstructured(ratio))
        zeros = mask.mask.size - np.count_nonzero(mask.mask)
        assert zeros == int(ratio * scores.size)


def test_build_mask_unstructured_zeroes_lowest():
    scores = np.array([[0.9, 0.1], [0.5, 0.7]])
    mask = build_mask(scores, Unstructured(0.5))
    assert mask.mask.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_build_mask_row_wise_scope():
    # Global pruning would drop both entries of the weak row; row-wise keeps
    # the per-row budget.
    scores = np.array([[0.01, 0.02, 0.9, 0.8], [10.0, 20.0, 30.0, 40.0]])
    per_row = build_mask(scores, Unstructured(0.5), row_wise=True)
    assert per_row.mask.tolist() == [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]
    whole = build_mask(scores, Unstructured(0.5))
    assert whole.mask.tolist() == [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]


def test_build_mask_scale_invariance():
    rng = Rng(33)
    scores = rand_matrix(rng, 4, 8, 0.0, 1.0)
    base_nm = build_mask(scores, NofM(2, 4)).mask
    base_un = build_mask(scores, Unstructured(0.5)).mask
    for c in (0.5, 2.0, 3.7):
        assert np.array_equal(build_mask(c * scores, NofM(2, 4)).mask, base_nm)
        assert np.array_equal(build_mask(c * scores, Unstructured(0.5)).mask, base_un)


def test_build_mask_unstructured_matches_sort_oracle():
    rng = Rng(34)
    for rows, cols in ((7, 11), (1, 13), (13, 1)):
        uniform = rand_matrix(rng, rows, cols, 0.0, 1.0)
        quantised = np.floor(rand_matrix(rng, rows, cols, 0.0, 4.0)) / 4.0
        pick = np.floor(rand_matrix(rng, rows, cols, 0.0, 3.0)).astype(int)
        signed_zeros = np.array([-0.0, 0.0, 0.5])[pick]
        all_equal = np.full((rows, cols), 0.5)
        for scores in (uniform, quantised, signed_zeros, all_equal):
            for row_wise in (False, True):
                count = cols if row_wise else rows * cols
                # Offsets of half a slot make int(ratio * count) exactly
                # 1 and count - 1, whatever the rounding of the product.
                for ratio in (0.0, 1.5 / count, 0.5, 0.75, (count - 0.5) / count):
                    if ratio >= 1.0:
                        continue
                    got = build_mask(scores, Unstructured(ratio), row_wise=row_wise).mask
                    want = unstructured_mask_oracle(scores, ratio, row_wise)
                    assert np.array_equal(got, want), (scores, ratio, row_wise)


def test_build_mask_nofm_matches_sort_oracle():
    rng = Rng(35)
    patterns = ((1, 2), (1, 4), (2, 4), (3, 4), (1, 8), (2, 8), (4, 8), (8, 16), (16, 32))
    for n_keep, m_group in patterns:
        # One row, one group per row, and a tall matrix.
        for rows, cols in ((1, 4 * m_group), (9, m_group), (37, 2 * m_group)):
            uniform = rand_matrix(rng, rows, cols, 0.0, 1.0)
            quantised = np.floor(rand_matrix(rng, rows, cols, 0.0, 4.0)) / 4.0
            pick = np.floor(rand_matrix(rng, rows, cols, 0.0, 3.0)).astype(int)
            signed_zeros = np.array([-0.0, 0.0, 0.5])[pick]
            all_equal = np.full((rows, cols), 0.5)
            for scores in (uniform, quantised, signed_zeros, all_equal):
                got = build_mask(scores, NofM(n_keep, m_group)).mask
                want = nofm_mask_oracle(scores, n_keep, m_group)
                assert np.array_equal(got, want), (scores, n_keep, m_group)


def test_build_mask_nofm_holds_less_than_one_and_a_half_score_copies():
    # The ranks are counted on one transposed copy of the scores, with
    # byte-sized counts: about 1.3 copies at 512x512.
    scores = rand_matrix(Rng(36), 512, 512, 0.0, 1.0)
    for pattern in (NofM(2, 4), NofM(4, 8)):
        build_mask(scores, pattern)
        assert peak_transient_bytes(build_mask, scores, pattern) < 1.5 * scores.nbytes


def test_build_mask_nofm_rejects_row_wise():
    with pytest.raises(ValueError, match="row_wise applies to unstructured pruning only"):
        build_mask(np.ones((2, 4)), NofM(2, 4), row_wise=True)


def test_build_mask_dimension_errors():
    with pytest.raises(PatternError):
        build_mask(np.ones((2, 6)), NofM(2, 4))


def test_score_magnitude():
    w = np.array([[-3.0, 2.0], [0.0, -1.0]])
    assert score_magnitude(w).tolist() == [[3.0, 2.0], [0.0, 1.0]]


def test_collect_calibration_hand_example():
    xs = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert collect_calibration(xs).tolist() == [[5.0, 0.0]]


def test_score_wanda_weights_columns():
    w = np.array([[1.0, -2.0]])
    stats = collect_calibration(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert score_wanda(w, stats).tolist() == [[5.0, 0.0]]
    with pytest.raises(ShapeError):
        score_wanda(np.ones((1, 3)), stats)


def test_score_wanda_checks_the_norms():
    w = np.ones((1, 2))
    with pytest.raises(ShapeError, match=r"\(1, n\) row"):
        score_wanda(w, np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-negative"):
        score_wanda(w, np.array([[1.0, -1.0]]))


def test_wanda_with_equal_norms_matches_magnitude():
    rng = Rng(34)
    w = rand_matrix(rng, 6, 8)
    # every column of the calibration batch has the same norm
    xs = np.full((4, 8), 0.5)
    stats = collect_calibration(xs)
    m1 = build_mask(score_wanda(w, stats), NofM(2, 4)).mask
    m2 = build_mask(score_magnitude(w), NofM(2, 4)).mask
    assert np.array_equal(m1, m2)


def test_apply_mask_and_verify_pass():
    rng = Rng(35)
    w = rand_matrix(rng, 8, 8)
    layer = apply_mask(w, build_mask(score_magnitude(w), NofM(2, 4)))
    assert np.all(layer.weight[layer.mask.mask == 0.0] == 0.0)
    report = verify_mask(layer)
    assert report.ok
    assert report.pattern_ok
    assert report.ratio == 0.5
    assert report.label == "2:4"


def test_verify_detects_corrupted_zero_position():
    rng = Rng(36)
    w = rand_matrix(rng, 4, 4)
    layer = apply_mask(w, build_mask(score_magnitude(w), NofM(2, 4)))
    zr, zc = np.argwhere(layer.mask.mask == 0.0)[0]
    tampered = layer.weight
    tampered[zr, zc] = 1e-9
    # A pruned layer cannot hold it: the constructor names the position, and
    # the report on the dense weight lists it.
    with pytest.raises(ValueError, match=rf"nonzero off its mask at \({zr}, {zc}\)"):
        PrunedLayer(tampered, layer.mask)
    violations = off_mask(tampered, layer.mask)
    assert violations == [(int(zr), int(zc))]
    report = mask_report(layer.mask, int(np.count_nonzero(tampered)), violations)
    assert not report.ok and report.pattern_ok
    assert verify_mask(layer).ok


def test_verify_reports_zero_count():
    rng = Rng(37)
    w = rand_matrix(rng, 100, 100)
    layer = apply_mask(w, build_mask(score_magnitude(w), Unstructured(0.75)))
    report = verify_mask(layer)
    assert report.ok
    assert report.zeros == 7500
    assert report.ratio == 0.75


def test_verify_flags_pattern_violation():
    # an all-ones mask does not satisfy 2:4 group sums
    from spp import SparseMask, PrunedLayer

    mask = SparseMask(np.ones((2, 4)), NofM(2, 4))
    layer = PrunedLayer(np.ones((2, 4)), mask)
    report = verify_mask(layer)
    assert not report.pattern_ok
    assert not report.ok
    assert report.violations == []


def test_apply_mask_shape_error():
    rng = Rng(38)
    mask = build_mask(rand_matrix(rng, 2, 4, 0.0, 1.0), NofM(2, 4))
    with pytest.raises(ShapeError):
        apply_mask(np.ones((3, 4)), mask)
    with pytest.raises(ShapeError, match="kept values of shape"):
        PrunedLayer(np.ones(3), mask)  # the mask keeps 4
