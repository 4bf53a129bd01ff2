import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import p2r
from psrank.errors import DimensionError

from oracles import CountingMasks, p2r_reference


def rows_of(partitions, masks=None):
    """(masks, values) for hand-built candidates, one row each. By default
    row k's mask lights one pixel of its own, so no two masks overlap.
    """
    values = np.asarray(partitions, dtype=float)
    if masks is None:
        masks = np.zeros((len(values), 4, 4))
        for k in range(len(values)):
            masks[k, k // 4 % 4, k % 4] = 1.0
    return np.asarray(masks, dtype=float), values


def random_rows(rng, count, n=5, canvas=8):
    masks = np.zeros((count, canvas, canvas))
    values = np.zeros((count, n))
    for i in range(count):
        masks[i] = rng.random((canvas, canvas))
        values[i] = rng.random(n)
    return masks, values


class TestAssociate:
    def test_floor_filters_rows(self):
        values = np.full((20, 5), 0.01)
        values[3] = [0.5, 0.6, 0.7, 0.8, 0.9]
        values[8, 4] = 0.2
        values[15, 0] = 0.1
        masks = np.zeros((20, 4, 4))
        cands = p2r.associate(masks, values, objectness_floor=0.1)
        assert len(cands) == 3
        assert list(cands) == [3, 8, 15]

    def test_empty_matrix(self):
        assert len(p2r.associate(np.zeros((0, 4, 4)), np.zeros((0, 5)), 0.1)) == 0

    def test_zero_floor_keeps_all(self):
        values = np.random.default_rng(0).random((7, 3)) * 0.05
        cands = p2r.associate(np.zeros((7, 2, 2)), values, objectness_floor=0.0)
        assert len(cands) == 7

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            p2r.associate(np.zeros((3, 2, 2)), np.zeros((4, 5)), 0.1)


class TestAlleviate:
    def test_high_then_low_discarded(self):
        _, values = rows_of([[0.8, 0.1, 0.9, 0.9, 0.9]])
        assert list(p2r.alleviate(values, [0], 0.3)) == []

    def test_monotone_kept(self):
        _, values = rows_of([[0.1, 0.2, 0.4, 0.8, 0.9]])
        assert list(p2r.alleviate(values, [0], 0.3)) == [0]

    def test_all_below_threshold_kept(self):
        _, values = rows_of([[0.1, 0.05, 0.2, 0.1, 0.25]])
        assert list(p2r.alleviate(values, [0], 0.3)) == [0]

    def test_rows_filtered_in_order(self):
        _, values = rows_of([[0.1, 0.4, 0.9], [0.9, 0.1, 0.9], [0.5, 0.5, 0.5], [0.4, 0.2, 0.1]])
        assert list(p2r.alleviate(values, [3, 1, 0, 2], 0.3)) == [0, 2]
        assert list(p2r.alleviate(values, [2, 1], 0.3)) == [2]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_survivors_monotone_discards_witnessed(self, values):
        threshold = 0.3
        kept = p2r.alleviate(np.asarray([values]), [0], threshold)
        above = np.asarray(values) >= threshold
        if len(kept):
            assert np.all(np.diff(above.astype(int)) >= 0)
        else:
            witnessed = any(above[j] and not above[i]
                            for i in range(len(values)) for j in range(i))
            assert witnessed


class TestMaskIoU:
    def test_identical(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1:3, 1:3] = True
        assert p2r.mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert p2r.mask_iou(a, b) == 0.0

    def test_partial_overlap_pixel_count(self):
        # two 2x2 squares sharing one column: intersection 2, union 6
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0:2, 0:2] = True
        b[0:2, 1:3] = True
        assert p2r.mask_iou(a, b) == pytest.approx(2 / 6)

    def test_both_empty(self):
        z = np.zeros((3, 3), dtype=bool)
        assert p2r.mask_iou(z, z) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            p2r.mask_iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


class TestBinarize:
    def test_above(self):
        assert p2r.binarize(np.full((2, 2), 0.7), 0.5).all()

    def test_below(self):
        assert not p2r.binarize(np.full((2, 2), 0.3), 0.5).any()

    def test_boundary_is_on(self):
        assert p2r.binarize(np.array([[0.5]]), 0.5).all()


class TestSelectRanks:
    def test_largest_partition1_gets_rank1(self):
        masks, values = rows_of([
            [0.4, 0.5, 0.6, 0.7, 0.9],
            [0.8, 0.9, 0.9, 0.9, 0.9],
            [0.3, 0.8, 0.9, 0.9, 0.9],
        ])
        out = p2r.select_ranks(masks, values, [0, 1, 2], 5, 0.3, 0.5, 0.5)
        assert out[0].rank == 1
        assert out[0].score == pytest.approx(0.8)

    def test_empty_input(self):
        assert p2r.select_ranks(np.zeros((0, 4, 4)), np.zeros((0, 5)), [], 5, 0.3, 0.5, 0.5) == []

    def test_identical_masks_suppressed(self):
        mask = np.zeros((4, 4))
        mask[1:3, 1:3] = 1.0
        masks, values = rows_of([[0.9, 0.9, 0.9, 0.9, 0.9], [0.8, 0.8, 0.8, 0.8, 0.8]], masks=[mask, mask])
        out = p2r.select_ranks(masks, values, [0, 1], 5, 0.3, 0.5, 0.5)
        assert len(out) == 1
        assert out[0].rank == 1 and out[0].score == pytest.approx(0.9)

    @pytest.mark.parametrize("nms_iou, selected", [(0.5, 2), (np.nextafter(0.5, 0.0), 1)])
    def test_overlap_equal_to_nms_iou_kept(self, nms_iou, selected):
        # the two masks' IoU is exactly 1/2; only an IoU above nms_iou suppresses
        masks = np.zeros((2, 4, 4))
        masks[0, 1, 1:3] = 1.0
        masks[1, 1, 1] = 1.0
        masks, values = rows_of([[0.9, 0.9], [0.8, 0.8]], masks=masks)
        out = p2r.select_ranks(masks, values, [0, 1], 2, 0.3, nms_iou, 0.5)
        assert [r.rank for r in out] == [1, 2][:selected]

    def test_stop_when_column_max_below_threshold(self):
        masks, values = rows_of([[0.9, 0.1, 0.1, 0.1, 0.1], [0.7, 0.2, 0.2, 0.2, 0.2]])
        out = p2r.select_ranks(masks, values, [0, 1], 5, 0.3, 0.5, 0.5)
        assert [r.rank for r in out] == [1]

    def test_tie_goes_to_lower_row(self):
        masks, values = rows_of([[0.2, 0.9], [0.8, 0.9], [0.8, 0.9]])
        out = p2r.select_ranks(masks, values, [2, 1], 2, 0.3, 0.5, 0.5)
        np.testing.assert_array_equal(out[0].mask, masks[1] >= 0.5)
        np.testing.assert_array_equal(out[1].mask, masks[2] >= 0.5)

    def test_only_given_rows_compete(self):
        masks, values = rows_of([[0.9, 0.9], [0.5, 0.6]])
        out = p2r.select_ranks(masks, values, [1], 2, 0.3, 0.5, 0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.5)]

    def test_inputs_untouched(self):
        rng = np.random.default_rng(4)
        masks, values = random_rows(rng, 6)
        before = masks.copy(), values.copy()
        p2r.select_ranks(masks, values, np.arange(6), 5, 0.3, 0.5, 0.5)
        np.testing.assert_array_equal(masks, before[0])
        np.testing.assert_array_equal(values, before[1])

    def test_ranks_contiguous_and_unique(self):
        rng = np.random.default_rng(1)
        masks, values = random_rows(rng, 6)
        rows = p2r.alleviate(values, np.arange(6), 0.3)
        out = p2r.select_ranks(masks, values, rows, 5, 0.3, 0.5, 0.5)
        assert [r.rank for r in out] == list(range(1, len(out) + 1))

    def test_order_invariance_with_distinct_probs(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            masks, values = random_rows(rng, 5)
            rows = p2r.alleviate(values, np.arange(5), 0.3)
            out = p2r.select_ranks(masks, values, list(rows), 5, 0.3, 0.5, 0.5)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            out_s = p2r.select_ranks(masks, values, shuffled, 5, 0.3, 0.5, 0.5)
            assert len(out) == len(out_s)
            for a, b in zip(out, out_s):
                assert a.rank == b.rank and a.score == b.score
                np.testing.assert_array_equal(a.mask, b.mask)

    def test_selected_overlap_bounded(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            masks, values = random_rows(rng, 6)
            rows = p2r.alleviate(values, np.arange(6), 0.3)
            out = p2r.select_ranks(masks, values, rows, 5, 0.3, 0.5, 0.5)
            for i, a in enumerate(out):
                for b in out[i + 1 :]:
                    assert p2r.mask_iou(a.mask, b.mask) <= 0.5


class TestReferenceEquivalence:
    def assert_same(self, got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.rank == b.rank
            assert a.score == pytest.approx(b.score, abs=0)
            np.testing.assert_array_equal(a.mask, b.mask)

    def test_single_candidate_above_threshold(self):
        masks, values = rows_of([[0.9, 0.9, 0.9, 0.9, 0.9]])
        got = p2r.select_ranks(masks, values, p2r.alleviate(values, [0], 0.3), 5, 0.3, 0.5, 0.5)
        ref = p2r_reference(masks, values, 5, 0.3, 0.5, 0.0, 0.5)
        assert [r.rank for r in got] == [1]
        self.assert_same(got, ref)

    def test_empty(self):
        assert p2r_reference(np.zeros((0, 4, 4)), np.zeros((0, 5)), 5, 0.3, 0.5, 0.0, 0.5) == []

    def test_thousand_random_sets(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            count = int(rng.integers(0, 7))
            masks, values = random_rows(rng, count)
            got = p2r.select_ranks(masks, values, p2r.alleviate(values, np.arange(count), 0.3), 5, 0.3, 0.5, 0.5)
            ref = p2r_reference(masks, values, 5, 0.3, 0.5, 0.0, 0.5)
            self.assert_same(got, ref)

    def test_full_pipeline_with_floor(self):
        rng = np.random.default_rng(2025)
        for trial in range(200):
            masks, values = random_rows(rng, int(rng.integers(0, 9)))
            got = p2r.partition_to_rank(masks, values, 5, 0.3, 0.5, objectness_floor=0.7, binarize_threshold=0.5)
            self.assert_same(got, p2r_reference(masks, values, 5, 0.3, 0.5, 0.7, 0.5))


class TestLazyMasks:
    def test_nothing_fetched_when_no_row_reaches_rank_one(self):
        masks, values = random_rows(np.random.default_rng(6), 8)
        values[:, 0] *= 0.25  # rank 1 never reaches the threshold; later columns may
        view = CountingMasks(masks)
        assert p2r.partition_to_rank(view, values, 5, 0.3, 0.5, objectness_floor=0.1, binarize_threshold=0.5) == []
        assert view.fetched == []

    def test_fetches_once_only_reachable_rows_same_result(self):
        rng = np.random.default_rng(7)
        fetched = 0
        for trial in range(300):
            masks, values = random_rows(rng, int(rng.integers(0, 13)))
            threshold = float(rng.choice([0.3, 0.6, 0.9]))
            nms_iou = float(rng.choice([0.1, 0.5]))
            view = CountingMasks(masks)
            got = p2r.partition_to_rank(view, values, 5, threshold, nms_iou, objectness_floor=0.2,
                                        binarize_threshold=0.5)
            expected = p2r.partition_to_rank(masks, values, 5, threshold, nms_iou, objectness_floor=0.2,
                                             binarize_threshold=0.5)
            assert len(view.fetched) == len(set(view.fetched))
            alleviated = p2r.alleviate(values, p2r.associate(masks, values, 0.2), threshold)
            reachable = {int(r) for r in alleviated if values[r].max() >= threshold}
            assert set(view.fetched) <= reachable
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert a.rank == b.rank and a.score == b.score
                np.testing.assert_array_equal(a.mask, b.mask)
            fetched += len(view.fetched)
        assert fetched > 0
