import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import train
from psrank.config import toy_model_config
from psrank.data_synth import SceneSample
from psrank.errors import DataError, DimensionError
from psrank.losses import MASK_WEIGHT, dice_loss, encode_partition_gt, partition_loss, total_loss
from psrank.tensor import Tensor

from gradcheck import grad_check
from oracles import focal_oracle, partition_gt_oracle


def targets_oracle(rank_class, n):
    """(K, N) partition targets by the per-rank rule; class N is background."""
    return np.array([partition_gt_oracle(c + 1, n) if c < n else np.zeros(n, dtype=bool)
                     for c in rank_class])


def column_classes(targets):
    """The rank classes of a single (K, 1) head whose targets are ``targets``:
    class 0 (rank 1) is on, class 1 (background) is off.
    """
    return np.where(np.asarray(targets, dtype=bool), 0, 1)


class TestEncodePartitionGt:
    @pytest.mark.parametrize("rank,n,expected", [
        (1, 5, [1, 1, 1, 1, 1]),
        (3, 5, [0, 0, 1, 1, 1]),
        (5, 5, [0, 0, 0, 0, 1]),
        (1, 1, [1]),
        (2, 3, [0, 1, 1]),
    ])
    def test_values(self, rank, n, expected):
        np.testing.assert_array_equal(encode_partition_gt(np.array([rank - 1]), n)[0],
                                      np.array(expected, dtype=bool))

    def test_monotone_for_all_ranks_up_to_16(self):
        for n in range(1, 17):
            for rank, row in enumerate(encode_partition_gt(np.arange(n), n).astype(int), start=1):
                assert np.all(np.diff(row) >= 0), (rank, n)

    def test_matches_per_rank_rule(self):
        rng = np.random.default_rng(9)
        for n in range(1, 17):
            classes = rng.permutation(np.repeat(np.arange(n + 1), 2))
            got = encode_partition_gt(classes, n)
            assert got.shape == (len(classes), n) and got.dtype == bool
            for row, c in zip(got, classes):
                if c == n:
                    assert not row.any(), n
                else:
                    np.testing.assert_array_equal(row, partition_gt_oracle(c + 1, n))

    @pytest.mark.parametrize("rank", [0, 6, -1, 1.5, float("nan")])
    def test_out_of_range(self, rank):
        # the range is checked where targets are built, for every instance
        mask = np.zeros((64, 64), dtype=bool)
        mask[8:24, 8:24] = True
        sample = SceneSample(image=np.zeros((3, 64, 64)), instances=[(mask, rank)], seed=0)
        with pytest.raises(DataError, match=r"ranks are integers in \[1, 5\]"):
            train.build_targets(sample, toy_model_config(max_rank=5))


class TestFocalLoss:
    # partition_loss is the focal loss (alpha 0.25, gamma 2): on one (K, 1)
    # head it is the mean focal term over the cells
    def test_perfect_prediction_near_zero(self):
        loss = partition_loss(Tensor([[1.0 - 1e-7]]), column_classes([1]))
        assert loss.item() < 1e-12

    @pytest.mark.usefixtures("float64")
    def test_half_probability_closed_form(self):
        # alpha * (1-p)^2 * (-ln p) at p=0.5, alpha=0.25: 0.25 * 0.25 * ln 2
        loss = partition_loss(Tensor([[0.5]]), column_classes([1]))
        assert loss.item() == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)
        assert loss.item() == pytest.approx(focal_oracle([[0.5]], [[1]]), abs=1e-15)

    @pytest.mark.usefixtures("float64")
    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(1e-6, 1 - 1e-6, size=(8, 1))
        t = rng.integers(0, 2, size=(8, 1))
        loss = partition_loss(Tensor(p), column_classes(t[:, 0])).item()
        assert loss >= 0.0
        assert loss == pytest.approx(focal_oracle(p, t), abs=1e-12)

    @pytest.mark.usefixtures("float64")
    def test_matches_oracle_on_rank_classes(self):
        rng = np.random.default_rng(10)
        for n in (1, 3, 5):
            p = rng.uniform(1e-6, 1 - 1e-6, size=(12, n))
            classes = rng.integers(0, n + 1, size=12)
            got = partition_loss(Tensor(p), classes).item()
            assert got == pytest.approx(focal_oracle(p, targets_oracle(classes, n)), abs=1e-12)

    def test_rank_class_count_mismatch(self):
        with pytest.raises(DimensionError, match="5 rank classes for 4 cells"):
            partition_loss(Tensor(np.full((4, 3), 0.5)), np.zeros(5, dtype=np.int64))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.uniform(0.1, 0.9, size=(6, 1)))
        classes = column_classes(rng.integers(0, 2, size=6))
        assert grad_check(lambda x: partition_loss(x, classes), [p], tolerance=1e-3).passed


class TestDiceLoss:
    def test_exact_match_zero(self):
        t = np.zeros((6, 6))
        t[1:4, 1:4] = 1.0
        assert dice_loss(Tensor(t), t).item() == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_large_masks_near_one(self):
        p = np.zeros((40, 40))
        t = np.zeros((40, 40))
        p[:20] = 1.0
        t[20:] = 1.0
        assert dice_loss(Tensor(p), t).item() > 0.99

    @pytest.mark.usefixtures("float64")
    def test_partial_overlap_pixel_counts(self):
        # pred area 2, target area 2, overlap 1:
        # 1 - (2*1 + 1) / (2 + 2 + 1) = 0.4 with the eps=1 smoothing
        p = np.zeros((4, 4))
        t = np.zeros((4, 4))
        p[0, 0:2] = 1.0
        t[0, 1:3] = 1.0
        assert dice_loss(Tensor(p), t).item() == pytest.approx(0.4, abs=1e-12)

    def test_range_and_symmetry_binary(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = (rng.random((5, 5)) > 0.5).astype(float)
            t = (rng.random((5, 5)) > 0.5).astype(float)
            a = dice_loss(Tensor(p), t).item()
            b = dice_loss(Tensor(t), p).item()
            assert 0.0 <= a < 1.0
            assert a == pytest.approx(b, abs=1e-12)

    def test_stack_averages_masks(self):
        p = np.stack([np.ones((3, 3)), np.zeros((3, 3))])
        t = np.stack([np.ones((3, 3)), np.ones((3, 3))])
        single0 = dice_loss(Tensor(p[0]), t[0]).item()
        single1 = dice_loss(Tensor(p[1]), t[1]).item()
        stacked = dice_loss(Tensor(p), t).item()
        assert stacked == pytest.approx((single0 + single1) / 2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dice_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.uniform(0.1, 0.9, size=(4, 4)))
        t = (rng.random((4, 4)) > 0.5).astype(float)
        assert grad_check(lambda x: dice_loss(x, t), [p], tolerance=1e-3).passed


class TestTotalLoss:
    @pytest.mark.usefixtures("float64")
    def test_total_adds_weighted_dice_term(self):
        rng = np.random.default_rng(5)
        probs = Tensor(rng.uniform(0.1, 0.9, size=(10, 3)))
        classes = rng.integers(0, 4, size=10)
        masks = Tensor(rng.uniform(0.1, 0.9, size=(2, 4, 4)))
        mask_t = (rng.random((2, 4, 4)) > 0.5).astype(float)
        out = total_loss(partition_loss(probs, classes), masks, mask_t)
        assert out.mask.item() == dice_loss(masks, mask_t).item()
        assert out.total.item() == out.partition.item() + MASK_WEIGHT * out.mask.item()

    def test_no_positive_cells_masks_contribute_zero(self):
        rng = np.random.default_rng(6)
        probs = Tensor(rng.uniform(0.1, 0.9, size=(10, 3)))
        out = total_loss(partition_loss(probs, np.full(10, 3)), None, None)
        assert out.mask is None
        assert out.total is out.partition

    @pytest.mark.usefixtures("float64")
    def test_partition_term_sums_per_head_means(self):
        rng = np.random.default_rng(7)
        probs_np = rng.uniform(0.1, 0.9, size=(10, 3))
        classes = rng.integers(0, 4, size=10)
        targets = targets_oracle(classes, 3)
        out = total_loss(partition_loss(Tensor(probs_np), classes), None, None)
        per_head = sum(
            partition_loss(Tensor(probs_np[:, [n]]), column_classes(targets[:, n])).item() for n in range(3)
        )
        assert out.partition.item() == pytest.approx(per_head, abs=1e-12)
        assert out.partition.item() == pytest.approx(focal_oracle(probs_np, targets), abs=1e-12)

    def test_zero_losses_give_zero_total(self):
        probs = Tensor(np.full((4, 2), 1e-9))
        t = np.zeros((2, 3, 3))
        t[:, 0, 0] = 1.0
        out = total_loss(partition_loss(probs, np.full(4, 2)), Tensor(t.copy()), t)
        assert out.total.item() == pytest.approx(0.0, abs=1e-10)

    def test_gradient_through_both_terms(self):
        rng = np.random.default_rng(8)
        classes = rng.integers(0, 3, size=6)
        mask_t = (rng.random((2, 3, 3)) > 0.5).astype(float)

        def op(probs, masks):
            from psrank import tensor as T
            return total_loss(partition_loss(T.sigmoid(probs), classes), T.sigmoid(masks), mask_t).total

        logits = Tensor(rng.normal(size=(6, 2)))
        mask_logits = Tensor(rng.normal(size=(2, 3, 3)))
        assert grad_check(op, [logits, mask_logits], tolerance=1e-3).passed


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.99), st.booleans())
def test_focal_property_nonnegative(p, target):
    assert partition_loss(Tensor([[p]]), column_classes([target])).item() >= 0.0
