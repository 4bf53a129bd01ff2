import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import losses
from psrank.config import ModelConfig
from psrank.errors import DataError, DimensionError
from psrank.losses import dice_loss, encode_partition_gt, focal_loss, partition_loss, total_loss
from psrank.tensor import Tensor

from gradcheck import grad_check


class TestEncodePartitionGt:
    @pytest.mark.parametrize("rank,n,expected", [
        (1, 5, [1, 1, 1, 1, 1]),
        (3, 5, [0, 0, 1, 1, 1]),
        (5, 5, [0, 0, 0, 0, 1]),
        (1, 1, [1]),
        (2, 3, [0, 1, 1]),
    ])
    def test_values(self, rank, n, expected):
        np.testing.assert_array_equal(encode_partition_gt(rank, n), np.array(expected, dtype=bool))

    def test_monotone_for_all_ranks_up_to_16(self):
        for n in range(1, 17):
            for rank in range(1, n + 1):
                v = encode_partition_gt(rank, n).astype(int)
                assert np.all(np.diff(v) >= 0), (rank, n)

    @pytest.mark.parametrize("rank", [0, 6, -1])
    def test_out_of_range(self, rank):
        with pytest.raises(DataError):
            encode_partition_gt(rank, 5)


class TestFocalLoss:
    def test_perfect_prediction_near_zero(self):
        loss = focal_loss(Tensor([1.0 - 1e-7]), np.array([1.0]))
        assert loss.item() < 1e-12

    def test_half_probability_closed_form(self):
        # alpha * (1-p)^2 * (-ln p) at p=0.5, alpha=0.25: 0.25 * 0.25 * ln 2
        loss = focal_loss(Tensor([0.5]), np.array([1.0]), alpha=0.25, gamma=2.0)
        assert loss.item() == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)

    def test_reduces_to_cross_entropy(self):
        loss = focal_loss(Tensor([0.5]), np.array([1.0]), alpha=None, gamma=0.0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(1e-6, 1 - 1e-6, size=(8, 3))
        t = rng.integers(0, 2, size=(8, 3)).astype(float)
        assert focal_loss(Tensor(p), t).item() >= 0.0

    def test_bce_agreement_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            t = float(rng.integers(0, 2))
            got = focal_loss(Tensor([p]), np.array([t]), alpha=None, gamma=0.0).item()
            bce = -(t * math.log(p) + (1 - t) * math.log(1 - p))
            assert got == pytest.approx(bce, abs=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.uniform(0.1, 0.9, size=(6, 3)))
        t = rng.integers(0, 2, size=(6, 3)).astype(float)
        assert grad_check(lambda x: focal_loss(x, t), [p], tolerance=1e-3).passed


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
    def test_mask_weight_zero_leaves_partition_term(self):
        rng = np.random.default_rng(5)
        probs = Tensor(rng.uniform(0.1, 0.9, size=(10, 3)))
        targets = rng.integers(0, 2, size=(10, 3)).astype(float)
        masks = Tensor(rng.uniform(0.1, 0.9, size=(2, 4, 4)))
        mask_t = (rng.random((2, 4, 4)) > 0.5).astype(float)
        out = total_loss(partition_loss(probs, targets), masks, mask_t,
                         ModelConfig(partition_weight=1.0, mask_weight=0.0))
        assert out.total.item() == pytest.approx(out.partition.item())

    def test_no_positive_cells_masks_contribute_zero(self):
        rng = np.random.default_rng(6)
        probs = Tensor(rng.uniform(0.1, 0.9, size=(10, 3)))
        targets = np.zeros((10, 3))
        out = total_loss(partition_loss(probs, targets), None, None, ModelConfig())
        assert out.mask is None
        assert out.total.item() == pytest.approx(out.partition.item())

    def test_partition_term_sums_per_head_means(self):
        rng = np.random.default_rng(7)
        probs_np = rng.uniform(0.1, 0.9, size=(10, 3))
        targets = rng.integers(0, 2, size=(10, 3)).astype(float)
        out = total_loss(partition_loss(Tensor(probs_np), targets), None, None, ModelConfig())
        per_head = sum(
            focal_loss(Tensor(probs_np[:, n]), targets[:, n]).item() for n in range(3)
        )
        assert out.partition.item() == pytest.approx(per_head, abs=1e-12)

    def test_zero_losses_give_zero_total(self):
        probs = Tensor(np.full((4, 2), 1e-9))
        targets = np.zeros((4, 2))
        t = np.zeros((2, 3, 3))
        t[:, 0, 0] = 1.0
        out = total_loss(partition_loss(probs, targets), Tensor(t.copy()), t, ModelConfig())
        assert out.total.item() == pytest.approx(0.0, abs=1e-10)

    def test_gradient_through_both_terms(self):
        rng = np.random.default_rng(8)
        targets = rng.integers(0, 2, size=(6, 2)).astype(float)
        mask_t = (rng.random((2, 3, 3)) > 0.5).astype(float)

        def op(probs, masks):
            from psrank import tensor as T
            return total_loss(partition_loss(T.sigmoid(probs), targets), T.sigmoid(masks), mask_t,
                              ModelConfig()).total

        logits = Tensor(rng.normal(size=(6, 2)))
        mask_logits = Tensor(rng.normal(size=(2, 3, 3)))
        assert grad_check(op, [logits, mask_logits], tolerance=1e-3).passed


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.99), st.booleans())
def test_focal_property_nonnegative(p, target):
    assert focal_loss(Tensor([p]), np.array([float(target)])).item() >= 0.0
