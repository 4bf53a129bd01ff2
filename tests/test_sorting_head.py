import numpy as np
import pytest

from psrank import model, tensor as T, train
from psrank.config import toy_model_config
from psrank.data_synth import GenConfig, generate_scene
from psrank.sorting_head import cross_entropy_loss, sort_to_ranks
from psrank.tensor import Tensor

from gradcheck import grad_check
from oracles import CountingMasks

N = 3  # ranks; class N is background


def pixel_masks(count, side=4):
    """One distinct lit pixel per row, so no two masks overlap."""
    masks = np.zeros((count, side, side))
    for k in range(count):
        masks[k, k // side, k % side] = 1.0
    return masks


def scores_for(rows):
    """Rows of (class, confidence): the class gets the confidence, the rest
    share what is left evenly."""
    out = np.empty((len(rows), N + 1))
    for k, (cls, conf) in enumerate(rows):
        out[k] = (1.0 - conf) / N
        out[k, cls] = conf
    return out


class TestSortToRanks:
    def test_argmax_class_gives_rank(self):
        scores = scores_for([(1, 0.7), (0, 0.8), (2, 0.6)])
        out = sort_to_ranks(scores, pixel_masks(3), N, nms_iou=0.5, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.8), (2, 0.7), (3, 0.6)]
        np.testing.assert_array_equal(out[0].mask, pixel_masks(3)[1] >= 0.5)
        assert all(r.mask.dtype == bool for r in out)

    def test_background_cells_ignored(self):
        scores = scores_for([(N, 0.9), (0, 0.5), (N, 0.99)])
        out = sort_to_ranks(scores, pixel_masks(3), N, nms_iou=0.5, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.5)]

    def test_rank_already_taken_keeps_most_confident(self):
        scores = scores_for([(0, 0.6), (0, 0.9), (1, 0.7), (0, 0.8)])
        out = sort_to_ranks(scores, pixel_masks(4), N, nms_iou=0.5, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.9), (2, 0.7)]
        np.testing.assert_array_equal(out[0].mask, pixel_masks(4)[1] >= 0.5)

    def test_equal_confidence_goes_to_lower_row(self):
        scores = scores_for([(1, 0.5), (0, 0.8), (0, 0.8)])
        out = sort_to_ranks(scores, pixel_masks(3), N, nms_iou=0.5, binarize_threshold=0.5)
        np.testing.assert_array_equal(out[0].mask, pixel_masks(3)[1] >= 0.5)

    def test_overlapping_mask_suppressed(self):
        masks = pixel_masks(3)
        masks[2] = masks[0]
        scores = scores_for([(0, 0.9), (1, 0.6), (2, 0.8)])
        out = sort_to_ranks(scores, masks, N, nms_iou=0.5, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.9), (2, 0.6)]

    @pytest.mark.parametrize("nms_iou, kept", [(0.5, 2), (np.nextafter(0.5, 0.0), 1)])
    def test_overlap_equal_to_nms_iou_kept(self, nms_iou, kept):
        # row 0 lights two pixels and row 1 one of them: an IoU of exactly 1/2
        masks = pixel_masks(2)
        masks[0, 0, 1] = 1.0
        out = sort_to_ranks(scores_for([(0, 0.9), (1, 0.8)]), masks, N, nms_iou=nms_iou, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.9), (2, 0.8)][:kept]

    def test_skipped_classes_leave_no_rank_gap(self):
        # argmax ranks 3 and 2, none 1: renumbered densely in class order
        scores = scores_for([(2, 0.9), (1, 0.7)])
        out = sort_to_ranks(scores, pixel_masks(2), N, nms_iou=0.5, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.7), (2, 0.9)]
        np.testing.assert_array_equal(out[0].mask, pixel_masks(2)[1] >= 0.5)

    def test_masks_fetched_only_for_free_classes(self):
        scores = scores_for([(0, 0.9), (0, 0.8), (1, 0.7), (N, 0.9)])
        view = CountingMasks(pixel_masks(4))
        out = sort_to_ranks(scores, view, N, nms_iou=0.5, binarize_threshold=0.5)
        assert [(r.rank, r.score) for r in out] == [(1, 0.9), (2, 0.7)]
        assert view.fetched == [0, 2]

    def test_empty(self):
        assert sort_to_ranks(np.zeros((0, N + 1)), np.zeros((0, 4, 4)), N, nms_iou=0.5, binarize_threshold=0.5) == []


class TestCrossEntropy:
    def test_value_is_mean_negative_log(self):
        scores = np.array([[0.7, 0.1, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]])
        loss = cross_entropy_loss(Tensor(scores), np.array([0, 3])).item()
        assert loss == pytest.approx(-(np.log(0.7) + np.log(0.25)) / 2)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        classes = rng.integers(0, N + 1, size=6)
        logits = Tensor(rng.normal(size=(6, N + 1)))
        report = grad_check(lambda x: cross_entropy_loss(T.softmax(x), classes), [logits])
        assert report.passed


def test_sample_loss_finite():
    cfg = toy_model_config(head_type="sorting")
    sample = generate_scene(GenConfig(), 0)
    params = model.init_model_params(cfg, 0)
    breakdown = train.sample_loss(sample, train.build_targets(sample, cfg), params, cfg)
    assert np.isfinite(breakdown.total.item())
    assert np.isfinite(breakdown.partition.item()) and breakdown.partition.item() > 0
