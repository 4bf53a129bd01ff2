import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import heads, train
from psrank.config import TrainConfig, toy_model_config, toy_train_config
from psrank.data_synth import GenConfig, SceneSample, generate_dataset
from psrank.errors import DataError, DimensionError
from psrank.losses import encode_partition_gt
from psrank.pyramid import MASK_STRIDE

from oracles import tape_nodes


@pytest.fixture(scope="module")
def scenes():
    return generate_dataset(GenConfig(), 4, 0)


class TestLrSchedule:
    def test_warmup_is_linear(self):
        cfg = TrainConfig(lr=0.1, warmup_iters=10, decay_epochs=(5,), decay_factor=0.1)
        assert train.lr_at(0, 0, cfg) == pytest.approx(0.01)
        assert train.lr_at(4, 0, cfg) == pytest.approx(0.05)
        assert train.lr_at(9, 0, cfg) == pytest.approx(0.1)
        assert train.lr_at(10, 0, cfg) == pytest.approx(0.1)

    def test_decay_steps_at_each_milestone(self):
        cfg = TrainConfig(lr=0.1, warmup_iters=0, decay_epochs=(2, 4), decay_factor=0.5)
        assert [train.lr_at(100, e, cfg) for e in range(6)] == pytest.approx(
            [0.1, 0.1, 0.05, 0.05, 0.025, 0.025])

    def test_warmup_and_decay_compose(self):
        cfg = TrainConfig(lr=0.2, warmup_iters=4, decay_epochs=(1,), decay_factor=0.1)
        assert train.lr_at(1, 1, cfg) == pytest.approx(0.2 * 0.1 * 2 / 4)


class TestTargets:
    def test_positive_rows_carry_their_rank(self, scenes):
        cfg = toy_model_config()
        for sample in scenes:
            targets = train.build_targets(sample, cfg)
            assert targets.rank_class.shape == (116,)
            assert len(targets.pos_rows) == len(targets.pos_masks) >= 1
            partition = encode_partition_gt(targets.rank_class, 3)
            assignment = heads.assign_targets([m for m, _ in sample.instances], cfg, 64)
            for row in targets.pos_rows:
                rank = sample.instances[assignment[row]][1]
                assert targets.rank_class[row] == rank - 1
                np.testing.assert_array_equal(partition[row], np.arange(1, 4) >= rank)
            background = np.setdiff1d(np.arange(116), targets.pos_rows)
            assert (targets.rank_class[background] == 3).all()
            assert (partition[background] == 0).all()

    @pytest.mark.parametrize("ranks", [(1, 7), (1, 0), (7, 1)])
    def test_every_rank_checked_when_instances_share_a_cell(self, ranks):
        # same size and centres one pixel apart: one cell, and only the first
        # instance is assigned to it
        first = np.zeros((64, 64), dtype=bool)
        first[20:36, 20:36] = True
        second = np.roll(first, (1, 1), axis=(0, 1))
        cfg = toy_model_config()
        assignment = heads.assign_targets([first, second], cfg, 64)
        assert (assignment >= 0).sum() == 1
        sample = SceneSample(image=np.zeros((3, 64, 64)), instances=list(zip([first, second], ranks)), seed=0)
        with pytest.raises(DataError, match="ranks are integers in \\[1, 3\\]"):
            train.build_targets(sample, cfg)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_targets_properties(self, data):
        cfg = toy_model_config()
        canvas = data.draw(st.sampled_from([32, 64]))
        k = data.draw(st.integers(1, 3))
        masks = []
        for _ in range(k):
            r0, c0 = data.draw(st.integers(0, canvas - 1)), data.draw(st.integers(0, canvas - 1))
            h, w = data.draw(st.integers(1, canvas - r0)), data.draw(st.integers(1, canvas - c0))
            mask = np.zeros((canvas, canvas), dtype=bool)
            mask[r0:r0 + h, c0:c0 + w] = True
            masks.append(mask)
        ranks = data.draw(st.permutations(range(1, k + 1)))
        sample = SceneSample(image=np.zeros((3, canvas, canvas), dtype=np.float32),
                             instances=list(zip(masks, ranks)), seed=0)
        targets = train.build_targets(sample, cfg)
        cells = sum(side * side for side in cfg.grid_sides)
        assert targets.rank_class.shape == (cells,)
        assert 0 <= targets.rank_class.min() and targets.rank_class.max() <= cfg.max_rank
        positive = np.flatnonzero(targets.rank_class < cfg.max_rank)
        np.testing.assert_array_equal(targets.pos_rows, positive)
        assert 1 <= len(positive) <= k
        assert set(targets.rank_class[positive]) <= {rank - 1 for rank in ranks}
        assert np.all(np.diff(targets.pos_rows) > 0)
        side = canvas // MASK_STRIDE
        assert targets.pos_masks.shape == (len(positive), side, side)
        assert set(np.unique(targets.pos_masks)) <= {0.0, 1.0}

    def test_non_square_rejected(self, scenes):
        sample = scenes[0]
        wide = np.zeros((3, 64, 96))
        wide[:, :, :64] = sample.image
        masks = [(np.pad(m, ((0, 0), (0, 32))), r) for m, r in sample.instances]
        with pytest.raises(DimensionError):
            train.build_targets(SceneSample(image=wide, instances=masks, seed=0), toy_model_config())

    def test_canvas_not_divisible_by_stride_rejected(self, scenes):
        cfg = toy_model_config()
        image = np.pad(scenes[0].image, ((0, 0), (0, 2), (0, 2)))
        masks = [(np.pad(m, ((0, 2), (0, 2))), r) for m, r in scenes[0].instances]
        with pytest.raises(DimensionError, match="canvas 66 is not divisible by coarsest stride 16"):
            train.build_targets(SceneSample(image=image, instances=masks, seed=0), cfg)

    def test_non_finite_rejected(self, scenes):
        image = scenes[0].image.copy()
        image[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            train.build_targets(SceneSample(image=image, instances=scenes[0].instances, seed=0),
                                toy_model_config())


class TestSampleLoss:
    @pytest.mark.parametrize("head_type", ["partition", "sorting"])
    def test_finite_with_finite_gradients(self, scenes, head_type):
        from psrank import model
        cfg = toy_model_config(head_type=head_type)
        params = model.init_model_params(cfg, 0)
        targets = train.build_targets(scenes[0], cfg)
        breakdown = train.sample_loss(scenes[0], targets, params, cfg)
        assert np.isfinite(breakdown.total.item()) and breakdown.total.item() > 0
        assert breakdown.mask is not None and np.isfinite(breakdown.mask.item())
        breakdown.total.backward()
        assert all(np.isfinite(p.grad).all() for p in params.values())
        assert any(np.abs(p.grad).sum() > 0 for name, p in params.items() if name.startswith(head_type))

    @pytest.mark.parametrize("head_type", ["partition", "sorting"])
    def test_float32_image_and_float64_copy_agree(self, scenes, head_type):
        from psrank import model
        cfg = toy_model_config(head_type=head_type)
        sample = scenes[1]
        assert sample.image.dtype == np.float32
        wide = SceneSample(image=sample.image.astype(np.float64), instances=sample.instances, seed=sample.seed)
        targets = train.build_targets(sample, cfg)
        results = []
        for s in (sample, wide):
            params = model.init_model_params(cfg, 0)
            breakdown = train.sample_loss(s, targets, params, cfg)
            breakdown.total.backward()
            results.append((breakdown.total.item(), {name: p.grad for name, p in params.items()}))
        (loss32, grads32), (loss64, grads64) = results
        assert loss32 == loss64
        for name in grads32:
            np.testing.assert_array_equal(grads32[name], grads64[name])


class TestTapeBudget:
    # Backward-graph nodes of one toy training sample. Attention is one tape
    # op; if it regressed to a composition of matmul, reshape, transpose and
    # softmax (17 or more ops a call), these counts would roughly double.
    @pytest.mark.parametrize("head_type, nodes", [("partition", 168), ("sorting", 158)],
                             ids=["partition", "sorting"])
    def test_sample_loss_node_count(self, scenes, head_type, nodes):
        from psrank import model
        cfg = toy_model_config(head_type=head_type)
        params = model.init_model_params(cfg, 0)
        targets = train.build_targets(scenes[0], cfg)
        assert tape_nodes(train.sample_loss(scenes[0], targets, params, cfg).total) == nodes


class TestTrain:
    def test_fixed_seed_is_deterministic(self, scenes):
        cfg = toy_model_config()
        train_cfg = toy_train_config(seed=0, epochs=2)
        params_a, history_a = train.train(cfg, train_cfg, scenes)
        params_b, history_b = train.train(cfg, train_cfg, scenes)
        assert len(history_a) == 2
        assert [(h.total, h.partition, h.mask) for h in history_a] == \
            [(h.total, h.partition, h.mask) for h in history_b]
        for name in params_a:
            np.testing.assert_array_equal(params_a[name].data, params_b[name].data)

    def test_no_samples_rejected(self):
        with pytest.raises(DataError, match="no training samples"):
            train.train(toy_model_config(), toy_train_config(seed=0, epochs=1), [])

    def test_progress_sees_every_epoch(self, scenes):
        cfg = toy_model_config()
        seen = []
        _, history = train.train(cfg, toy_train_config(seed=1, epochs=2), scenes[:2], progress=seen.append)
        assert len(history) == 2 and seen == history
