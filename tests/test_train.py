import numpy as np
import pytest

from psrank import train
from psrank.config import TrainConfig, toy_model_config, toy_train_config
from psrank.data_synth import GenConfig, SceneSample, generate_dataset
from psrank.errors import DataError, DimensionError

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
            assert targets.partition.shape == (116, 3)
            assert len(targets.pos_rows) == len(targets.pos_masks) >= 1
            for row in targets.pos_rows:
                rank = targets.rank_class[row] + 1
                np.testing.assert_array_equal(targets.partition[row], np.arange(1, 4) >= rank)
            background = np.setdiff1d(np.arange(116), targets.pos_rows)
            assert (targets.rank_class[background] == 3).all()
            assert (targets.partition[background] == 0).all()

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
        with pytest.raises(DimensionError, match=f"canvas 66 .* mask_stride {cfg.mask_stride}"):
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
    @pytest.mark.parametrize("head_type, nodes", [("partition", 234), ("sorting", 224)])
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
