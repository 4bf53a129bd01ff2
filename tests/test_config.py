import numpy as np
import pytest

from psrank import model
from psrank.config import (ModelConfig, TrainConfig, config_from_dict, config_hash, config_to_dict,
                           toy_model_config, toy_train_config)
from psrank.errors import ConfigurationError

# config_hash of the default ModelConfig and TrainConfig.
PINNED_DEFAULT_HASH = "66d18af63df7cff8"


class TestModelConfigRejects:
    @pytest.mark.parametrize("overrides", [
        dict(channels=12, attn_heads=8, gn_groups=4),
        dict(channels=12, attn_heads=4, gn_groups=8),
    ], ids=["heads", "groups"])
    def test_channels_indivisible(self, overrides):
        with pytest.raises(ConfigurationError, match="not divisible"):
            ModelConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(channels=12, attn_heads=3, gn_groups=3),
        dict(channels=12, attn_heads=4, gn_groups=6),
        dict(channels=24, attn_heads=4, gn_groups=12),
    ], ids=["3", "6", "12"])
    def test_groups_indivisible_in_encoder_stem(self, overrides):
        # channels divide into these groups, but encoder stage 0's 16 do not;
        # accepted, the config failed in group_norm at the first forward
        with pytest.raises(ConfigurationError, match="stage 0's 16 channels not divisible"):
            ModelConfig(**overrides)

    def test_odd_channels(self):
        # 9 channels divide into 3 heads and 1 group, so only the evenness rule fires
        with pytest.raises(ConfigurationError, match="even"):
            ModelConfig(channels=9, attn_heads=3, gn_groups=1)

    @pytest.mark.parametrize("sides", [(8, 8, 4), (4, 6, 8), (6, 8)])
    def test_grid_sides_not_strictly_decreasing(self, sides):
        with pytest.raises(ConfigurationError, match="grid sides"):
            ModelConfig(grid_sides=sides)

    @pytest.mark.parametrize("name", ["partition_threshold"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_threshold_at_bound(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ModelConfig(**{name: value})

    def test_unknown_head_type(self):
        with pytest.raises(ConfigurationError, match="head type"):
            ModelConfig(head_type="ranking")

    # Accepted here, each of these sizes would break the model far from its cause:
    # a ZeroDivisionError, "negative dimensions", an empty predict or degenerate masks.
    @pytest.mark.parametrize("name, value", [
        ("max_rank", 0), ("channels", -16), ("attn_heads", 0), ("gn_groups", 0), ("dpt_layers", -1),
        ("conv_layers", -2),
    ])
    def test_size_below_least(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be at least"):
            toy_model_config(**{name: value})

    @pytest.mark.parametrize("sides", [(4, 0), (), (8, -2)])
    def test_grid_sides_not_positive(self, sides):
        with pytest.raises(ConfigurationError, match="grid sides must be positive"):
            toy_model_config(grid_sides=sides)


class TestModelConfigAccepts:
    def test_boundary_values(self):
        # one scale has no neighbour to compare, and the ablations drop the
        # transformer and the cgr convs
        cfg = ModelConfig(grid_sides=(5,), dpt_layers=0, conv_layers=0)
        assert cfg.grid_sides == (5,)

    def test_groups_past_encoder_stem_width(self):
        # encoder stage 0 runs min(gn_groups, 16) = 16 groups; the other stages run 32
        cfg = toy_model_config(channels=32, gn_groups=32, dpt_layers=0, conv_layers=0)
        params = model.init_model_params(cfg, 0)
        assert model.predict(np.zeros((3, 64, 64)), params, cfg) == []


class TestTrainConfigRejects:
    # Accepted, batch_size=0 raised a bare ValueError from range(), batch_size=-1
    # and lr=nan trained into NaN, epochs=-1 returned an empty history, and a
    # negative momentum trained silently.
    @pytest.mark.parametrize("name, value", [
        ("epochs", -1), ("epochs", 0), ("batch_size", 0), ("batch_size", -1), ("warmup_iters", -5),
        ("warmup_iters", float("nan")),  # accepted, it trained silently without warm-up
    ])
    def test_count_below_least(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be at least"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lr", "decay_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.01])
    def test_rate_not_positive_and_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be positive and finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [-0.5, 1.0, float("nan")])
    def test_momentum_outside_unit_interval(self, value):
        with pytest.raises(ConfigurationError, match="momentum must lie in"):
            TrainConfig(momentum=value)

    def test_negative_decay_epoch(self):
        with pytest.raises(ConfigurationError, match="decay epochs"):
            TrainConfig(decay_epochs=(-1, 4))

    def test_nan_decay_epoch(self):
        # accepted, it trained silently without decay
        with pytest.raises(ConfigurationError, match="decay epochs"):
            TrainConfig(decay_epochs=(float("nan"),))


class TestTrainConfigAccepts:
    def test_one_epoch_toy_schedule(self):
        # its milestones are (0, 0): decay from the first epoch on, which is allowed
        cfg = toy_train_config(epochs=1)
        assert cfg.decay_epochs == (0, 0)

    def test_boundary_values(self):
        cfg = TrainConfig(epochs=1, batch_size=1, warmup_iters=0, momentum=0.0, decay_epochs=())
        assert cfg.momentum == 0.0


class TestSerialization:
    @pytest.mark.parametrize("model_cfg, train_cfg", [
        (ModelConfig(), TrainConfig()),
        (toy_model_config(head_type="sorting", partition_threshold=0.2), toy_train_config(seed=3, epochs=10)),
    ])
    def test_round_trip(self, model_cfg, train_cfg):
        restored = config_from_dict(config_to_dict(model_cfg, train_cfg))
        assert restored == (model_cfg, train_cfg)
        assert isinstance(restored[0].grid_sides, tuple)
        assert isinstance(restored[1].decay_epochs, tuple)

    def test_dict_lists_sequences(self):
        d = config_to_dict(toy_model_config(), toy_train_config())
        assert d["model"]["grid_sides"] == [8, 6, 4]
        assert d["train"]["decay_epochs"] == [18, 21]

    def test_hash_is_stable(self):
        # the same configs built twice hash alike, and the hash survives a round trip
        a = config_hash(toy_model_config(), toy_train_config(seed=1))
        b = config_hash(toy_model_config(), toy_train_config(seed=1))
        assert a == b and len(a) == 16
        restored = config_from_dict(config_to_dict(toy_model_config(), toy_train_config(seed=1)))
        assert config_hash(*restored) == a

    def test_hash_pinned(self):
        # a change to the default configs or the serialization moves this digest,
        # and with it every stored checkpoint's hash check
        assert config_hash(ModelConfig(), TrainConfig()) == PINNED_DEFAULT_HASH

    def test_hash_sees_every_change(self):
        base = config_hash(toy_model_config(), toy_train_config())
        assert config_hash(toy_model_config(partition_threshold=0.2), toy_train_config()) != base
        assert config_hash(toy_model_config(), toy_train_config(seed=1)) != base
