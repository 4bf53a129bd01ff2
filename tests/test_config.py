import pytest

from psrank.config import (ModelConfig, TrainConfig, config_from_dict, config_hash, config_to_dict,
                           toy_model_config, toy_train_config)
from psrank.errors import ConfigurationError

# config_hash of the default ModelConfig and TrainConfig.
PINNED_DEFAULT_HASH = "93eb39d432f72bab"


class TestModelConfigRejects:
    @pytest.mark.parametrize("overrides", [
        dict(channels=12, attn_heads=8, gn_groups=4),
        dict(channels=12, attn_heads=4, gn_groups=8),
    ], ids=["heads", "groups"])
    def test_channels_indivisible(self, overrides):
        with pytest.raises(ConfigurationError, match="not divisible"):
            ModelConfig(**overrides)

    def test_odd_channels(self):
        # 9 channels divide into 3 heads and 3 groups, so only the evenness rule fires
        with pytest.raises(ConfigurationError, match="even"):
            ModelConfig(channels=9, attn_heads=3, gn_groups=3)

    @pytest.mark.parametrize("sides", [(8, 8, 4), (4, 6, 8), (6, 8)])
    def test_grid_sides_not_strictly_decreasing(self, sides):
        with pytest.raises(ConfigurationError, match="grid sides"):
            ModelConfig(grid_sides=sides)

    @pytest.mark.parametrize("name", ["partition_threshold", "nms_iou", "binarize_threshold"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_threshold_at_bound(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ModelConfig(**{name: value})

    @pytest.mark.parametrize("name", ["partition_weight", "mask_weight"])
    def test_negative_loss_weight(self, name):
        with pytest.raises(ConfigurationError, match="loss weights"):
            ModelConfig(**{name: -0.5})

    def test_unknown_head_type(self):
        with pytest.raises(ConfigurationError, match="head type"):
            ModelConfig(head_type="ranking")

    # Accepted here, each of these sizes would break the model far from its cause:
    # a ZeroDivisionError, "negative dimensions", an empty predict or degenerate masks.
    @pytest.mark.parametrize("name, value", [
        ("max_rank", 0), ("channels", -16), ("attn_heads", 0), ("gn_groups", 0), ("dpt_layers", -1),
        ("conv_layers", -2), ("mask_channels", 0), ("mask_stride", 0),
    ])
    def test_size_below_least(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be at least"):
            toy_model_config(**{name: value})

    @pytest.mark.parametrize("sides", [(4, 0), (), (8, -2)])
    def test_grid_sides_not_positive(self, sides):
        with pytest.raises(ConfigurationError, match="grid sides must be positive"):
            toy_model_config(grid_sides=sides)

    @pytest.mark.parametrize("value", [0.0, -8.0])
    def test_assign_min_size_not_positive(self, value):
        with pytest.raises(ConfigurationError, match="assign_min_size"):
            toy_model_config(assign_min_size=value)


class TestModelConfigAccepts:
    def test_boundary_values(self):
        # one scale has no neighbour to compare, and a zero weight is not negative
        # ...and the ablations drop the transformer and the cgr convs
        cfg = ModelConfig(grid_sides=(5,), partition_weight=0.0, mask_weight=0.0, dpt_layers=0, conv_layers=0)
        assert cfg.grid_sides == (5,)


class TestSerialization:
    @pytest.mark.parametrize("model_cfg, train_cfg", [
        (ModelConfig(), TrainConfig()),
        (toy_model_config(head_type="sorting", mask_weight=0.5), toy_train_config(seed=3, epochs=10)),
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
        assert config_hash(toy_model_config(mask_weight=2.0), toy_train_config()) != base
        assert config_hash(toy_model_config(), toy_train_config(seed=1)) != base
