"""Model and training configuration."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigurationError

# Width of the encoder's first stage, whatever ``channels`` is; its group norm
# runs min(gn_groups, STEM_CHANNELS) groups.
STEM_CHANNELS = 16


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and inference settings.

    ``grid_sides`` lists the per-scale grid side lengths, strictly decreasing.
    ``max_rank`` is the number of partitions (and the deepest rank emitted).
    A setting is a field only where a caller, a planned sweep or a test sets
    it; one read at a single value is a constant beside its reader
    (``heads.MASK_CHANNELS``, ``p2r.NMS_IOU``, ``losses.MASK_WEIGHT``, ...).
    """

    max_rank: int = 3
    channels: int = 16
    grid_sides: tuple[int, ...] = (12, 10, 8, 6, 4)
    attn_heads: int = 4
    gn_groups: int = 4
    dpt_layers: int = 3
    conv_layers: int = 3
    head_type: str = "partition"  # partition | sorting
    partition_threshold: float = 0.3

    def __post_init__(self):
        # layer counts may be 0 (the ablations); every other size must be positive
        for name, least in (("max_rank", 1), ("channels", 1), ("attn_heads", 1), ("gn_groups", 1),
                            ("dpt_layers", 0), ("conv_layers", 0)):
            if not getattr(self, name) >= least:
                raise ConfigurationError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.channels % self.attn_heads:
            raise ConfigurationError(f"channels {self.channels} not divisible by heads {self.attn_heads}")
        if self.channels % self.gn_groups:
            raise ConfigurationError(f"channels {self.channels} not divisible by groups {self.gn_groups}")
        if STEM_CHANNELS % min(self.gn_groups, STEM_CHANNELS):
            raise ConfigurationError(f"encoder stage 0's {STEM_CHANNELS} channels not divisible "
                                     f"by groups {self.gn_groups}")
        if self.channels % 2:
            raise ConfigurationError("channels must be even for the positional encoding")
        sides = self.grid_sides
        if not sides or sides[-1] < 1 or any(a <= b for a, b in zip(sides, sides[1:])):
            raise ConfigurationError(f"grid sides must be positive and strictly decreasing, got {sides}")
        if not 0.0 < self.partition_threshold < 1.0:
            raise ConfigurationError(f"partition_threshold must lie in (0,1), got {self.partition_threshold}")
        if self.head_type not in ("partition", "sorting"):
            raise ConfigurationError(f"unknown head type {self.head_type!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer schedule. Defaults mirror the full-scale recipe (SGD,
    lr 2.5e-5, 1000 warm-up iterations, multi-step decay by 1e-4 at epochs
    42/54); that recipe targets a pretrained 50M-parameter network and will
    under-train the desk-scale model, so use ``toy_train_config`` for real
    runs here.
    """

    epochs: int = 60
    batch_size: int = 4
    lr: float = 2.5e-5
    momentum: float = 0.9
    warmup_iters: int = 1000
    decay_epochs: tuple[int, ...] = (42, 54)
    decay_factor: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        # each of these schedules trains silently into nothing, NaN or divergence
        for name, least in (("epochs", 1), ("batch_size", 1), ("warmup_iters", 0)):
            if not getattr(self, name) >= least:  # so that NaN fails too: it skipped the warm-up
                raise ConfigurationError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("lr", "decay_factor"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not all(e >= 0 for e in self.decay_epochs):  # a NaN epoch never decays
            raise ConfigurationError(f"decay epochs must be nonnegative, got {self.decay_epochs}")


def toy_train_config(seed: int = 0, epochs: int = 24) -> TrainConfig:
    """Desk-scale preset: lr and momentum picked by a small sweep on the
    synthetic task (plain SGD; momentum oscillates at these batch sizes).
    """
    return TrainConfig(
        epochs=epochs,
        batch_size=8,
        lr=0.01,
        momentum=0.0,
        warmup_iters=50,
        decay_epochs=(int(epochs * 0.75), int(epochs * 0.9)),
        decay_factor=0.1,
        seed=seed,
    )


def toy_model_config(**overrides) -> ModelConfig:
    """Small model for the default synthetic dataset (64x64, 3 ranks):
    ``ModelConfig``'s defaults on three coarser grids, with two DPT and two
    cgr layers.
    """
    return ModelConfig(**(dict(grid_sides=(8, 6, 4), dpt_layers=2, conv_layers=2) | overrides))


def config_to_dict(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    d = {"model": asdict(model_cfg), "train": asdict(train_cfg)}
    d["model"]["grid_sides"] = list(model_cfg.grid_sides)
    d["train"]["decay_epochs"] = list(train_cfg.decay_epochs)
    return d


def config_from_dict(d: dict) -> tuple[ModelConfig, TrainConfig]:
    m = dict(d["model"])
    t = dict(d["train"])
    m["grid_sides"] = tuple(m["grid_sides"])
    t["decay_epochs"] = tuple(t["decay_epochs"])
    return ModelConfig(**m), TrainConfig(**t)


def config_hash(model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    blob = json.dumps(config_to_dict(model_cfg, train_cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
