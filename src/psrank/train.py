"""SGD training with linear warmup and multi-step decay.

A sample's only classification label is one rank class per grid cell: rank - 1
where an instance holds the cell, N (``max_rank``) for background. The
configured head's loss takes that (K,) vector with its scores and encodes
what it needs; masks train on the positive cells' downsampled instance masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heads, losses, model
from .config import ModelConfig, TrainConfig
from .data_synth import SceneSample
from .errors import DataError
from .pyramid import MASK_STRIDE
from .tensor import Tensor


@dataclass
class SampleTargets:
    rank_class: np.ndarray  # (K,) ints, rank - 1 per positive cell, N = background
    pos_rows: np.ndarray  # (P,) row indices of positive cells
    pos_masks: np.ndarray  # (P, Hm, Wm) binary mask targets


def downsample_mask(mask: np.ndarray, stride: int) -> np.ndarray:
    h, w = mask.shape
    blocks = mask.reshape(h // stride, stride, w // stride, stride).mean(axis=(1, 3))
    return (blocks >= 0.5).astype(np.float64)


def build_targets(sample: SceneSample, cfg: ModelConfig) -> SampleTargets:
    canvas = model.image_canvas(sample.image)
    masks = [m for m, _ in sample.instances]
    ranks = [r for _, r in sample.instances]
    for idx, rank in enumerate(ranks):
        if not (float(rank).is_integer() and 1 <= rank <= cfg.max_rank):
            raise DataError(f"instance {idx} has rank {rank}; ranks are integers in [1, {cfg.max_rank}]")
    assignment = heads.assign_targets(masks, cfg, canvas)
    pos_rows = np.flatnonzero(assignment >= 0)
    rank_class = np.full(len(assignment), cfg.max_rank, dtype=np.int64)
    rank_class[pos_rows] = np.asarray(ranks, dtype=np.int64)[assignment[pos_rows]] - 1
    pos_masks = [downsample_mask(masks[i].astype(np.float64), MASK_STRIDE) for i in assignment[pos_rows]]
    return SampleTargets(
        rank_class=rank_class,
        pos_rows=pos_rows,
        pos_masks=np.array(pos_masks) if pos_masks else np.zeros((0, 1, 1)),
    )


def sample_loss(sample: SceneSample, targets: SampleTargets, params, cfg: ModelConfig) -> losses.LossBreakdown:
    outputs = model.forward(Tensor(sample.image), params, cfg)
    classification = model.head_ops(cfg).loss(outputs.scores, targets.rank_class)
    mask_preds = outputs.mask.soft_masks(rows=targets.pos_rows) if len(targets.pos_rows) else None
    return losses.total_loss(classification, mask_preds, targets.pos_masks)


class SgdOptimizer:
    """Plain SGD: each step moves every parameter by ``-lr * grad``."""

    def __init__(self, params: dict):
        self.params = params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad[:] = 0.0

    def step(self, lr: float) -> None:
        for p in self.params.values():
            p.data -= lr * p.grad


# The schedule every run follows: linear warm-up over the first WARMUP_ITERS
# steps to LR, then a decay by DECAY_FACTOR at each epoch int(epochs * f), f in DECAY_AT.
LR = 0.01
WARMUP_ITERS = 50
DECAY_FACTOR = 0.1
DECAY_AT = (0.75, 0.9)


def lr_at(step: int, epoch: int, cfg: TrainConfig) -> float:
    base = LR
    for f in DECAY_AT:
        if epoch >= int(cfg.epochs * f):
            base *= DECAY_FACTOR
    if step < WARMUP_ITERS:
        base *= (step + 1) / WARMUP_ITERS
    return base


@dataclass
class EpochStats:
    epoch: int
    total: float
    partition: float
    mask: float


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, samples: list[SceneSample],
          progress=None) -> tuple[dict, list[EpochStats]]:
    """Train from scratch on ``samples``; returns the parameters and the
    per-epoch loss log. Deterministic for a fixed config and seed.

    ``progress`` is how a caller sees each epoch as it ends: it is called
    with that epoch's ``EpochStats``, the same object the log holds.
    """
    if not samples:
        raise DataError("no training samples")
    params = model.init_model_params(model_cfg, train_cfg.seed)
    optimizer = SgdOptimizer(params)
    targets = [build_targets(s, model_cfg) for s in samples]
    order_rng = np.random.default_rng(train_cfg.seed + 1)
    history: list[EpochStats] = []
    step = 0
    for epoch in range(train_cfg.epochs):
        order = order_rng.permutation(len(samples))
        sums = np.zeros(3)
        count = 0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            optimizer.zero_grad()
            scale = 1.0 / len(batch)
            for idx in batch:
                breakdown = sample_loss(samples[idx], targets[idx], params, model_cfg)
                (breakdown.total * scale).backward()
                sums += [breakdown.total.item(), breakdown.partition.item(),
                         breakdown.mask.item() if breakdown.mask is not None else 0.0]
                count += 1
                # the loss holds the sample's whole tape; free it before the next forward
                del breakdown
            optimizer.step(lr_at(step, epoch, train_cfg))
            step += 1
        stats = EpochStats(epoch=epoch, total=sums[0] / count, partition=sums[1] / count,
                           mask=sums[2] / count)
        history.append(stats)
        if progress is not None:
            progress(stats)
    return params, history
