"""SGD training with linear warmup and multi-step decay."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import heads, losses, model
from .config import ModelConfig, TrainConfig
from .data_synth import SceneSample
from .errors import DataError, DimensionError
from .tensor import Tensor


@dataclass
class SampleTargets:
    partition: np.ndarray  # (K, N) floats in {0,1}
    rank_class: np.ndarray  # (K,) ints, N = background
    pos_rows: np.ndarray  # (P,) row indices of positive cells
    pos_masks: np.ndarray  # (P, Hm, Wm) binary mask targets


def downsample_mask(mask: np.ndarray, stride: int) -> np.ndarray:
    h, w = mask.shape
    blocks = mask.reshape(h // stride, stride, w // stride, stride).mean(axis=(1, 3))
    return (blocks >= 0.5).astype(np.float64)


def build_targets(sample: SceneSample, cfg: ModelConfig) -> SampleTargets:
    canvas = model.image_canvas(sample.image)
    if canvas % cfg.mask_stride:
        raise DimensionError(f"canvas {canvas} is not divisible by mask_stride {cfg.mask_stride}")
    masks = [m for m, _ in sample.instances]
    assignment = heads.assign_targets(masks, cfg, canvas)
    k = len(assignment)
    n = cfg.max_rank
    partition = np.zeros((k, n))
    rank_class = np.full(k, n, dtype=np.int64)
    pos_rows = []
    pos_masks = []
    for row, inst in enumerate(assignment):
        if inst < 0:
            continue
        rank = sample.instances[inst][1]
        partition[row] = losses.encode_partition_gt(rank, n)
        rank_class[row] = rank - 1
        pos_rows.append(row)
        pos_masks.append(downsample_mask(masks[inst].astype(np.float64), cfg.mask_stride))
    return SampleTargets(
        partition=partition,
        rank_class=rank_class,
        pos_rows=np.array(pos_rows, dtype=np.int64),
        pos_masks=np.array(pos_masks) if pos_masks else np.zeros((0, 1, 1)),
    )


def sample_loss(sample: SceneSample, targets: SampleTargets, params, cfg: ModelConfig) -> losses.LossBreakdown:
    outputs = model.forward(Tensor(sample.image), params, cfg)
    classification = model.head_ops(cfg).loss(outputs.scores, targets)
    mask_preds = outputs.mask.soft_masks(rows=targets.pos_rows) if len(targets.pos_rows) else None
    return losses.total_loss(classification, mask_preds, targets.pos_masks, cfg)


class SgdOptimizer:
    def __init__(self, params: dict, momentum: float):
        self.params = params
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad[:] = 0.0

    def step(self, lr: float) -> None:
        for name, p in self.params.items():
            v = self.velocity[name]
            v *= self.momentum
            v += p.grad
            p.data -= lr * v


def lr_at(step: int, epoch: int, cfg: TrainConfig) -> float:
    base = cfg.lr
    for milestone in cfg.decay_epochs:
        if epoch >= milestone:
            base *= cfg.decay_factor
    if cfg.warmup_iters > 0 and step < cfg.warmup_iters:
        base *= (step + 1) / cfg.warmup_iters
    return base


@dataclass
class EpochStats:
    epoch: int
    total: float
    partition: float
    mask: float


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, samples: list[SceneSample],
          log_path=None, progress=None) -> tuple[dict, list[EpochStats]]:
    """Train from scratch on ``samples``; returns the parameters and the
    per-epoch loss log. Deterministic for a fixed config and seed.
    """
    if not samples:
        raise DataError("no training samples")
    params = model.init_model_params(model_cfg, train_cfg.seed)
    optimizer = SgdOptimizer(params, train_cfg.momentum)
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
            optimizer.step(lr_at(step, epoch, train_cfg))
            step += 1
        stats = EpochStats(epoch=epoch, total=sums[0] / count, partition=sums[1] / count,
                           mask=sums[2] / count)
        history.append(stats)
        if progress is not None:
            progress(stats)
    if log_path is not None:
        write_log(log_path, history)
    return params, history


def write_log(path, history: list[EpochStats]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "total", "partition", "mask"])
        for row in history:
            writer.writerow([row.epoch, repr(row.total), repr(row.partition), repr(row.mask)])
