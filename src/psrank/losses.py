"""Partition ground-truth encoding and the training losses.

A rank label becomes a monotone boolean vector: entry n is on iff the
instance belongs to partition n (rank <= n). The partition head trains
with focal loss over every cell and head (the sorting head brings its own
cross-entropy); masks train with dice loss over positive cells only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DataError, DimensionError
from .tensor import Tensor

PROB_EPS = 1e-7
DICE_SMOOTH = 1.0


@dataclass
class LossBreakdown:
    total: Tensor
    partition: Tensor
    mask: Tensor | None


def encode_partition_gt(rank: int, n_partitions: int) -> np.ndarray:
    """Boolean vector of length N with entry n set iff rank <= n."""
    if not 1 <= rank <= n_partitions:
        raise DataError(f"rank {rank} outside [1, {n_partitions}]")
    return np.arange(1, n_partitions + 1) >= rank


def _focal_elements(pred: Tensor, target: np.ndarray, alpha, gamma: float) -> Tensor:
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.shape:
        raise DimensionError(f"focal target shape {t.shape} vs prediction {pred.shape}")
    p = T.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    pt = p * t + (1.0 - p) * (1.0 - t)
    weight = 1.0 if alpha is None else alpha * t + (1.0 - alpha) * (1.0 - t)
    return T.mul(weight, T.power(1.0 - pt, gamma) * -T.log(pt))


def focal_loss(pred: Tensor, target, alpha: float | None = 0.25, gamma: float = 2.0) -> Tensor:
    """Mean focal term over every element of ``pred``; ``alpha=None`` drops
    the class weighting entirely (gamma=0 then reduces it to plain BCE).
    """
    return T.tmean(_focal_elements(pred, target, alpha, gamma))


def dice_loss(pred: Tensor, target) -> Tensor:
    """1 - (2*sum(p*t)+eps) / (sum(p^2)+sum(t^2)+eps) with eps = 1, averaged
    over the leading axis when given a stack of masks.
    """
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.shape:
        raise DimensionError(f"dice target shape {t.shape} vs prediction {pred.shape}")
    axes = tuple(range(pred.ndim - 2, pred.ndim)) if pred.ndim >= 2 else (0,)
    inter = T.tsum(pred * t, axis=axes)
    denom = T.tsum(pred * pred, axis=axes) + (t * t).sum(axis=axes)
    coeff = (2.0 * inter + DICE_SMOOTH) / (denom + DICE_SMOOTH)
    return T.tmean(1.0 - coeff)


def partition_loss(partition_probs: Tensor, partition_targets) -> Tensor:
    """Sum over the N heads of each head's mean focal loss over every cell."""
    elements = _focal_elements(partition_probs, partition_targets, alpha=0.25, gamma=2.0)
    return T.tsum(T.tmean(elements, axis=0))


def total_loss(classification: Tensor, mask_preds: Tensor | None, mask_targets,
               cfg: ModelConfig) -> LossBreakdown:
    """Sum of a head's classification term and the positive-cell dice loss,
    weighted by ``cfg.partition_weight`` and ``cfg.mask_weight``. With no
    positive cells the mask term contributes exactly zero.
    """
    if mask_preds is not None and mask_preds.shape[0] > 0:
        mask_term = dice_loss(mask_preds, mask_targets)
        total = cfg.partition_weight * classification + cfg.mask_weight * mask_term
    else:
        mask_term = None
        total = cfg.partition_weight * classification
    return LossBreakdown(total=total, partition=classification, mask=mask_term)
