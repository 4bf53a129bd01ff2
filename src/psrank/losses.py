"""Partition ground-truth encoding and the training losses.

A cell's only training label is its rank class: rank - 1 for a cell that
holds an instance, N for background, one (K,) vector per sample. Each head's
loss takes its (K, C) scores and that vector and encodes what it needs. The
partition head's ``partition_loss`` turns it into a monotone boolean matrix,
whose entry n is on iff the cell's instance belongs to partition n
(rank <= n), and applies focal loss over every cell and head; the sorting
head reads it as the class of its cross-entropy. Masks train with dice loss
over positive cells only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor

PROB_EPS = 1e-7
DICE_SMOOTH = 1.0
FOCAL_ALPHA = 0.25  # weight of a positive element; a negative one gets 1 - alpha
FOCAL_GAMMA = 2.0
MASK_WEIGHT = 3.0  # lambda, the dice term's weight against the classification term, as in SOLO


@dataclass
class LossBreakdown:
    total: Tensor
    partition: Tensor
    mask: Tensor | None


def encode_partition_gt(rank_class, n_partitions: int) -> np.ndarray:
    """(K, N) boolean matrix whose entry (k, n) is set iff rank_class[k] <= n:
    rank r (class r - 1) is on in partitions r..N, background (class N) in none.
    """
    return np.arange(n_partitions) >= np.asarray(rank_class)[:, None]


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


def partition_loss(partition_probs: Tensor, rank_class) -> Tensor:
    """Focal loss of the (K, N) partition matrix against the encoded rank
    classes: the sum over the N heads of each head's mean over every cell.
    """
    t = encode_partition_gt(rank_class, partition_probs.shape[1]).astype(np.float64)
    if t.shape != partition_probs.shape:
        raise DimensionError(f"{t.shape[0]} rank classes for {partition_probs.shape[0]} cells")
    p = T.clip(partition_probs, PROB_EPS, 1.0 - PROB_EPS)
    pt = p * t + (1.0 - p) * (1.0 - t)
    weight = FOCAL_ALPHA * t + (1.0 - FOCAL_ALPHA) * (1.0 - t)
    elements = T.mul(weight, T.power(1.0 - pt, FOCAL_GAMMA) * -T.log(pt))
    return T.tsum(T.tmean(elements, axis=0))


def total_loss(classification: Tensor, mask_preds: Tensor | None, mask_targets) -> LossBreakdown:
    """A head's classification term plus ``MASK_WEIGHT`` times the
    positive-cell dice loss. A sample with no positive cells passes
    ``mask_preds=None``; its total is then the classification term itself.
    """
    if mask_preds is None:
        return LossBreakdown(total=classification, partition=classification, mask=None)
    mask_term = dice_loss(mask_preds, mask_targets)
    return LossBreakdown(total=classification + MASK_WEIGHT * mask_term, partition=classification, mask=mask_term)
