"""Ranking-by-sorting baseline head.

One (N+1)-way classifier per cell (classes 0..N-1 are ranks 1..N, class N is
background) whose argmax scores are sorted to produce ranks directly. Selected
with ``ModelConfig(head_type="sorting")`` for the paradigm ablation; it shares
the trunk, the mask branch and the per-cell row order with the partition head.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .heads import _per_cell
from .losses import PROB_EPS
from .p2r import RankedInstance, binarize, mask_iou
from .pyramid import conv_params
from .tensor import Parameter, Tensor


def init_sorting_head_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    return conv_params("sorting", cfg.channels, cfg.max_rank + 1, rng)


def sorting_head_forward(f_hat: Tensor, params, cfg: ModelConfig) -> Tensor:
    """Per-cell class probabilities (K, N+1), softmax-normalized."""
    return T.softmax(_per_cell(f_hat, params["sorting.w"], params["sorting.b"], cfg))


def sort_to_ranks(scores: np.ndarray, masks, n_ranks: int, nms_iou: float,
                  binarize_threshold: float) -> list[RankedInstance]:
    """Greedy decode: non-background argmax cells ordered by confidence (ties
    to the lower row); a candidate is dropped if its class is already taken or
    its mask's ``mask_iou`` with an accepted one exceeds the NMS threshold. The accepted
    cells, ordered by class, get ranks 1..n, so a class nobody took leaves no
    gap. ``masks`` is row-indexable as in ``p2r``; a mask is fetched only for
    a candidate whose class is still free, and the walk stops once every
    class is taken.
    """
    scores = np.asarray(scores)
    classes = scores.argmax(axis=1)
    confidences = scores[np.arange(len(scores)), classes]
    order = sorted(
        (i for i in range(len(scores)) if classes[i] != n_ranks),
        key=lambda i: (-confidences[i], i),
    )
    accepted: dict[int, tuple[int, np.ndarray]] = {}  # class -> (row, binary mask)
    for i in order:
        if len(accepted) == n_ranks:
            break
        if classes[i] in accepted:
            continue
        binary = binarize(masks[[i]][0], binarize_threshold)
        if all(mask_iou(binary, earlier) <= nms_iou for _, earlier in accepted.values()):
            accepted[classes[i]] = (i, binary)
    return [RankedInstance(mask=binary, rank=rank, score=float(confidences[i]))
            for rank, (_, (i, binary)) in enumerate(sorted(accepted.items()), start=1)]


def cross_entropy_loss(scores: Tensor, classes: np.ndarray) -> Tensor:
    """Mean negative log-probability of the labeled class per cell."""
    rows = np.arange(scores.shape[0])
    picked = scores[(rows, np.asarray(classes))]
    return T.tmean(-T.log(T.clip(picked, PROB_EPS, 1.0)))
