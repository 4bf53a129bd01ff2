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
from .p2r import RankedInstance, binarize, mask_iou
from .pyramid import PyramidFeatures
from .tensor import Parameter, Tensor


def init_sorting_head_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    e, n = cfg.channels, cfg.max_rank
    std = np.sqrt(2.0 / (e * 9))
    return {
        "sorting.w": Parameter(rng.normal(0.0, std, size=(n + 1, e, 3, 3))),
        "sorting.b": Parameter(np.zeros(n + 1)),
    }


def sorting_head_forward(f_hat: PyramidFeatures, params) -> Tensor:
    """Per-cell class probabilities (K, N+1), softmax-normalized."""
    return T.softmax(_per_cell(f_hat, params["sorting.w"], params["sorting.b"]), axis=1)


def sort_to_ranks(scores: np.ndarray, masks, n_ranks: int, nms_iou: float,
                  binarize_threshold: float = 0.5) -> list[RankedInstance]:
    """Greedy decode: non-background argmax cells ordered by confidence; a
    candidate is dropped if its rank is already taken or its mask overlaps an
    accepted one beyond the NMS threshold.
    """
    scores = np.asarray(scores)
    classes = scores.argmax(axis=1)
    confidences = scores[np.arange(len(scores)), classes]
    order = sorted(
        (i for i in range(len(scores)) if classes[i] != n_ranks),
        key=lambda i: (-confidences[i], i),
    )
    binaries = {i: binarize(np.asarray(masks[i]), binarize_threshold) for i in order}
    taken: set[int] = set()
    accepted: list[int] = []
    results: list[RankedInstance] = []
    for i in order:
        rank = int(classes[i]) + 1
        if rank in taken:
            continue
        if any(mask_iou(binaries[i], binaries[j]) > nms_iou for j in accepted):
            continue
        taken.add(rank)
        accepted.append(i)
        results.append(RankedInstance(mask=binaries[i].copy(), rank=rank, score=float(confidences[i])))
    results.sort(key=lambda r: r.rank)
    return results


def cross_entropy_loss(scores: Tensor, classes: np.ndarray) -> Tensor:
    """Mean negative log-probability of the labeled class per cell."""
    rows = np.arange(scores.shape[0])
    picked = scores[(rows, np.asarray(classes))]
    return T.tmean(-T.log(T.clip(picked, 1e-7, 1.0)))
