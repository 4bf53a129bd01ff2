"""Partition-to-Rank inference.

A candidate is a row index into the partition matrix ``values`` (K, N) and
the soft masks ``masks`` (K, H, W), both in the heads' cell order.
Inference proceeds in four steps: associate keeps the rows that clear the
objectness floor, alleviate discards rows whose thresholded partition
pattern is ambiguous, selection repeatedly takes the best row for the next
rank while suppressing overlapping masks, and the chosen masks are binarized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass
class RankedInstance:
    mask: np.ndarray  # binary
    rank: int
    score: float


def binarize(soft_mask: np.ndarray, threshold: float) -> np.ndarray:
    """Pixel on iff its soft value is >= threshold."""
    return np.asarray(soft_mask) >= threshold


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks; 0 when both are empty."""
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a, b).sum() / union)


def associate(masks, values, objectness_floor: float = 0.1) -> np.ndarray:
    """Rows that pair a mask with a partition row whose best probability
    reaches ``objectness_floor``.
    """
    values = np.asarray(values)
    if len(masks) != len(values):
        raise DimensionError(f"{len(masks)} masks vs {len(values)} partition rows")
    return np.flatnonzero(np.max(values, axis=1, initial=-np.inf) >= objectness_floor)


def alleviate(values, rows, threshold: float) -> np.ndarray:
    """Keep only rows whose thresholded partition indicators are monotone
    non-decreasing; a high partition-j followed by a low partition-i (j < i)
    is contradictory and the row is discarded.
    """
    rows = np.asarray(rows, dtype=np.intp)
    above = np.asarray(values)[rows] >= threshold
    # a True followed anywhere later by a False marks the (j < i) violation
    ambiguous = np.any(np.maximum.accumulate(above, axis=1)[:, :-1] & ~above[:, 1:], axis=1)
    return rows[~ambiguous]


def select_ranks(masks, values, rows, n_ranks: int, threshold: float, nms_iou: float,
                 binarize_threshold: float = 0.5) -> list[RankedInstance]:
    """Iterative rank assignment over the alleviated ``rows``.

    For rank n the alive row with the highest partition-n probability is
    chosen (ties go to the lower row); selection stops once that best
    probability falls below the threshold. Every remaining row whose
    binarized mask overlaps the selection with IoU > nms_iou is suppressed.
    """
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    values = np.asarray(values)[rows]
    alive = np.ones(len(rows), dtype=bool)
    binaries = areas = None  # made at the first selection: no mask is needed if no row clears the threshold
    results: list[RankedInstance] = []
    for rank in range(1, n_ranks + 1):
        if not alive.any():
            break
        best = int(np.argmax(np.where(alive, values[:, rank - 1], -np.inf)))
        best_score = float(values[best, rank - 1])
        if best_score < threshold:
            break
        if binaries is None:
            binaries = binarize(masks, binarize_threshold)[rows]
            areas = binaries.sum(axis=(1, 2))
        results.append(RankedInstance(mask=binaries[best].copy(), rank=rank, score=best_score))
        alive[best] = False
        inter = (binaries & binaries[best]).sum(axis=(1, 2))
        union = areas + areas[best] - inter
        iou = np.divide(inter, union, out=np.zeros(len(rows)), where=union > 0)
        alive &= iou <= nms_iou
    return results


def partition_to_rank(masks, values, n_ranks: int, threshold: float, nms_iou: float,
                      objectness_floor: float = 0.1, binarize_threshold: float = 0.5) -> list[RankedInstance]:
    """Full pipeline: associate -> alleviate -> iterative selection."""
    rows = associate(masks, values, objectness_floor)
    return select_ranks(masks, values, alleviate(values, rows, threshold), n_ranks, threshold, nms_iou,
                        binarize_threshold)
