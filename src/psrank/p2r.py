"""Partition-to-Rank inference.

A candidate is a row index into the partition matrix ``values`` (K, N) and
the soft masks ``masks``, both in the heads' cell order. ``masks`` is any
row-indexable view: ``len(masks)`` is K and ``masks[rows]`` returns the
(len(rows), H, W) soft masks of those rows. A (K, H, W) array is one;
``model.predict`` passes one that computes and upsamples a mask only when
its row is asked for, so decoding pays only for the masks it reads.

Inference proceeds in three steps: associate keeps the rows that clear the
objectness floor, alleviate discards rows whose thresholded partition
pattern is ambiguous, and selection walks each rank's rows from the most
probable down and takes the first whose binarized mask does not overlap an
earlier choice. Masks are fetched only for the rows that walk reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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


class AcceptedMasks:
    """Binary masks accepted so far; ``clears`` tests a new mask against all
    of them. Intersections are integer pixel counts and each accepted mask's
    area is counted once, so every IoU equals ``mask_iou`` of the pair.
    """

    def __init__(self):
        self.masks: list[np.ndarray] = []
        self.areas: list[int] = []

    def clears(self, binary: np.ndarray, nms_iou: float) -> bool:
        """True iff ``binary`` has IoU <= ``nms_iou`` with every accepted mask."""
        area = np.count_nonzero(binary) if self.masks else 0
        for mask, mask_area in zip(self.masks, self.areas):
            inter = np.count_nonzero(np.logical_and(mask, binary))
            union = mask_area + area - inter
            if (inter / union if union else 0.0) > nms_iou:
                return False
        return True

    def add(self, binary: np.ndarray) -> None:
        self.masks.append(binary)
        self.areas.append(np.count_nonzero(binary))


def associate(masks, values, objectness_floor: float) -> np.ndarray:
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
                 binarize_threshold: float) -> list[RankedInstance]:
    """Iterative rank assignment over the alleviated ``rows``.

    For rank n the rows are walked in descending partition-n probability,
    ties going to the lower row, skipping rows already chosen; the walk stops
    at the first row below the threshold. The first row whose binarized mask
    has IoU <= nms_iou with every chosen mask takes rank n, and when no row
    does, selection ends. This equals suppressing every row that overlaps a
    choice, since a suppressed row matters only when it would otherwise be
    chosen.

    Only the rows the walk reaches have their masks fetched, in blocks that
    double along the walk (one row, then as many as fetched so far, all at
    or above the threshold), and each is binarized once per call.
    """
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    values = np.asarray(values)
    binaries: dict[int, np.ndarray] = {}
    chosen: list[int] = []
    accepted = AcceptedMasks()
    results: list[RankedInstance] = []
    for rank in range(1, n_ranks + 1):
        column = values[rows, rank - 1]
        walk = rows[np.argsort(-column, kind="stable")][: np.count_nonzero(column >= threshold)].tolist()
        for position, row in enumerate(walk):
            if row in chosen:
                continue
            if row not in binaries:
                unfetched = (r for r in walk[position:] if r not in binaries)
                block = list(islice(unfetched, max(1, len(binaries))))
                for r, soft in zip(block, masks[block]):
                    binaries[r] = binarize(soft, binarize_threshold)
            if accepted.clears(binaries[row], nms_iou):
                chosen.append(row)
                accepted.add(binaries[row])
                results.append(RankedInstance(mask=binaries[row], rank=rank, score=float(values[row, rank - 1])))
                break
        else:  # no row at or above the threshold passes the overlap test
            break
    return results


def partition_to_rank(masks, values, n_ranks: int, threshold: float, nms_iou: float,
                      objectness_floor: float, binarize_threshold: float) -> list[RankedInstance]:
    """Full pipeline: associate -> alleviate -> iterative selection."""
    rows = associate(masks, values, objectness_floor)
    return select_ranks(masks, values, alleviate(values, rows, threshold), n_ranks, threshold, nms_iou,
                        binarize_threshold)
