"""Partition-to-Rank inference.

A candidate is a row index into the partition matrix ``values`` (K, N), in
the heads' cell order. ``masks`` is the decode's one mask fetch:
``masks(rows)`` returns those rows' (len(rows), H, W) binary masks.
``model.predict``'s fetch makes only the masks asked for, so decoding pays
only for the masks it reads, and the binarize threshold stays in the fetch.

Inference proceeds in three steps: associate keeps the rows whose best
partition probability reaches the threshold (no rank's walk reaches any
other row), alleviate discards rows whose thresholded partition pattern is
ambiguous, and selection walks each rank's rows from the most probable down
and takes the first whose mask has ``mask_iou`` at most ``nms_iou`` with
every earlier choice. Masks are fetched only for the rows that walk reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DimensionError

MASK_THRESHOLD = 0.5  # a soft mask's pixel is on at or above this value
NMS_IOU = 0.5  # the largest mask IoU a choice may have with an earlier one


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


def associate(values, threshold: float) -> np.ndarray:
    """Rows whose best partition probability reaches ``threshold``: the rows a rank's walk can reach."""
    return np.flatnonzero(np.max(np.asarray(values), axis=1, initial=-np.inf) >= threshold)


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


def select_ranks(masks, values, rows, n_ranks: int, threshold: float, nms_iou: float) -> list[RankedInstance]:
    """Iterative rank assignment over the alleviated ``rows``.

    For rank n the rows are walked in descending partition-n probability,
    ties going to the lower row, skipping rows already chosen; the walk stops
    at the first row below the threshold. The first row whose mask has
    ``mask_iou`` <= nms_iou with every chosen mask takes rank n, and when
    no row does, selection ends. This equals suppressing every row that
    overlaps a choice, since a suppressed row matters only when it would
    otherwise be chosen.

    Only the rows the walk reaches have their masks fetched, each once per
    call, in blocks that double along the walk (one row, then as many as
    fetched so far, all at or above the threshold).
    """
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    values = np.asarray(values)
    binaries: dict[int, np.ndarray] = {}
    chosen: list[int] = []
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
                binaries.update(zip(block, masks(block)))
            if all(mask_iou(binaries[row], earlier.mask) <= nms_iou for earlier in results):
                chosen.append(row)
                results.append(RankedInstance(mask=binaries[row], rank=rank, score=float(values[row, rank - 1])))
                break
        else:  # no row at or above the threshold passes the overlap test
            break
    return results


def partition_to_rank(masks, values, n_ranks: int, threshold: float, nms_iou: float) -> list[RankedInstance]:
    """Full pipeline at one ``threshold``: associate -> alleviate -> iterative selection."""
    rows = associate(values, threshold)
    return select_ranks(masks, values, alleviate(values, rows, threshold), n_ranks, threshold, nms_iou)
