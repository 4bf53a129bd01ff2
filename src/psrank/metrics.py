"""Instance matching and ranking metrics.

Predictions and ground truth are matched greedily by mask IoU; the three
dataset metrics are Spearman correlation over matched ranks (sor), Pearson
correlation over all ground-truth instances of saliency values N - r + 1,
with misses scored 0 (sa_sor), and the mean absolute difference between
rank-rendered saliency maps (mae). Coverage (GT instances matched, images
with a prediction) is reported too: one instance or all missed leave a
correlation undefined.
Both correlations are computed here in NumPy: Pearson directly, Spearman as
Pearson on average ranks (tied values share the mean of their ranks).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from .errors import DataError
from .p2r import mask_iou


@dataclass
class MatchResult:
    pairs: list[tuple[int, int, float]]  # (gt index, pred index, iou)
    unmatched_gt: list[int]
    unmatched_pred: list[int]
    gt_ranks: np.ndarray
    pred_ranks: np.ndarray


def match_instances(preds, gts, iou_threshold: float = 0.5) -> MatchResult:
    """One-to-one greedy matching in descending-IoU order among pairs at or
    above the threshold; ties break on (gt index, pred index).
    """
    gt_masks = [np.asarray(m, dtype=bool) for m, _ in gts]
    pred_masks = [np.asarray(p.mask, dtype=bool) for p in preds]
    scored = []
    for gi, gm in enumerate(gt_masks):
        for pi, pm in enumerate(pred_masks):
            iou = mask_iou(gm, pm)
            if iou >= iou_threshold:
                scored.append((-iou, gi, pi))
    scored.sort()
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    pairs = []
    for neg_iou, gi, pi in scored:
        if gi in used_gt or pi in used_pred:
            continue
        used_gt.add(gi)
        used_pred.add(pi)
        pairs.append((gi, pi, -neg_iou))
    return MatchResult(
        pairs=pairs,
        unmatched_gt=[i for i in range(len(gts)) if i not in used_gt],
        unmatched_pred=[i for i in range(len(preds)) if i not in used_pred],
        gt_ranks=np.array([r for _, r in gts], dtype=np.int64),
        pred_ranks=np.array([p.rank for p in preds], dtype=np.int64),
    )


def _constant(v: np.ndarray) -> bool:
    return v.size == 0 or np.all(v == v[0])


def pearson(x, y) -> float | None:
    """Pearson correlation of two equal-length vectors, clipped to [-1, 1].
    Undefined (None) with fewer than two entries or a constant side.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 2 or _constant(x) or _constant(y):
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    r = (dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy))
    return float(min(max(r, -1.0), 1.0))


def _average_ranks(v) -> np.ndarray:
    """1-based ranks of ``v``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(np.asarray(v, dtype=float), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float | None:
    """Spearman correlation: Pearson on average ranks, with the same None rules."""
    return pearson(_average_ranks(x), _average_ranks(y))


def sor(match: MatchResult) -> float | None:
    """Spearman correlation of (gt rank, predicted rank) over matched pairs.
    Undefined (None) with fewer than two pairs or a constant side.
    """
    x = [match.gt_ranks[gi] for gi, _, _ in match.pairs]
    y = [match.pred_ranks[pi] for _, pi, _ in match.pairs]
    return spearman(x, y)


def sa_sor(match: MatchResult, n_ranks: int) -> float | None:
    """Pearson correlation over every ground-truth instance of its value N - r + 1
    (N = ``n_ranks``; larger is more salient, as in ``render_rank_map``) with the
    matched prediction's value, or with 0 when missed: less salient than any rank.
    """
    y = np.zeros(len(match.gt_ranks))
    for gi, pi, _ in match.pairs:
        y[gi] = n_ranks - match.pred_ranks[pi] + 1
    return pearson(n_ranks - match.gt_ranks + 1, y)


def render_rank_map(instances, n_ranks: int, canvas: int) -> np.ndarray:
    """Saliency map with rank r drawn at (N-r+1)/N, background 0; overlaps
    keep the higher (more salient) value.
    """
    out = np.zeros((canvas, canvas))
    for mask, rank in instances:
        value = (n_ranks - rank + 1) / n_ranks
        out = np.maximum(out, np.asarray(mask, dtype=float) * value)
    return out


def mae(pred_instances, gt_instances, n_ranks: int, canvas: int) -> float:
    """Mean absolute per-pixel difference of the two rank renderings."""
    pred_map = render_rank_map(pred_instances, n_ranks, canvas)
    gt_map = render_rank_map(gt_instances, n_ranks, canvas)
    return float(np.abs(pred_map - gt_map).mean())


def confusion(matches, n_ranks: int) -> np.ndarray:
    """Dataset-wide (gt rank, predicted rank) counts over matched pairs."""
    grid = np.zeros((n_ranks, n_ranks), dtype=np.int64)
    for match in matches:
        for gi, pi, _ in match.pairs:
            grid[match.gt_ranks[gi] - 1, match.pred_ranks[pi] - 1] += 1
    return grid


# dataset aggregation ------------------------------------------------------------


@dataclass
class MetricReport:
    mae: float
    sa_sor: float | None
    sor: float | None
    sor_normalized: float | None
    images_evaluated: int
    images_excluded_sor: int
    images_excluded_sasor: int
    gt_matched_fraction: float | None  # matched GT instances / all GT instances; None with no GT
    images_with_predictions: int
    confusion: np.ndarray

    def to_json_dict(self) -> dict:
        return asdict(self) | {"confusion": self.confusion.tolist()}


def evaluate_images(per_image, n_ranks: int, canvas: int, iou_threshold: float = 0.5) -> MetricReport:
    """Aggregate metrics over (preds, gts) pairs, one per image. ``preds``
    are RankedInstance lists; ``gts`` are (mask, rank) lists. Images where a
    correlation is undefined are excluded from that correlation's mean and
    counted. No image raises ``DataError``: it has no MAE, and 0 would read
    as a perfect score. So does a rank outside the integers 1..n_ranks, which
    would render off the map's scale and miscount in the confusion matrix,
    and a mask that is not (canvas, canvas), which cannot be rendered.
    """
    if len(per_image) == 0:
        raise DataError("evaluate_images needs at least one image")
    maes = []
    sors = []
    sasors = []
    matches = []
    for index, (preds, gts) in enumerate(per_image):
        for rank in [p.rank for p in preds] + [r for _, r in gts]:
            if not (isinstance(rank, Integral) and 1 <= rank <= n_ranks):
                raise DataError(f"image {index} has rank {rank}, not an integer in 1..{n_ranks}")
        for mask in [p.mask for p in preds] + [m for m, _ in gts]:
            if np.shape(mask) != (canvas, canvas):
                raise DataError(f"image {index} has a mask of shape {np.shape(mask)}, not ({canvas}, {canvas})")
        match = match_instances(preds, gts, iou_threshold)
        matches.append(match)
        maes.append(mae([(p.mask, p.rank) for p in preds], gts, n_ranks, canvas))
        s = sor(match)
        if s is not None:
            sors.append(s)
        p = sa_sor(match, n_ranks)
        if p is not None:
            sasors.append(p)
    mean_sor = float(np.mean(sors)) if sors else None
    n_gt = sum(len(match.gt_ranks) for match in matches)
    return MetricReport(
        mae=float(np.mean(maes)),
        sa_sor=float(np.mean(sasors)) if sasors else None,
        sor=mean_sor,
        sor_normalized=None if mean_sor is None else (mean_sor + 1.0) / 2.0,
        images_evaluated=len(per_image),
        images_excluded_sor=len(per_image) - len(sors),
        images_excluded_sasor=len(per_image) - len(sasors),
        gt_matched_fraction=sum(len(match.pairs) for match in matches) / n_gt if n_gt else None,
        images_with_predictions=sum(1 for preds, _ in per_image if preds),
        confusion=confusion(matches, n_ranks),
    )
