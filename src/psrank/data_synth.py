"""Synthetic ranked scenes and dataset persistence.

Each scene places K disjoint flat-colored shapes on a textured background.
Ground-truth saliency is a fixed closed form computed from the finished
image, so it can be re-derived from a stored sample alone:

    score = contrast * area_fraction * center_proximity

    contrast         mean over RGB of |instance color - mean background color|
    area_fraction    mask pixels / canvas pixels
    center_proximity 1 - d / (diag/2), d = distance from the mask's center of
                     mass to the canvas center

Ranks are descending score order (ties broken by instance index); generation
rejects scenes whose consecutive scores are closer than a fixed ratio so the
ordering is unambiguous and learnable. The rule does not claim to model human
attention; it exists so ranks are verifiable.

A scene's image is float32 (3, H, W) in [0, 1], the precision the dataset
format stores, so a generated scene and its saved-then-loaded copy are equal.
Scores are computed in float64, and the model's ``Tensor`` widens the image
to float64 without rounding.

Generation is vectorized: ramps and ellipses broadcast from 1-D terms, the
gap test dilates only around the new mask, and painting and scoring work on
flat pixel indices. A scene is byte-stable per seed. The random draws, their
order and the arithmetic on them are fixed, and the tests pin the bytes of
seeds 0-49 and check the scores bit for bit against the boolean-indexing
formula.

On disk a dataset is ``manifest.json`` plus ``samples/<id>.json``. Images are
stored as base64 float32 RGB triplets in row-major (H, W, 3) order. Masks
use run-length counts over row-major pixels, alternating runs starting with
a zero-run.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, GenerationError

FORMAT_VERSION = 1
PLACEMENT_BUDGET = 100


@dataclass(frozen=True)
class GenConfig:
    canvas: int = 64
    max_rank: int = 3
    k_min: int = 1
    k_max: int = 3
    min_sqrt_area: float = 10.0
    max_sqrt_area: float = 26.0
    score_ratio: float = 1.25
    contrast_floor: float = 0.2
    noise_amplitude: float = 0.03
    gradient_amplitude: float = 0.04

    def __post_init__(self):
        if self.k_max > self.max_rank:
            raise DataError(f"k_max {self.k_max} exceeds max_rank {self.max_rank}")
        if self.canvas < 32:
            raise DataError(f"canvas {self.canvas} below minimum 32")


@dataclass
class SceneSample:
    image: np.ndarray  # float32 (3, H, W) in [0, 1]
    instances: list[tuple[np.ndarray, int]]  # (bool mask, rank), rank == index+1
    seed: int


def instance_scores(image: np.ndarray, masks) -> np.ndarray:
    """The documented saliency score for each mask, from the image alone."""
    image = np.asarray(image, dtype=np.float64)
    return _scores(image, [np.flatnonzero(m) for m in masks])


def _channel_means(rows: np.ndarray) -> np.ndarray:
    """Mean of each row of a (C, N) pixel selection, summed left to right.

    This is bitwise ``image[:, mask].mean(axis=1)``: boolean indexing returns
    pixel-major memory, over which numpy adds each channel's pixels in
    sequence, not pairwise, and ``cumsum`` keeps that order.
    """
    if rows.shape[1] == 0:
        return rows.mean(axis=1)  # NaN, as for any empty selection
    return np.cumsum(rows, axis=1)[:, -1] / rows.shape[1]


def _scores(image: np.ndarray, pixels) -> np.ndarray:
    """``instance_scores`` from each instance's flat row-major pixel indices.

    ``compress`` and ``take`` on the flat (C, H*W) view select the pixels in
    the order boolean indexing of the (C, H, W) image does.
    """
    c, h, w = image.shape
    flat = image.reshape(c, h * w)
    union = np.zeros(h * w, dtype=bool)
    for idx in pixels:
        union[idx] = True
    bg_color = _channel_means(flat.compress(~union, axis=1))
    center = np.array([h / 2.0, w / 2.0])
    half_diag = np.sqrt(h * h + w * w) / 2.0
    scores = np.zeros(len(pixels))
    for i, idx in enumerate(pixels):
        color = _channel_means(flat.take(idx, axis=1))
        contrast = np.abs(color - bg_color).mean()
        area_fraction = idx.size / (h * w)
        # integer coordinate sums are exact, so their means match np.mean's
        y_sum = int((idx // w).sum())
        x_sum = int(idx.sum()) - w * y_sum
        com = np.array([y_sum / idx.size + 0.5, x_sum / idx.size + 0.5])
        proximity = 1.0 - np.linalg.norm(com - center) / half_diag
        scores[i] = contrast * area_fraction * proximity
    return scores


def _textured_background(cfg: GenConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    h = w = cfg.canvas
    base = rng.uniform(0.3, 0.7, size=3)
    y = np.linspace(-1, 1, h)[:, None]
    x = np.linspace(-1, 1, w)
    image = np.empty((3, h, w))
    for c in range(3):
        direction = rng.uniform(-1, 1, size=2)
        noise = rng.uniform(-cfg.noise_amplitude, cfg.noise_amplitude, size=(h, w))
        image[c] = (direction[0] * y + direction[1] * x) * cfg.gradient_amplitude + base[c] + noise
    return image, base


def _shape_mask(cfg: GenConfig, rng: np.random.Generator) -> np.ndarray | None:
    canvas = cfg.canvas
    sqrt_area = rng.uniform(cfg.min_sqrt_area, cfg.max_sqrt_area)
    aspect = rng.uniform(0.6, 1.6)
    h = sqrt_area * np.sqrt(aspect)
    w = sqrt_area / np.sqrt(aspect)
    if h >= canvas - 4 or w >= canvas - 4:
        return None
    cy = rng.uniform(h / 2 + 2, canvas - h / 2 - 2)
    cx = rng.uniform(w / 2 + 2, canvas - w / 2 - 2)
    if rng.random() < 0.5:
        mask = np.zeros((canvas, canvas), dtype=bool)
        r0, r1 = int(round(cy - h / 2)), int(round(cy + h / 2))
        c0, c1 = int(round(cx - w / 2)), int(round(cx + w / 2))
        mask[r0:r1, c0:c1] = True
    else:
        centers = np.arange(canvas) + 0.5
        ty = ((centers - cy) / (h / 2)) ** 2
        tx = ((centers - cx) / (w / 2)) ** 2
        mask = ty[:, None] + tx <= 1.0
    return mask if mask.any() else None


def _disjoint_with_gap(mask: np.ndarray, others, gap: int = 2) -> bool:
    """No pixel of ``others`` within 4-neighbour distance ``gap`` of ``mask``.

    The dilation runs on the mask's bounding box grown by ``gap`` and clipped
    to the canvas, the only pixels it can reach.
    """
    if not others:
        return True
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    box = (slice(max(rows[0] - gap, 0), rows[-1] + gap + 1),
           slice(max(cols[0] - gap, 0), cols[-1] + gap + 1))
    grown = mask[box]
    for _ in range(gap):
        g = grown.copy()
        g[1:] |= grown[:-1]
        g[:-1] |= grown[1:]
        g[:, 1:] |= grown[:, :-1]
        g[:, :-1] |= grown[:, 1:]
        grown = g
    return not any((grown & other[box]).any() for other in others)


def _pick_color(bg_base: np.ndarray, taken, cfg: GenConfig, rng: np.random.Generator) -> np.ndarray | None:
    color = rng.uniform(0.0, 1.0, size=3)
    if np.abs(color - bg_base).mean() < cfg.contrast_floor:
        return None
    if any(np.abs(color - t).max() < 0.15 for t in taken):
        return None
    return color


def generate_scene(cfg: GenConfig, seed: int) -> SceneSample:
    """Deterministic scene for ``seed``; raises GenerationError when the
    placement/separation constraints cannot be met within the retry budget.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
    for _ in range(PLACEMENT_BUDGET):
        image, bg_base = _textured_background(cfg, rng)
        masks: list[np.ndarray] = []
        colors: list[np.ndarray] = []
        tries = 0
        while len(masks) < k and tries < PLACEMENT_BUDGET:
            tries += 1
            mask = _shape_mask(cfg, rng)
            if mask is None or not _disjoint_with_gap(mask, masks):
                continue
            color = _pick_color(bg_base, colors, cfg, rng)
            if color is None:
                continue
            masks.append(mask)
            colors.append(color)
        if len(masks) < k:
            continue
        flat = image.reshape(3, -1)
        pixels = [np.flatnonzero(m) for m in masks]
        for idx, color in zip(pixels, colors):
            flat[:, idx] = color[:, None]
        scores = _scores(image, pixels)
        order = np.argsort(-scores, kind="stable")
        ordered_scores = scores[order]
        if np.any(ordered_scores[1:] * cfg.score_ratio > ordered_scores[:-1]):
            continue
        image = image.astype(np.float32)
        instances = [(masks[idx], rank + 1) for rank, idx in enumerate(order)]
        return SceneSample(image=image, instances=instances, seed=seed)
    raise GenerationError(f"could not build a valid scene for seed {seed}")


def generate_dataset(cfg: GenConfig, count: int, base_seed: int) -> list[SceneSample]:
    samples = []
    seed = base_seed
    while len(samples) < count:
        try:
            samples.append(generate_scene(cfg, seed))
        except GenerationError:
            pass  # skip pathological seeds; determinism is per-seed
        seed += 1
    return samples


# persistence ----------------------------------------------------------------


def mask_to_rle(mask: np.ndarray) -> list[int]:
    flat = np.asarray(mask, dtype=bool).reshape(-1).astype(np.int8)
    changes = np.nonzero(np.diff(flat))[0] + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return [int(r) for r in runs]


def rle_to_mask(runs, shape) -> np.ndarray:
    total = int(np.prod(shape))
    if sum(runs) != total or any(r < 0 for r in runs):
        raise DataError(f"run-length data does not cover {total} pixels")
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    return flat.reshape(shape)


def _encode_image(image: np.ndarray) -> str:
    hw3 = np.ascontiguousarray(image.transpose(1, 2, 0).astype(np.float32))
    return base64.b64encode(hw3.tobytes()).decode("ascii")


def _decode_image(payload, image_format: str, canvas: int) -> np.ndarray:
    if image_format != "base64":
        raise DataError(f"unknown image format {image_format!r}")
    flat = np.frombuffer(base64.b64decode(payload), dtype="<f4")
    hw3 = flat.reshape(canvas, canvas, 3)
    return np.ascontiguousarray(hw3.transpose(2, 0, 1))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def save_dataset(splits: dict[str, list[SceneSample]], out_dir, max_rank: int) -> None:
    out = Path(out_dir)
    (out / "samples").mkdir(parents=True, exist_ok=True)
    entries = []
    canvas = None
    for split in sorted(splits):
        for i, sample in enumerate(splits[split]):
            canvas = sample.image.shape[1]
            sample_id = f"{split}_{i:04d}"
            rel = f"samples/{sample_id}.json"
            payload = {
                "seed": sample.seed,
                "image_format": "base64",
                "image": _encode_image(sample.image),
                "instances": [
                    {"rle": mask_to_rle(mask), "rank": int(rank)}
                    for mask, rank in sample.instances
                ],
            }
            (out / rel).write_bytes(_json_bytes(payload))
            entries.append({"id": sample_id, "file": rel, "split": split})
    manifest = {
        "version": FORMAT_VERSION,
        "max_rank": int(max_rank),
        "canvas": int(canvas),
        "count": len(entries),
        "samples": entries,
    }
    (out / "manifest.json").write_bytes(_json_bytes(manifest))


def load_manifest(data_dir) -> dict:
    path = Path(data_dir) / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    manifest = json.loads(path.read_text())
    missing = [key for key in ("version", "canvas", "count", "samples") if key not in manifest]
    if missing:
        raise DataError(f"manifest {path} is missing {', '.join(missing)}")
    if manifest["version"] != FORMAT_VERSION:
        raise DataError(f"unsupported dataset version {manifest['version']}")
    listed = manifest["samples"]
    if manifest["count"] != len(listed):
        raise DataError(f"manifest count {manifest['count']} != {len(listed)} listed samples")
    return manifest


def load_dataset(data_dir) -> dict[str, list[SceneSample]]:
    root = Path(data_dir)
    manifest = load_manifest(root)
    canvas = manifest["canvas"]
    splits: dict[str, list[SceneSample]] = {}
    for entry in manifest["samples"]:
        path = root / entry["file"]
        if not path.exists():
            raise DataError(f"sample file missing: {path}")
        try:
            payload = json.loads(path.read_text())
            image = _decode_image(payload["image"], payload["image_format"], canvas)
            instances = [
                (rle_to_mask(inst["rle"], (canvas, canvas)), int(inst["rank"]))
                for inst in payload["instances"]
            ]
            sample = SceneSample(image=image, instances=instances, seed=int(payload["seed"]))
        except Exception as exc:
            raise DataError(f"corrupt sample {path}: {exc}") from exc
        splits.setdefault(entry["split"], []).append(sample)
    return splits
