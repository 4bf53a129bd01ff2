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
Scores are computed in float64. The model's ``Tensor`` holds the float32
image itself, with no copy, since float32 is the tape's dtype; under
``tensor.precision(np.float64)`` it widens the image without rounding.

Generation is vectorized: ramps and ellipses broadcast from 1-D terms, the
gap test dilates only around the new mask, and painting and scoring work on
flat pixel indices. A scene is byte-stable per seed. The random draws, their
order and the arithmetic on them are fixed, and the tests pin the bytes of
seeds 0-49 and check the scores bit for bit against the boolean-indexing
formula.

On disk a dataset is a directory of ``<split>.npz`` archives, each holding
``version`` (``FORMAT_VERSION``), ``images`` (N, 3, H, W) float32, ``seeds``
and ``counts`` (N,), and every scene's instances in turn as ``masks``
(M, H, W) bool and ``ranks`` (M,). Members are dated ``ZIP_DATE``, so equal
splits save to equal bytes.

``read_npz`` is the package's one ``.npz`` reader, for dataset splits and
model checkpoints alike. An unreadable or malformed split raises
``DataError`` naming the file, and the member when one member is at fault.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, GenerationError

FORMAT_VERSION = 2
PLACEMENT_BUDGET = 100
# [low, high) of a background's base colour and of an instance's colour, per channel
BACKGROUND_RANGE = (0.3, 0.7)
COLOR_RANGE = (0.0, 1.0)
CONTRAST_FLOOR = 0.2  # least mean |instance colour - background base| over RGB
GRADIENT_AMPLITUDE = 0.04  # scale of a background channel's ramp over coordinates in [-1, 1]
NOISE_AMPLITUDE = 0.03  # a background channel's uniform noise lies within +-this


@dataclass(frozen=True)
class GenConfig:
    """Scene settings. A setting is a field only where a caller, a planned
    sweep or a test sets it; one read at a single value is a constant beside
    its reader (``CONTRAST_FLOOR``, ``GRADIENT_AMPLITUDE``, ``NOISE_AMPLITUDE``).
    """

    canvas: int = 64
    k_min: int = 1
    k_max: int = 3
    min_sqrt_area: float = 10.0
    max_sqrt_area: float = 26.0
    score_ratio: float = 1.25

    def __post_init__(self):
        # each rule is written so that NaN breaks it; a broken rule yields empty
        # scenes, a numpy error inside generation, or no scene for any seed
        rules = {
            "canvas >= 32": self.canvas >= 32,
            "0 <= k_min <= k_max": 0 <= self.k_min <= self.k_max,
            "0 < min_sqrt_area <= max_sqrt_area < inf": 0 < self.min_sqrt_area <= self.max_sqrt_area < np.inf,
            "1 <= score_ratio < inf": 1 <= self.score_ratio < np.inf,
        }
        broken = [rule for rule, holds in rules.items() if not holds]
        if broken:
            raise DataError(f"GenConfig needs {' and '.join(broken)}; got {self}")


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
    base = rng.uniform(*BACKGROUND_RANGE, size=3)
    y = np.linspace(-1, 1, h)[:, None]
    x = np.linspace(-1, 1, w)
    image = np.empty((3, h, w))
    for c in range(3):
        direction = rng.uniform(-1, 1, size=2)
        noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, size=(h, w))
        image[c] = (direction[0] * y + direction[1] * x) * GRADIENT_AMPLITUDE + base[c] + noise
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


def _pick_color(bg_base: np.ndarray, taken, rng: np.random.Generator) -> np.ndarray | None:
    color = rng.uniform(*COLOR_RANGE, size=3)
    if np.abs(color - bg_base).mean() < CONTRAST_FLOOR:
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
            color = _pick_color(bg_base, colors, rng)
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
    """``count`` scenes from consecutive seeds from ``base_seed``, skipping a
    seed that fails; ``PLACEMENT_BUDGET`` failures in a row blame the config.
    """
    samples = []
    seed = base_seed
    failures = 0
    while len(samples) < count:
        try:
            samples.append(generate_scene(cfg, seed))
            failures = 0
        except GenerationError:  # skip pathological seeds; determinism is per-seed
            failures += 1
            if failures == PLACEMENT_BUDGET:
                raise GenerationError(f"seeds {seed - failures + 1}..{seed} all failed for {cfg}") from None
        seed += 1
    return samples


# persistence ----------------------------------------------------------------

ZIP_DATE = (1980, 1, 1, 0, 0, 0)  # every zip member's date, in place of the wall clock
# each archive member's dtype and number of axes
LAYOUT = {"version": (np.int64, 0), "images": (np.float32, 4), "seeds": (np.int64, 1),
          "counts": (np.int64, 1), "masks": (np.bool_, 3), "ranks": (np.int64, 1)}


def save_dataset(splits: dict[str, list[SceneSample]], out_dir) -> None:
    """Write each split as ``<split>.npz`` in ``out_dir``, which is created if missing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split, samples in splits.items():
        path = out / f"{split}.npz"
        if not samples:
            raise DataError(f"split {split!r} has no scenes to write to {path}")
        instances = [inst for sample in samples for inst in sample.instances]
        arrays = {"version": FORMAT_VERSION, "images": [sample.image for sample in samples],
                  "seeds": [sample.seed for sample in samples],
                  "counts": [len(sample.instances) for sample in samples],
                  "masks": np.reshape([mask for mask, _ in instances], (-1, *samples[0].image.shape[1:])),
                  "ranks": [rank for _, rank in instances]}
        with zipfile.ZipFile(path, "w") as archive:
            for key, (dtype, _) in LAYOUT.items():
                member = zipfile.ZipInfo(f"{key}.npy", date_time=ZIP_DATE)
                member.compress_type = zipfile.ZIP_DEFLATED
                with archive.open(member, "w", force_zip64=True) as stream:
                    np.lib.format.write_array(stream, np.asarray(arrays[key], dtype=dtype), allow_pickle=False)


def load_dataset(data_dir) -> dict[str, list[SceneSample]]:
    """Every ``<split>.npz`` in ``data_dir`` as ``{split: [SceneSample]}``."""
    root = Path(data_dir)
    paths = sorted(root.glob("*.npz"))
    if not paths:
        format_1 = (root / "manifest.json").exists()
        hint = "; its manifest.json is format 1, which is no longer read: run psrank gen again" if format_1 else ""
        raise DataError(f"no <split>.npz archives in {root}{hint}")
    return {path.stem: _load_split(path) for path in paths}


def read_npz(path: Path) -> dict[str, np.ndarray]:
    """Every ``.npy`` member of the archive at ``path``, keyed by its name
    without ``.npy``. A file that is not a readable zip archive raises
    ``DataError`` naming it; a member that is damaged, holds bytes after its
    array or would need pickle raises ``DataError`` naming the file and the
    member. Each member is read to its end, which checks its CRC-32.
    """
    # a damaged file raises zipfile, zlib, tokenize, OS, memory and value errors
    try:
        archive = zipfile.ZipFile(path)
    except Exception as exc:
        raise DataError(f"{path} is not an .npz archive: {exc!r}") from exc
    arrays = {}
    with archive:
        for name in archive.namelist():
            if not name.endswith(".npy"):
                continue
            key = name.removesuffix(".npy")
            try:
                with archive.open(name) as stream:
                    arrays[key] = np.lib.format.read_array(stream, allow_pickle=False)
                    if stream.read(1):
                        raise ValueError("bytes after the array")
            except Exception as exc:
                raise DataError(f"{path} member {key} is unreadable: {exc!r}") from exc
    return arrays


def _load_split(path: Path) -> list[SceneSample]:
    arrays = read_npz(path)
    missing = [key for key in LAYOUT if key not in arrays]
    if missing:
        raise DataError(f"dataset archive {path} is missing {', '.join(missing)}")
    arrays = {key: arrays[key] for key in LAYOUT}  # in layout order, without any other member
    version = arrays["version"]
    if version.shape != () or version != FORMAT_VERSION:
        raise DataError(f"unsupported dataset version {version} in {path}")
    for key, (dtype, ndim) in LAYOUT.items():
        if arrays[key].dtype != dtype or arrays[key].ndim != ndim:
            raise DataError(f"{key} in {path} is {arrays[key].dtype} {arrays[key].shape}, "
                            f"not {ndim}-d {np.dtype(dtype)}")
    _, images, seeds, counts, masks, ranks = arrays.values()
    if (images.shape[1] != 3 or masks.shape[1:] != images.shape[2:] or (counts < 0).any()
            or not len(images) == len(seeds) == len(counts) or not counts.sum() == len(masks) == len(ranks)):
        shapes = ", ".join(f"{key} {a.shape}" for key, a in arrays.items() if key != "version")
        raise DataError(f"arrays in {path} disagree: {shapes}, counts summing to {counts.sum()}")
    ends = np.cumsum(counts)[:-1]
    scene_ranks = np.split(ranks, ends)
    for i, scene in enumerate(scene_ranks):
        if not np.array_equal(np.sort(scene), np.arange(1, len(scene) + 1)):
            raise DataError(f"scene {i} in {path} has ranks {scene.tolist()}, not 1..{len(scene)} each once")
    per_scene = zip(images, seeds, np.split(masks, ends), scene_ranks)
    return [SceneSample(image=image, instances=list(zip(scene_masks, scene_ranks.tolist())), seed=int(seed))
            for image, seed, scene_masks, scene_ranks in per_scene]
