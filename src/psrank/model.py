"""Full network assembly, inference, and checkpointing.

``forward`` runs the encoder, the DPT and the head, and leaves the mask branch
unbuilt: ``ModelOutputs.mask`` builds it on first read, so a ``predict`` whose
decode selects no row never pays for it (SOLOv2 likewise makes masks only for
what decode keeps).
"""

from __future__ import annotations

import json
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import dpt, heads, losses, pyramid, sorting_head, tensor as T
from .config import ModelConfig, TrainConfig, config_from_dict, config_hash, config_to_dict
from .errors import ConfigurationError, DataError, DimensionError
from .heads import MaskBranch
from .p2r import RankedInstance, partition_to_rank
from .tensor import Parameter, Tensor


class ModelOutputs:
    """The head's (K, C) scores, one row per grid cell, and the mask branch.

    ``mask`` is built on first read by ``heads.mask_branch``, looked up on its
    module then (so a profiler's wrapper sees the call), from the features the
    forward pass kept, and under the grad mode in effect at that read.
    """

    def __init__(self, scores: Tensor, mask_inputs: tuple):
        self.scores = scores
        self._mask_inputs = mask_inputs  # heads.mask_branch's arguments

    @cached_property
    def mask(self) -> MaskBranch:
        return heads.mask_branch(*self._mask_inputs)


@dataclass(frozen=True)
class Head:
    """The operations that differ between the partition and sorting heads."""

    init: Callable  # (cfg, rng) -> params
    forward: Callable  # (f_hat (E, K) pyramid, params, cfg) -> (K, C) scores
    # (scores (K, C), rank_class (K,)) -> classification term; rank_class holds
    # rank - 1 per positive cell and N for background, and the loss encodes it
    loss: Callable
    # (scores (K, C), masks) -> ranked instances; masks is row-indexable:
    # len(masks) == K and masks[rows] is (len(rows), H, W), as a (K, H, W) array is
    decode: Callable


def head_ops(cfg: ModelConfig) -> Head:
    """The configured head. Callers ask for it at each use, and its functions
    are looked up on their modules then, so wrappers installed on those
    module attributes (a profiler's, say) see every call.
    """
    if cfg.head_type == "partition":
        return Head(
            init=heads.init_partition_head_params,
            forward=heads.partition_forward,
            loss=losses.partition_loss,
            decode=lambda scores, masks: partition_to_rank(
                masks, scores, cfg.max_rank, threshold=cfg.partition_threshold, nms_iou=cfg.nms_iou,
                objectness_floor=cfg.objectness_floor, binarize_threshold=cfg.binarize_threshold),
        )
    return Head(
        init=sorting_head.init_sorting_head_params,
        forward=sorting_head.sorting_head_forward,
        loss=sorting_head.cross_entropy_loss,
        decode=lambda scores, masks: sorting_head.sort_to_ranks(
            scores, masks, cfg.max_rank, nms_iou=cfg.nms_iou, binarize_threshold=cfg.binarize_threshold),
    )


def image_canvas(image: np.ndarray) -> int:
    """Side of a square (C, H, W) image with finite pixels."""
    if image.ndim != 3 or image.shape[1] != image.shape[2]:
        raise DimensionError(f"expected a square (C, H, W) image, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise DataError("image has non-finite pixels")
    return image.shape[1]


def init_model_params(cfg: ModelConfig, seed: int) -> dict[str, Parameter]:
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}
    params.update(pyramid.init_encoder_params(cfg, rng))
    params.update(pyramid.init_posenc_params(cfg))
    params.update(dpt.init_dpt_params(cfg, rng))
    params.update(heads.init_mask_head_params(cfg, rng))
    params.update(head_ops(cfg).init(cfg, rng))
    return params


def forward(image: Tensor, params, cfg: ModelConfig) -> ModelOutputs:
    canvas = image.shape[1]
    stages = pyramid.encoder_stages(image, params, cfg)
    features = pyramid.pyramid_from_stages(stages, cfg)
    harmonized = dpt.cgr(features, params, cfg)
    positioned = pyramid.add_positional_encoding(harmonized, params, cfg)
    f_hat = dpt.dpt_forward(positioned, params, cfg)
    return ModelOutputs(head_ops(cfg).forward(f_hat, params, cfg), (f_hat, stages, params, cfg, canvas))


@dataclass(frozen=True)
class CanvasMasks:
    """Soft masks upsampled to the canvas, made only for the rows asked for:
    ``masks[rows]`` is (len(rows), canvas, canvas). A decode reads the few
    masks it needs from it in place of the whole (K, canvas, canvas) stack.
    Its length is the scores' row count, so only fetching a mask builds the
    mask branch.
    """

    outputs: ModelOutputs
    canvas: int

    def __len__(self) -> int:
        return self.outputs.scores.shape[0]

    def __getitem__(self, rows) -> np.ndarray:
        return T.interpolate(self.outputs.mask.soft_masks(rows), (self.canvas, self.canvas)).data


def predict(image: np.ndarray, params, cfg: ModelConfig) -> list[RankedInstance]:
    """Inference for one image: forward pass, then rank decoding with the
    configured head's procedure, which upsamples to the canvas only the masks
    it examines and builds the mask branch only if it examines one.
    """
    canvas = image_canvas(image)
    with T.no_grad():
        outputs = forward(Tensor(image), params, cfg)
        return head_ops(cfg).decode(outputs.scores.data, CanvasMasks(outputs, canvas))


# checkpointing ----------------------------------------------------------------


def save_checkpoint(path, params, model_cfg: ModelConfig, train_cfg: TrainConfig, seed: int) -> None:
    meta = {
        "format": 1,
        "config": config_to_dict(model_cfg, train_cfg),
        "config_hash": config_hash(model_cfg, train_cfg),
        "seed": seed,
        "param_names": sorted(params),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"param/{k}": p.data for k, p in params.items()}
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


# What reading a damaged .npz raises: a bad central directory, CRC-32 or
# inflate stream, a short member, or an unparsable .npy header; reading an
# object array, which needs pickle, raises ValueError too.
_UNREADABLE = (zipfile.BadZipFile, zlib.error, EOFError, ValueError, tokenize.TokenError)


def _read_member(blob, path: Path, key: str) -> np.ndarray:
    """One member of an open checkpoint archive, or a ``DataError`` naming the
    file and the member when it cannot be read as a plain array.
    """
    try:
        return blob[key]
    except _UNREADABLE as exc:
        raise DataError(f"checkpoint {path} member {key} is unreadable: {exc!r}") from exc


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"no checkpoint at {path}")
    if not zipfile.is_zipfile(path):
        raise DataError(f"checkpoint {path} is not an .npz archive")
    # np.load given a path leaves its file open when the archive is unreadable
    with open(path, "rb") as file:
        try:
            blob = np.load(file)
        except _UNREADABLE as exc:
            raise DataError(f"checkpoint {path} is not an .npz archive: {exc!r}") from exc
        if "__meta__" not in blob:
            raise DataError(f"checkpoint {path} has no readable metadata: no __meta__ member")
        try:
            meta = json.loads(str(_read_member(blob, path, "__meta__")))
        except ValueError as exc:
            raise DataError(f"checkpoint {path} has no readable metadata: {exc!r}") from exc
        if not isinstance(meta, dict):
            raise DataError(f"checkpoint {path} metadata is not a JSON object: {type(meta).__name__}")
        if meta.get("format") != 1:
            raise DataError(f"unsupported checkpoint format {meta.get('format')}")
        missing = [key for key in ("config", "config_hash", "param_names") if key not in meta]
        if missing:
            raise DataError(f"checkpoint {path} metadata is missing {', '.join(missing)}")
        params = {}
        for name in meta["param_names"]:
            key = f"param/{name}"
            if key not in blob:
                raise DataError(f"checkpoint missing parameter {name}")
            data = _read_member(blob, path, key)
            # a NaN or infinite weight would make predict return nothing, silently
            if data.dtype.kind not in "biuf" or not np.isfinite(data).all():
                raise DataError(f"checkpoint {path} member {key} holds non-finite or non-numeric values")
            params[name] = Parameter(data)
    try:
        model_cfg, train_cfg = config_from_dict(meta["config"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"checkpoint {path} has a malformed config: {exc!r}") from exc
    if meta["config_hash"] != config_hash(model_cfg, train_cfg):
        raise ConfigurationError("checkpoint config hash does not match its stored config")
    expected = {name: p.shape for name, p in init_model_params(model_cfg, 0).items()}
    for name in sorted(expected.keys() | params.keys()):
        shape = params[name].shape if name in params else None
        if shape != expected.get(name):
            raise DataError(f"checkpoint parameter {name} has shape {shape}; "
                            f"the model for its config expects {expected.get(name)}")
    return params, model_cfg, train_cfg, meta
