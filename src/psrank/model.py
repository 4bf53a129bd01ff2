"""Full network assembly, inference, and checkpointing.

``forward`` runs the encoder, the DPT and the head, and leaves the mask branch
unbuilt: ``ModelOutputs.mask`` builds it on first read. ``predict``'s decode
reads masks only through one fetch, ``masks(rows)``, which upsamples those
rows' soft masks to the canvas and binarizes them at ``p2r.MASK_THRESHOLD``
(SOLOv2 likewise makes masks only for what decode keeps).

A checkpoint is an ``np.savez`` archive of ``__meta__`` (JSON) and one
``param/<name>`` member per parameter. ``load_checkpoint`` reads it with
``data_synth.read_npz``. A missing or unreadable file, malformed metadata, or
a parameter that is missing, non-finite or misshapen raises ``DataError``
naming the file, and the member when one member is at fault; a stored config
that fails validation or its hash raises ``ConfigurationError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import dpt, heads, losses, pyramid, sorting_head, tensor as T
from .config import ModelConfig, TrainConfig, config_from_dict, config_hash, config_to_dict
from .data_synth import read_npz
from .errors import ConfigurationError, DataError, DimensionError
from .heads import MaskBranch
from .p2r import MASK_THRESHOLD, NMS_IOU, RankedInstance, binarize, partition_to_rank
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
    # (scores (K, C), masks) -> ranked instances; masks(rows) fetches those
    # rows' (len(rows), H, W) binary masks
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
                masks, scores, cfg.max_rank, threshold=cfg.partition_threshold, nms_iou=NMS_IOU),
        )
    return Head(
        init=sorting_head.init_sorting_head_params,
        forward=sorting_head.sorting_head_forward,
        loss=sorting_head.cross_entropy_loss,
        decode=lambda scores, masks: sorting_head.sort_to_ranks(scores, masks, cfg.max_rank, nms_iou=NMS_IOU),
    )


def image_canvas(image: np.ndarray) -> int:
    """Side of a square (C, H, W) image with finite pixels, a nonzero multiple of the
    encoder's coarsest stride (so also of ``pyramid.MASK_STRIDE``); ``forward`` checks
    each image here."""
    if image.ndim != 3 or image.shape[1] != image.shape[2]:
        raise DimensionError(f"expected a square (C, H, W) image, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise DataError("image has non-finite pixels")
    canvas, stride = image.shape[1], pyramid.STAGE_STRIDES[-1]
    if canvas < stride:
        raise DimensionError(f"canvas {canvas} is smaller than coarsest stride {stride}")
    if canvas % stride:
        raise DimensionError(f"canvas {canvas} is not divisible by coarsest stride {stride}")
    return canvas


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
    canvas = image_canvas(image.data)
    stages = pyramid.encoder_stages(image, params, cfg)
    features = pyramid.pyramid_from_stages(stages, cfg)
    harmonized = dpt.cgr(features, params, cfg)
    positioned = pyramid.add_positional_encoding(harmonized, params, cfg)
    f_hat = dpt.dpt_forward(positioned, params, cfg)
    return ModelOutputs(head_ops(cfg).forward(f_hat, params, cfg), (f_hat, stages, params, cfg, canvas))


def predict(image: np.ndarray, params, cfg: ModelConfig) -> list[RankedInstance]:
    """Inference for one image: forward pass, then the configured head's
    decode, which builds the mask branch only if it fetches a mask.
    """
    with T.no_grad():
        outputs = forward(Tensor(image), params, cfg)

        def masks(rows) -> np.ndarray:
            return binarize(T.interpolate(outputs.mask.soft_masks(rows), image.shape[1:]).data, MASK_THRESHOLD)

        return head_ops(cfg).decode(outputs.scores.data, masks)


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


def load_checkpoint(path):
    """``(params, model_cfg, train_cfg, meta)`` from a ``save_checkpoint``
    file; the module docstring lists what it raises.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no checkpoint at {path}")
    blob = read_npz(path)
    if "__meta__" not in blob:
        raise DataError(f"checkpoint {path} has no readable metadata: no __meta__ member")
    try:
        meta = json.loads(str(blob["__meta__"]))
    except ValueError as exc:
        raise DataError(f"checkpoint {path} has no readable metadata: {exc!r}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path} metadata is not a JSON object: {type(meta).__name__}")
    if meta.get("format") != 1:
        raise DataError(f"checkpoint {path} has unsupported format {meta.get('format')}")
    missing = [key for key in ("config", "config_hash", "param_names") if key not in meta]
    if missing:
        raise DataError(f"checkpoint {path} metadata is missing {', '.join(missing)}")
    names = meta["param_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise DataError(f"checkpoint {path} param_names is not a list of strings")
    params = {}
    for name in names:
        key = f"param/{name}"
        if key not in blob:
            raise DataError(f"checkpoint {path} is missing parameter {name}")
        data = blob[key]
        # a NaN or infinite weight would make predict return nothing, silently
        if data.dtype.kind not in "biuf" or not np.isfinite(data).all():
            raise DataError(f"checkpoint {path} member {key} holds non-finite or non-numeric values")
        params[name] = Parameter(data)
    try:
        model_cfg, train_cfg = config_from_dict(meta["config"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"checkpoint {path} has a malformed config: {exc!r}") from exc
    if meta["config_hash"] != config_hash(model_cfg, train_cfg):
        raise ConfigurationError(f"checkpoint {path} config hash does not match its stored config")
    expected = {name: p.shape for name, p in init_model_params(model_cfg, 0).items()}
    for name in sorted(expected.keys() | params.keys()):
        shape = params[name].shape if name in params else None
        if shape != expected.get(name):
            raise DataError(f"checkpoint {path} parameter {name} has shape {shape}; "
                            f"the model for its config expects {expected.get(name)}")
    return params, model_cfg, train_cfg, meta
