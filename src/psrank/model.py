"""Full network assembly, inference, and checkpointing."""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import dpt, heads, losses, pyramid, sorting_head, tensor as T
from .config import ModelConfig, TrainConfig, config_from_dict, config_hash, config_to_dict
from .errors import ConfigurationError, DataError, DimensionError
from .heads import MaskBranch
from .p2r import RankedInstance, partition_to_rank
from .tensor import Parameter, Tensor


@dataclass
class ModelOutputs:
    scores: Tensor  # (K, C) head output, one row per grid cell
    mask: MaskBranch


@dataclass(frozen=True)
class Head:
    """The operations that differ between the partition and sorting heads."""

    init: Callable  # (cfg, rng) -> params
    forward: Callable  # (f_hat, params) -> (K, C) scores
    loss: Callable  # (scores, targets) -> classification term
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
            loss=lambda scores, targets: losses.partition_loss(scores, targets.partition),
            decode=lambda scores, masks: partition_to_rank(
                masks, scores, cfg.max_rank, threshold=cfg.partition_threshold, nms_iou=cfg.nms_iou,
                objectness_floor=cfg.objectness_floor, binarize_threshold=cfg.binarize_threshold),
        )
    return Head(
        init=sorting_head.init_sorting_head_params,
        forward=sorting_head.sorting_head_forward,
        loss=lambda scores, targets: sorting_head.cross_entropy_loss(scores, targets.rank_class),
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
    grids = pyramid.pyramid_from_stages(stages, cfg)
    harmonized = dpt.cgr(grids, params, cfg)
    positioned = pyramid.add_positional_encoding(harmonized, params)
    f_hat = dpt.dpt_forward(positioned, params, cfg)
    mask = heads.mask_branch(f_hat, stages, params, cfg, canvas)
    return ModelOutputs(scores=head_ops(cfg).forward(f_hat, params), mask=mask)


@dataclass(frozen=True)
class CanvasMasks:
    """Soft masks upsampled to the canvas, made only for the rows asked for:
    ``masks[rows]`` is (len(rows), canvas, canvas). A decode reads the few
    masks it needs from it in place of the whole (K, canvas, canvas) stack.
    """

    branch: MaskBranch
    canvas: int

    def __len__(self) -> int:
        return self.branch.kernels.shape[0]

    def __getitem__(self, rows) -> np.ndarray:
        return T.interpolate(self.branch.soft_masks(rows), (self.canvas, self.canvas)).data


def predict(image: np.ndarray, params, cfg: ModelConfig) -> list[RankedInstance]:
    """Inference for one image: forward pass, then rank decoding with the
    configured head's procedure, which upsamples to the canvas only the masks
    it examines.
    """
    canvas = image_canvas(image)
    with T.no_grad():
        outputs = forward(Tensor(image), params, cfg)
        return head_ops(cfg).decode(outputs.scores.data, CanvasMasks(outputs.mask, canvas))


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
    path = Path(path)
    if not path.exists():
        raise DataError(f"no checkpoint at {path}")
    if not zipfile.is_zipfile(path):
        raise DataError(f"checkpoint {path} is not an .npz archive")
    with np.load(path) as blob:
        try:
            meta = json.loads(str(blob["__meta__"]))
        except (KeyError, ValueError) as exc:
            raise DataError(f"checkpoint {path} has no readable metadata: {exc!r}") from exc
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
            params[name] = Parameter(blob[key])
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
