"""Prediction heads over the transformer output.

Every head produces one row per grid cell, in the column order of the (E, K)
pyramid (see ``pyramid``), and the row index is the cell's only identity:
row k of the partition matrix, of the sorting scores and of the mask kernels
all describe the same cell. The mask branch is built only when a mask is
first read (see ``model.ModelOutputs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DataError
from .pyramid import MASK_STRIDE, _stage_channels, conv_params, grid_shapes
from .tensor import Parameter, Tensor

MASK_CHANNELS = 8  # D: the width of each cell's dynamic kernel and of the map it convolves
ASSIGN_MIN_SIZE = 8.0  # sqrt-area, in pixels, at which the finest scale's size range starts


def _per_cell(f_hat: Tensor, w: Parameter, b: Parameter, cfg: ModelConfig) -> Tensor:
    """A 3x3 conv from E to C channels over the (E, K) pyramid, transposed
    to (K, C): one row per cell.
    """
    return T.transpose(T.conv2d(f_hat, w, bias=b, grids=grid_shapes(cfg)))


def init_partition_head_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    n = cfg.max_rank
    # one output channel per head (channels share no weights), with a negative
    # bias so untrained heads predict sparse positives
    return conv_params("partition", cfg.channels, n, rng) | {"partition.b": Parameter(np.full(n, -2.0))}


def partition_forward(f_hat: Tensor, params, cfg: ModelConfig) -> Tensor:
    """N binary heads (a 3x3 conv from E channels to one logit each),
    sigmoid-activated into the (K, N) partition matrix.
    """
    return T.sigmoid(_per_cell(f_hat, params["partition.w"], params["partition.b"], cfg))


@dataclass
class MaskBranch:
    kernels: Tensor  # (K, D) dynamic 1x1 conv weights, one row per cell
    features: Tensor  # (D, Hm, Wm) shared map the kernels convolve

    def soft_masks(self, rows=None) -> Tensor:
        """Sigmoid masks for the selected rows (default: every cell)."""
        d, hm, wm = self.features.shape
        kernels = self.kernels if rows is None else self.kernels[np.asarray(rows)]
        flat = T.matmul(kernels, T.reshape(self.features, (d, hm * wm)))
        return T.sigmoid(T.reshape(flat, (kernels.shape[0], hm, wm)))


def init_mask_head_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    fused = sum(c for _, c in _stage_channels(cfg))
    return (conv_params("mask.kernel", cfg.channels, MASK_CHANNELS, rng)
            | conv_params("mask.fuse", fused, MASK_CHANNELS, rng, k=1))


def global_mask_features(stage_maps, params, cfg: ModelConfig, canvas: int) -> Tensor:
    """1x1-conv fusion of the encoder stages, upsampled to 1/MASK_STRIDE."""
    size = canvas // MASK_STRIDE
    up = [T.interpolate(m, (size, size)) for m in stage_maps]
    fused = T.conv2d(T.concat(up, axis=0), params["mask.fuse.w"], bias=params["mask.fuse.b"])
    return T.relu(fused)


def mask_branch(f_hat: Tensor, stage_maps, params, cfg: ModelConfig, canvas: int) -> MaskBranch:
    """The SOLO-style dynamic mask branch: one kernel row per cell and the
    shared feature map they convolve. ``model.forward`` does not call it;
    ``ModelOutputs.mask`` does, on its first read, so a decode that reads no
    mask never builds it.
    """
    features = global_mask_features(stage_maps, params, cfg, canvas)
    kernels = _per_cell(f_hat, params["mask.kernel.w"], params["mask.kernel.b"], cfg)
    return MaskBranch(kernels=kernels, features=features)


# target assignment --------------------------------------------------------------


def scale_size_edges(cfg: ModelConfig, canvas: int) -> np.ndarray:
    """Sqrt-area bin edges, geometric over [ASSIGN_MIN_SIZE, canvas]."""
    n = len(cfg.grid_sides)
    return ASSIGN_MIN_SIZE * (canvas / ASSIGN_MIN_SIZE) ** (np.arange(n + 1) / n)


def _center_cell(com: float, cell_width: float, side: int) -> int:
    idx = int(np.floor(com / cell_width))
    # a center exactly on a boundary belongs to the lower-index cell
    if idx > 0 and com == idx * cell_width:
        idx -= 1
    return min(max(idx, 0), side - 1)


def assign_targets(instance_masks, cfg: ModelConfig, canvas: int) -> np.ndarray:
    """Map instances to grid cells: each instance goes to the scale whose
    size range contains sqrt(area) (clamped at the ends) and, within it, to
    the cell containing its center of mass. Returns a (K,) array holding the
    instance index per cell, -1 for background. When two instances collide on
    one cell the earlier (more salient) instance keeps it.
    """
    sides = cfg.grid_sides
    edges = scale_size_edges(cfg, canvas)
    offsets = np.cumsum([0] + [s * s for s in sides])
    cell_instance = np.full(offsets[-1], -1, dtype=np.int64)
    for idx, mask in enumerate(instance_masks):
        area = float(mask.sum())
        if area == 0:
            raise DataError(f"instance {idx} has an empty mask")
        sqrt_area = np.sqrt(area)
        scale = int(np.searchsorted(edges[1:-1], sqrt_area, side="right"))
        ys, xs = np.nonzero(mask)
        com_y = ys.mean() + 0.5
        com_x = xs.mean() + 0.5
        side = sides[scale]
        cell_w = canvas / side
        cx = _center_cell(com_x, cell_w, side)
        cy = _center_cell(com_y, cell_w, side)
        row = offsets[scale] + cy * side + cx
        if cell_instance[row] == -1:
            cell_instance[row] = idx
    return cell_instance
