"""Multi-scale gridded features from an image.

A small trainable encoder stands in for a pretrained backbone: four strided
conv/GN/ReLU stages whose outputs are resampled onto the configured square
grids. A fixed 2D sinusoid plus a learned per-scale bias provides the
positional signal consumed by the transformer stack.

A pyramid is one (E, K) tensor holding the cells of every grid: column k is
cell k, the grids in scale order (finest first), each grid's cells row-major
with x fastest. That is the row order of every head's (K, C) output, so
column k and row k describe the same cell. ``grid_shapes`` gives each grid's
(h, w), the ``grids`` argument of ``tensor.conv2d``, ``tensor.group_norm`` and
``tensor.interpolate``, which run once over the whole pyramid. Every DPT
block maps an (E, K) pyramid to an (E, K) pyramid, and ``join`` builds one
from the encoder stages' resampled (E, h, w) maps. The conv, group-norm and
attention initializers every module shares live here too.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .config import STEM_CHANNELS, ModelConfig
from .errors import ConfigurationError
from .tensor import Parameter, Tensor

STAGE_STRIDES = (2, 4, 8, 16)
MASK_STRIDE = STAGE_STRIDES[1]  # the mask branch's map has stage 1's resolution


def conv_params(prefix: str, cin: int, cout: int, rng: np.random.Generator, k: int = 3) -> dict[str, Parameter]:
    """A k x k conv's He-normal weights, std sqrt(2 / (cin*k*k)), and zero bias."""
    std = np.sqrt(2.0 / (cin * k * k))
    return {f"{prefix}.w": Parameter(rng.normal(0.0, std, size=(cout, cin, k, k))),
            f"{prefix}.b": Parameter(np.zeros(cout))}


def gn_params(prefix: str, e: int) -> dict[str, Parameter]:
    """A group norm's identity affine, ``{prefix}.gamma`` and ``{prefix}.beta``."""
    return {f"{prefix}.gamma": Parameter(np.ones(e)), f"{prefix}.beta": Parameter(np.zeros(e))}


def attn_params(prefix: str, e: int, rng: np.random.Generator) -> dict[str, Parameter]:
    """The four (E, E) attention projections, normal with std 1/sqrt(E)."""
    std = 1.0 / np.sqrt(e)
    return {f"{prefix}.{name}": Parameter(rng.normal(0.0, std, size=(e, e)))
            for name in ("wq", "wk", "wv", "wo")}


def _stage_channels(cfg: ModelConfig) -> list[tuple[int, int]]:
    e = cfg.channels
    return [(3, STEM_CHANNELS), (STEM_CHANNELS, e), (e, e), (e, e)]


def init_encoder_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    params: dict[str, Parameter] = {}
    for i, (cin, cout) in enumerate(_stage_channels(cfg)):
        params |= conv_params(f"encoder.stage{i}", cin, cout, rng)
        params[f"encoder.stage{i}.gn_gamma"] = Parameter(np.ones(cout))
        params[f"encoder.stage{i}.gn_beta"] = Parameter(np.zeros(cout))
    return params


def _stage_for_scale(scale_index: int) -> int:
    # stage 0 has STEM_CHANNELS channels regardless of E; taps start at stage 1
    return min(1 + scale_index, 3)


def encoder_stages(image: Tensor, params, cfg: ModelConfig) -> list[Tensor]:
    """Run the four strided stages, returning every intermediate map."""
    x = image
    outs = []
    for i in range(4):
        x = T.conv2d(x, params[f"encoder.stage{i}.w"], bias=params[f"encoder.stage{i}.b"], stride=2)
        groups = min(cfg.gn_groups, x.shape[0])
        x = T.group_norm(x, groups, params[f"encoder.stage{i}.gn_gamma"], params[f"encoder.stage{i}.gn_beta"])
        x = T.relu(x)
        outs.append(x)
    return outs


def grid_shapes(cfg: ModelConfig) -> tuple[tuple[int, int], ...]:
    """The (h, w) of each configured grid, finest first."""
    return tuple((side, side) for side in cfg.grid_sides)


def join(grids: list[Tensor]) -> Tensor:
    """(E, h, w) grids, finest first, as one (E, K) pyramid."""
    return T.concat([T.reshape(g, (g.shape[0], -1)) for g in grids], axis=1)


def pyramid_from_stages(stages, cfg: ModelConfig) -> Tensor:
    """The (E, K) pyramid: each configured grid resampled from its encoder stage."""
    return join([T.interpolate(stages[_stage_for_scale(i)], (side, side))
                 for i, side in enumerate(cfg.grid_sides)])


@lru_cache(maxsize=None)
def sinusoid_encoding(channels: int, height: int, width: int) -> np.ndarray:
    """Fixed 2D positional code: first E/2 channels encode x, the rest y,
    with sin/cos pairs whose divisors grow geometrically from 1 to 1e4.
    """
    if channels % 2:
        raise ConfigurationError(f"positional encoding requires even channels, got {channels}")
    half = channels // 2
    enc = np.zeros((channels, height, width))
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    for m in range(half):
        div = 10000.0 ** (2 * (m // 2) / half)
        fx = xs / div
        fy = ys / div
        if m % 2 == 0:
            enc[m] = np.broadcast_to(np.sin(fx)[None, :], (height, width))
            enc[half + m] = np.broadcast_to(np.sin(fy)[:, None], (height, width))
        else:
            enc[m] = np.broadcast_to(np.cos(fx)[None, :], (height, width))
            enc[half + m] = np.broadcast_to(np.cos(fy)[:, None], (height, width))
    enc.setflags(write=False)
    return enc


def init_posenc_params(cfg: ModelConfig) -> dict[str, Parameter]:
    return {f"posenc.scale{i}.bias": Parameter(np.zeros(cfg.channels))
            for i in range(len(cfg.grid_sides))}


@lru_cache(maxsize=None)
def _pyramid_code(channels: int, grids, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every grid's sinusoid as one (E, K) ``dtype`` array, and each column's scale index."""
    code = np.concatenate([sinusoid_encoding(channels, h, w).reshape(channels, -1) for h, w in grids],
                          axis=1).astype(dtype, copy=False)
    scales = np.repeat(np.arange(len(grids)), [h * w for h, w in grids])
    code.setflags(write=False)
    scales.setflags(write=False)
    return code, scales


def add_positional_encoding(x: Tensor, params, cfg: ModelConfig) -> Tensor:
    """Add each cell's sinusoid and its scale's learned bias to the pyramid."""
    grids = grid_shapes(cfg)
    code, scales = _pyramid_code(x.shape[0], grids, x.data.dtype)
    biases = T.stack([params[f"posenc.scale{i}.bias"] for i in range(len(grids))], axis=1)  # (E, S)
    return x + Tensor(code) + biases[:, scales]
