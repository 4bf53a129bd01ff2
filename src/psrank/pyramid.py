"""Multi-scale gridded features from an image.

A small trainable encoder stands in for a pretrained backbone: four strided
conv/GN/ReLU stages whose outputs are resampled onto the configured square
grids. A fixed 2D sinusoid plus a learned per-scale bias provides the
positional signal consumed by the transformer stack.

A pyramid is a list of (E, s, s) tensors, finest first; a grid's position in
the list is its scale index. The conv, group-norm and attention initializers
every module shares live here too.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .config import STEM_CHANNELS, ModelConfig
from .errors import ConfigurationError
from .tensor import Parameter, Tensor

STAGE_STRIDES = (2, 4, 8, 16)


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
    h, w = image.shape[1], image.shape[2]
    coarsest = STAGE_STRIDES[-1]
    if h % coarsest or w % coarsest:
        raise ConfigurationError(f"image size {h}x{w} not divisible by coarsest stride {coarsest}")
    x = image
    outs = []
    for i in range(4):
        x = T.conv2d(x, params[f"encoder.stage{i}.w"], bias=params[f"encoder.stage{i}.b"], stride=2)
        groups = min(cfg.gn_groups, x.shape[0])
        x = T.group_norm(x, groups, params[f"encoder.stage{i}.gn_gamma"], params[f"encoder.stage{i}.gn_beta"])
        x = T.relu(x)
        outs.append(x)
    return outs


def pyramid_from_stages(stages, cfg: ModelConfig) -> list[Tensor]:
    """One grid of shape (E, s_i, s_i) per configured scale, finest first."""
    grids = []
    for i, side in enumerate(cfg.grid_sides):
        tap = stages[_stage_for_scale(i)]
        grids.append(T.interpolate(tap, (side, side)))
    return grids


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


def add_positional_encoding(grids: list[Tensor], params) -> list[Tensor]:
    out = []
    for i, g in enumerate(grids):
        e, h, w = g.shape
        code = sinusoid_encoding(e, h, w)
        bias = params[f"posenc.scale{i}.bias"]
        out.append(g + Tensor(code) + T.reshape(bias, (e, 1, 1)))
    return out
