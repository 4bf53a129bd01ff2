"""Feature interaction over the grid pyramid.

The pyramid is one (E, K) tensor laid out as ``pyramid`` describes, and
every block here (cgr, the routes, clcg, a layer, the stack) maps an (E, K)
pyramid to an (E, K) pyramid. Layers with weights shared across scales run
once over it. The row/column route attends within each grid's rows and
columns; the cross-scale route resamples the whole pyramid up to its largest
grid, attends across scales at each location, and resamples back, one
``tensor.interpolate`` each way.

Each layer runs three attention routes — within-row, within-column, and
across scales at aligned locations — instead of one joint attention over
every cell of every scale. The whole point of the decomposition is the
query-key pair count: on S equal H x W grids, one layer forms
S*H*W^2 + S*H^2*W + S^2*H*W pairs in place of (S*H*W)^2.
"""

from __future__ import annotations

import numpy as np

from . import pyramid, tensor as T
from .config import ModelConfig
from .pyramid import attn_params, conv_params, gn_params
from .tensor import Parameter, Tensor


# parameters -----------------------------------------------------------------


def init_dpt_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    e = cfg.channels
    params: dict[str, Parameter] = {}
    for j in range(cfg.conv_layers):
        params |= conv_params(f"cgr.conv{j}", e, e, rng)
        params |= gn_params(f"cgr.gn{j}", e)
    for layer in range(cfg.dpt_layers):
        base = f"dpt.layer{layer}"
        params |= attn_params(f"{base}.row", e, rng)
        params |= attn_params(f"{base}.col", e, rng)
        params |= attn_params(f"{base}.cross", e, rng)
        params |= gn_params(f"{base}.gn_rc", e)
        params |= gn_params(f"{base}.gn_cs", e)
        params |= conv_params(f"{base}.clcg.conv1", e, e, rng)
        params |= conv_params(f"{base}.clcg.conv2", e, e, rng)
        params |= gn_params(f"{base}.clcg.gn", e)
    return params


def init_all_scale_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    return attn_params("allscale", cfg.channels, rng)


# blocks -----------------------------------------------------------------------


def cgr(x: Tensor, params, cfg: ModelConfig) -> Tensor:
    """conv -> group norm -> ReLU harmonization, repeated conv_layers times.

    Conv weights are shared across scales, as in a pyramid head.
    """
    grids = pyramid.grid_shapes(cfg)
    for j in range(cfg.conv_layers):
        w, b = params[f"cgr.conv{j}.w"], params[f"cgr.conv{j}.b"]
        gamma, beta = params[f"cgr.gn{j}.gamma"], params[f"cgr.gn{j}.beta"]
        x = T.relu(T.group_norm(T.conv2d(x, w, bias=b, grids=grids), cfg.gn_groups, gamma, beta, grids=grids))
    return x


def _attn(x: Tensor, heads: int, params, prefix: str) -> Tensor:
    return T.multi_head_attention(x, heads, params[f"{prefix}.wq"], params[f"{prefix}.wk"],
                                  params[f"{prefix}.wv"], params[f"{prefix}.wo"])


def row_column_attention(x: Tensor, grids, params, cfg: ModelConfig, layer: int = 0) -> Tensor:
    """Attention along each row, then each column, each with a residual, in
    every (h, w) grid of the (E, K) pyramid ``x``; ``dpt_layer``
    group-normalizes the result. The pyramid is transposed once to (K, E)
    tokens, so each grid is an (h, w, E) block of rows, and its (w, h, E)
    transpose holds its columns.
    """
    base = f"dpt.layer{layer}"
    tokens = T.transpose(x)  # (K, E)
    out, lo = [], 0
    for h, w in grids:
        rows = T.reshape(tokens[lo : lo + h * w], (h, w, -1))  # rows as batch, width as sequence
        rows = rows + _attn(rows, cfg.attn_heads, params, f"{base}.row")
        cols = T.transpose(rows, (1, 0, 2))  # (w, h, E): columns as batch, height as sequence
        cols = cols + _attn(cols, cfg.attn_heads, params, f"{base}.col")
        out.append(T.reshape(T.transpose(cols, (1, 0, 2)), (h * w, -1)))
        lo += h * w
    return T.transpose(T.concat(out, axis=0))


def cross_scale_attention(x: Tensor, grids, params, cfg: ModelConfig, layer: int = 0) -> Tensor:
    """Resample every (h, w) grid of the (E, K) pyramid ``x`` to the largest
    one, attend across the S per-scale vectors at each location, and resample
    the result back: the update that ``dpt_layer`` adds residually.
    """
    base = f"dpt.layer{layer}"
    e, n_scales = x.shape[0], len(grids)
    hmax, wmax = max(h for h, _ in grids), max(w for _, w in grids)
    largest = ((hmax, wmax),) * n_scales  # every grid at the largest grid's size
    up = T.interpolate(x, largest, grids=grids)  # (E, S*Hm*Wm)
    tokens = T.transpose(T.reshape(up, (e, n_scales, hmax * wmax)), (2, 1, 0))  # (Hm*Wm, S, E)
    mixed = _attn(tokens, cfg.attn_heads, params, f"{base}.cross")
    return T.interpolate(T.reshape(T.transpose(mixed, (2, 1, 0)), (e, -1)), grids, grids=largest)


def clcg(x: Tensor, params, cfg: ModelConfig, layer: int = 0) -> Tensor:
    """conv -> LeakyReLU -> conv with a residual joined before group norm."""
    base = f"dpt.layer{layer}.clcg"
    grids = pyramid.grid_shapes(cfg)
    w1, b1 = params[f"{base}.conv1.w"], params[f"{base}.conv1.b"]
    w2, b2 = params[f"{base}.conv2.w"], params[f"{base}.conv2.b"]
    gamma, beta = params[f"{base}.gn.gamma"], params[f"{base}.gn.beta"]
    inner = T.conv2d(T.leaky_relu(T.conv2d(x, w1, bias=b1, grids=grids)), w2, bias=b2, grids=grids)
    return T.group_norm(inner + x, cfg.gn_groups, gamma, beta, grids=grids)


def dpt_layer(x: Tensor, params, cfg: ModelConfig, layer: int) -> Tensor:
    """Row/column routes, then cross-scale, then clcg; each route closes with
    one group norm over the whole pyramid.
    """
    base = f"dpt.layer{layer}"
    grids = pyramid.grid_shapes(cfg)
    rc = T.group_norm(row_column_attention(x, grids, params, cfg, layer), cfg.gn_groups,
                      params[f"{base}.gn_rc.gamma"], params[f"{base}.gn_rc.beta"], grids=grids)
    cs = T.group_norm(rc + cross_scale_attention(rc, grids, params, cfg, layer), cfg.gn_groups,
                      params[f"{base}.gn_cs.gamma"], params[f"{base}.gn_cs.beta"], grids=grids)
    return clcg(cs, params, cfg, layer)


def dpt_forward(x: Tensor, params, cfg: ModelConfig) -> Tensor:
    """Stack of dpt_layers full layers over the (E, K) pyramid; positional
    encoding must already be applied. Zero layers is the identity.
    """
    for layer in range(cfg.dpt_layers):
        x = dpt_layer(x, params, cfg, layer)
    return x


def all_scale_attention(x: Tensor, params, cfg: ModelConfig) -> Tensor:
    """Reference baseline: one attention over every cell of every scale, the
    transposed (K, E) pyramid as a single sequence, the joint design that the
    three routes replace. Kept for the all-scale ablation; the tests check
    its pair count.
    """
    return T.transpose(_attn(T.transpose(x), cfg.attn_heads, params, "allscale"))
