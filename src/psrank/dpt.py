"""Feature interaction over the grid pyramid.

The pyramid is a list of (E, s, s) tensors, finest first; a grid's position
in the list is its scale index.

Each layer runs three attention routes — within-row, within-column, and
across scales at aligned locations — instead of one joint attention over
every cell of every scale. ``count_attention_pairs`` gives the query-key
pair count of both designs in closed form, since the whole point of the
decomposition is the reduction from (S*H*W)^2 pairs per layer to
S*H*W^2 + S*H^2*W + S^2*H*W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .pyramid import attn_params, conv_params, gn_params
from .tensor import Parameter, Tensor


@dataclass(frozen=True)
class PairCountReport:
    scales: int
    height: int
    width: int
    dpt_pairs: int
    all_scale_pairs: int

    @property
    def ratio(self) -> float:
        return self.dpt_pairs / self.all_scale_pairs


def count_attention_pairs(scales: int, height: int, width: int) -> PairCountReport:
    """Exact query-key pair counts per layer for both attention designs."""
    s, h, w = int(scales), int(height), int(width)
    dpt = s * h * w * w + s * h * h * w + s * s * h * w
    full = (s * h * w) ** 2
    return PairCountReport(s, h, w, dpt_pairs=dpt, all_scale_pairs=full)


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


def cgr(grids: list[Tensor], params, cfg: ModelConfig) -> list[Tensor]:
    """conv -> group norm -> ReLU harmonization, repeated conv_layers times.

    Conv weights are shared across scales, as in a pyramid head.
    """
    for j in range(cfg.conv_layers):
        w, b = params[f"cgr.conv{j}.w"], params[f"cgr.conv{j}.b"]
        gamma, beta = params[f"cgr.gn{j}.gamma"], params[f"cgr.gn{j}.beta"]
        grids = [
            T.relu(T.group_norm(T.conv2d(g, w, bias=b), cfg.gn_groups, gamma, beta))
            for g in grids
        ]
    return grids


def _attn(x: Tensor, heads: int, params, prefix: str) -> Tensor:
    return T.multi_head_attention(x, heads, params[f"{prefix}.wq"], params[f"{prefix}.wk"],
                                  params[f"{prefix}.wv"], params[f"{prefix}.wo"])


def row_column_attention(x: Tensor, params, cfg: ModelConfig, layer: int = 0) -> Tensor:
    """Attention along each row, then each column, each with a residual;
    group-normalized at the end. ``x`` is one (E, H, W) grid.
    """
    base = f"dpt.layer{layer}"
    rows = T.transpose(x, (1, 2, 0))  # (H, W, E): rows as batch, width as sequence
    x = x + T.transpose(_attn(rows, cfg.attn_heads, params, f"{base}.row"), (2, 0, 1))
    cols = T.transpose(x, (2, 1, 0))  # (W, H, E): columns as batch, height as sequence
    x = x + T.transpose(_attn(cols, cfg.attn_heads, params, f"{base}.col"), (2, 1, 0))
    return T.group_norm(x, cfg.gn_groups, params[f"{base}.gn_rc.gamma"], params[f"{base}.gn_rc.beta"])


def cross_scale_attention(grids: list[Tensor], params, cfg: ModelConfig, layer: int = 0) -> list[Tensor]:
    """Resample every grid to the largest one, attend across the S per-scale
    vectors at each location, resample back, add residually, group-normalize.
    """
    base = f"dpt.layer{layer}"
    hmax = max(g.shape[1] for g in grids)
    wmax = max(g.shape[2] for g in grids)
    n_scales = len(grids)
    e = grids[0].shape[0]
    up = [T.interpolate(g, (hmax, wmax)) for g in grids]
    piled = T.stack(up, axis=0)  # (S, E, Hm, Wm)
    tokens = T.reshape(T.transpose(piled, (2, 3, 0, 1)), (hmax * wmax, n_scales, e))
    mixed = _attn(tokens, cfg.attn_heads, params, f"{base}.cross")
    mixed = T.transpose(T.reshape(mixed, (hmax, wmax, n_scales, e)), (2, 3, 0, 1))
    out = []
    gamma, beta = params[f"{base}.gn_cs.gamma"], params[f"{base}.gn_cs.beta"]
    for i, g in enumerate(grids):
        h, w = g.shape[1], g.shape[2]
        delta = T.interpolate(mixed[i], (h, w))
        out.append(T.group_norm(g + delta, cfg.gn_groups, gamma, beta))
    return out


def clcg(grids: list[Tensor], params, cfg: ModelConfig, layer: int = 0) -> list[Tensor]:
    """conv -> LeakyReLU -> conv with a residual joined before group norm."""
    base = f"dpt.layer{layer}.clcg"
    w1, b1 = params[f"{base}.conv1.w"], params[f"{base}.conv1.b"]
    w2, b2 = params[f"{base}.conv2.w"], params[f"{base}.conv2.b"]
    gamma, beta = params[f"{base}.gn.gamma"], params[f"{base}.gn.beta"]
    out = []
    for g in grids:
        inner = T.conv2d(T.leaky_relu(T.conv2d(g, w1, bias=b1)), w2, bias=b2)
        out.append(T.group_norm(inner + g, cfg.gn_groups, gamma, beta))
    return out


def dpt_layer(grids: list[Tensor], params, cfg: ModelConfig, layer: int) -> list[Tensor]:
    rc = [row_column_attention(g, params, cfg, layer) for g in grids]
    cs = cross_scale_attention(rc, params, cfg, layer)
    return clcg(cs, params, cfg, layer)


def dpt_forward(grids: list[Tensor], params, cfg: ModelConfig) -> list[Tensor]:
    """Stack of dpt_layers full layers; positional encoding must already be
    applied. Zero layers is the identity.
    """
    for layer in range(cfg.dpt_layers):
        grids = dpt_layer(grids, params, cfg, layer)
    return grids


def all_scale_attention(grids: list[Tensor], params, cfg: ModelConfig) -> list[Tensor]:
    """Reference baseline: one attention over the concatenation of every cell
    of every scale, the joint design that the three routes replace. Kept for
    the all-scale ablation; the tests check its pair count.
    """
    flat = []
    for g in grids:
        e, h, w = g.shape
        flat.append(T.reshape(T.transpose(g, (1, 2, 0)), (h * w, e)))
    tokens = T.concat(flat, axis=0)
    mixed = _attn(tokens, cfg.attn_heads, params, "allscale")
    out = []
    offset = 0
    for g in grids:
        e, h, w = g.shape
        block = mixed[offset : offset + h * w]
        offset += h * w
        out.append(T.transpose(T.reshape(block, (h, w, e)), (2, 0, 1)))
    return out
