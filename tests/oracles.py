"""Definition-based re-implementations that the tests check production code
against, deliberately naive (literal loops, no vectorisation, or composed
from primitive tape ops); the plain forms of tensor kernels that production
code shortcuts (numpy reductions, a gather for every conv), which the
shortcuts must equal byte for byte, one grid at a time; the per-grid form of
the DPT's row/column and cross-scale routes, which their pyramid form must
equal byte for byte; a mask fetch that records what a decode reads, and a
counter and closed-form counts of the query-key pairs attention forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from psrank import model, tensor as T
from psrank.p2r import MASK_THRESHOLD, RankedInstance, binarize
from psrank.tensor import Tensor


def average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson_oracle(xs, ys) -> float | None:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        return None
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        return None
    return float((dx * dy).sum() / denom)


def spearman_oracle(xs, ys) -> float | None:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        return None
    return pearson_oracle(average_ranks(xs), average_ranks(ys))


def instance_scores_oracle(image, masks) -> np.ndarray:
    """``data_synth.instance_scores`` by 2-D boolean indexing of the image."""
    image = np.asarray(image, dtype=np.float64)
    _, h, w = image.shape
    union = np.zeros((h, w), dtype=bool)
    for m in masks:
        union |= m
    bg_color = image[:, ~union].mean(axis=1)
    center = np.array([h / 2.0, w / 2.0])
    half_diag = np.sqrt(h * h + w * w) / 2.0
    scores = np.zeros(len(masks))
    for i, m in enumerate(masks):
        color = image[:, m].mean(axis=1)
        contrast = np.abs(color - bg_color).mean()
        area_fraction = m.sum() / (h * w)
        ys, xs = np.nonzero(m)
        com = np.array([ys.mean() + 0.5, xs.mean() + 0.5])
        proximity = 1.0 - np.linalg.norm(com - center) / half_diag
        scores[i] = contrast * area_fraction * proximity
    return scores


def disjoint_with_gap_oracle(mask, others, gap: int = 2) -> bool:
    """``data_synth._disjoint_with_gap`` by dilating over the whole canvas."""
    grown = mask.copy()
    for _ in range(gap):
        g = grown.copy()
        g[1:] |= grown[:-1]
        g[:-1] |= grown[1:]
        g[:, 1:] |= grown[:, :-1]
        g[:, :-1] |= grown[:, 1:]
        grown = g
    return not any((grown & other).any() for other in others)

def cell_origins(grid_sides) -> list[tuple[int, int, int]]:
    """(scale, x, y) of every grid cell, in row order of the per-cell score matrix."""
    origins = []
    for scale, side in enumerate(grid_sides):
        for y in range(side):
            for x in range(side):
                origins.append((scale, x, y))
    return origins


def p2r_reference(masks, values, n_ranks: int, threshold: float, nms_iou: float,
                  objectness_floor: float, binarize_threshold: float) -> list[RankedInstance]:
    """Partition-to-Rank over rows of ``values`` (K, N) and ``masks`` (K, H, W),
    written as literal loops over rows, partitions and pixels.
    """
    pool = []
    for row in range(len(values)):
        partition = values[row]
        if len(partition) == 0 or max(partition) < objectness_floor:
            continue
        discard = False
        for i in range(len(partition)):
            if partition[i] < threshold:
                for j in range(i):
                    if partition[j] >= threshold:
                        discard = True
        if not discard:
            pool.append(row)

    def to_binary(mask):
        return [[bool(v >= binarize_threshold) for v in line] for line in mask]

    def naive_iou(a, b):
        inter = 0
        union = 0
        for line_a, line_b in zip(a, b):
            for pa, pb in zip(line_a, line_b):
                if pa and pb:
                    inter += 1
                if pa or pb:
                    union += 1
        if union == 0:
            return 0.0
        return inter / union

    binaries = {row: to_binary(masks[row]) for row in pool}
    results = []
    rank = 1
    while rank <= n_ranks and pool:
        best = pool[0]
        for row in pool:
            if values[row][rank - 1] > values[best][rank - 1]:
                best = row
        score = values[best][rank - 1]
        if score < threshold:
            break
        results.append(RankedInstance(mask=np.array(binaries[best]), rank=rank, score=float(score)))
        pool = [row for row in pool
                if row != best and naive_iou(binaries[best], binaries[row]) <= nms_iou]
        rank += 1
    return results


def attention_reference(x, heads: int, wq, wk, wv, wo) -> Tensor:
    """Multi-head self-attention composed of primitive tape ops (matmul,
    reshape, transpose, softmax), each recording its own node; same contract
    as ``tensor.multi_head_attention``.
    """
    x = T._as_tensor(x)
    squeeze = x.data.ndim == 2
    xb = T.reshape(x, (1,) + x.data.shape) if squeeze else x
    b, length, d = xb.data.shape
    dh = d // heads

    def split(t):
        return T.transpose(T.reshape(t, (b, length, heads, dh)), (0, 2, 1, 3))

    q = split(T.matmul(xb, wq))
    k = split(T.matmul(xb, wk))
    v = split(T.matmul(xb, wv))
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    attn = T.softmax(scores)
    ctx = T.matmul(attn, v)  # (B, heads, L, dh)
    merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, length, d))
    out = T.matmul(merged, wo)
    return T.reshape(out, (length, d)) if squeeze else out


def attention_reduce_oracle(x, heads: int, wq, wk, wv, wo) -> Tensor:
    """``tensor.multi_head_attention`` with its softmax's max and sums taken by
    numpy's reductions over the key axis, whatever its length.
    """
    x, wq, wk, wv, wo = (T._as_tensor(t) for t in (x, wq, wk, wv, wo))
    squeeze = x.data.ndim == 2
    xb = x.data.reshape((1,) + x.data.shape) if squeeze else x.data
    b, length, d = xb.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(t):
        return t.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(b * length, d)

    q = split(np.matmul(xb, wq.data))
    k = split(np.matmul(xb, wk.data))
    v = split(np.matmul(xb, wv.data))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = merge(np.matmul(attn, v))
    out = np.matmul(merged.reshape(b, length, d), wo.data).reshape(x.data.shape)

    def backward(g):
        g2 = g.reshape(b * length, d)
        T._accumulate(wo, merged.T @ g2)
        g_ctx = split(g2 @ wo.data.T)
        g_attn = np.matmul(g_ctx, v.swapaxes(-1, -2))
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * scale
        grads = (
            (wq, np.matmul(g_scores, k)),
            (wk, np.matmul(g_scores.swapaxes(-1, -2), q)),
            (wv, np.matmul(attn.swapaxes(-1, -2), g_ctx)),
        )
        x2 = xb.reshape(b * length, d)
        gx = 0.0
        for w, g_head in grads:
            g_proj = merge(g_head)
            T._accumulate(w, x2.T @ g_proj)
            gx = gx + g_proj @ w.data.T
        T._accumulate(x, gx.reshape(x.data.shape))

    return T._result(out, (x, wq, wk, wv, wo), backward)


def _route_attention(x, params, cfg, name: str) -> Tensor:
    return T.multi_head_attention(x, cfg.attn_heads, params[f"{name}.wq"], params[f"{name}.wk"],
                                  params[f"{name}.wv"], params[f"{name}.wo"])


def row_column_reference(x, params, cfg, layer: int = 0) -> Tensor:
    """``dpt.row_column_attention`` on one (E, h, w) grid, in its per-grid form."""
    base = f"dpt.layer{layer}"
    rows = T.transpose(x, (1, 2, 0))
    x = x + T.transpose(_route_attention(rows, params, cfg, f"{base}.row"), (2, 0, 1))
    cols = T.transpose(x, (2, 1, 0))
    return x + T.transpose(_route_attention(cols, params, cfg, f"{base}.col"), (2, 1, 0))


def cross_scale_reference(grids, params, cfg, layer: int = 0) -> list[Tensor]:
    """``dpt.cross_scale_attention`` over a list of (E, h, w) grids, in its
    per-grid form: one resample of each grid up to the largest, a stack, the
    attention, and one resample of each scale's slice back down.
    """
    hmax = max(g.shape[1] for g in grids)
    wmax = max(g.shape[2] for g in grids)
    n_scales, e = len(grids), grids[0].shape[0]
    piled = T.stack([T.interpolate(g, (hmax, wmax)) for g in grids], axis=0)  # (S, E, Hm, Wm)
    tokens = T.reshape(T.transpose(piled, (2, 3, 0, 1)), (hmax * wmax, n_scales, e))
    mixed = _route_attention(tokens, params, cfg, f"dpt.layer{layer}.cross")
    mixed = T.transpose(T.reshape(mixed, (hmax, wmax, n_scales, e)), (2, 3, 0, 1))
    return [T.interpolate(mixed[i], (g.shape[1], g.shape[2])) for i, g in enumerate(grids)]


def _padded_plane_index(wp: int, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Flat indices into one zero-padded plane of width ``wp``: entry
    ((i, j), (oy, ox)) reads the plane at (oy*stride + i, ox*stride + j).
    """
    i = np.arange(k).reshape(k, 1, 1, 1)
    j = np.arange(k).reshape(1, k, 1, 1)
    oy = np.arange(ho).reshape(1, 1, ho, 1) * stride
    ox = np.arange(wo).reshape(1, 1, 1, wo) * stride
    return ((oy + i) * wp + (ox + j)).reshape(k * k, ho * wo)


def conv2d_gather_oracle(x, weight, bias=None, stride: int = 1, padding=None) -> Tensor:
    """``tensor.conv2d`` on one grid with every kernel, 1x1 included, copying
    the input into a zero-padded array, gathering its columns through a
    per-plane index and scattering dx into the padded array with
    ``np.bincount``, and the bias added into a second output array.
    """
    x, weight = T._as_tensor(x), T._as_tensor(weight)
    co, ci, k, _ = weight.data.shape
    c, h, w = x.data.shape
    pad = (k - 1) // 2 if padding is None else int(padding)
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    xp = np.zeros((c, hp, wp))
    xp[:, pad : pad + h, pad : pad + w] = x.data
    plane = _padded_plane_index(wp, k, stride, ho, wo)
    cols = xp.reshape(c, hp * wp).take(plane, axis=1).reshape(c * k * k, ho * wo)
    w2 = weight.data.reshape(co, ci * k * k)
    out = (w2 @ cols).reshape(co, ho, wo)
    if bias is not None:
        bias = T._as_tensor(bias)
        out = out + bias.data[:, None, None]

    def backward(g):
        g2 = g.reshape(co, ho * wo)
        T._accumulate(weight, (g2 @ cols.T).reshape(weight.data.shape))
        if bias is not None:
            T._accumulate(bias, g.sum(axis=(1, 2)))
        dcols = w2.T @ g2
        idx = (np.arange(c).reshape(c, 1, 1) * (hp * wp) + plane).reshape(c * k * k, ho * wo)
        dxp = np.bincount(idx.ravel(), weights=dcols.ravel(), minlength=c * hp * wp).reshape(c, hp, wp)
        T._accumulate(x, dxp[:, pad : pad + h, pad : pad + w])

    parents = (x, weight) if bias is None else (x, weight, bias)
    return T._result(out, parents, backward)


def group_norm_oracle(x, groups: int, gamma, beta, eps: float = 1e-5) -> Tensor:
    """``tensor.group_norm`` on one (C, H, W) grid, written on its (groups, n)
    rows with broadcast statistics.
    """
    x, gamma, beta = T._as_tensor(x), T._as_tensor(gamma), T._as_tensor(beta)
    c, h, w = x.data.shape
    xg = x.data.reshape(groups, -1)
    n = xg.shape[1]
    dev = xg - np.add.reduce(xg, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(dev * dev, axis=1, keepdims=True) / n + eps)
    xhat_g = dev * inv
    xhat = xhat_g.reshape(c, h, w)
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(g):
        T._accumulate(gamma, (g * xhat).sum(axis=(1, 2)))
        T._accumulate(beta, g.sum(axis=(1, 2)))
        dxhat = (g * gamma.data[:, None, None]).reshape(groups, -1)
        dxg = inv * (dxhat - np.add.reduce(dxhat, axis=1, keepdims=True) / n
                     - xhat_g * (np.add.reduce(dxhat * xhat_g, axis=1, keepdims=True) / n))
        T._accumulate(x, dxg.reshape(c, h, w))

    return T._result(out, (x, gamma, beta), backward)


def interpolate_oracle(x, size) -> Tensor:
    """``tensor.interpolate`` on one (C, H, W) grid: its row matrix, then its
    column matrix, each a broadcast matmul over the channels, or a copy when
    the size is kept.
    """
    x = T._as_tensor(x)
    _, h, w = x.data.shape
    if tuple(size) == (h, w):
        return T._result(x.data.copy(), (x,), lambda g: T._accumulate(x, g))
    wh, wwt = T._interp_matrix(h, size[0], x.data.dtype), T._interp_matrix(w, size[1], x.data.dtype).T
    out = np.matmul(np.matmul(wh, x.data), wwt)
    return T._result(out, (x,), lambda g: T._accumulate(x, np.matmul(np.matmul(wh.T, g), wwt.T)))


def take_scatter_oracle(a, idx) -> Tensor:
    """``tensor.take`` whose backward scatters into a full zero array with
    ``np.add.at`` for every index, then accumulates that array.
    """
    a = T._as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        T._accumulate(a, full)

    return T._result(a.data[idx], (a,), backward)


def transpose_oracle(a, axes=None) -> Tensor:
    """``tensor.transpose`` with the inverse permutation computed up front."""
    a = T._as_tensor(a)
    inverse = None if axes is None else np.argsort(axes)
    return T._result(np.transpose(a.data, axes), (a,),
                     lambda g: T._accumulate(a, np.transpose(g, inverse)))


def _conv_windows(x, k: int, pad: int, stride: int):
    """Yield (i, j, window slice) for every output pixel of a zero-padded conv."""
    _, h, wd = x.shape
    for i in range((h + 2 * pad - k) // stride + 1):
        for j in range((wd + 2 * pad - k) // stride + 1):
            yield i, j, (slice(None), slice(i * stride, i * stride + k), slice(j * stride, j * stride + k))


def conv2d_reference(x, w, pad: int, stride: int = 1) -> np.ndarray:
    """Cross-correlation of ``x`` (C, H, W) with ``w`` (Co, C, k, k), one
    output pixel at a time.
    """
    co, _, k, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((co, (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1))
    for i, j, window in _conv_windows(x, k, pad, stride):
        for o in range(co):
            out[o, i, j] = np.sum(xp[window] * w[o])
    return out


def conv2d_reference_grads(x, w, g, pad: int, stride: int = 1):
    """Gradients (dx, dw) of sum(conv2d(x, w) * g), one output pixel at a time."""
    co, _, k, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i, j, window in _conv_windows(x, k, pad, stride):
        for o in range(co):
            dxp[window] += g[o, i, j] * w[o]
            dw[o] += g[o, i, j] * xp[window]
    return dxp[:, pad : pad + h, pad : pad + wd], dw


def partition_gt_oracle(rank: int, n_partitions: int) -> np.ndarray:
    """The per-rank rule: partition n (1-based) holds rank iff rank <= n."""
    return np.array([rank <= n for n in range(1, n_partitions + 1)])


def focal_oracle(probs, targets, alpha: float = 0.25, gamma: float = 2.0, eps: float = 1e-7) -> float:
    """Focal loss of a (K, N) probability matrix against 0/1 targets, one
    element at a time: the sum over columns of each column's mean of
    alpha_t * (1 - p_t)^gamma * -ln(p_t), with p clipped to [eps, 1 - eps].
    """
    probs = np.asarray(probs, dtype=float)
    k, n = probs.shape
    total = 0.0
    for col in range(n):
        column = 0.0
        for row in range(k):
            p = min(max(float(probs[row, col]), eps), 1.0 - eps)
            if targets[row][col]:
                column += alpha * (1.0 - p) ** gamma * -math.log(p)
            else:
                column += (1.0 - alpha) * p ** gamma * -math.log(1.0 - p)
        total += column / k
    return total


def eager_predict(image, params, cfg) -> list[RankedInstance]:
    """``model.predict`` with every cell's soft mask upsampled to the canvas
    and binarized first, and the configured head decoding from that
    (K, canvas, canvas) array.
    """
    canvas = image.shape[1]
    with T.no_grad():
        outputs = model.forward(Tensor(image), params, cfg)
        masks = binarize(T.interpolate(outputs.mask.soft_masks(), (canvas, canvas)).data, MASK_THRESHOLD)
        return model.head_ops(cfg).decode(outputs.scores.data, CountingMasks(masks))


class CountingMasks:
    """A decode's mask fetch over a (K, H, W) array of binary masks: called
    with ``rows``, it returns those rows' masks and records every row fetched.
    """

    def __init__(self, masks):
        self.masks = np.asarray(masks)
        self.fetched = []

    def __call__(self, rows):
        self.fetched.extend(int(r) for r in rows)
        return self.masks[np.asarray(rows, dtype=np.intp)]


def tape_nodes(root: Tensor) -> int:
    """Tape nodes ``root.backward()`` would run: recorded ops reachable from
    ``root`` through parents that require gradients.
    """
    seen = {id(root)}
    stack = [root]
    nodes = 0
    while stack:
        node = stack.pop()
        nodes += node._backward is not None
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class AttentionPairs:
    """Counts the query-key pairs ``tensor.multi_head_attention`` forms while
    the block runs: batch * L^2 per call (heads share pairs), read from the
    call's input shape.
    """

    def __init__(self):
        self.pairs = 0
        self._original = None

    def __enter__(self):
        self._original = original = T.multi_head_attention

        def counting(x, *args, **kwargs):
            shape = np.shape(x.data if isinstance(x, Tensor) else x)
            batch, length = (1, shape[0]) if len(shape) == 2 else shape[:2]
            self.pairs += batch * length * length
            return original(x, *args, **kwargs)

        T.multi_head_attention = counting
        return self

    def __exit__(self, *exc_info):
        T.multi_head_attention = self._original


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
    """Exact query-key pair counts per layer on ``scales`` equal height x width
    grids, for the decomposed routes and for joint all-scale attention.
    """
    s, h, w = int(scales), int(height), int(width)
    dpt = s * h * w * w + s * h * h * w + s * s * h * w
    full = (s * h * w) ** 2
    return PairCountReport(s, h, w, dpt_pairs=dpt, all_scale_pairs=full)
