"""Dense float64 tensors with reverse-mode automatic differentiation.

Every learnable operation in the package is built on the ops in this module,
and a module function (``tsum``, ``reshape``, ``matmul``, ...) is each op's
only spelling. A ``Tensor`` carries its data, gradient and tape links, the
arithmetic operators and indexing. Forward ops record closures on a tape;
``Tensor.backward`` replays them in reverse topological order. Storage and
elementwise kernels are numpy; the differentiation machinery, convolution,
normalization, resampling, and attention are implemented here.

Multi-head attention is a single tape op whose backward is written out
analytically, so one call records one node. ``conv2d`` is im2col + GEMM. The
forward gathers every channel plane through one (k*k, Ho*Wo) plane index; the
backward scatters (col2im) with one ``np.bincount`` over the full
(C*k*k, Ho*Wo) index. Both depend only on the shapes, so each is built once
per shape, the full one only when a backward first needs it, and kept in a
module-level ``functools`` cache.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise DimensionError(
                    f"backward() without a seed gradient requires a scalar, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __truediv__(self, other):
        other = _as_tensor(other)
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_as_tensor(other), power(self, -1.0))

    def __getitem__(self, idx):
        return take(self, idx)


class Parameter(Tensor):
    """Learnable tensor; its gradient buffer always exists and matches shape."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.grad = np.zeros_like(self.data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _result(data: np.ndarray, parents, backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# elementwise and reduction ops ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    e = float(exponent)
    out = a.data ** e

    def backward(g):
        _accumulate(a, g * e * a.data ** (e - 1.0))

    return _result(out, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _result(out, (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        _accumulate(a, g * inside)

    return _result(out, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0.0))

    return _result(out, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    a = _as_tensor(a)
    out = np.where(a.data > 0.0, a.data, negative_slope * a.data)

    def backward(g):
        _accumulate(a, g * np.where(a.data > 0.0, 1.0, negative_slope))

    return _result(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        _accumulate(a, g * out * (1.0 - out))

    return _result(out, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return _result(out, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.data.size if axis is None else np.prod([a.data.shape[i] for i in np.atleast_1d(axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# shape ops ------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _result(out, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    out = np.transpose(a.data, axes)
    inverse = None if axes is None else np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inverse))

    return _result(out, (a,), backward)


def take(a, idx) -> Tensor:
    a = _as_tensor(a)
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _result(out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _result(out, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _result(out, tuple(tensors), backward)


# linear algebra --------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul requires 2D+ operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        _accumulate(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return _result(out, (a, b), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``; outputs sum to 1 there."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accumulate(a, out * (g - inner))

    return _result(out, (a,), backward)


# convolution -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _plane_index(wp: int, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Flat indices into one padded plane of width ``wp`` that gather its
    im2col rows: entry ((i, j), (oy, ox)) reads the plane at
    (oy*stride + i, ox*stride + j).
    """
    i = np.arange(k).reshape(k, 1, 1, 1)
    j = np.arange(k).reshape(1, k, 1, 1)
    oy = np.arange(ho).reshape(1, 1, ho, 1) * stride
    ox = np.arange(wo).reshape(1, 1, 1, wo) * stride
    idx = ((oy + i) * wp + (ox + j)).reshape(k * k, ho * wo)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _col2im_index(c: int, hp: int, wp: int, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The plane index repeated for each of ``c`` padded (hp, wp) planes:
    flat indices into the whole padded input, row (ch, i, j) reading plane ch.
    """
    plane = _plane_index(wp, k, stride, ho, wo)
    idx = (np.arange(c).reshape(c, 1, 1) * (hp * wp) + plane).reshape(c * k * k, ho * wo)
    idx.setflags(write=False)
    return idx


def conv2d(x, weight, bias=None, stride: int = 1, padding=None) -> Tensor:
    """Cross-correlation of ``x`` [C,H,W] with ``weight`` [Co,C,k,k].

    Zero padding; ``padding=None`` selects "same" mode (k-1)//2, which
    preserves spatial size when stride is 1. Kernel side must be odd.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    co, ci, k, k2 = weight.data.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"conv2d kernel must be square with odd side, got {k}x{k2}")
    c, h, w = x.data.shape
    if c != ci:
        raise DimensionError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {weight.data.shape}")
    pad = (k - 1) // 2 if padding is None else int(padding)
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < k or wp < k:
        raise DimensionError(f"conv2d kernel {k}x{k} exceeds the padded input {hp}x{wp}")
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    if pad:
        xp = np.zeros((c, hp, wp))
        xp[:, pad : pad + h, pad : pad + w] = x.data
    else:
        xp = x.data
    # gathering every plane along axis 1 beats one flat take of the full index
    plane = _plane_index(wp, k, stride, ho, wo)
    cols = xp.reshape(c, hp * wp).take(plane, axis=1).reshape(c * k * k, ho * wo)
    w2 = weight.data.reshape(co, ci * k * k)
    out = (w2 @ cols).reshape(co, ho, wo)
    if bias is not None:
        bias = _as_tensor(bias)
        out = out + bias.data[:, None, None]

    def backward(g):
        g2 = g.reshape(co, ho * wo)
        _accumulate(weight, (g2 @ cols.T).reshape(weight.data.shape))
        if bias is not None:
            _accumulate(bias, g.sum(axis=(1, 2)))
        if x.requires_grad:
            dcols = w2.T @ g2
            idx = _col2im_index(c, hp, wp, k, stride, ho, wo)
            dxp = np.bincount(idx.ravel(), weights=dcols.ravel(), minlength=c * hp * wp).reshape(c, hp, wp)
            _accumulate(x, dxp[:, pad : pad + h, pad : pad + w] if pad else dxp)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


# normalization ----------------------------------------------------------------


def group_norm(x, groups: int, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-group zero-mean/unit-variance over [C,H,W], then channelwise affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c, h, w = x.data.shape
    if c % groups != 0:
        raise ConfigurationError(f"group_norm: {c} channels not divisible by {groups} groups")
    xg = x.data.reshape(groups, -1)
    n = xg.shape[1]
    # np.mean / np.var arithmetic without their Python wrappers
    dev = xg - np.add.reduce(xg, axis=1, keepdims=True) / n
    var = np.add.reduce(dev * dev, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat_g = dev * inv
    xhat = xhat_g.reshape(c, h, w)
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(g):
        _accumulate(gamma, (g * xhat).sum(axis=(1, 2)))
        _accumulate(beta, g.sum(axis=(1, 2)))
        if x.requires_grad:
            dxhat = (g * gamma.data[:, None, None]).reshape(groups, -1)
            dxg = inv * (
                dxhat
                - np.add.reduce(dxhat, axis=1, keepdims=True) / n
                - xhat_g * (np.add.reduce(dxhat * xhat_g, axis=1, keepdims=True) / n)
            )
            _accumulate(x, dxg.reshape(c, h, w))

    return _result(out, (x, gamma, beta), backward)


# resampling -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _interp_matrix(src: int, dst: int) -> np.ndarray:
    """Row-stochastic bilinear resampling matrix (dst x src), corners not aligned."""
    m = np.zeros((dst, src))
    scale = src / dst
    for i in range(dst):
        pos = (i + 0.5) * scale - 0.5
        pos = min(max(pos, 0.0), src - 1.0)
        j0 = int(math.floor(pos))
        j1 = min(j0 + 1, src - 1)
        t = pos - j0
        m[i, j0] += 1.0 - t
        m[i, j1] += t
    m.setflags(write=False)
    return m


def interpolate(x, size) -> Tensor:
    """Bilinear resample of ``x`` [C,H,W] to spatial ``size`` (H', W')."""
    x = _as_tensor(x)
    c, h, w = x.data.shape
    h2, w2 = int(size[0]), int(size[1])
    if (h2, w2) == (h, w):
        out = x.data.copy()

        def backward_identity(g):
            _accumulate(x, g)

        return _result(out, (x,), backward_identity)
    wh = _interp_matrix(h, h2)
    wwt = _interp_matrix(w, w2).T
    out = np.matmul(np.matmul(wh, x.data), wwt)

    def backward(g):
        _accumulate(x, np.matmul(np.matmul(wh.T, g), wwt.T))

    return _result(out, (x,), backward)


# attention --------------------------------------------------------------------


def multi_head_attention(x, heads: int, wq, wk, wv, wo) -> Tensor:
    """Scaled dot-product self-attention with ``heads`` heads over the
    second-to-last axis. Accepts [L,D] or [B,L,D]; projections are [D,D] and
    have no bias, so the op is permutation-equivariant over L.

    One tape op: the backward is the analytic gradient of the whole block
    with respect to ``x`` and the four projections.
    """
    x, wq, wk, wv, wo = (_as_tensor(t) for t in (x, wq, wk, wv, wo))
    squeeze = x.data.ndim == 2
    xb = x.data.reshape((1,) + x.data.shape) if squeeze else x.data
    b, length, d = xb.shape
    if d % heads != 0:
        raise ConfigurationError(f"attention width {d} not divisible by {heads} heads")
    for w in (wq, wk, wv, wo):
        if w.data.shape != (d, d):
            raise DimensionError(f"attention projections must be {d}x{d} for width {d}, got {w.data.shape}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(t):  # (B, L, D) -> (B, heads, L, dh)
        return t.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (B, heads, L, dh) -> (B*L, D)
        return t.transpose(0, 2, 1, 3).reshape(b * length, d)

    q = split(np.matmul(xb, wq.data))
    k = split(np.matmul(xb, wk.data))
    v = split(np.matmul(xb, wv.data))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = merge(np.matmul(attn, v))
    # a [B,L,D] product, as a batched matmul rounds it, not one (B*L, D) GEMM
    out = np.matmul(merged.reshape(b, length, d), wo.data).reshape(x.data.shape)

    def backward(g):
        g2 = g.reshape(b * length, d)
        _accumulate(wo, merged.T @ g2)
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
            _accumulate(w, x2.T @ g_proj)
            gx = gx + g_proj @ w.data.T
        _accumulate(x, gx.reshape(x.data.shape))

    return _result(out, (x, wq, wk, wv, wo), backward)
