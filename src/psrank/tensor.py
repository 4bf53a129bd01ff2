"""Dense float64 tensors with reverse-mode automatic differentiation.

Every learnable operation in the package is built on the ops in this module,
and a module function (``tsum``, ``reshape``, ``matmul``, ...) is each op's
only spelling. A ``Tensor`` carries its data, gradient and tape links, the
arithmetic operators and indexing. Forward ops record closures on a tape;
``Tensor.backward`` replays them in reverse topological order. Storage and
elementwise kernels are numpy; the differentiation machinery, convolution,
normalization, resampling, and attention are implemented here.

There is one softmax. It runs on a key-major array: the axis it normalizes
comes first, so its max and sums are elementwise ops between contiguous
slabs, one slab per key, in place of numpy's reductions over a short last
axis (4-12 keys in the DPT's routes), whose per-row cost dominates there.
The max halves the key axis with ``np.maximum``; the sums repeat numpy's
pairwise order (sequential from +0.0 below 8 terms, eight partial sums up to
128, split in halves above that), so the softmax is byte-equal to the one
built on ``max``/``sum`` over the last axis. ``softmax`` records it as a tape
op over a key-major copy of its last axis. Multi-head attention, a single
tape op whose backward is written out analytically (one call records one
node), computes q, k and v with one GEMM and writes its scores key-major
through ``matmul``'s ``out``; the weights are normalized in place, then copied
once to row-major for the products that read them. Its backward writes the
weights' gradient key-major the same way. Every product keeps the operand
orientation of the plain row-major form: OpenBLAS rounds a product whose
first operand is a transposed view differently once the inner dimension
reaches 16, and only where the result is written may change. One-token
sequences keep the batched projections, since numpy computes those as gemv,
which rounds differently from a GEMM.

``conv2d``, ``group_norm`` and ``interpolate`` take one (C, H, W) grid, or
with ``grids`` a (C, K) pyramid: column k is cell k, the cells of each (h, w)
grid in turn, row-major. One grid is the one-entry pyramid of the same code.
``interpolate`` resamples each grid to its own (h', w') with two matmuls (one
per axis), or copies it when it keeps its size.

``conv2d`` is im2col + GEMM. A 1x1, stride-1, unpadded kernel takes the input
itself as its columns, and its backward's dx is the column gradient reshaped.
Any other kernel appends one zero column to the input, which every padding
tap reads, and gathers the columns of all grids with one (k*k, K_out) index;
then one GEMM per grid writes that grid's output columns, and one add puts
the bias on. Its backward scatters (col2im) with one ``np.bincount`` over the
full (C*k*k, K_out) index. Both indexes depend only on the shapes, so each is
built once per shape, the full one only when a backward first needs it, and
kept in a module-level ``functools`` cache.

``group_norm`` reduces each (group, grid) pair's values as one contiguous run,
one pairwise ``np.add.reduce`` per grid for each statistic, so its sums are
those of a per-grid call; every other step runs once over the pyramid. A
shared weight's gradient (conv kernel and bias, norm gamma and beta) is
accumulated one grid at a time, in grid order, as separate per-grid calls
accumulate it.
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
                # every consumer has run, so an interior gradient is spent;
                # leaves and Parameters keep theirs
                node.grad = None

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
        # 0 + g in one pass: -0.0 becomes +0.0, as zeros-then-add makes it
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
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
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

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

    def backward(g):
        _accumulate(a, np.transpose(g, None if axes is None else np.argsort(axes)))

    return _result(out, (a,), backward)


def _basic_index(idx) -> bool:
    """An int, a slice or a tuple of them: an index that selects each element
    at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, slice) or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def take(a, idx) -> Tensor:
    a = _as_tensor(a)
    out = a.data[idx]

    def backward(g):
        if _basic_index(idx):
            # the selection is a view that holds each element once: add g into it
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g
        else:
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


# softmax ----------------------------------------------------------------------


def _key_max(a: np.ndarray) -> np.ndarray:
    """The maximum over the leading (key) axis: ``np.maximum`` of its two
    halves until one slab is left, each step one elementwise op on contiguous
    slabs. It equals ``np.moveaxis(a, 0, -1).max(axis=-1)`` up to the sign of
    a zero maximum, which ``a - max`` cannot show (x - (+0.0) and x - (-0.0)
    are equal for x != 0, and both zeros for x = ±0), so the softmax it feeds
    is byte-equal either way.
    """
    top = a
    while len(top) > 1:
        half = len(top) // 2
        rest = top[2 * half :]  # the odd slab out, if any
        top = np.maximum(top[:half], top[half : 2 * half], out=None if top is a else top[:half])
        if len(rest):
            np.maximum(top[:1], rest, out=top[:1])
    return top[0] if top is not a else top[0].copy()


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise summation of the leading axis's n slabs: sequential
    from +0.0 below 8 terms, eight interleaved partial sums joined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then the last n % 8
    terms in turn up to 128 terms, and above that the sum of two parts split
    at a multiple of 8 near the middle.
    """
    n = len(a)
    if n < 8:
        total = a[0] + 0.0
        for i in range(1, n):
            total += a[i]
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    stop = n - n % 8
    partial = a[:8] if stop == 8 else a[:8] + a[8:16]  # a view only while nothing adds into it
    for lo in range(16, stop, 8):
        partial += a[lo : lo + 8]
    pairs = partial[0::2] + partial[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]
    for i in range(stop, n):
        total += a[i]
    return total


def _key_sum(a: np.ndarray) -> np.ndarray:
    """``np.moveaxis(a, 0, -1).sum(axis=-1)`` byte for byte: numpy adds the
    pairwise sum of a row's values to its +0.0 identity (so an all -0.0 row
    sums to +0.0), and the leading axis here is that row.
    """
    total = _pairwise_sum(a)
    if len(a) >= 8:  # below 8 the sequence already starts from +0.0
        total += 0.0
    return total


def _softmax_keys(s: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax over the leading (key) axis of ``s``, in place."""
    s -= _key_max(s)
    np.exp(s, out=s)
    s /= _key_sum(s)
    return s


def _softmax_keys_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient of ``out = _softmax_keys(a)`` given the output's ``g``."""
    return out * (g - _key_sum(g * out))


def softmax(a) -> Tensor:
    """Max-stabilized softmax over the last axis; outputs sum to 1 there."""
    a = _as_tensor(a)
    keys = _softmax_keys(np.moveaxis(a.data, -1, 0).copy())  # a key-major copy

    def backward(g):
        _accumulate(a, np.moveaxis(_softmax_keys_grad(keys, np.moveaxis(g, -1, 0)), 0, -1))

    return _result(np.moveaxis(keys, 0, -1), (a,), backward)


# convolution -----------------------------------------------------------------


def _columns(x: Tensor, grids) -> tuple[np.ndarray, tuple]:
    """``x``'s data as (C, K) cell columns and the (h, w) of each grid they hold."""
    if grids is None:
        if x.data.ndim != 3:
            raise DimensionError(f"expected one (C, H, W) grid, got shape {x.data.shape}")
        c, h, w = x.data.shape
        return x.data.reshape(c, h * w), ((h, w),)
    cells = sum(h * w for h, w in grids)
    if x.data.ndim != 2 or x.data.shape[1] != cells:
        raise DimensionError(f"expected a (C, {cells}) pyramid for grids {grids}, got shape {x.data.shape}")
    return x.data, grids


@lru_cache(maxsize=None)
def _column_bounds(grids) -> tuple[tuple[int, int], ...]:
    """(first, end) column of each grid's cells."""
    ends = np.cumsum([h * w for h, w in grids]).tolist()
    return tuple(zip([0] + ends[:-1], ends))


@lru_cache(maxsize=None)
def _conv_grids(grids, k: int, stride: int, pad: int) -> tuple:
    """The (ho, wo) of each output grid."""
    return tuple(((h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1) for h, w in grids)


@lru_cache(maxsize=None)
def _plane_index(grids, k: int, stride: int, pad: int) -> np.ndarray:
    """Column indices into the pyramid with one zero column appended that
    gather its im2col rows: entry ((i, j), cell) reads the input cell at
    (oy*stride + i - pad, ox*stride + j - pad) of the output cell's grid, or
    the zero column K where that lies in the padding.
    """
    cells = sum(h * w for h, w in grids)
    i = np.arange(k).reshape(k, 1, 1, 1)
    j = np.arange(k).reshape(1, k, 1, 1)
    blocks = []
    for (h, w), (lo, _), (ho, wo) in zip(grids, _column_bounds(grids), _conv_grids(grids, k, stride, pad)):
        y = np.arange(ho).reshape(1, 1, ho, 1) * stride + i - pad
        x = np.arange(wo).reshape(1, 1, 1, wo) * stride + j - pad
        inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
        blocks.append(np.where(inside, lo + y * w + x, cells).reshape(k * k, ho * wo))
    idx = np.concatenate(blocks, axis=1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _col2im_index(c: int, grids, k: int, stride: int, pad: int) -> np.ndarray:
    """The plane index repeated for each of ``c`` channels: flat indices into
    the (c, K + 1) padded pyramid, row (ch, i, j) reading channel ch.
    """
    plane = _plane_index(grids, k, stride, pad)
    cells = sum(h * w for h, w in grids)
    idx = (np.arange(c).reshape(c, 1, 1) * (cells + 1) + plane).reshape(c * k * k, plane.shape[1])
    idx.setflags(write=False)
    return idx


def conv2d(x, weight, bias=None, stride: int = 1, padding=None, grids=None) -> Tensor:
    """Cross-correlation of ``x`` with ``weight`` [Co,C,k,k], applied to each
    grid on its own: ``x`` is one [C,H,W] grid, or with ``grids`` (a tuple of
    (h, w)) a [C,K] pyramid of them, giving [Co,K_out].

    Zero padding; ``padding=None`` selects "same" mode (k-1)//2, which
    preserves spatial size when stride is 1. Kernel side must be odd.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    co, ci, k, k2 = weight.data.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"conv2d kernel must be square with odd side, got {k}x{k2}")
    data, shapes = _columns(x, grids)
    c, cells = data.shape
    if c != ci:
        raise DimensionError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {weight.data.shape}")
    pad = (k - 1) // 2 if padding is None else int(padding)
    for h, w in shapes:
        if h + 2 * pad < k or w + 2 * pad < k:
            raise DimensionError(f"conv2d kernel {k}x{k} exceeds the padded input {h + 2 * pad}x{w + 2 * pad}")
    out_grids = _conv_grids(shapes, k, stride, pad)
    bounds = _column_bounds(out_grids)
    pointwise = k == 1 and stride == 1 and not pad
    if pointwise:
        cols = np.ascontiguousarray(data)
    else:
        padded = np.empty((c, cells + 1))
        padded[:, :cells] = data
        padded[:, cells] = 0.0
        # gathering every channel along axis 1 beats one flat take of the full index
        cols = padded.take(_plane_index(shapes, k, stride, pad), axis=1).reshape(c * k * k, -1)
        del padded  # free the padded copy before the GEMMs allocate their output
    w2 = weight.data.reshape(co, ci * k * k)
    out = np.empty((co, cols.shape[1]))
    for lo, hi in bounds:
        np.matmul(w2, cols[:, lo:hi], out=out[:, lo:hi])
    if bias is not None:
        bias = _as_tensor(bias)
        out += bias.data[:, None]

    def backward(g):
        g2 = g.reshape(co, -1)
        for lo, hi in bounds:
            _accumulate(weight, (g2[:, lo:hi] @ cols[:, lo:hi].T).reshape(weight.data.shape))
        if bias is not None:
            for lo, hi in bounds:
                _accumulate(bias, np.add.reduce(g2[:, lo:hi], axis=1))
        if x.requires_grad:
            dcols = np.empty_like(cols)
            for lo, hi in bounds:
                np.matmul(w2.T, g2[:, lo:hi], out=dcols[:, lo:hi])
            if pointwise:
                dx = dcols
            else:
                idx = _col2im_index(c, shapes, k, stride, pad)
                dx = np.bincount(idx.ravel(), weights=dcols.ravel(), minlength=c * (cells + 1))
                dx = dx.reshape(c, cells + 1)[:, :cells]
            _accumulate(x, dx.reshape(x.data.shape))

    if grids is None:
        out = out.reshape((co,) + out_grids[0])
    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


# normalization ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _group_runs(c: int, grids, groups: int) -> tuple:
    """How ``group_norm`` lays a (c, K) pyramid out so that each (grid, group)
    pair is one contiguous run of n values: the gather into that grid-major
    order and its inverse (None for one grid, whose (groups, n) rows already
    are the runs), each grid's slice of it, and every run's n, grid-major.
    """
    bounds = _column_bounds(grids)
    cells = bounds[-1][1]
    if len(grids) == 1:
        order = inverse = None
    else:
        order = np.concatenate([(np.arange(c)[:, None] * cells + np.arange(lo, hi)).ravel() for lo, hi in bounds])
        inverse = np.argsort(order)
        order.setflags(write=False)
        inverse.setflags(write=False)
    runs = tuple(slice(c * lo, c * hi) for lo, hi in bounds)
    n = np.repeat([c * (hi - lo) // groups for lo, hi in bounds], groups).reshape(-1, 1)
    n.setflags(write=False)
    return order, inverse, runs, n


def group_norm(x, groups: int, gamma, beta, eps: float = 1e-5, grids=None) -> Tensor:
    """Per-group zero-mean/unit-variance, then channelwise affine, over one
    [C,H,W] grid, or with ``grids`` over each grid of a [C,K] pyramid on its
    own (see ``conv2d``).
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    data, shapes = _columns(x, grids)
    c = data.shape[0]
    if c % groups != 0:
        raise ConfigurationError(f"group_norm: {c} channels not divisible by {groups} groups")
    order, inverse, runs, n = _group_runs(c, shapes, groups)
    bounds = _column_bounds(shapes)

    # One grid's values are its (groups, n) rows and its statistics broadcast
    # over them; a pyramid's values are flat, each run contiguous, and each
    # statistic is repeated over its run.
    def grid_major(a):
        return a.reshape(groups, -1) if order is None else a.take(order)

    def channel_major(a):
        return (a if inverse is None else a.take(inverse)).reshape(data.shape)

    def run_means(v):  # one pairwise np.add.reduce per grid, as a per-grid call sums it
        if order is None:
            return np.add.reduce(v, axis=1, keepdims=True) / n
        sums = np.empty(n.shape)
        for i, r in enumerate(runs):
            np.add.reduce(v[r].reshape(groups, -1), axis=1, keepdims=True, out=sums[i * groups : (i + 1) * groups])
        return sums / n

    def spread(stat):  # a statistic per run, against the runs' values
        return stat if order is None else stat.repeat(n.ravel())

    # np.mean / np.var arithmetic without their Python wrappers
    runs_x = grid_major(data)
    dev = runs_x - spread(run_means(runs_x))
    inv = spread(1.0 / np.sqrt(run_means(dev * dev) + eps))
    xhat_runs = dev * inv
    xhat = channel_major(xhat_runs)
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]

    def backward(g):
        g2 = g.reshape(data.shape)
        gx = g2 * xhat
        for lo, hi in bounds:
            _accumulate(gamma, np.add.reduce(gx[:, lo:hi], axis=1))
        for lo, hi in bounds:
            _accumulate(beta, np.add.reduce(g2[:, lo:hi], axis=1))
        if x.requires_grad:
            dxhat = grid_major(g2 * gamma.data[:, None])
            dx = inv * (dxhat - spread(run_means(dxhat)) - xhat_runs * spread(run_means(dxhat * xhat_runs)))
            _accumulate(x, channel_major(dx).reshape(x.data.shape))

    return _result(out.reshape(x.data.shape), (x, gamma, beta), backward)


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


def interpolate(x, size, grids=None) -> Tensor:
    """Bilinear resample of one [C,H,W] grid to ``size`` (H', W'), or with
    ``grids`` of each grid of a [C,K] pyramid to its own entry of ``size``,
    a tuple of (h', w') per grid, giving a [C,K'] pyramid (see ``conv2d``).
    A grid already at its size is copied.
    """
    x = _as_tensor(x)
    data, shapes = _columns(x, grids)
    sizes = ((int(size[0]), int(size[1])),) if grids is None else tuple((int(h), int(w)) for h, w in size)
    if len(sizes) != len(shapes):
        raise DimensionError(f"interpolate: {len(sizes)} sizes for {len(shapes)} grids")
    c = data.shape[0]
    # each grid's row and column matrices, None where the grid keeps its size
    maps = [None if s == d else (_interp_matrix(s[0], d[0]), _interp_matrix(s[1], d[1]).T)
            for s, d in zip(shapes, sizes)]

    def resample(a, a_grids, out_grids, mats):
        """Grid i of the (c, ·) array ``a`` as mats[i][0] @ grid @ mats[i][1], or copied where mats[i] is None."""
        res = np.empty((c, _column_bounds(out_grids)[-1][1]))
        for ga, go, (lo, hi), (lo2, hi2), m in zip(a_grids, out_grids, _column_bounds(a_grids),
                                                   _column_bounds(out_grids), mats):
            block, target = a[:, lo:hi].reshape((c,) + ga), res[:, lo2:hi2].reshape((c,) + go)
            if m is None:
                target[...] = block
            else:
                np.matmul(np.matmul(m[0], block), m[1], out=target)
        return res

    out = resample(data, shapes, sizes, maps)
    if grids is None:
        out = out.reshape((c,) + sizes[0])

    def backward(g):
        adjoints = [None if m is None else (m[0].T, m[1].T) for m in maps]
        _accumulate(x, resample(g.reshape(c, -1), sizes, shapes, adjoints).reshape(x.data.shape))

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

    def split(t):  # (B*L, D) -> (B, heads, L, dh)
        return t.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (B, heads, L, dh) -> (B*L, D)
        return t.transpose(0, 2, 1, 3).reshape(b * length, d)

    def project(t, w):  # (B*L, D) @ w
        if length > 1:
            return t @ w
        # one-token sequences keep the batched product, which numpy computes as a gemv per sequence
        return np.matmul(t.reshape(b, 1, d), w).reshape(b, -1)

    x2 = xb.reshape(b * length, d)  # copies the strided tokens of a transposed view
    qkv = project(x2, np.concatenate([wq.data, wk.data, wv.data], axis=1))
    q, k, v = qkv.reshape(b, length, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    # scores key-major: slab j holds every query's score against key j
    attn_keys = np.empty((length, b, heads, length))
    np.matmul(q, k.swapaxes(-1, -2), out=attn_keys.transpose(1, 2, 3, 0))
    attn_keys *= scale
    _softmax_keys(attn_keys)
    attn = np.ascontiguousarray(attn_keys.transpose(1, 2, 3, 0))  # row-major for BLAS
    merged = merge(np.matmul(attn, v))
    out = project(merged, wo.data).reshape(x.data.shape)

    # the tape keeps only the key-major weights; the backward rebuilds the
    # row-major copy and the flat input, so a graph holds no extra copies
    def backward(g):
        attn = np.ascontiguousarray(attn_keys.transpose(1, 2, 3, 0))
        x2 = xb.reshape(b * length, d)
        g2 = g.reshape(b * length, d)
        _accumulate(wo, merged.T @ g2)
        g_ctx = split(g2 @ wo.data.T)
        g_keys = np.empty((length, b, heads, length))
        np.matmul(g_ctx, v.swapaxes(-1, -2), out=g_keys.transpose(1, 2, 3, 0))
        g_keys = _softmax_keys_grad(attn_keys, g_keys)
        g_keys *= scale
        g_scores = np.ascontiguousarray(g_keys.transpose(1, 2, 3, 0))
        grads = (
            (wq, np.matmul(g_scores, k)),
            (wk, np.matmul(g_scores.swapaxes(-1, -2), q)),
            (wv, np.matmul(attn.swapaxes(-1, -2), g_ctx)),
        )
        gx = 0.0
        for w, g_head in grads:
            g_proj = merge(g_head)
            _accumulate(w, x2.T @ g_proj)
            gx = gx + g_proj @ w.data.T
        _accumulate(x, gx.reshape(x.data.shape))

    return _result(out, (x, wq, wk, wv, wo), backward)
