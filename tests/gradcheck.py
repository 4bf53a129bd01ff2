"""Finite-difference verification of reverse-mode gradients.

The harness reduces an op's output to a scalar through a fixed random
projection, backpropagates, and compares each input gradient against central
differences computed in double precision: it runs the op under
``precision(np.float64)``, so every tensor the op creates is float64 too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psrank.tensor import Tensor, precision, tsum


class GradCheckError(RuntimeError):
    """Raised when a gradient check encounters non-finite values."""


@dataclass
class GradCheckReport:
    op_name: str
    max_rel_err: float
    tolerance: float
    passed: bool


def _scalarize(out: Tensor, projection: np.ndarray) -> Tensor:
    return tsum(out * Tensor(projection))


@precision(np.float64)
def grad_check(op, inputs, tolerance: float = 1e-3, step: float = 1e-4, seed: int = 0,
               name: str | None = None) -> GradCheckReport:
    """Compare reverse-mode gradients of ``op(*inputs)`` against central
    finite differences with step ``step``.

    ``inputs`` are Tensors; every one is treated as differentiable. The
    relative error per element is |ad - fd| / max(|ad|, |fd|, 1e-4); the
    report carries the maximum over all inputs and elements.
    """
    op_name = name or getattr(op, "__name__", "op")
    tensors = [Tensor(np.array(t.data if isinstance(t, Tensor) else t, dtype=np.float64),
                      requires_grad=True) for t in inputs]
    out = op(*tensors)
    rng = np.random.default_rng(seed)
    projection = rng.normal(size=out.data.shape)

    loss = _scalarize(out, projection)
    loss.backward()

    max_rel = 0.0
    for t in tensors:
        if t.grad is None:
            analytic = np.zeros_like(t.data)
        else:
            analytic = t.grad
        if not np.all(np.isfinite(analytic)):
            raise GradCheckError(f"{op_name}: non-finite reverse-mode gradient")
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = _scalarize(op(*tensors), projection).item()
            flat[i] = orig - step
            lo = _scalarize(op(*tensors), projection).item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        if not np.all(np.isfinite(numeric)):
            raise GradCheckError(f"{op_name}: non-finite finite-difference gradient")
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        rel = np.abs(analytic - numeric) / denom
        if rel.size:
            max_rel = max(max_rel, float(rel.max()))
    return GradCheckReport(op_name=op_name, max_rel_err=max_rel,
                           tolerance=tolerance, passed=max_rel < tolerance)
