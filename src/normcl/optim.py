"""Adam with bias correction and the warmup/inverse-sqrt learning rate."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .tensor import Tensor

__all__ = ["AdamState", "adam_step", "lr_schedule"]

# the Adam settings of every run; no config or checkpoint carries them
BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-9


class AdamState:
    """First/second moments of every parameter plus a step counter.

    ``flat_m`` and ``flat_v`` hold the moments of all parameters, one
    after another in the order of ``params``, so ``adam_step`` updates
    every moment with a fixed number of whole-buffer operations;
    ``grad[name]`` views the gathered gradients the same way.  Every
    parameter must hold the same dtype.
    """

    def __init__(self, params: dict[str, Tensor]):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ConfigError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        self.step = 0
        size = sum(p.data.size for p in params.values())
        dtype = dtypes.pop() if dtypes else np.float64
        self.flat_m = np.zeros(size, dtype=dtype)
        self.flat_v = np.zeros(size, dtype=dtype)
        # the gathered gradients and one scratch buffer: adam_step writes
        # both before reading them, so a state that never steps (one
        # loaded for evaluation) leaves their pages untouched
        self.flat_grad = np.empty(size, dtype=dtype)
        self.scratch = np.empty(size, dtype=dtype)
        self.grad = {}
        offset = 0
        for name, p in params.items():
            span = slice(offset, offset + p.data.size)
            offset = span.stop
            self.grad[name] = self.flat_grad[span].reshape(p.data.shape)


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place.

    Parameters with no gradient buffer are treated as zero-gradient
    (moments still decay).  NaN/Inf in any gradient aborts before
    anything is updated.  Every elementwise operation runs in the same
    order as a per-parameter update would, so the bits are the same.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        if p.grad is None:
            state.grad[name].fill(0.0)
        else:
            state.grad[name][...] = p.grad
    g, s = state.flat_grad, state.scratch
    m, v = state.flat_m, state.flat_v
    if not np.isfinite(g).all():
        bad = next(name for name, view in state.grad.items()
                   if not np.isfinite(view).all())
        raise TrainingDiverged(f"non-finite gradient in parameter '{bad}'", step=t)
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=s)
    m += s
    v *= BETA2
    np.multiply(g, g, out=s)
    s *= 1.0 - BETA2
    v += s
    # the step lr * m_hat / (sqrt(v_hat) + eps), built in g
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += EPS
    np.divide(m, bc1, out=g)
    g *= lr
    g /= s
    for name, p in params.items():
        p.data -= state.grad[name]


def lr_schedule(t: int, warmup: int, peak: float) -> float:
    """Linear warmup to ``peak`` at step ``warmup`` (steps count from 1),
    then inverse-sqrt decay; ``OptimizerConfig`` checks both settings."""
    return peak * min(t / warmup, math.sqrt(warmup / t))
