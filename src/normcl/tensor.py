"""Reverse-mode automatic differentiation over dense numpy arrays.

Every kernel builds the output tensor eagerly and registers a backward
closure; calling ``backward()`` on a scalar head walks the graph in
reverse topological order.  Leaf tensors (those without a closure:
parameters and inputs) accumulate (``+=``) into their gradient buffers
across calls, so gradients sum correctly when several scalar heads share
subgraphs, and ``zero_grad`` must be called between optimizer steps.
An interior tensor's gradient lives for one pass only: it is dropped as
soon as its closure has propagated it.

Gradient ownership: every ``.grad`` buffer belongs to exactly one
tensor.  A tensor's first gradient is adopted without a copy only when
the kernel has just created that array for this one parent; anything
that may be shared is copied.  ``add`` hands the same gradient to both
parents, ``reshape``, ``transpose``, ``concat`` and ``tensor_sum`` hand
views of the child's gradient, and ``backward()`` receives the caller's
head gradient, so all of these copy.

The backward of ``matmul`` for an operand of rank 3 or more times a 2-D
matrix -- every ``x @ W`` projection -- flattens the operand to
``(-1, K)`` rows: the matrix gradient is one ``a2d.T @ g2d`` GEMM rather
than a batched ``(B, K, T) @ (B, T, N)`` stack summed over ``B``, and the
operand gradient is one ``g2d @ W.T`` GEMM.  The forward product stays
numpy's batched matmul, which measured faster than one flat GEMM at the
model's training shapes, except for stacks of one-row matrices (the
newest position of a cached decoder step): numpy runs those as one
matrix-vector product per row, and one flat GEMM measured 1.6-4x
faster.  Other shapes (the 4-D attention products) use the batched
formulas and ``_unbroadcast`` both ways.

Inside ``with no_grad():`` no kernel records a graph: outputs carry
``requires_grad=False``, no ``_parents`` and no backward closure, so a
forward-only pass (dev accuracy, beam search) keeps no intermediate
arrays alive.  The mode is process-wide (the package runs no threads);
it nests and restores its previous state on exit, also when the block
raises.

A tensor holds float32 or float64 data and every kernel computes in the
dtype of its inputs: a float32 model stays float32 end to end, and
mixing in a float64 operand (the loss mask, say) promotes the result to
float64.  A gradient is kept in the dtype of the tensor it belongs to.
``grad_check`` always runs in float64, because its finite-difference
tolerances assume it.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "matmul",
    "add",
    "mul",
    "scale",
    "transpose",
    "reshape",
    "concat",
    "tensor_slice",
    "relu",
    "softmax",
    "layer_norm",
    "embedding_lookup",
    "cross_entropy_with_log_softmax",
    "tensor_sum",
    "dropout",
    "grad_check",
    "no_grad",
]


class Tensor:
    """A dense array plus an optional gradient buffer and backward hook.

    The array keeps its dtype when it is float32 or float64; anything
    else (ints, bools, Python scalars) becomes float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g, fresh: bool = False):
        """Add ``g`` into this tensor's gradient buffer.

        The first gradient becomes the buffer.  Pass ``fresh=True`` only
        for an array the kernel has just computed for this parent alone
        (never the child's gradient, a view of it, or an array handed
        to another parent): it is adopted as is.  Anything else is
        copied, so no two tensors ever share a ``.grad`` buffer.
        """
        if self.grad is not None:
            self.grad += g
        elif g.shape != self.data.shape:
            self.grad = np.zeros_like(self.data)
            self.grad += g
        elif fresh and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.data.dtype, order="C")

    def backward(self, head_grad=None):
        """Accumulate gradients of this tensor w.r.t. every leaf ancestor.

        A scalar head seeds itself with 1.0; non-scalar heads need an
        explicit ``head_grad`` of matching shape.  Interior gradients are
        dropped once propagated, so a second head that shares a subgraph
        adds only its own contribution to the leaves.
        """
        if head_grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() on non-scalar tensor of shape {self.shape} "
                    "requires an explicit head gradient"
                )
            self._accumulate(np.ones_like(self.data), fresh=True)
        else:
            self._accumulate(np.asarray(head_grad, dtype=self.data.dtype))
        for node in _toposort(self):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # Convenience operators; heavier kernels stay module functions.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tensor_slice(self, key)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(head: Tensor) -> list[Tensor]:
    """Reverse topological order, iterative to survive deep graphs."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(head, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run the block without recording a graph (see the module notes)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _needs_grad(*tensors: Tensor) -> bool:
    """Whether a kernel output records its parents and backward closure."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting.

    The leading axes broadcasting added are summed in one reduction over
    a flat view, e.g. a ``(B, T, N)`` gradient to an ``(N,)`` bias as
    ``reshape(-1, N).sum(0)``; the result is a new array whenever any
    axis is summed.
    """
    lead = g.ndim - len(shape)
    if lead > 0:
        g = g.reshape((math.prod(g.shape[:lead]),) + g.shape[lead:]).sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    flat = a.ndim >= 3 and b.ndim == 2
    if flat and a.shape[-2] == 1:
        data = (a.data.reshape(-1, a.shape[-1]) @ b.data).reshape(
            a.shape[:-1] + b.shape[-1:])
    else:
        data = a.data @ b.data
    out = Tensor(data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        out._parents = (a, b)

        def _bw(g):
            if flat:
                _matmul_flat_backward(a, b, g)
                return
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ _swap_last(b.data), a.shape),
                              fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(_swap_last(a.data) @ g, b.shape),
                              fresh=True)

        out._backward = _bw
    return out


def _matmul_flat_backward(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Backward of ``(..., K) @ (K, N)`` as 2-D GEMMs over flattened rows."""
    k, n = b.shape
    rows = math.prod(a.shape[:-1])
    g2d = g.reshape(rows, n)
    if a.requires_grad:
        a._accumulate((g2d @ b.data.T).reshape(a.shape), fresh=True)
    if b.requires_grad:
        b._accumulate(a.data.reshape(rows, k).T @ g2d, fresh=True)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shapes not broadcastable: {a.shape} + {b.shape}")
    out = Tensor(data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        out._parents = (a, b)

        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shapes not broadcastable: {a.shape} * {b.shape}")
    out = Tensor(data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        out._parents = (a, b)

        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape), fresh=True)

        out._backward = _bw
    return out


def scale(a, k: float) -> Tensor:
    a = _as_tensor(a)
    k = float(k)
    out = Tensor(a.data * k, requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            a._accumulate(g * k, fresh=True)

        out._backward = _bw
    return out


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.transpose(a.data, axes), requires_grad=_needs_grad(a))
    if out.requires_grad:
        a_axes = axes
        inv = None if a_axes is None else np.argsort(a_axes)
        out._parents = (a,)

        def _bw(g):
            a._accumulate(np.transpose(g, inv))

        out._backward = _bw
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape), requires_grad=_needs_grad(a))
    if out.requires_grad:
        orig = a.shape
        out._parents = (a,)

        def _bw(g):
            a._accumulate(g.reshape(orig))

        out._backward = _bw
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        requires_grad=_needs_grad(*tensors),
    )
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        out._parents = tuple(tensors)

        def _bw(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accumulate(piece)

        out._backward = _bw
    return out


def tensor_slice(a, key) -> Tensor:
    """Basic (view-style) slicing with scatter-add backward."""
    a = _as_tensor(a)
    out = Tensor(a.data[key], requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a._accumulate(full, fresh=True)

        out._backward = _bw
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=_needs_grad(a))
    if out.requires_grad:
        mask = (a.data > 0.0).astype(a.data.dtype)
        out._parents = (a,)

        def _bw(g):
            a._accumulate(g * mask, fresh=True)

        out._backward = _bw
    return out


def softmax(a, axis: int = -1) -> Tensor:
    """Row-wise softmax with max subtraction for stability."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s, requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            gs = g * s
            a._accumulate(gs - s * gs.sum(axis=axis, keepdims=True), fresh=True)

        out._backward = _bw
    return out


def layer_norm(a, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean, unit variance.

    Affine gain/bias are deliberately not part of the kernel; apply
    them with ``mul``/``add`` so this kernel's output is testable
    before affine parameters.
    """
    a = _as_tensor(a)
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out = Tensor(x_hat, requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            g_mean = g.mean(axis=-1, keepdims=True)
            gx_mean = (g * x_hat).mean(axis=-1, keepdims=True)
            a._accumulate(inv_std * (g - g_mean - x_hat * gx_mean), fresh=True)

        out._backward = _bw
    return out


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of ``table`` by integer ``ids`` of any shape."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding ids out of range for table with {table.shape[0]} rows"
        )
    out = Tensor(table.data[ids], requires_grad=_needs_grad(table))
    if out.requires_grad:
        out._parents = (table,)
        flat_ids = ids.reshape(-1)
        dim = table.shape[1]

        def _bw(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, flat_ids, g.reshape(-1, dim))

        out._backward = _bw
    return out


def cross_entropy_with_log_softmax(logits, targets, label_smoothing: float = 0.0) -> Tensor:
    """Per-position negative log-likelihood from raw logits.

    ``logits`` is (N, V), ``targets`` an integer array (N,).  Returns a
    tensor of shape (N,).  With ``label_smoothing`` epsilon, the target
    distribution is (1-eps) one-hot plus eps uniform.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"cross entropy expects (N, V) logits and (N,) targets, "
            f"got {logits.shape} and {targets.shape}"
        )
    n, v = logits.shape
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(n)
    nll = -log_p[rows, targets]
    if label_smoothing > 0.0:
        nll = (1.0 - label_smoothing) * nll - label_smoothing * log_p.mean(axis=1)
    out = Tensor(nll, requires_grad=_needs_grad(logits))
    if out.requires_grad:
        out._parents = (logits,)
        probs = np.exp(log_p)

        def _bw(g):
            target_dist = np.zeros_like(probs)
            target_dist[rows, targets] = 1.0 - label_smoothing
            if label_smoothing > 0.0:
                target_dist += label_smoothing / v
            logits._accumulate((probs - target_dist) * g[:, None], fresh=True)

        out._backward = _bw
    return out


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims),
                 requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            g_exp = g if axis is None or keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g_exp, a.shape))

        out._backward = _bw
    return out


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    a = _as_tensor(a)
    if p <= 0.0:
        return a
    if p >= 1.0:
        raise ShapeError(f"dropout rate must be < 1, got {p}")
    keep = (rng.random(a.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    out = Tensor(a.data * keep, requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            a._accumulate(g * keep, fresh=True)

        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central differences.

    ``f`` maps a tensor to a scalar Tensor.  The analytic gradient comes
    from one backward pass; each coordinate of the numeric gradient
    from (f(x + h e_i) - f(x - h e_i)) / 2h.  Error per coordinate is
    |a - b| / max(|a|, |b|, 1e-8).
    """
    x = Tensor(np.array(x.data, dtype=np.float64), requires_grad=True)
    out = f(x)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_hi = float(f(Tensor(x.data)).data)
        flat[i] = orig - h
        f_lo = float(f(Tensor(x.data)).data)
        flat[i] = orig
        num_flat[i] = (f_hi - f_lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
