"""Reverse-mode automatic differentiation over dense numpy arrays.

Every kernel builds the output tensor eagerly and registers a backward
closure; calling ``backward()`` on a scalar head walks the graph in
reverse topological order.  Leaf tensors (those without a closure:
parameters and inputs) accumulate (``+=``) into their gradient buffers
across calls, so gradients sum correctly when several scalar heads share
subgraphs, and ``Transformer.zero_grad`` must be called between
optimizer steps.  An interior tensor's gradient lives for one pass
only: it is dropped as soon as its closure has propagated it.

Gradient ownership: every ``.grad`` buffer belongs to exactly one
tensor.  A tensor's first gradient is adopted without a copy only when
the kernel has just created that array for this one parent; anything
that may be shared is copied.  ``add`` hands the same gradient to both
parents, ``reshape``, ``transpose``, ``concat`` and ``tensor_sum`` hand
views of the child's gradient, and ``backward()`` receives the caller's
head gradient, so all of these copy.

The model's composites are fused kernels with hand-written backwards,
so a train step records a few dozen nodes rather than hundreds:

- ``linear(x, W, b)`` is ``x @ W + b``.  Its backward flattens ``x`` to
  ``(-1, K)`` rows: the weight gradient is one ``x2d.T @ g2d`` GEMM
  rather than a batched ``(B, K, T) @ (B, T, N)`` stack summed over
  ``B``, the input gradient one ``g2d @ W.T`` GEMM, and the bias
  gradient ``g2d.sum(0)``.  The forward product stays numpy's batched
  matmul, which measured faster than one flat GEMM at the model's
  training shapes, except for stacks of one-row matrices (the newest
  position of a cached decoder step): numpy runs those as one
  matrix-vector product per row, and one flat GEMM measured 1.6-4x
  faster.
- ``attention(q, k, v, mask, n_heads)`` splits heads, scales, masks,
  takes the softmax and merges the heads of ``probs @ v`` in one node.
  Its backward keeps only the probabilities (the fused-kernel idea of
  FlashAttention, Dao et al. 2022, at NumPy scale).  The softmax's row
  max and row sums are folded column by column, faster than numpy's
  last-axis reductions over the model's short rows, for the same softmax.
- ``residual_dropout(x, y, p, rng)`` is ``x + dropout(y)``.  Sub-layer
  outputs and embedding sums are all the model drops out, as Vaswani et
  al. 2017 (section 5.4) do; attention has no dropout.

Each runs the same elementwise operations and products, in the same
order and on the same array layouts, as the chain of small kernels the
tests keep as its oracle (``matmul``, ``add``, ``scale``, ``transpose``,
``reshape``, a softmax and ``dropout``), and draws its dropout mask the
same way, so its outputs and gradients match that chain's bit for bit.

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
    "linear",
    "attention",
    "add",
    "mul",
    "scale",
    "transpose",
    "reshape",
    "concat",
    "tensor_slice",
    "relu",
    "layer_norm",
    "embedding_lookup",
    "cross_entropy_with_log_softmax",
    "tensor_sum",
    "dropout",
    "residual_dropout",
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


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, folded column by column.  A max
    is the same in any order, NaN included; only the sign of a zero
    maximum may differ from numpy's reduction, which ``exp(a - max)``
    cannot see.

    numpy's last-axis max is slow over short rows.  Measured (float32,
    one thread, 2-core x86 VM, reduction -> fold): 202 -> 25 us at
    (64, 4, 13, 13), 35 -> 4 us at (64, 4, 4, 4) and 55 -> 9 us at
    (300, 4, 1, 8).  The fold costs one pass per key, so long rows are
    slower: 1.3 -> 4.6 ms at (64, 4, 64, 64) and 79 -> 265 us at
    (300, 4, 1, 200).
    """
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j:j + 1], out=m)
    return m


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)``, folded column by column in the
    order of numpy's pairwise summation, so the sums match numpy's bit
    for bit (a NaN sum may carry another sign bit): below 8 terms one
    running sum; up to 128 terms eight accumulators over blocks of 8,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail;
    above 128 the two halves, cut at a multiple of 8, each summed that
    way.  numpy adds the row sum to a ``+0.0`` start, which the fold
    applies to the first block, so a sum of negative zeros is ``+0.0``.

    Like ``_row_max``, the fold is faster over the model's short rows.
    Measured (float32, one thread, 2-core x86 VM, reduction -> fold):
    17.6 -> 6.2 us at (64, 4, 5, 5), 16.6 -> 6.1 us at (300, 4, 1, 5)
    and 56.5 -> 37.8 us at (64, 4, 13, 13).
    """
    n = a.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(a[..., :half]) + _row_sum(a[..., half:])
    if n < 8:
        s = a[..., :1] + 0.0
        for j in range(1, n):
            s += a[..., j:j + 1]
        return s
    body = n - n % 8
    r = a[..., :8] + 0.0
    for i in range(8, body, 8):
        r += a[..., i:i + 8]
    r = r[..., 0::2] + r[..., 1::2]
    r = r[..., 0::2] + r[..., 1::2]
    s = r[..., :1] + r[..., 1:]
    for j in range(body, n):
        s += a[..., j:j + 1]
    return s


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        out._parents = (a, b)

        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ _swap_last(b.data), a.shape),
                              fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(_swap_last(a.data) @ g, b.shape),
                              fresh=True)

        out._backward = _bw
    return out


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for ``x`` (..., K), ``w`` (K, N) and ``b`` (N,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs (..., K) @ (K, N) + (N,), got "
                         f"{x.shape} @ {w.shape} + {b.shape}")
    k, n = w.shape
    rows = math.prod(x.shape[:-1])
    if x.ndim >= 3 and x.shape[-2] == 1:
        data = (x.data.reshape(rows, k) @ w.data).reshape(x.shape[:-1] + (n,))
    else:
        data = x.data @ w.data
    if data.dtype == b.data.dtype:
        data += b.data
    else:
        data = data + b.data
    out = Tensor(data, requires_grad=_needs_grad(x, w, b))
    if out.requires_grad:
        out._parents = (x, w, b)

        def _bw(g):
            g2d = g.reshape(rows, n)
            if x.requires_grad:
                x._accumulate((g2d @ w.data.T).reshape(x.shape), fresh=True)
            if w.requires_grad:
                w._accumulate(x.data.reshape(rows, k).T @ g2d, fresh=True)
            if b.requires_grad:
                b._accumulate(g2d.sum(axis=0), fresh=True)

        out._backward = _bw
    return out


def attention(q, k, v, mask, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, heads merged back.

    ``q`` is (B, Tq, d) and ``k``, ``v`` are (B, Tk, d); each is split
    into ``n_heads`` heads of ``d / n_heads`` features.  ``mask`` is an
    additive array broadcastable to (B, n_heads, Tq, Tk), or None.
    Returns (B, Tq, d).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape \
            or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2] \
            or q.shape[2] % n_heads:
        raise ShapeError(f"attention needs (B, Tq, d) queries and (B, Tk, d) "
                         f"keys and values with d divisible by {n_heads} "
                         f"heads, got {q.shape}, {k.shape}, {v.shape}")
    b, tq, d = q.shape
    tk = k.shape[1]
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)

    def heads(a: np.ndarray, t: int) -> np.ndarray:
        return a.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)

    q4, k4, v4 = heads(q.data, tq), heads(k.data, tk), heads(v.data, tk)
    probs = q4 @ _swap_last(k4)
    probs *= c
    if mask is not None:
        probs += mask
    probs -= _row_max(probs)
    np.exp(probs, out=probs)
    probs /= _row_sum(probs)
    data = (probs @ v4).transpose(0, 2, 1, 3).reshape(b, tq, d)
    out = Tensor(data, requires_grad=_needs_grad(q, k, v))
    if out.requires_grad:
        out._parents = (q, k, v)

        def _bw(g):
            g_ctx = np.ascontiguousarray(heads(g, tq))
            if v.requires_grad:
                g_v = _swap_last(probs) @ g_ctx
                v._accumulate(g_v.transpose(0, 2, 1, 3).reshape(b, tk, d),
                              fresh=True)
            if not (q.requires_grad or k.requires_grad):
                return
            g_s = g_ctx @ _swap_last(v4)
            g_s *= probs
            g_s -= probs * _row_sum(g_s)
            g_s *= c
            if q.requires_grad:
                q._accumulate((g_s @ k4).transpose(0, 2, 1, 3).reshape(b, tq, d),
                              fresh=True)
            if k.requires_grad:
                g_kt = _swap_last(q4) @ g_s
                k._accumulate(g_kt.transpose(0, 3, 1, 2).reshape(b, tk, d),
                              fresh=True)

        out._backward = _bw
    return out


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


def layer_norm(a, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean, unit variance.

    Affine gain/bias are deliberately not part of the kernel; apply
    them with ``mul``/``add`` so this kernel's output is testable
    before affine parameters.  Each mean is ``np.add.reduce`` divided in
    place by the length, the arithmetic of ``np.mean`` without its
    Python-level overhead, and temporaries are reused in place, so the
    bits equal those of the plain ``mean``-based formula.
    """
    a = _as_tensor(a)
    n = a.shape[-1]
    mean = np.add.reduce(a.data, axis=-1, keepdims=True)
    mean /= n
    x_hat = a.data - mean
    var = np.add.reduce(x_hat * x_hat, axis=-1, keepdims=True)
    var /= n
    var += eps
    inv_std = np.sqrt(var, out=var)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat *= inv_std
    out = Tensor(x_hat, requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            g_mean = np.add.reduce(g, axis=-1, keepdims=True)
            g_mean /= n
            gx = g * x_hat
            gx_mean = np.add.reduce(gx, axis=-1, keepdims=True)
            gx_mean /= n
            grad = g - g_mean
            grad -= np.multiply(x_hat, gx_mean, out=gx)
            grad *= inv_std
            a._accumulate(grad, fresh=True)

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
        dim = table.shape[1]

        def _bw(g):
            if table.grad is None:
                table.grad = np.zeros(table.shape, dtype=table.data.dtype)
            elif not table.grad.flags.c_contiguous:
                table.grad = np.ascontiguousarray(table.grad)
            # one flat index per element, row by row: numpy's 1-D
            # ``add.at`` adds to each cell in the order the row-wise call
            # does, and runs several times faster
            cells = ids.reshape(-1, 1).astype(np.intp, copy=False) * dim
            cells = (cells + np.arange(dim)).reshape(-1)
            np.add.at(table.grad.reshape(-1), cells, g.reshape(-1))

        out._backward = _bw
    return out


def cross_entropy_with_log_softmax(logits, targets) -> Tensor:
    """Per-position negative log-likelihood of the one-hot target from
    raw logits.

    ``logits`` is (N, V), ``targets`` an integer array (N,).  Returns a
    tensor of shape (N,); the gradient with respect to the logits is the
    softmax minus the one-hot target.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"cross entropy expects (N, V) logits and (N,) targets, "
            f"got {logits.shape} and {targets.shape}"
        )
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(logits.shape[0])
    nll = -log_p[rows, targets]
    out = Tensor(nll, requires_grad=_needs_grad(logits))
    if out.requires_grad:
        out._parents = (logits,)
        probs = np.exp(log_p)

        def _bw(g):
            d_logits = probs.copy()
            d_logits[rows, targets] -= 1.0
            logits._accumulate(d_logits * g[:, None], fresh=True)

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
    keep = _keep_mask(a.shape, a.data.dtype, p, rng)
    if keep is None:
        return a
    out = Tensor(a.data * keep, requires_grad=_needs_grad(a))
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            a._accumulate(g * keep, fresh=True)

        out._backward = _bw
    return out


def residual_dropout(x, y, p: float, rng: np.random.Generator) -> Tensor:
    """``x + dropout(y, p)``: a residual connection around a branch."""
    x, y = _as_tensor(x), _as_tensor(y)
    keep = _keep_mask(y.shape, y.data.dtype, p, rng)
    branch = y.data if keep is None else y.data * keep
    try:
        data = x.data + branch
    except ValueError:
        raise ShapeError(f"residual shapes not broadcastable: {x.shape} + {y.shape}")
    out = Tensor(data, requires_grad=_needs_grad(x, y))
    if out.requires_grad:
        out._parents = (x, y)

        def _bw(g):
            if x.requires_grad:
                x._accumulate(_unbroadcast(g, x.shape))
            if y.requires_grad:
                if keep is None:
                    y._accumulate(_unbroadcast(g, y.shape))
                else:
                    y._accumulate(_unbroadcast(g * keep, y.shape), fresh=True)

        out._backward = _bw
    return out


def _keep_mask(shape, dtype, p: float, rng: np.random.Generator):
    """The scaled keep mask of inverted dropout at rate ``p``, or None
    (nothing drawn) when ``thr = round(p * 65536)`` is 0.  Each raw word
    gives four little-endian 16-bit lanes; a lane of at least ``thr``
    keeps its entry at ``1 / (1 - thr / 65536)``, so the mask's mean is
    exactly 1 whatever the dtype.  ``ModelConfig`` keeps ``thr`` < 65536."""
    thr = round(p * 65536)
    if thr == 0:
        return None
    n = math.prod(shape)
    lanes = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False)
    keep = (lanes.view("<u2")[:n].reshape(shape) >= thr).astype(dtype)
    keep *= 1.0 / (1.0 - thr / 65536)
    return keep


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
