"""Kernel-level gradient checks against central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcl import tensor
from normcl.config import run_config_from_dict
from normcl.errors import ConfigError, ShapeError, TrainingDiverged
from normcl.optim import AdamState, adam_step, lr_schedule
from normcl.tensor import (
    Tensor,
    add,
    attention,
    concat,
    cross_entropy_with_log_softmax,
    dropout,
    embedding_lookup,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    residual_dropout,
    scale,
    tensor_slice,
    tensor_sum,
    transpose,
)

KERNEL_TOL = 1e-6
N_TRIALS = 20


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForwardContracts:
    def test_matmul_shape(self):
        rng = np.random.default_rng(0)
        out = matmul(_rand(rng, 2, 3), _rand(rng, 3, 4))
        assert out.shape == (2, 4)

    def test_matmul_shape_mismatch_reports_both_shapes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError) as exc:
            matmul(_rand(rng, 2, 3), _rand(rng, 4, 5))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
        # a 1-D operand on either side is refused before any backward
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.ones(3)), _rand(rng, 3, 2))
        assert "(3,)" in str(exc.value) and "(3, 2)" in str(exc.value)
        with pytest.raises(ShapeError):
            matmul(_rand(rng, 2, 3), Tensor(np.ones(3)))

    def test_attention_rows_sum_to_one(self):
        # with identity keys and values the output is the probabilities
        rng = np.random.default_rng(1)
        for trial in range(N_TRIALS):
            # up to |score| ~ 3e3, where exp overflows without the max shift
            spread = 10.0 ** (1 + trial % 3)
            s = _attention_probs(Tensor(rng.standard_normal((5, 9)) * spread))
            np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((6, 32)) * 3.0 + 1.5)
        out = layer_norm(x).data
        assert np.all(np.abs(out.mean(axis=-1)) <= 1e-10)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) <= 1e-8)

    def test_sum_of_squares_gradient(self):
        # d/dx sum(x*x) = 2x
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tensor_sum(mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_gradient_accumulation_two_heads(self):
        # Backward from two scalar heads must sum, by linearity.
        rng = np.random.default_rng(3)
        x = _rand(rng, 4)
        y = tensor_sum(mul(x, x))
        z = scale(tensor_sum(x), 3.0)
        y.backward()
        z.backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0, rtol=1e-12)

        # heads sharing an interior node: each pass propagates only its
        # own contribution through it, so x sees 2x*1 + 2x*3
        x = _rand(rng, 4)
        shared = mul(x, x)
        y = tensor_sum(shared)
        z = scale(tensor_sum(shared), 3.0)
        y.backward()
        z.backward()
        np.testing.assert_allclose(x.grad, 8.0 * x.data, rtol=1e-12)

    def test_add_leaves_parents_distinct_buffers(self):
        # add hands the same upstream gradient to both parents; each must
        # end up with a buffer of its own
        rng = np.random.default_rng(4)
        a, b = _rand(rng, 3, 5), _rand(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        tensor_sum(mul(add(a, b), Tensor(w))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, w)
        np.testing.assert_array_equal(b.grad, w)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, w)

    def test_caller_head_gradient_is_not_adopted(self):
        x = _rand(np.random.default_rng(5), 2, 3)
        head = np.ones((2, 3))
        x.backward(head)
        assert not np.shares_memory(x.grad, head)

    def test_embedding_lookup_out_of_range(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            embedding_lookup(table, np.array([0, 4]))

    def test_backward_on_nonscalar_requires_head(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            add(x, x).backward()


def _attention_probs(scores: Tensor) -> Tensor:
    """The (Tq, Tk) softmax of ``scores`` through one-head attention: the
    queries are the scores scaled by sqrt(Tk), the keys and values the
    identity, so the output is the probabilities."""
    tq, tk = scores.shape
    q = reshape(scale(scores, math.sqrt(tk)), (1, tq, tk))
    eye = Tensor(np.eye(tk)[None])
    return reshape(attention(q, eye, eye, None, 1), (tq, tk))


def _check_kernel(builder, shape_fn, seed):
    """``builder(rng, shape)`` against finite differences on random shapes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(N_TRIALS):
        shape = shape_fn(rng)
        x = Tensor(rng.standard_normal(shape))
        f = builder(rng, shape)
        worst = max(worst, grad_check(f, x))
    assert worst <= KERNEL_TOL, f"max relative error {worst}"


class TestKernelGradients:
    """Each kernel against the finite-difference oracle, random shapes."""

    def test_matmul(self):
        def build(rng, shape):
            other = rng.standard_normal((shape[-1], int(rng.integers(2, 5))))
            return lambda t: tensor_sum(matmul(t, Tensor(other)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 10)

    def test_matmul_batched(self):
        def build(rng, shape):
            other = rng.standard_normal((shape[-1], 3))
            return lambda t: tensor_sum(matmul(t, Tensor(other)))
        _check_kernel(build, lambda rng: (2, int(rng.integers(2, 4)), int(rng.integers(2, 4))), 11)

    def test_matmul_left_gradient(self):
        def build(rng, shape):
            left = rng.standard_normal((3, shape[0]))
            return lambda t: tensor_sum(matmul(Tensor(left), t))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 12)

    def test_add_broadcast(self):
        def build(rng, shape):
            other = rng.standard_normal(shape[-1])
            return lambda t: tensor_sum(add(t, Tensor(other)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 13)

    def test_mul_broadcast(self):
        def build(rng, shape):
            other = rng.standard_normal((shape[0], 1))
            return lambda t: tensor_sum(mul(t, Tensor(other)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 14)

    def test_scale(self):
        def build(rng, shape):
            k = float(rng.uniform(-2, 2))
            return lambda t: tensor_sum(scale(t, k))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 6)),), 15)

    def test_relu(self):
        def build(rng, shape):
            w = rng.standard_normal(shape)
            return lambda t: tensor_sum(mul(relu(t), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 16)

    def test_attention_softmax(self):
        def build(rng, shape):
            w = rng.standard_normal(shape)
            return lambda t: tensor_sum(mul(_attention_probs(t), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 6))), 17)

    def test_layer_norm(self):
        def build(rng, shape):
            w = rng.standard_normal(shape)
            return lambda t: tensor_sum(mul(layer_norm(t), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(4, 9))), 18)

    def test_transpose(self):
        def build(rng, shape):
            w = rng.standard_normal((shape[1], shape[0]))
            return lambda t: tensor_sum(mul(transpose(t), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 19)

    def test_reshape(self):
        def build(rng, shape):
            w = rng.standard_normal(shape[0] * shape[1])
            return lambda t: tensor_sum(mul(reshape(t, (shape[0] * shape[1],)), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 20)

    def test_concat(self):
        def build(rng, shape):
            other = rng.standard_normal(shape)
            return lambda t: tensor_sum(concat([t, Tensor(other, requires_grad=False)], axis=0))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 4)), int(rng.integers(2, 4))), 21)

    def test_slice(self):
        def build(rng, shape):
            return lambda t: tensor_sum(mul(tensor_slice(t, (slice(0, shape[0] - 1),)),
                                            tensor_slice(t, (slice(1, shape[0]),))))
        _check_kernel(build, lambda rng: (int(rng.integers(3, 6)), int(rng.integers(2, 4))), 22)

    def test_embedding_lookup(self):
        def build(rng, shape):
            ids = rng.integers(0, shape[0], size=(7,))
            w = rng.standard_normal((7, shape[1]))
            return lambda t: tensor_sum(mul(embedding_lookup(t, ids), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(3, 6)), int(rng.integers(2, 5))), 23)

    def test_cross_entropy(self):
        def build(rng, shape):
            targets = rng.integers(0, shape[1], size=(shape[0],))
            w = rng.standard_normal(shape[0])
            return lambda t: tensor_sum(mul(
                cross_entropy_with_log_softmax(t, targets), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(3, 7))), 24)

    def test_tensor_sum_axis(self):
        def build(rng, shape):
            w = rng.standard_normal(shape[0])
            return lambda t: tensor_sum(mul(tensor_sum(t, axis=1), Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 26)


def _unbroadcast_by_axis(g, shape):
    """The earlier reduction: one ``sum(axis=0)`` per leading axis."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _batched_matmul_grads(a, b, g):
    """Oracle: batched matmul backward followed by the per-axis sums."""
    grad_a = _unbroadcast_by_axis(g @ np.swapaxes(b, -1, -2), a.shape)
    grad_b = _unbroadcast_by_axis(np.swapaxes(a, -1, -2) @ g, b.shape)
    return grad_a, grad_b


def _assert_close_to_largest(actual, expected):
    # the flat path sums in another order, so float64 bits may differ
    assert actual.shape == expected.shape
    largest = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= 1e-12 * largest


class TestFlatMatmul:
    """The backward of ``linear``, ``(..., K) @ (K, N) + (N,)``, runs as
    2-D GEMMs over flattened rows."""

    @pytest.mark.parametrize("a_shape", [(4, 7, 5), (2, 3, 6, 5)])
    @pytest.mark.parametrize("grad_a,grad_b", [(True, False), (False, True),
                                               (True, True)])
    def test_matches_batched_oracle(self, a_shape, grad_a, grad_b):
        rng = np.random.default_rng(40)
        a = Tensor(rng.standard_normal(a_shape), requires_grad=grad_a)
        b = Tensor(rng.standard_normal((a_shape[-1], 3)), requires_grad=grad_b)
        bias = Tensor(rng.standard_normal(3))
        g = rng.standard_normal(a_shape[:-1] + (3,))
        out = linear(a, b, bias)
        _assert_close_to_largest(out.data, a.data @ b.data + bias.data)
        out.backward(g)
        oracle_a, oracle_b = _batched_matmul_grads(a.data, b.data, g)
        if grad_a:
            _assert_close_to_largest(a.grad, oracle_a)
        else:
            assert a.grad is None
        if grad_b:
            _assert_close_to_largest(b.grad, oracle_b)
        else:
            assert b.grad is None
        assert bias.grad is None

    def test_bias_add_matches_per_axis_oracle(self):
        rng = np.random.default_rng(41)
        x = _rand(rng, 4, 7, 3)
        bias = _rand(rng, 3)
        g = rng.standard_normal((4, 7, 3))
        linear(x, Tensor(np.eye(3)), bias).backward(g)
        _assert_close_to_largest(bias.grad, _unbroadcast_by_axis(g, (3,)))
        np.testing.assert_array_equal(x.grad, g)

    def test_left_gradient(self):
        def build(rng, shape):
            w = rng.standard_normal((shape[-1], int(rng.integers(2, 5))))
            bias = rng.standard_normal(w.shape[1])
            return lambda t: tensor_sum(mul(linear(t, Tensor(w), Tensor(bias)),
                                            Tensor(np.cos(np.arange(w.shape[1])))))
        _check_kernel(
            build, lambda rng: (2, int(rng.integers(2, 4)), int(rng.integers(2, 5))), 42)

    def test_right_gradient(self):
        def build(rng, shape):
            x = rng.standard_normal((2, 3, shape[0]))
            bias = Tensor(np.zeros(shape[1]))
            return lambda t: tensor_sum(mul(linear(Tensor(x), t, bias),
                                            Tensor(x[..., :1])))
        _check_kernel(
            build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 43)

    @pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)])
    def test_both_gradients(self, lead):
        # one flat vector feeds every operand, so grad_check sees the
        # input, weight and bias gradients of the same call at once
        _grad_check_operands(linear, [lead + (4,), (4, 3), (3,)], 44)

    def test_bias_add_gradient(self):
        def build(rng, shape):
            x = rng.standard_normal((2, 3, shape[0]))
            w = rng.standard_normal((2, 3, shape[0]))
            return lambda t: tensor_sum(mul(linear(Tensor(x), Tensor(np.eye(shape[0])), t),
                                            Tensor(w)))
        _check_kernel(build, lambda rng: (int(rng.integers(2, 6)),), 45)


def _grad_check_operands(f, shapes, seed):
    """grad_check of ``f(*operands)`` with every operand cut from one flat
    vector, so all operand gradients are checked at once."""
    bounds = np.cumsum([0] + [math.prod(s) for s in shapes])

    def loss(t):
        parts = [reshape(tensor_slice(t, (slice(lo, hi),)), shape)
                 for lo, hi, shape in zip(bounds[:-1], bounds[1:], shapes)]
        out = f(*parts)
        weights = np.cos(np.arange(out.size)).reshape(out.shape)
        return tensor_sum(mul(out, Tensor(weights)))

    x = Tensor(np.random.default_rng(seed).standard_normal(bounds[-1]))
    err = grad_check(loss, x)
    assert err <= KERNEL_TOL, f"max relative error {err}"


def _assert_matches_oracle(fused, oracle, shapes, seed):
    """``fused`` and ``oracle`` map leaves plus a generator to one output.
    Run on the same leaves and equally seeded generators, their outputs
    and every leaf gradient agree to 1e-12."""
    arrays = [np.random.default_rng(seed).standard_normal(s) for s in shapes]
    runs = []
    for fn in (fused, oracle):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*leaves, np.random.default_rng(seed + 1))
        out.backward(np.cos(np.arange(out.size)).reshape(out.shape))
        runs.append([out.data] + [leaf.grad for leaf in leaves])
    for got, want in zip(*runs):
        _assert_close_to_largest(got, want)


def _softmax(a: Tensor) -> Tensor:
    """The former softmax kernel over the last axis, kept as an oracle."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, requires_grad=a.requires_grad)
    if out.requires_grad:
        out._parents = (a,)

        def _bw(g):
            gs = g * s
            a._accumulate(gs - s * gs.sum(axis=-1, keepdims=True), fresh=True)

        out._backward = _bw
    return out


def _oracle_attention(q, k, v, mask, n_heads):
    """The chain of small kernels that ``attention`` fuses."""
    b, tq, d = q.shape
    dh = d // n_heads

    def heads(t):
        return transpose(reshape(t, (b, t.shape[1], n_heads, dh)), (0, 2, 1, 3))

    scores = scale(matmul(heads(q), transpose(heads(k), (0, 1, 3, 2))),
                   1.0 / math.sqrt(dh))
    if mask is not None:
        scores = add(scores, Tensor(mask))
    ctx = matmul(_softmax(scores), heads(v))
    return reshape(transpose(ctx, (0, 2, 1, 3)), (b, tq, d))


def _causal(t):
    return np.triu(np.full((t, t), -1e9), k=1)[None, None]


def _padding(b, tk):
    pad = np.zeros((b, tk))
    pad[1, tk - 2:] = -1e9
    return pad[:, None, None, :]


# (q, k and v shapes, mask, heads)
ATTENTION_CASES = {
    "causal_self": ([(2, 5, 8)] * 3, _causal(5), 2),
    "padded_cross": ([(2, 3, 8), (2, 6, 8), (2, 6, 8)], _padding(2, 6), 2),
    "one_query_row": ([(3, 1, 8), (3, 4, 8), (3, 4, 8)], None, 4),
}


class TestFusedKernels:
    """Each fused kernel against the composite it replaces, and against
    finite differences."""

    @pytest.mark.parametrize("x_shape", [(3, 5), (4, 7, 5), (3, 1, 5)])
    def test_linear_matches_add_matmul(self, x_shape):
        _assert_matches_oracle(
            lambda x, w, b, _rng: linear(x, w, b),
            lambda x, w, b, _rng: add(matmul(x, w), b),
            [x_shape, (5, 3), (3,)], 50)

    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (4, 1, 4)])
    def test_linear_gradients(self, x_shape):
        _grad_check_operands(linear, [x_shape, (4, 5), (5,)], 51)

    def test_linear_refuses_bad_shapes(self):
        rng = np.random.default_rng(52)
        with pytest.raises(ShapeError):
            linear(_rand(rng, 2, 3), _rand(rng, 4, 5), _rand(rng, 5))
        with pytest.raises(ShapeError):
            linear(_rand(rng, 2, 4), _rand(rng, 4, 5), _rand(rng, 4))

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_attention_matches_the_kernel_chain(self, case):
        shapes, mask, n_heads = ATTENTION_CASES[case]
        _assert_matches_oracle(
            lambda q, k, v, _rng: attention(q, k, v, mask, n_heads),
            lambda q, k, v, _rng: _oracle_attention(q, k, v, mask, n_heads),
            shapes, 53)

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_attention_gradients(self, case):
        shapes, mask, n_heads = ATTENTION_CASES[case]
        _grad_check_operands(
            lambda q, k, v: attention(q, k, v, mask, n_heads),
            shapes, 54)

    def test_attention_refuses_bad_shapes(self):
        rng = np.random.default_rng(56)
        q, k = _rand(rng, 2, 3, 8), _rand(rng, 2, 4, 8)
        with pytest.raises(ShapeError):
            attention(q, k, _rand(rng, 2, 5, 8), None, 2)
        with pytest.raises(ShapeError):
            attention(q, k, k, None, 3)
        with pytest.raises(ShapeError):
            attention(q, _rand(rng, 1, 4, 8), _rand(rng, 1, 4, 8), None, 2)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_residual_dropout_matches_add_dropout(self, p):
        _assert_matches_oracle(
            lambda x, y, rng: residual_dropout(x, y, p, rng),
            lambda x, y, rng: add(x, dropout(y, p, rng)),
            [(4, 6, 5), (4, 6, 5)], 57)

    @pytest.mark.parametrize("p", [0.0, 0.4])
    def test_residual_dropout_gradients(self, p):
        _grad_check_operands(
            lambda x, y: residual_dropout(x, y, p, np.random.default_rng(8)),
            [(3, 4), (3, 4)], 58)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


# masked scores, signed zeros and a few magnitudes; NaNs are placed apart
_SCORES = st.one_of(st.sampled_from([0.0, -0.0, -1e9, 1e9]),
                    st.floats(-1e4, 1e4, width=32))


@st.composite
def _score_rows(draw):
    """Rows of 1 to 34 attention scores, some fully masked and some
    holding a NaN."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_rows = draw(st.integers(1, 6))
    n_keys = draw(st.integers(1, 34))
    values = draw(st.lists(_SCORES, min_size=n_rows * n_keys,
                           max_size=n_rows * n_keys))
    a = np.array(values, dtype=dtype).reshape(n_rows, n_keys)
    masked = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    a[masked] = -1e9
    for row, col in draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                            st.integers(0, n_keys - 1)),
                                  max_size=2)):
        a[row, col] = np.nan
    return a


class TestRowMax:
    """``attention``'s row max is folded column by column."""

    @settings(max_examples=200, deadline=None)
    @given(a=_score_rows())
    def test_fold_equals_the_reduction(self, a):
        got = tensor._row_max(a)
        want = a.max(axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(a).any(axis=-1, keepdims=True))
        # bit for bit, except that numpy's vector reduction may return
        # either sign for a zero maximum
        zero = want == 0
        assert np.array_equal(got == 0, zero)
        assert np.array_equal(_bits(got)[~zero], _bits(want)[~zero])
        # the softmax subtracts the max and exponentiates, which hides
        # the sign of a zero
        assert np.array_equal(_bits(np.exp(a - got)), _bits(np.exp(a - want)))

    @pytest.mark.parametrize("tk", [13, 33, 64, 200])
    def test_attention_matches_the_kernel_chain_over_longer_rows(self, tk):
        _assert_matches_oracle(
            lambda q, k, v, _rng: attention(q, k, v, _padding(2, tk), 2),
            lambda q, k, v, _rng: _oracle_attention(q, k, v, _padding(2, tk), 2),
            [(2, 3, 8), (2, tk, 8), (2, tk, 8)], 60)


# signed zeros, masked-score magnitudes, infinities and NaN among
# ordinary values of several magnitudes
_TERMS = st.one_of(st.sampled_from([0.0, -0.0, 1e9, -1e9, math.inf, -math.inf,
                                    math.nan]),
                   st.floats(-1e6, 1e6, width=32))


@st.composite
def _sum_rows(draw):
    """Rows of 1 to 140 terms: numpy's three summation regimes (below 8,
    up to 128 and the halving above) and their edges."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_rows = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(1, 140), st.sampled_from([7, 8, 9, 128, 129])))
    if draw(st.booleans()):
        values = draw(st.lists(_TERMS, min_size=n_rows * n, max_size=n_rows * n))
        a = np.array(values, dtype=dtype)
    else:
        seed = draw(st.integers(0, 2 ** 32 - 1))
        a = np.random.default_rng(seed).standard_normal(n_rows * n).astype(dtype)
        a[: n_rows * n // 3] = -0.0
        np.random.default_rng(seed).shuffle(a)
    return a.reshape(n_rows, n)


class TestRowSum:
    """``attention``'s softmax sums are folded in numpy's order."""

    @settings(max_examples=300, deadline=None)
    @given(a=_sum_rows())
    def test_fold_equals_the_reduction(self, a):
        with np.errstate(invalid="ignore", over="ignore"):
            got = tensor._row_sum(a)
            want = a.sum(axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        # a NaN's sign bit depends on the order the compiler gave each
        # addition's operands, so NaNs are compared by position
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_length_over_random_rows(self, dtype):
        rng = np.random.default_rng(61)
        for n in range(1, 141):
            a = (rng.standard_normal((2, 3, 4, n))
                 * 10.0 ** rng.integers(-3, 6, size=n)).astype(dtype)
            assert np.array_equal(_bits(tensor._row_sum(a)),
                                  _bits(a.sum(axis=-1, keepdims=True))), n


def _oracle_layer_norm(x, g, eps=1e-12):
    """The ``np.mean`` formula ``layer_norm`` used before, forward and
    gradient, kept as an oracle."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    g_mean = g.mean(axis=-1, keepdims=True)
    gx_mean = (g * x_hat).mean(axis=-1, keepdims=True)
    return x_hat, inv_std * (g - g_mean - x_hat * gx_mean)


class TestLayerNormBits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64, 5, 64), (3, 7, 13), (2, 1), (4, 200)])
    def test_matches_the_mean_formula(self, dtype, shape):
        rng = np.random.default_rng(62)
        x = Tensor((rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype),
                   requires_grad=True)
        g = rng.standard_normal(shape).astype(dtype)
        out = layer_norm(x)
        out.backward(g)
        want_out, want_grad = _oracle_layer_norm(x.data, g)
        assert out.data.dtype == x.grad.dtype == dtype
        assert np.array_equal(_bits(out.data), _bits(want_out))
        assert np.array_equal(_bits(x.grad), _bits(want_grad))


def _rowwise_lookup(table, ids):
    """``embedding_lookup`` with a row-wise ``np.add.at`` backward."""
    out = Tensor(table.data[ids], requires_grad=True)
    out._parents = (table,)

    def _bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))

    out._backward = _bw
    return out


class TestEmbeddingBackwardBits:
    """``embedding_lookup``'s flat ``np.add.at`` against the row-wise call,
    with ids that repeat within and across rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["fresh", "held", "held_fortran", "tied"])
    def test_matches_rowwise_add_at(self, dtype, case):
        rng = np.random.default_rng(63)
        data = rng.standard_normal((11, 16)).astype(dtype)
        ids = rng.integers(0, 4, size=(6, 9))
        share = rng.standard_normal((11, 16)).astype(dtype)
        w = rng.standard_normal((54, 11 if case == "tied" else 16)).astype(dtype)
        grads = []
        for lookup in (embedding_lookup, _rowwise_lookup):
            table = Tensor(data, requires_grad=True)
            if case == "held":  # a gradient already accumulated elsewhere
                table.grad = share.copy()
            elif case == "held_fortran":
                table.grad = np.asfortranarray(share)
            x = reshape(lookup(table, ids), (54, 16))
            if case == "tied":  # an output projection sharing the table
                x = matmul(x, transpose(table))
            tensor_sum(mul(x, Tensor(w))).backward()
            grads.append(table.grad)
        assert grads[0].dtype == dtype
        assert np.array_equal(_bits(grads[0]), _bits(grads[1]))


class TestKeepMask:
    """Dropout keeps an entry when a 16-bit lane of the generator's raw
    words is at least ``thr = round(p * 65536)``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_keep_rate_and_scale(self, p, dtype):
        # 10^6 draws: the keep fraction within 4 sigma of 1 - thr / 65536,
        # and every kept entry exactly the scale in the mask's dtype
        q = 1.0 - round(p * 65536) / 65536
        keep = tensor._keep_mask((1000, 1000), dtype, p,
                                 np.random.default_rng(70))
        kept = keep != 0.0
        assert keep.dtype == dtype
        assert abs(kept.mean() - q) <= 4.0 * math.sqrt(q * (1.0 - q) / keep.size)
        assert np.all(keep[kept] == dtype(1.0 / q))

    def test_a_pure_function_of_the_generator_state(self):
        a, b = np.random.default_rng(72), np.random.default_rng(0)
        a.random(5)
        b.bit_generator.state = a.bit_generator.state
        assert np.array_equal(tensor._keep_mask((7, 9), np.float32, 0.3, a),
                              tensor._keep_mask((7, 9), np.float32, 0.3, b))

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 63, 64, 1001])
    def test_draws_one_word_per_four_entries(self, n):
        rng, oracle = np.random.default_rng(73), np.random.default_rng(73)
        tensor._keep_mask((n,), np.float32, 0.1, rng)
        oracle.bit_generator.random_raw(-(-n // 4))
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_same_mask_in_both_dtypes(self):
        masks = [tensor._keep_mask((13, 17), dtype, 0.25,
                                   np.random.default_rng(74))
                 for dtype in (np.float32, np.float64)]
        assert np.array_equal(masks[0] != 0, masks[1] != 0)

    @pytest.mark.parametrize("p", [0.0, 2.0 ** -18])
    def test_a_rate_that_rounds_to_zero_draws_nothing(self, p):
        rng = np.random.default_rng(75)
        before = rng.bit_generator.state
        assert tensor._keep_mask((5, 5), np.float32, p, rng) is None
        assert rng.bit_generator.state == before


def _every_kernel(rng):
    """One output of each kernel on fresh leaves that require grad."""
    a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
    seq = _rand(rng, 2, 3, 4)
    table = _rand(rng, 6, 3)
    return [
        matmul(a, b), linear(seq, b, tensor_slice(b, (0,))), add(a, a),
        mul(a, a), scale(a, 2.0), transpose(a), reshape(a, (4, 3)),
        concat([a, a], axis=0), tensor_slice(a, (0,)), relu(a),
        attention(seq, seq, seq, _causal(3), 2),
        layer_norm(a), embedding_lookup(table, [1, 5]),
        cross_entropy_with_log_softmax(a, np.array([0, 1, 3])),
        tensor_sum(a), dropout(a, 0.5, np.random.default_rng(0)),
        residual_dropout(a, a, 0.5, np.random.default_rng(0)),
    ]


class TestNoGrad:
    def test_no_kernel_records_a_graph(self):
        rng = np.random.default_rng(0)
        with no_grad():
            outs = _every_kernel(rng)
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None

    def test_values_match_the_recording_mode(self):
        plain = _every_kernel(np.random.default_rng(1))
        with no_grad():
            quiet = _every_kernel(np.random.default_rng(1))
        for p, q in zip(plain, quiet):
            assert p.requires_grad
            assert np.array_equal(p.data, q.data)

    def test_nesting_restores_the_outer_state(self):
        x = _rand(np.random.default_rng(2), 2, 2)
        with no_grad():
            with no_grad():
                pass
            assert not relu(x).requires_grad
        assert relu(x).requires_grad

    def test_exception_restores_the_mode(self):
        x = _rand(np.random.default_rng(3), 2, 2)
        with pytest.raises(ShapeError):
            with no_grad():
                matmul(x, _rand(np.random.default_rng(4), 3, 3))
        out = relu(x)
        assert out.requires_grad and out._parents == (x,)

    def test_gradients_outside_the_mode_are_unchanged(self):
        rng = np.random.default_rng(5)
        x, w, bias = _rand(rng, 2, 3, 4), _rand(rng, 4, 4), _rand(rng, 4)

        def loss():
            h = linear(layer_norm(x), w, bias)
            return tensor_sum(attention(h, h, h, None, 2))

        head = loss()
        head.backward()
        want = x.grad.copy(), w.grad.copy()
        x.grad = None
        w.grad = None
        pending = loss()
        with no_grad():
            loss()
        pending.backward()
        assert np.array_equal(x.grad, want[0])
        assert np.array_equal(w.grad, want[1])


class TestGradCheckOracles:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.standard_normal(8))
        assert grad_check(lambda t: tensor_sum(mul(t, t)), x) <= 1e-8

    def test_softmax_classifier(self):
        # One-layer softmax classifier: loss(W) for fixed inputs/labels.
        rng = np.random.default_rng(31)
        inputs = Tensor(rng.standard_normal((6, 5)))
        labels = rng.integers(0, 4, size=6)
        w = Tensor(rng.standard_normal((5, 4)))

        def loss(w_t):
            logits = matmul(inputs, w_t)
            return tensor_sum(cross_entropy_with_log_softmax(logits, labels))

        assert grad_check(loss, w) <= 1e-6

    def test_dropout_gradient_matches_mask(self):
        # Dropout is not finite-difference friendly (fresh mask per call),
        # so verify the backward against the captured mask directly.
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((40, 8)), requires_grad=True)
        out = dropout(x, 0.5, np.random.default_rng(7))
        mask = out.data / np.where(x.data != 0.0, x.data, 1.0)
        tensor_sum(out).backward()
        np.testing.assert_allclose(x.grad, mask, rtol=1e-12)


class TestAdam:
    def test_single_step_hand_values(self):
        # theta=0, g=1, lr=0.1, t=1: bias correction gives m_hat=v_hat=1,
        # so theta becomes -0.1 * 1/(1 + eps).
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.ones(3)
        state = AdamState({"p": p})
        adam_step({"p": p}, state, lr=0.1)
        np.testing.assert_allclose(p.data, -0.0999999999, rtol=1e-12)

    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.full(4, 2.5), requires_grad=True)
        p.grad = np.zeros(4)
        state = AdamState({"p": p})
        adam_step({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, np.full(4, 2.5))

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.standard_normal(6), requires_grad=True)
            state = AdamState({"p": p})
            for _ in range(3):
                p.grad = rng.standard_normal(6)
                adam_step({"p": p}, state, lr=0.01)
            return p.data

        np.testing.assert_array_equal(run(), run())

    def test_nan_gradient_aborts(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([np.nan, 0.0])
        state = AdamState({"p": p})
        with pytest.raises(TrainingDiverged):
            adam_step({"p": p}, state, lr=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_per_parameter_update(self, dtype):
        rng = np.random.default_rng(6)
        shapes = {"w": (3, 4), "b": (4,), "unused": (2, 2), "table": (5, 3)}

        def fresh():
            return {name: Tensor(np.random.default_rng(7).standard_normal(s)
                                 .astype(dtype), requires_grad=True)
                    for name, s in shapes.items()}

        flat_params, oracle_params = fresh(), fresh()
        state = AdamState(flat_params)
        m = {name: np.zeros_like(p.data) for name, p in oracle_params.items()}
        v = {name: np.zeros_like(p.data) for name, p in oracle_params.items()}
        for step in range(1, 6):
            lr = 1e-3 * step
            for name, s in shapes.items():
                # "unused" never gets a gradient buffer
                g = None if name == "unused" else rng.standard_normal(s).astype(dtype)
                flat_params[name].grad = g
                oracle_params[name].grad = None if g is None else g.copy()
            adam_step(flat_params, state, lr)
            _oracle_adam_step(oracle_params, m, v, step, lr)
        # the flat moments hold each parameter's in the order of params
        for got, want in [(flat_params[name].data, oracle_params[name].data)
                          for name in shapes] + \
                [(flat, np.concatenate([oracle[name].ravel() for name in shapes]))
                 for flat, oracle in ((state.flat_m, m), (state.flat_v, v))]:
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)
        assert state.step == 5

    def test_non_finite_gradient_names_the_parameter_and_updates_nothing(self):
        params = {name: Tensor(np.ones(3), requires_grad=True)
                  for name in ("first", "second")}
        params["first"].grad = np.ones(3)
        params["second"].grad = np.array([0.0, np.inf, 0.0])
        state = AdamState(params)
        with pytest.raises(TrainingDiverged, match="'second'"):
            adam_step(params, state, lr=0.1)
        for p in params.values():
            np.testing.assert_array_equal(p.data, np.ones(3))
        np.testing.assert_array_equal(state.flat_m, np.zeros(6))

    def test_mixed_dtypes_refused(self):
        params = {"a": Tensor(np.zeros(2, dtype=np.float32)),
                  "b": Tensor(np.zeros(2))}
        with pytest.raises(ConfigError):
            AdamState(params)


def _oracle_adam_step(params, m, v, step, lr, beta1=0.9, beta2=0.98, eps=1e-9):
    """The former per-parameter Adam update, kept as an oracle."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestLrSchedule:
    def test_peak_at_warmup(self):
        assert lr_schedule(4000, 4000, 3e-4) == 3e-4

    def test_linear_branch(self):
        assert lr_schedule(2000, 4000, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_sqrt_branch(self):
        assert lr_schedule(16000, 4000, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_invalid_args(self):
        # lr_schedule trusts warmup; OptimizerConfig refuses it at load
        with pytest.raises(ConfigError, match=r"optimizer\.warmup"):
            run_config_from_dict({"optimizer": {"warmup": 0}})
