"""Kernel-level gradient checks against central finite differences."""

import numpy as np
import pytest

from normcl.errors import ConfigError, ShapeError, TrainingDiverged
from normcl.optim import AdamState, adam_step, lr_schedule
from normcl.tensor import (
    Tensor,
    add,
    concat,
    cross_entropy_with_log_softmax,
    dropout,
    embedding_lookup,
    grad_check,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    softmax,
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

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(N_TRIALS):
            s = softmax(Tensor(rng.standard_normal((5, 9)) * 10.0))
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
        mul(x, x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_gradient_accumulation_two_heads(self):
        # Backward from two scalar heads must sum, by linearity.
        rng = np.random.default_rng(3)
        x = _rand(rng, 4)
        y = mul(x, x).sum()
        z = scale(x.sum(), 3.0)
        y.backward()
        z.backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0, rtol=1e-12)

        # heads sharing an interior node: each pass propagates only its
        # own contribution through it, so x sees 2x*1 + 2x*3
        x = _rand(rng, 4)
        shared = mul(x, x)
        y = shared.sum()
        z = scale(shared.sum(), 3.0)
        y.backward()
        z.backward()
        np.testing.assert_allclose(x.grad, 8.0 * x.data, rtol=1e-12)

    def test_add_leaves_parents_distinct_buffers(self):
        # add hands the same upstream gradient to both parents; each must
        # end up with a buffer of its own
        rng = np.random.default_rng(4)
        a, b = _rand(rng, 3, 5), _rand(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        mul(add(a, b), Tensor(w)).sum().backward()
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
            return lambda t: matmul(t, Tensor(other)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 10)

    def test_matmul_batched(self):
        def build(rng, shape):
            other = rng.standard_normal((shape[-1], 3))
            return lambda t: matmul(t, Tensor(other)).sum()
        _check_kernel(build, lambda rng: (2, int(rng.integers(2, 4)), int(rng.integers(2, 4))), 11)

    def test_matmul_left_gradient(self):
        def build(rng, shape):
            left = rng.standard_normal((3, shape[0]))
            return lambda t: matmul(Tensor(left), t).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 12)

    def test_add_broadcast(self):
        def build(rng, shape):
            other = rng.standard_normal(shape[-1])
            return lambda t: add(t, Tensor(other)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 13)

    def test_mul_broadcast(self):
        def build(rng, shape):
            other = rng.standard_normal((shape[0], 1))
            return lambda t: mul(t, Tensor(other)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 14)

    def test_scale(self):
        def build(rng, shape):
            k = float(rng.uniform(-2, 2))
            return lambda t: scale(t, k).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 6)),), 15)

    def test_relu(self):
        def build(rng, shape):
            w = rng.standard_normal(shape)
            return lambda t: mul(relu(t), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 16)

    def test_softmax(self):
        def build(rng, shape):
            w = rng.standard_normal(shape)
            return lambda t: mul(softmax(t), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 6))), 17)

    def test_layer_norm(self):
        def build(rng, shape):
            w = rng.standard_normal(shape)
            return lambda t: mul(layer_norm(t), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(4, 9))), 18)

    def test_transpose(self):
        def build(rng, shape):
            w = rng.standard_normal((shape[1], shape[0]))
            return lambda t: mul(transpose(t), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 19)

    def test_reshape(self):
        def build(rng, shape):
            w = rng.standard_normal(shape[0] * shape[1])
            return lambda t: mul(reshape(t, (shape[0] * shape[1],)), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 20)

    def test_concat(self):
        def build(rng, shape):
            other = rng.standard_normal(shape)
            return lambda t: concat([t, Tensor(other, requires_grad=False)], axis=0).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 4)), int(rng.integers(2, 4))), 21)

    def test_slice(self):
        def build(rng, shape):
            return lambda t: mul(tensor_slice(t, (slice(0, shape[0] - 1),)),
                                 tensor_slice(t, (slice(1, shape[0]),))).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(3, 6)), int(rng.integers(2, 4))), 22)

    def test_embedding_lookup(self):
        def build(rng, shape):
            ids = rng.integers(0, shape[0], size=(7,))
            w = rng.standard_normal((7, shape[1]))
            return lambda t: mul(embedding_lookup(t, ids), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(3, 6)), int(rng.integers(2, 5))), 23)

    def test_cross_entropy(self):
        def build(rng, shape):
            targets = rng.integers(0, shape[1], size=(shape[0],))
            w = rng.standard_normal(shape[0])
            return lambda t: mul(
                cross_entropy_with_log_softmax(t, targets), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(3, 7))), 24)

    def test_cross_entropy_label_smoothing(self):
        def build(rng, shape):
            targets = rng.integers(0, shape[1], size=(shape[0],))
            return lambda t: cross_entropy_with_log_softmax(
                t, targets, label_smoothing=0.1).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(3, 7))), 25)

    def test_tensor_sum_axis(self):
        def build(rng, shape):
            w = rng.standard_normal(shape[0])
            return lambda t: mul(tensor_sum(t, axis=1), Tensor(w)).sum()
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
    """The backward of ``(..., K) @ (K, N)`` runs as 2-D GEMMs over rows."""

    @pytest.mark.parametrize("a_shape", [(4, 7, 5), (2, 3, 6, 5)])
    @pytest.mark.parametrize("grad_a,grad_b", [(True, False), (False, True),
                                               (True, True)])
    def test_matches_batched_oracle(self, a_shape, grad_a, grad_b):
        rng = np.random.default_rng(40)
        a = Tensor(rng.standard_normal(a_shape), requires_grad=grad_a)
        b = Tensor(rng.standard_normal((a_shape[-1], 3)), requires_grad=grad_b)
        g = rng.standard_normal(a_shape[:-1] + (3,))
        out = matmul(a, b)
        _assert_close_to_largest(out.data, a.data @ b.data)
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

    def test_bias_add_matches_per_axis_oracle(self):
        rng = np.random.default_rng(41)
        x = _rand(rng, 4, 7, 3)
        bias = _rand(rng, 3)
        g = rng.standard_normal((4, 7, 3))
        add(x, bias).backward(g)
        _assert_close_to_largest(bias.grad, _unbroadcast_by_axis(g, (3,)))
        np.testing.assert_array_equal(x.grad, g)

    def test_left_gradient(self):
        def build(rng, shape):
            w = rng.standard_normal((shape[-1], int(rng.integers(2, 5))))
            return lambda t: mul(matmul(t, Tensor(w)),
                                 Tensor(np.cos(np.arange(w.shape[1])))).sum()
        _check_kernel(
            build, lambda rng: (2, int(rng.integers(2, 4)), int(rng.integers(2, 5))), 42)

    def test_right_gradient(self):
        def build(rng, shape):
            x = rng.standard_normal((2, 3, shape[0]))
            return lambda t: mul(matmul(Tensor(x), t), Tensor(x[..., :1])).sum()
        _check_kernel(
            build, lambda rng: (int(rng.integers(2, 5)), int(rng.integers(2, 5))), 43)

    @pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)])
    def test_both_gradients(self, lead):
        # one flat vector feeds both operands, so grad_check sees the
        # left and right gradients of the same matmul at once
        k, n = 4, 3
        n_left = int(np.prod(lead)) * k

        def f(t):
            left = reshape(tensor_slice(t, (slice(0, n_left),)), lead + (k,))
            right = reshape(tensor_slice(t, (slice(n_left, None),)), (k, n))
            return mul(matmul(left, right), Tensor(np.arange(n) - 1.0)).sum()

        rng = np.random.default_rng(44)
        x = Tensor(rng.standard_normal(n_left + k * n))
        assert grad_check(f, x) <= KERNEL_TOL

    def test_bias_add_gradient(self):
        def build(rng, shape):
            x = rng.standard_normal((2, 3, shape[0]))
            w = rng.standard_normal((2, 3, shape[0]))
            return lambda t: mul(add(Tensor(x), t), Tensor(w)).sum()
        _check_kernel(build, lambda rng: (int(rng.integers(2, 6)),), 45)


class TestGradCheckOracles:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.standard_normal(8))
        assert grad_check(lambda t: mul(t, t).sum(), x) <= 1e-8

    def test_softmax_classifier(self):
        # One-layer softmax classifier: loss(W) for fixed inputs/labels.
        rng = np.random.default_rng(31)
        inputs = Tensor(rng.standard_normal((6, 5)))
        labels = rng.integers(0, 4, size=6)
        w = Tensor(rng.standard_normal((5, 4)))

        def loss(w_t):
            logits = matmul(inputs, w_t)
            return cross_entropy_with_log_softmax(logits, labels).sum()

        assert grad_check(loss, w) <= 1e-6

    def test_dropout_gradient_matches_mask(self):
        # Dropout is not finite-difference friendly (fresh mask per call),
        # so verify the backward against the captured mask directly.
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((40, 8)), requires_grad=True)
        out = dropout(x, 0.5, np.random.default_rng(7))
        mask = out.data / np.where(x.data != 0.0, x.data, 1.0)
        out.sum().backward()
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


class TestLrSchedule:
    def test_peak_at_warmup(self):
        assert lr_schedule(4000, 4000, 3e-4) == 3e-4

    def test_linear_branch(self):
        assert lr_schedule(2000, 4000, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_sqrt_branch(self):
        assert lr_schedule(16000, 4000, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            lr_schedule(0, 100, 1e-3)
        with pytest.raises(ConfigError):
            lr_schedule(5, 0, 1e-3)
