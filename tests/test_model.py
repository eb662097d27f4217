"""Transformer forward/loss/gradient and checkpoint contracts."""

import inspect
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from normcl import model as model_module
from normcl import tensor
from normcl import trainer as trainer_module
from corpus_oracle import corpus_of
from normcl.corpus import BOS_ID, EOS_ID, PAD_ID
from normcl.errors import CheckpointError, ConfigError, DataError, TrainingDiverged
from normcl.model import EncodedBatch, ModelConfig, Transformer, build_batch
from normcl.optim import AdamState
from normcl.tensor import (
    Tensor, cross_entropy_with_log_softmax, grad_check, mul, no_grad, reshape,
    scale, tensor_sum,
)
from normcl.trainer import (
    FORMAT_VERSION, TrainerState, load_checkpoint, save_checkpoint,
    token_accuracy, train_step,
)

MICRO = ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16,
                    dropout=0.0, seed=3)
# the exact oracles (grad checks, 1e-10 loss identities) run in float64
MICRO64 = replace(MICRO, dtype="float64")
SMALL = ModelConfig(d_model=32, n_heads=4, n_layers=2, d_ff=64,
                    dropout=0.0, seed=0)


def _pairs(n, rng, lo=4, hi=12, max_len=6):
    out = []
    for i in range(n):
        k = int(rng.integers(1, max_len))
        toks = tuple(int(t) for t in rng.integers(lo, hi, size=k))
        out.append((toks, toks))
    return corpus_of(out)


def _batch(corpus):
    """Every pair of ``corpus``, in order, as one batch."""
    return build_batch(corpus, np.arange(len(corpus)))


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.d_ff) == (64, 4, 2, 128)
        assert cfg.dropout == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"d_model": 0}, {"d_model": 30, "n_heads": 4}, {"dropout": 1.0},
        {"dropout": 1.0 - 2.0 ** -17},
        {"n_layers": 0}, {"d_ff": 0}, {"dtype": "float16"},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize("rate", [2.0 ** -18, 1.0 - 2.0 ** -16])
    def test_rates_that_round_inside_the_16_bit_range_accepted(self, rate):
        # masks keep a 16-bit draw of at least round(dropout * 65536)
        assert ModelConfig(dropout=rate).dropout == rate


class TestBatchBuilding:
    def test_layout(self):
        batch = _batch(corpus_of([((5, 6), (7,)), ((8,), (9, 10, 11))]))
        assert batch.src[0].tolist() == [5, 6, EOS_ID]
        assert batch.src[1].tolist() == [8, EOS_ID, PAD_ID]
        assert batch.tgt_in[0].tolist() == [BOS_ID, 7, PAD_ID, PAD_ID]
        assert batch.tgt_out[0].tolist() == [7, EOS_ID, PAD_ID, PAD_ID]
        assert batch.tgt_in[1].tolist() == [BOS_ID, 9, 10, 11]
        assert batch.tgt_out[1].tolist() == [9, 10, 11, EOS_ID]
        assert batch.loss_mask[0].tolist() == [1, 1, 0, 0]
        assert batch.tgt_lens.tolist() == [2, 4]
        # padding keys are masked off with a large negative constant
        assert batch.src_mask[1, 0, 0].tolist() == [0.0, 0.0, -1e9]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_batch(_pairs(2, np.random.default_rng(0)), [])


class TestForward:
    def test_logit_shape(self):
        model = Transformer(MICRO, 12, 12)
        batch = _batch(_pairs(3, np.random.default_rng(0)))
        logits = model.forward(batch)
        assert logits.shape == (3, batch.tgt_in.shape[1], 12)

    def test_same_seed_same_output(self):
        batch = _batch(_pairs(2, np.random.default_rng(1)))
        a = Transformer(MICRO, 12, 12).forward(batch)
        b = Transformer(MICRO, 12, 12).forward(batch)
        assert np.array_equal(a.data, b.data)


class TestLoss:
    def _setup(self, n=3, seed=2, cfg=MICRO):
        rng = np.random.default_rng(seed)
        model = Transformer(cfg, 12, 12)
        return model, _batch(_pairs(n, rng))

    def test_unit_weights_equal_per_token_cross_entropy(self):
        model, batch = self._setup()
        loss, per_sent = model.forward_loss(batch)
        logits = model.forward(batch).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        b, t = batch.tgt_out.shape
        picked = logp[np.arange(b)[:, None], np.arange(t)[None, :], batch.tgt_out]
        want = -(picked * batch.loss_mask).sum() / batch.loss_mask.sum()
        assert loss.item() == pytest.approx(want, rel=1e-12)
        assert per_sent.shape == (b,)
        assert per_sent[0] == pytest.approx(-(picked[0] * batch.loss_mask[0]).sum())

    def test_weight_scale_invariance(self):
        model, batch = self._setup()
        w = np.array([0.5, 1.5, 2.0])
        a, _ = model.forward_loss(batch, w)
        b, _ = model.forward_loss(batch, 2.0 * w)
        assert a.item() == pytest.approx(b.item(), rel=1e-14)

    def test_near_zero_weight_approaches_single_sentence_loss(self):
        model, batch = self._setup(n=2)
        both, _ = model.forward_loss(batch, np.array([1.0, 1e-6]))
        single, _ = model.forward_loss(_batch(corpus_of([
            (tuple(batch.src[0, :batch.src[0].tolist().index(EOS_ID)]),
             tuple(batch.tgt_out[0, :batch.tgt_lens[0] - 1])),
        ])))
        assert abs(both.item() - single.item()) < 1e-3

    def test_padding_append_leaves_loss_unchanged(self):
        model, batch = self._setup(cfg=MICRO64)
        loss, _ = model.forward_loss(batch)
        extra_s, extra_t = 3, 2
        b = batch.src.shape[0]
        wide = EncodedBatch(
            ids=batch.ids,
            src=np.hstack([batch.src, np.full((b, extra_s), PAD_ID)]),
            tgt_in=np.hstack([batch.tgt_in, np.full((b, extra_t), PAD_ID)]),
            tgt_out=np.hstack([batch.tgt_out, np.full((b, extra_t), PAD_ID)]),
            src_mask=np.concatenate(
                [batch.src_mask, np.full((b, 1, 1, extra_s), -1e9)], axis=3),
            loss_mask=np.hstack([batch.loss_mask, np.zeros((b, extra_t))]),
            tgt_lens=batch.tgt_lens,
        )
        loss_wide, _ = model.forward_loss(wide)
        assert abs(loss.item() - loss_wide.item()) < 1e-10

    def test_bad_weights_rejected(self):
        model, batch = self._setup()
        with pytest.raises(ConfigError):
            model.forward_loss(batch, np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            model.forward_loss(batch, np.array([1.0, 0.0, 1.0]))


class TestTiedEmbeddings:
    def test_output_table_is_target_embedding(self):
        # the forward oracle in TestArchitecture checks the projection
        # against tgt_embed, and the next test its gradient
        model = Transformer(MICRO, 12, 12)
        assert "out_proj" not in model.params

    def test_gradient_reaches_rows_unused_as_inputs(self):
        # token 11 never appears in the batch, so the only gradient
        # path to its embedding row is the softmax projection; tying
        # must route that gradient into tgt_embed
        model = Transformer(MICRO, 12, 12)
        batch = _batch(corpus_of([((4, 5), (6, 7))]))
        loss, _ = model.forward_loss(batch)
        model.zero_grad()
        loss.backward()
        grad_row = model.params["tgt_embed"].grad[11]
        assert np.abs(grad_row).max() > 0

    def test_parameter_gradients_own_their_buffers(self):
        # backward adopts kernel results as gradient buffers; a buffer
        # shared by two parameters would mix their Adam updates
        model = Transformer(SMALL, 14, 14)
        batch = _batch(_pairs(6, np.random.default_rng(8), hi=14))
        model.forward_loss(batch)[0].backward()
        grads = [(name, p.grad) for name, p in model.params.items()]
        assert all(g is not None for _, g in grads)
        for i, (name_a, grad_a) in enumerate(grads):
            for name_b, grad_b in grads[i + 1:]:
                assert not np.shares_memory(grad_a, grad_b), (name_a, name_b)


def _reference_logits(model, batch):
    """The architecture in plain NumPy: pre-norm residual blocks, a final
    layer norm on each stack, and logits projected against tgt_embed."""
    P = {name: p.data for name, p in model.params.items()}
    heads = model.config.n_heads

    def ln(x):
        c = x - x.mean(-1, keepdims=True)
        return c / np.sqrt((c * c).mean(-1, keepdims=True) + 1e-12)

    def lin(name, x):
        return x @ P[name + ".w"] + P[name + ".b"]

    def attn(name, x, mem, mask):
        b, t, d = x.shape

        def split(y):
            return y.reshape(b, -1, heads, d // heads).transpose(0, 2, 1, 3)

        q, k, v = (split(lin(name + part, y)) for part, y in
                   ((".wq", x), (".wk", mem), (".wv", mem)))
        s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d // heads) + mask
        w = np.exp(s - s.max(-1, keepdims=True))
        w /= w.sum(-1, keepdims=True)
        return lin(name + ".wo", (w @ v).transpose(0, 2, 1, 3).reshape(b, t, d))

    def ff(name, x):
        return lin(name + ".ff2", np.maximum(lin(name + ".ff1", x), 0.0))

    def pe(t):
        return model_module._positional_encoding(0, t, model.config.d_model,
                                                 model.dtype)

    x = P["src_embed"][batch.src] + pe(batch.src.shape[1])
    for l in range(model.config.n_layers):
        x = x + attn(f"enc{l}.self", ln(x), ln(x), batch.src_mask)
        x = x + ff(f"enc{l}", ln(x))
    memory = ln(x)
    t = batch.tgt_in.shape[1]
    causal = np.triu(np.full((t, t), -1e9), k=1)
    y = P["tgt_embed"][batch.tgt_in] + pe(t)
    for l in range(model.config.n_layers):
        y = y + attn(f"dec{l}.self", ln(y), ln(y), causal)
        y = y + attn(f"dec{l}.cross", ln(y), memory, batch.src_mask)
        y = y + ff(f"dec{l}", ln(y))
    return ln(y) @ P["tgt_embed"].T


class TestArchitecture:
    def test_forward_matches_a_plain_numpy_transformer(self):
        model = Transformer(replace(MICRO64, n_layers=2), 12, 12)
        rng = np.random.default_rng(5)
        for p in model.params.values():
            p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
        batch = _batch(corpus_of([((4, 5, 6, 7), (8, 9)),
                                  ((10,), (4, 11, 6, 5))]))
        np.testing.assert_allclose(model.forward(batch).data,
                                   _reference_logits(model, batch),
                                   rtol=0, atol=1e-12)


class TestGradients:
    def test_full_model_grad_check_key_parameters(self):
        model = Transformer(MICRO64, 10, 10)
        batch = _batch(corpus_of([((4, 5, 6), (5, 4)), ((7,), (8, 9, 6))]))
        names = ["src_embed", "tgt_embed", "enc0.self.wq.w", "dec0.cross.wv.w",
                 "dec0.ff1.w", "enc0.ff2.b", "dec0.self.wo.b"]
        for name in names:
            original = model.params[name]

            def f(t, name=name):
                model.params[name] = t
                loss, _ = model.forward_loss(batch)
                return loss

            # h=1e-4: through the whole model some parameter gradients are
            # small enough that 1e-5 steps sit in the roundoff regime
            err = grad_check(f, original, h=1e-4)
            model.params[name] = original
            model.zero_grad()
            assert err <= 1e-5, f"{name}: {err}"


def _hook_model_kernels(monkeypatch) -> list[str]:
    """Hook every kernel ``model.py`` imports from ``tensor.__all__`` (the
    rule the benchmark counts by); returns the list each call appends its
    kernel's name to."""
    calls = []
    kernels = set(tensor.__all__) - {"Tensor", "grad_check"}
    for name, fn in list(vars(model_module).items()):
        if name in kernels and inspect.isfunction(fn):
            def hooked(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(model_module, name, hooked)
    return calls


def _acceptance_step():
    """A fresh default model and one 64-sentence batch of up to four
    target tokens: the benchmark's train-norm step shapes."""
    model = Transformer(ModelConfig(), 200, 200)
    state = TrainerState(model=model, adam=AdamState(model.params))
    state.capture_anchor()
    batch = _batch(_pairs(64, np.random.default_rng(12), hi=200,
                               max_len=5))
    return state, batch


class TestKernelCount:
    def test_train_step_runs_at_most_126_forward_kernels(self, monkeypatch):
        """The fused kernels keep a train step at the acceptance shapes
        to at most 126 forward kernel calls, 40% under the 210 that the
        same step needs with the composites ``test_tensor.py`` keeps as
        oracles."""
        state, batch = _acceptance_step()
        calls = _hook_model_kernels(monkeypatch)
        train_step(state, batch, None, lr=1e-3)
        assert "attention" in calls and "linear" in calls
        assert len(calls) <= 126

    def test_train_step_drops_out_sublayer_outputs_and_embeddings(self, monkeypatch):
        """A 2+2-layer step draws twelve keep masks: the ten sub-layer
        outputs and the two embedding sums, all (B, T, d_model); no
        attention probabilities and no feed-forward inner layer."""
        state, batch = _acceptance_step()
        shapes = []
        keep_mask = tensor._keep_mask

        def recording(shape, *args):
            shapes.append(shape)
            return keep_mask(shape, *args)

        monkeypatch.setattr(tensor, "_keep_mask", recording)
        train_step(state, batch, None, lr=1e-3)
        assert len(shapes) == 12
        assert all(len(s) == 3 and s[-1] == state.model.config.d_model
                   for s in shapes)


class TestComputeDtype:
    def test_float32_step_reduces_only_the_loss_in_float64(self, monkeypatch):
        """One train step at the acceptance shapes: every tensor the step
        creates is float32 up to the per-position NLL, and only the loss
        tail after it (mask, weights, weighted sum, scaled loss) is
        float64.  Creation is hooked, so a float64 constant that creeps
        into the model fails here."""
        state, batch = _acceptance_step()
        model = state.model
        assert model.config.dtype == "float32"
        calls = _hook_model_kernels(monkeypatch)
        created = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        train_step(state, batch, None, lr=1e-3)
        monkeypatch.undo()

        positions = batch.tgt_out.size
        nll = next(i for i, t in enumerate(created) if t.shape == (positions,))
        body, tail = created[:nll + 1], created[nll + 1:]
        # every kernel call up to the NLL made at least one of them
        assert len(body) >= calls.index("cross_entropy_with_log_softmax") + 1
        assert all(t.data.dtype == np.float32 for t in body)
        assert tail and tail[-1].shape == ()
        assert all(t.data.dtype == np.float64 for t in tail)
        assert all(t.shape in ((positions,), ()) for t in tail)
        for name, p in model.params.items():
            assert p.data.dtype == np.float32, name
            assert p.grad.dtype == np.float32, name
        assert state.adam.flat_m.dtype == np.float32
        assert state.adam.flat_v.dtype == np.float32


class TestTrainStep:
    def _state(self, cfg=SMALL, vocab=16):
        model = Transformer(cfg, vocab, vocab)
        state = TrainerState(model=model, adam=AdamState(model.params))
        state.capture_anchor()
        return state

    def test_metrics_and_counter(self):
        state = self._state()
        batch = _batch(_pairs(4, np.random.default_rng(3), hi=16))
        metrics = train_step(state, batch, None, lr=1e-3)
        assert state.step == 1
        assert metrics["m_t"] > 0 and np.isfinite(metrics["m_t"])
        assert np.isfinite(metrics["loss"])
        assert metrics["nll"].shape == (4,)

    def test_determinism(self):
        r1, r2 = [], []
        for out in (r1, r2):
            state = self._state()
            rng = np.random.default_rng(4)
            for step in range(5):
                batch = _batch(_pairs(3, rng, hi=16))
                out.append(train_step(state, batch, None, 1e-3)["loss"])
        assert r1 == r2

    def test_float64_step_matches_the_masked_then_weighted_loss(self, monkeypatch):
        """The NLL feeds the weighted ``mul`` directly, because the
        position weights already hold the loss mask.  Against the form
        that first masks the NLL, then weights it, a float64 step with
        dropout and uneven weights gives the same loss, per-sentence NLL
        and gradients, bit for bit."""
        def masked_then_weighted(self, batch, weights, train):
            b, tt = batch.tgt_out.shape
            weights = np.asarray(weights, dtype=np.float64)
            flat = reshape(self.forward(batch, train), (b * tt, self.tgt_vocab_size))
            nll = cross_entropy_with_log_softmax(flat, batch.tgt_out.reshape(-1))
            masked = mul(nll, Tensor(batch.loss_mask.reshape(-1)))
            pos_weight = (weights[:, None] * batch.loss_mask).reshape(-1)
            weighted = tensor_sum(mul(masked, Tensor(pos_weight)))
            denom = float((weights * batch.tgt_lens).sum())
            return (scale(weighted, 1.0 / denom),
                    masked.data.reshape(b, tt).sum(axis=1))

        runs = []
        for forward_loss in (Transformer.forward_loss, masked_then_weighted):
            monkeypatch.setattr(Transformer, "forward_loss", forward_loss)
            state = self._state(cfg=replace(SMALL, dropout=0.1, dtype="float64"))
            rng = np.random.default_rng(13)
            steps = []
            for _ in range(3):
                batch = _batch(_pairs(4, rng, hi=16))
                metrics = train_step(state, batch, [0.5, 1.25, 2.0, 0.75], 1e-3)
                steps.append((metrics["loss"], metrics["nll"],
                              {n: p.grad.copy() for n, p in state.model.params.items()}))
            runs.append(steps)
        for (loss, nll, grads), (want_loss, want_nll, want_grads) in zip(*runs):
            assert loss == want_loss
            assert nll.dtype == want_nll.dtype == np.float64
            assert np.array_equal(nll, want_nll)
            for name, g in grads.items():
                assert g.dtype == np.float64, name
                assert np.array_equal(g, want_grads[name]), name

    def test_copy_task_loss_decreases(self):
        # 50-pair copy task, 200 steps
        rng = np.random.default_rng(5)
        pairs = _pairs(50, rng, hi=16)
        state = self._state()
        losses = []
        order = np.random.default_rng(6)
        for step in range(200):
            take = order.choice(50, size=8, replace=False)
            batch = build_batch(pairs, take)
            losses.append(train_step(state, batch, None, 3e-3)["loss"])
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self):
        state = self._state()
        state.model.params["src_embed"].data[4, 0] = np.inf
        batch = _batch(_pairs(2, np.random.default_rng(7), hi=16))
        with pytest.raises(TrainingDiverged) as info:
            train_step(state, batch, None, 1e-3)
        assert info.value.step == 1
        assert info.value.batch_ids == [0, 1]

    def test_token_accuracy_bounds(self):
        state = self._state()
        pairs = _pairs(10, np.random.default_rng(8), hi=16)
        acc = token_accuracy(state.model, pairs)
        assert 0.0 <= acc <= 1.0

    def test_token_accuracy_is_bit_identical_to_a_recording_forward(self):
        state = self._state()
        pairs = _pairs(150, np.random.default_rng(10), hi=16)
        correct = total = 0
        for lo in range(0, len(pairs), 64):
            batch = build_batch(pairs, np.arange(lo, min(lo + 64, len(pairs))))
            logits = state.model.forward(batch)
            assert logits.requires_grad
            with no_grad():
                quiet = state.model.forward(batch)
            assert not quiet.requires_grad and quiet._parents == ()
            assert np.array_equal(logits.data, quiet.data)
            hits = (logits.data.argmax(axis=-1) == batch.tgt_out) * batch.loss_mask
            correct += int(hits.sum())
            total += int(batch.loss_mask.sum())
        assert token_accuracy(state.model, pairs) == correct / total

    def test_token_accuracy_batches_pairs_by_length(self, monkeypatch):
        """150 pairs with targets of 1 to 16 tokens: length-sorted batches
        of 64 compute 1,718 target positions for 1,308 real ones, where
        batches in index order would compute 2,550."""
        pairs = _pairs(150, np.random.default_rng(11), hi=16, max_len=17)
        assert set(pairs.tgt_lengths.tolist()) == set(range(1, 17))
        built = []

        def recording(corpus, ids):
            built.append(build_batch(corpus, ids))
            return built[-1]

        monkeypatch.setattr(trainer_module, "build_batch", recording)
        token_accuracy(self._state().model, pairs)
        assert [len(b.ids) for b in built] == [64, 64, 22]
        assert sorted(np.concatenate([b.ids for b in built]).tolist()) \
            == list(range(150))
        assert sum(int(b.loss_mask.sum()) for b in built) == 1308
        assert sum(b.tgt_out.size for b in built) == 1718
        in_order = [build_batch(pairs, np.arange(lo, min(lo + 64, 150)))
                    for lo in range(0, 150, 64)]
        assert sum(b.tgt_out.size for b in in_order) == 2550


class TestCheckpoint:
    def _trained_state(self, steps=3, cfg=SMALL):
        model = Transformer(cfg, 16, 16)
        state = TrainerState(model=model, adam=AdamState(model.params),
                             config_hash="demo")
        state.capture_anchor()
        rng = np.random.default_rng(9)
        for step in range(steps):
            batch = _batch(_pairs(3, rng, hi=16))
            train_step(state, batch, None, 1e-3)
        return state

    def test_round_trip_bit_identical_logits_and_anchor(self, tmp_path):
        state = self._trained_state()
        state.sampler_rng = np.random.default_rng(4).bit_generator.state
        state.evals = [{"step": 3, "token_accuracy": 0.5, "loss": 1.25}]
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        batch = _batch(_pairs(2, np.random.default_rng(10), hi=16))
        a = state.model.forward(batch).data
        b = back.model.forward(batch).data
        assert np.array_equal(a, b)
        assert back.schedule == state.schedule
        assert back.step == state.step
        assert back.adam.step == state.adam.step
        assert back.config_hash == "demo"
        assert back.sampler_rng == state.sampler_rng
        assert back.evals == state.evals

    def test_adam_moments_survive(self, tmp_path):
        state = self._trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.adam.flat_m, state.adam.flat_m)
        assert np.array_equal(back.adam.flat_v, state.adam.flat_v)

    def test_loaded_moments_drive_the_next_step(self, tmp_path):
        state = self._trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        batch = _batch(_pairs(3, np.random.default_rng(12), hi=16))
        for s in (state, back):
            train_step(s, batch, None, 1e-3)
        for name, p in state.model.params.items():
            assert np.array_equal(back.model.params[name].data, p.data), name
        assert np.array_equal(back.adam.flat_v, state.adam.flat_v)

    def test_wrong_shape_moment_rejected(self, tmp_path):
        state = self._trained_state(steps=1)
        size = state.adam.flat_m.size
        state.adam.flat_m = state.adam.flat_m[:-3]
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        need = 3 * size * 4
        with pytest.raises(CheckpointError, match=f"checkpoint body holds {need - 12} "
                           f"bytes, but model_config.dtype float32 needs {need}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("how", ["missing", "wrong_shape"])
    def test_damaged_parameter_rejected(self, tmp_path, how):
        state = self._trained_state(steps=1)
        name = "dec0.cross.wk.w"
        if how == "missing":
            del state.model.params[name]
            message = f"bad params in checkpoint header: entry .* the model's is '{name}'"
        else:
            state.model.params[name].data = state.model.params[name].data[:3]
            message = "checkpoint body holds .* needs"
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_oversized_header_refused_before_allocating(self, tmp_path):
        """A header naming a 64 MB source embedding over a body of a few
        hundred kB is refused before the embedding is allocated."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._trained_state(steps=1), path)
        raw = path.read_bytes()
        blob_len = int.from_bytes(raw[8:16], "little")
        meta = json.loads(raw[16:16 + blob_len])
        meta["src_vocab_size"] = 500_000
        blob = json.dumps(meta).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[16 + blob_len:])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="needs at least 192000000$"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(raw)

    def test_loaded_parameters_replace_the_random_draws(self):
        fresh = Transformer(SMALL, 16, 17)
        asked, given = [], {}

        def load(name, shape):
            asked.append((name, shape))
            given[name] = np.full(shape, len(asked), dtype=np.float32)
            return given[name]

        model = Transformer(SMALL, 16, 17, load=load)
        assert asked == [(n, p.shape) for n, p in fresh.params.items()]
        for name, p in model.params.items():
            assert p.data is given[name], name

    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        # dropout on, so the model's RNG has moved past its seed
        state = self._trained_state(cfg=replace(SMALL, dropout=0.1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.model.config.dtype == "float32"
        for got, want in [(back.model.params[name].data, p.data)
                          for name, p in state.model.params.items()] + \
                [(back.adam.flat_m, state.adam.flat_m),
                 (back.adam.flat_v, state.adam.flat_v)]:
            assert got.dtype == np.float32
            assert np.array_equal(got, want)
        assert (back.model.rng.bit_generator.state
                == state.model.rng.bit_generator.state)
        batch = _batch(_pairs(3, np.random.default_rng(11), hi=16))
        a, _ = state.model.forward_loss(batch, train=True)
        b, _ = back.model.forward_loss(batch, train=True)
        assert a.item() == b.item()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        state = self._trained_state(steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        state = self._trained_state(steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header,message", [
        (b"not json", "garbled checkpoint header"),
        (b'{"step": 1}', "lacks required fields"),
        (b"[]", "lacks required fields"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NCLK" + FORMAT_VERSION.to_bytes(4, "little")
                         + len(header).to_bytes(8, "little") + header
                         + (0).to_bytes(8, "little"))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
