"""Transformer forward/loss/gradient and checkpoint contracts."""

import numpy as np
import pytest

from normcl.corpus import BOS_ID, EOS_ID, PAD_ID, ParallelCorpus, SentencePair
from normcl.errors import CheckpointError, ConfigError, DataError, TrainingDiverged
from normcl.model import EncodedBatch, ModelConfig, Transformer, build_batch
from normcl.optim import AdamState
from normcl.tensor import grad_check
from normcl.trainer import (
    TrainerState, load_checkpoint, save_checkpoint, token_accuracy, train_step,
)

MICRO = ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16,
                    dropout=0.0, max_positions=32, seed=3)
SMALL = ModelConfig(d_model=32, n_heads=4, n_layers=2, d_ff=64,
                    dropout=0.0, max_positions=64, seed=0)


def _pairs(n, rng, lo=4, hi=12, max_len=6):
    out = []
    for i in range(n):
        k = int(rng.integers(1, max_len))
        toks = tuple(int(t) for t in rng.integers(lo, hi, size=k))
        out.append(SentencePair(i, toks, toks))
    return out


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.d_ff) == (64, 4, 2, 128)
        assert cfg.dropout == 0.1
        assert cfg.tie_target_embeddings

    @pytest.mark.parametrize("kwargs", [
        {"d_model": 0}, {"d_model": 30, "n_heads": 4}, {"dropout": 1.0},
        {"n_layers": 0}, {"label_smoothing": 1.0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)


class TestBatchBuilding:
    def test_layout(self):
        batch = build_batch([SentencePair(0, (5, 6), (7,)),
                             SentencePair(1, (8,), (9, 10, 11))])
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
            build_batch([])


class TestForward:
    def test_logit_shape(self):
        model = Transformer(MICRO, 12, 12)
        batch = build_batch(_pairs(3, np.random.default_rng(0)))
        logits = model.forward(batch)
        assert logits.shape == (3, batch.tgt_in.shape[1], 12)

    def test_same_seed_same_output(self):
        batch = build_batch(_pairs(2, np.random.default_rng(1)))
        a = Transformer(MICRO, 12, 12).forward(batch)
        b = Transformer(MICRO, 12, 12).forward(batch)
        assert np.array_equal(a.data, b.data)

    def test_sequence_cap_enforced(self):
        model = Transformer(MICRO, 40, 40)
        long_pair = SentencePair(0, tuple([4] * 33), (4,))
        with pytest.raises(ConfigError):
            model.forward(build_batch([long_pair]))


class TestLoss:
    def _setup(self, n=3, seed=2, cfg=MICRO):
        rng = np.random.default_rng(seed)
        model = Transformer(cfg, 12, 12)
        return model, build_batch(_pairs(n, rng))

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
        single, _ = model.forward_loss(build_batch([
            SentencePair(0, tuple(batch.src[0, :batch.src[0].tolist().index(EOS_ID)]),
                         tuple(batch.tgt_out[0, :batch.tgt_lens[0] - 1])),
        ]))
        assert abs(both.item() - single.item()) < 1e-3

    def test_padding_append_leaves_loss_unchanged(self):
        model, batch = self._setup()
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
        model = Transformer(MICRO, 12, 12)
        assert model.output_table() is model.params["tgt_embed"]
        assert "out_proj" not in model.params

    def test_untied_has_separate_projection(self):
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16,
                          dropout=0.0, tie_target_embeddings=False, seed=3)
        model = Transformer(cfg, 12, 12)
        assert model.output_table() is model.params["out_proj"]

    def test_gradient_reaches_rows_unused_as_inputs(self):
        # token 11 never appears in the batch, so the only gradient
        # path to its embedding row is the softmax projection; tying
        # must route that gradient into tgt_embed
        model = Transformer(MICRO, 12, 12)
        batch = build_batch([SentencePair(0, (4, 5), (6, 7))])
        loss, _ = model.forward_loss(batch)
        model.zero_grad()
        loss.backward()
        grad_row = model.params["tgt_embed"].grad[11]
        assert np.abs(grad_row).max() > 0

    def test_parameter_gradients_own_their_buffers(self):
        # backward adopts kernel results as gradient buffers; a buffer
        # shared by two parameters would mix their Adam updates
        model = Transformer(SMALL, 14, 14)
        batch = build_batch(_pairs(6, np.random.default_rng(8), hi=14))
        model.forward_loss(batch)[0].backward()
        grads = [(name, p.grad) for name, p in model.params.items()]
        assert all(g is not None for _, g in grads)
        for i, (name_a, grad_a) in enumerate(grads):
            for name_b, grad_b in grads[i + 1:]:
                assert not np.shares_memory(grad_a, grad_b), (name_a, name_b)


class TestGradients:
    def test_full_model_grad_check_key_parameters(self):
        model = Transformer(MICRO, 10, 10)
        batch = build_batch([SentencePair(0, (4, 5, 6), (5, 4)),
                             SentencePair(1, (7,), (8, 9, 6))])
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


class TestTrainStep:
    def _state(self, cfg=SMALL, vocab=16):
        model = Transformer(cfg, vocab, vocab)
        state = TrainerState(model=model, adam=AdamState(model.params))
        state.capture_anchor()
        return state

    def test_metrics_and_counter(self):
        state = self._state()
        batch = build_batch(_pairs(4, np.random.default_rng(3), hi=16))
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
                batch = build_batch(_pairs(3, rng, hi=16))
                out.append(train_step(state, batch, None, 1e-3)["loss"])
        assert r1 == r2

    def test_copy_task_loss_decreases(self):
        # 50-pair copy task, 200 steps
        rng = np.random.default_rng(5)
        pairs = _pairs(50, rng, hi=16)
        state = self._state()
        losses = []
        order = np.random.default_rng(6)
        for step in range(200):
            take = order.choice(50, size=8, replace=False)
            batch = build_batch([pairs[i] for i in take])
            losses.append(train_step(state, batch, None, 3e-3)["loss"])
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self):
        state = self._state()
        state.model.params["src_embed"].data[4, 0] = np.inf
        batch = build_batch(_pairs(2, np.random.default_rng(7), hi=16))
        with pytest.raises(TrainingDiverged) as info:
            train_step(state, batch, None, 1e-3)
        assert info.value.step == 1
        assert info.value.batch_ids == [0, 1]

    def test_token_accuracy_bounds(self):
        state = self._state()
        pairs = _pairs(10, np.random.default_rng(8), hi=16)
        acc = token_accuracy(state.model, pairs)
        assert 0.0 <= acc <= 1.0


class TestCheckpoint:
    def _trained_state(self, steps=3):
        model = Transformer(SMALL, 16, 16)
        state = TrainerState(model=model, adam=AdamState(model.params),
                             config_snapshot={"demo": True})
        state.capture_anchor()
        rng = np.random.default_rng(9)
        for step in range(steps):
            batch = build_batch(_pairs(3, rng, hi=16))
            train_step(state, batch, None, 1e-3)
        return state

    def test_round_trip_bit_identical_logits_and_anchor(self, tmp_path):
        state = self._trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        batch = build_batch(_pairs(2, np.random.default_rng(10), hi=16))
        a = state.model.forward(batch).data
        b = back.model.forward(batch).data
        assert np.array_equal(a, b)
        assert back.m0 == state.m0
        assert back.step == state.step
        assert back.adam.step == state.adam.step
        assert back.config_snapshot == {"demo": True}

    def test_adam_moments_survive(self, tmp_path):
        state = self._trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        for name in state.model.params:
            assert np.array_equal(back.adam.m[name], state.adam.m[name])
            assert np.array_equal(back.adam.v[name], state.adam.v[name])

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
        path.write_bytes(b"NCLK" + (1).to_bytes(4, "little")
                         + len(header).to_bytes(8, "little") + header
                         + (0).to_bytes(8, "little"))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
