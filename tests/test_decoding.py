"""Beam search contracts: length penalty, greedy reduction, pool scoring."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from normcl.corpus import BOS_ID, EOS_ID
from normcl.decoding import (
    BeamConfig, DecodedHypothesis, beam_decode, decode_corpus, length_penalty,
)
from normcl.errors import ConfigError, DataError, ShapeError
from normcl.model import NEG_INF, DecoderCache, ModelConfig, Transformer
from normcl.tensor import Tensor

MICRO = dict(d_model=8, n_heads=2, n_layers=1, d_ff=16, dropout=0.0)


class _ToyLM:
    """Stateless conditional distribution keyed on the decoder prefix.

    Exercises the search logic without transformer cost; the end-marker
    bias keeps hypotheses finishing quickly.
    """

    def __init__(self, seed: int, vocab: int = 12, eos_bias: float = 1.5):
        self.seed, self.vocab, self.eos_bias = seed, vocab, eos_bias

    def encode(self, src, mask):
        return Tensor(np.zeros((1, src.shape[1], 2)))

    def decode(self, memory, mask, prefixes, train=False, cache=None):
        b, t = prefixes.shape
        out = np.zeros((b, t, self.vocab))
        for i in range(b):
            key = (self.seed,) + tuple(int(x) for x in prefixes[i])
            r = np.random.default_rng(key)
            out[i, -1] = r.normal(0.0, 1.5, self.vocab)
            out[i, -1, EOS_ID] += self.eos_bias
        return Tensor(out)


def _greedy_rollout(model, source, max_len):
    """Independent argmax loop to check the beam_size=1 reduction against."""
    src = np.array([list(source) + [EOS_ID]], dtype=np.int64)
    mask = np.zeros((1, 1, 1, src.shape[1]))
    memory = model.encode(src, mask)
    prefix = [BOS_ID]
    tokens = []
    for _ in range(max_len):
        logits = model.decode(memory, mask, np.array([prefix])).data[0, -1]
        tok = int(np.argmax(logits))
        if tok == EOS_ID:
            return tokens, False
        tokens.append(tok)
        prefix.append(tok)
    return tokens, True


def _chain_score(model, source, content, alpha):
    """Teacher-forced normalized score of content + end marker."""
    src = np.array([list(source) + [EOS_ID]], dtype=np.int64)
    mask = np.zeros((1, 1, 1, src.shape[1]))
    memory = model.encode(src, mask)
    tgt_in = np.array([[BOS_ID] + list(content)], dtype=np.int64)
    logits = model.decode(memory, mask, tgt_in).data[0]
    cum = 0.0
    chain = list(content) + [EOS_ID]
    for pos, tok in enumerate(chain):
        row = logits[pos]
        shifted = row - row.max()
        cum += float(shifted[tok] - np.log(np.exp(shifted).sum()))
    return cum / length_penalty(len(chain), alpha)


def _oracle_beam_decode(model, source, cfg):
    """One sentence, the whole prefix re-run at every step, no cache:
    the straightforward search the batched decoder must reproduce."""
    k = cfg.beam_size
    src = np.array([list(source) + [EOS_ID]], dtype=np.int64)
    src_mask = np.zeros((1, 1, 1, src.shape[1]))
    memory = model.encode(src, src_mask).data
    prefixes = np.full((1, 1), BOS_ID, dtype=np.int64)
    cum = np.zeros(1)
    finished = []
    lp_cap = length_penalty(cfg.max_decode_len, cfg.alpha)
    for step in range(cfg.max_decode_len):
        n = prefixes.shape[0]
        mem = Tensor(np.repeat(memory, n, axis=0))
        mask = np.repeat(src_mask, n, axis=0)
        logits = model.decode(mem, mask, prefixes).data[:, -1, :]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        flat = (cum[:, None] + logp).ravel()
        take = min(2 * k, flat.size)
        top = np.argpartition(-flat, take - 1)[:take]
        top = top[np.argsort(-flat[top], kind="stable")]
        survivors, surv_cum = [], []
        for rank, idx in enumerate(top):
            beam, tok = divmod(int(idx), logp.shape[1])
            score = float(flat[idx])
            if tok == EOS_ID:
                if rank < k:
                    norm = score / length_penalty(step + 1, cfg.alpha)
                    finished.append((norm, tuple(prefixes[beam, 1:].tolist())))
            elif len(survivors) < k:
                survivors.append(np.append(prefixes[beam], tok))
                surv_cum.append(score)
        if not survivors or len(finished) >= k:
            break
        prefixes = np.stack(survivors)
        cum = np.array(surv_cum)
        if finished:
            best = max(norm for norm, _ in finished)
            if float(cum.max()) / lp_cap <= best:
                break
    if finished:
        norm, tokens = max(finished, key=lambda f: f[0])
        return DecodedHypothesis(tokens, norm, False)
    lp = length_penalty(prefixes.shape[1] - 1, cfg.alpha)
    best = int(np.argmax(cum / lp))
    return DecodedHypothesis(tuple(prefixes[best, 1:].tolist()),
                             float(cum[best]) / lp, True)


class _TiedLM:
    """Logits from three integer levels, keyed on the source's first
    token, the position and the parity of the last token, so candidate
    scores tie exactly across beams and tokens.  From position ``stop``
    on, which depends on the source through ``stops``, the end marker
    tops every row, so the sentences of one batch finish at different
    steps.  A decoder row finds its source through the cache's
    ``owner``; every call's rows and prefixes are recorded.
    """

    def __init__(self, seed: int, stops, vocab: int = 12):
        self.seed, self.stops, self.vocab = seed, stops, vocab
        self.calls = []

    def encode(self, src, mask):
        return Tensor(src[:, :, None].astype(np.float64))

    def decode(self, memory, mask, prefixes, train=False, cache=None):
        b, t = prefixes.shape
        owner = np.arange(b) if cache.owner is None else cache.owner
        self.calls.append((owner.copy(), prefixes.copy()))
        out = np.zeros((b, t, self.vocab))
        for i in range(b):
            first = int(memory.data[owner[i], 0, 0])
            key = (self.seed, first, t, int(prefixes[i, -1]) % 2)
            out[i, -1] = np.random.default_rng(key).integers(0, 3, self.vocab)
            if t >= self.stops(first):
                out[i, -1, EOS_ID] = 3.0
        return Tensor(out)


def _reference_expand(cum, logp, prefixes, step, cfg, finished):
    """One sentence's beam step with a Python loop over its candidates:
    the reference the batched step must match, tie order included."""
    k = cfg.beam_size
    flat = (cum[:, None] + logp).ravel()
    take = min(2 * k, flat.size)
    top = np.argpartition(-flat, take - 1)[:take]
    top = top[np.argsort(-flat[top], kind="stable")]
    survivors = []
    for rank, idx in enumerate(top):
        beam, tok = divmod(int(idx), logp.shape[1])
        score = float(flat[idx])
        if tok == EOS_ID:
            if rank < k:
                norm = score / length_penalty(step + 1, cfg.alpha)
                finished.append((norm, tuple(prefixes[beam, 1:].tolist())))
        elif len(survivors) < k:
            survivors.append((beam, tok, score))
    return survivors


def _reference_beam_decode(model, sources, cfg):
    """``beam_decode`` with a Python loop over sentences, each expanded
    by ``_reference_expand``; returns the hypotheses and the number of
    sentence steps whose top 2k + 1 scores hold an exact tie."""
    k = cfg.beam_size
    src = np.array([list(s) + [EOS_ID] for s in sources], dtype=np.int64)
    src_mask = np.zeros((1, 1, 1, src.shape[1]))
    lp_cap = length_penalty(cfg.max_decode_len, cfg.alpha)
    finished = [[] for _ in sources]
    results = [None] * len(sources)
    ties = 0

    def sentences(owner):
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        ends = np.append(starts[1:], len(owner))
        return [(int(owner[lo]), int(lo), int(hi))
                for lo, hi in zip(starts, ends)]

    def best(pool, prefixes, cum):
        if pool:
            norm, tokens = max(pool, key=lambda f: f[0])
            return DecodedHypothesis(tokens, norm, False)
        lp = length_penalty(prefixes.shape[1] - 1, cfg.alpha)
        i = int(np.argmax(cum / lp))
        return DecodedHypothesis(tuple(prefixes[i, 1:].tolist()),
                                 float(cum[i]) / lp, True)

    memory = model.encode(src, src_mask)
    cache = DecoderCache()
    prefixes = np.full((len(sources), 1), BOS_ID, dtype=np.int64)
    cum = np.zeros(len(sources))
    owner = np.arange(len(sources))
    for step in range(cfg.max_decode_len):
        logits = model.decode(memory, src_mask, prefixes,
                              cache=cache).data[:, -1, :]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        keep, keep_tok, keep_cum = [], [], []
        for s, lo, hi in sentences(owner):
            top = np.sort((cum[lo:hi, None] + logp[lo:hi]).ravel())[-2 * k - 1:]
            ties += len(np.unique(top)) < len(top)
            pool = finished[s]
            survivors = _reference_expand(cum[lo:hi], logp[lo:hi],
                                          prefixes[lo:hi], step, cfg, pool)
            if (not survivors or len(pool) >= k
                    or (pool and max(c for _, _, c in survivors) / lp_cap
                        <= max(norm for norm, _ in pool))):
                results[s] = best(pool, prefixes[lo:hi], cum[lo:hi])
                continue
            for beam, tok, score in survivors:
                keep.append(lo + beam)
                keep_tok.append(tok)
                keep_cum.append(score)
        if not keep:
            break
        prefixes = np.concatenate(
            [prefixes[keep], np.array(keep_tok, dtype=np.int64)[:, None]],
            axis=1)
        cum = np.array(keep_cum)
        owner = owner[keep]
        cache.select(keep)
    for s, lo, hi in sentences(owner):
        if results[s] is None:
            results[s] = best(finished[s], prefixes[lo:hi], cum[lo:hi])
    return results, ties


class TestLengthPenalty:
    def test_unit_length_is_one(self):
        assert length_penalty(1, 0.6) == 1.0

    def test_length_seven(self):
        assert length_penalty(7, 0.6) == 2.0 ** 0.6
        assert length_penalty(7, 0.6) == pytest.approx(1.515716566510398, rel=1e-15)

    def test_grows_with_length(self):
        vals = [length_penalty(n, 0.6) for n in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConfig:
    def test_defaults(self):
        cfg = BeamConfig()
        assert cfg.beam_size == 6
        assert cfg.alpha == 0.6

    @pytest.mark.parametrize("kwargs", [{"beam_size": 0}, {"max_decode_len": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BeamConfig(**kwargs)


class TestGreedyReduction:
    def test_beam_one_equals_argmax_rollout_on_transformers(self):
        for seed in range(6):
            model = Transformer(ModelConfig(seed=seed, **MICRO), 10, 10)
            rng = np.random.default_rng(seed)
            src = tuple(int(t) for t in rng.integers(4, 10, size=3))
            hyp = beam_decode(model, [src], BeamConfig(beam_size=1, max_decode_len=12))[0]
            want, truncated = _greedy_rollout(model, src, 12)
            assert list(hyp.tokens) == want, f"seed {seed}"
            assert hyp.truncated == truncated

    def test_beam_one_equals_argmax_rollout_on_toy_lms(self):
        for seed in range(25):
            lm = _ToyLM(seed)
            hyp = beam_decode(lm, [(4,)], BeamConfig(beam_size=1, max_decode_len=16))[0]
            want, truncated = _greedy_rollout(lm, (4,), 16)
            assert list(hyp.tokens) == want, f"seed {seed}"
            assert hyp.truncated == truncated


class TestExhaustivePool:
    """A beam wide enough to hold every prefix must return the true
    optimum over all finishable hypotheses, which pins down both the
    normalization and the finished-pool competition."""

    def _optimum(self, model, src, max_len, alpha):
        content_tokens = [t for t in range(6) if t != EOS_ID]
        return max(
            _chain_score(model, src, c, alpha)
            for m in range(max_len)
            for c in itertools.product(content_tokens, repeat=m)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_wide_beam_matches_enumeration(self, seed):
        model = Transformer(ModelConfig(seed=seed, dtype="float64", **MICRO),
                            6, 6)
        src = (4, 5)
        cfg = BeamConfig(beam_size=200, alpha=0.6, max_decode_len=3)
        hyp = beam_decode(model, [src], cfg)[0]
        assert not hyp.truncated
        assert hyp.score == pytest.approx(self._optimum(model, src, 3, 0.6),
                                          abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_width_beats_the_optimum(self, seed):
        model = Transformer(ModelConfig(seed=seed, dtype="float64", **MICRO),
                            6, 6)
        src = (4, 5)
        best = self._optimum(model, src, 3, 0.6)
        for k in (1, 2, 3, 4, 6):
            hyp = beam_decode(model, [src], BeamConfig(beam_size=k, alpha=0.6,
                                                       max_decode_len=3))[0]
            if not hyp.truncated:
                assert hyp.score <= best + 1e-12


class TestWidthConsistency:
    # Fixed-width beam search is not strictly monotone in width: a
    # higher-scoring prefix can displace the survivor that would have
    # finished best (seeds 6 and 21 below do exactly that).  The suite
    # pins those instances so any new regression still fails.
    KNOWN_CURSE = {6, 21}

    def test_score_never_drops_outside_known_instances(self):
        bad = []
        for seed in range(40):
            lm = _ToyLM(seed)
            scores = []
            for k in (1, 2, 3, 4, 6, 8):
                hyp = beam_decode(lm, [(4, 5)], BeamConfig(beam_size=k, alpha=0.6,
                                                           max_decode_len=16))[0]
                assert not hyp.truncated
                scores.append(hyp.score)
            if any(b < a - 1e-9 for a, b in zip(scores, scores[1:])):
                bad.append(seed)
        assert set(bad) <= self.KNOWN_CURSE, f"new width regressions: {bad}"


class TestTruncation:
    def test_flagged_when_end_marker_never_competitive(self):
        lm = _ToyLM(0, eos_bias=-50.0)
        hyp = beam_decode(lm, [(4, 5)], BeamConfig(beam_size=4, alpha=0.6,
                                                   max_decode_len=7))[0]
        assert hyp.truncated
        assert len(hyp.tokens) == 7

    def test_empty_source_rejected(self):
        model = Transformer(ModelConfig(seed=0, **MICRO), 10, 10)
        with pytest.raises(DataError):
            beam_decode(model, [()], BeamConfig())


class TestCorpusDecode:
    def test_order_and_length(self):
        model = Transformer(ModelConfig(seed=0, **MICRO), 10, 10)
        sources = [(4, 5), (6,), (7, 8, 9)]
        cfg = BeamConfig(beam_size=2, max_decode_len=8)
        out = decode_corpus(model, sources, cfg)
        assert len(out) == 3
        for src, hyp in zip(sources, out):
            assert hyp.tokens == beam_decode(model, [src], cfg)[0].tokens


class TestBatchedAgainstOracle:
    # lengths 3 (four times), 1 (twice), 5 (once) and 2 (twice), interleaved
    LENGTHS = (3, 1, 3, 5, 2, 3, 1, 2, 3)

    def _corpus(self, seed):
        rng = np.random.default_rng(seed)
        return [tuple(int(t) for t in rng.integers(4, 12, size=n))
                for n in self.LENGTHS]

    @pytest.mark.parametrize("beam_size", [1, 2, 6])
    @pytest.mark.parametrize("max_decode_len", [2, 16])
    def test_corpus_matches_one_sentence_full_recompute(self, beam_size,
                                                        max_decode_len):
        cfg = BeamConfig(beam_size=beam_size, max_decode_len=max_decode_len)
        truncated = 0
        for seed in range(3):
            model = Transformer(
                ModelConfig(seed=seed, dtype="float64", **MICRO), 12, 12)
            sources = self._corpus(seed)
            got = decode_corpus(model, sources, cfg)
            assert len(got) == len(sources)
            for src, hyp in zip(sources, got):
                want = _oracle_beam_decode(model, src, cfg)
                assert hyp.tokens == want.tokens, (seed, src)
                assert hyp.truncated == want.truncated, (seed, src)
                assert hyp.score == pytest.approx(want.score, abs=1e-12)
                truncated += hyp.truncated
        if max_decode_len == 2:
            assert truncated > 0

    def test_mixed_lengths_rejected(self):
        model = Transformer(ModelConfig(seed=0, **MICRO), 10, 10)
        with pytest.raises(DataError, match="one length"):
            beam_decode(model, [(4, 5), (6,)], BeamConfig())

    def test_no_sources_give_no_hypotheses(self):
        model = Transformer(ModelConfig(seed=0, **MICRO), 10, 10)
        assert beam_decode(model, [], BeamConfig()) == []
        assert decode_corpus(model, [], BeamConfig()) == []


class TestTieOrder:
    """The batched step against the per-sentence reference on scores
    that tie exactly: the same survivors in the same order at every
    step (the recorded decoder rows), hence the same finished pools and
    the same hypotheses."""

    SOURCES = [(first, 4) for first in range(4, 12)]

    def _match(self, stops, beam_size, max_decode_len):
        cfg = BeamConfig(beam_size=beam_size, max_decode_len=max_decode_len)
        ties = 0
        live_counts = set()
        for seed in range(4):
            got_lm, want_lm = _TiedLM(seed, stops), _TiedLM(seed, stops)
            got = beam_decode(got_lm, self.SOURCES, cfg)
            want, n_ties = _reference_beam_decode(want_lm, self.SOURCES, cfg)
            ties += n_ties
            assert got == want, seed
            assert len(got_lm.calls) == len(want_lm.calls), seed
            for (got_owner, got_rows), (want_owner, want_rows) in zip(
                    got_lm.calls, want_lm.calls):
                np.testing.assert_array_equal(got_owner, want_owner)
                np.testing.assert_array_equal(got_rows, want_rows)
                live_counts.add(len(np.unique(got_owner)))
        assert ties > 0
        return live_counts

    @pytest.mark.parametrize("beam_size", [1, 3, 6])
    @pytest.mark.parametrize("max_decode_len", [3, 12])
    def test_tied_scores_match_the_reference(self, beam_size, max_decode_len):
        self._match(lambda first: 99, beam_size, max_decode_len)

    @pytest.mark.parametrize("beam_size", [1, 3, 6])
    def test_sentences_finishing_at_different_steps(self, beam_size):
        live_counts = self._match(lambda first: 2 + first % 5, beam_size, 12)
        # sentences drop out over several steps, not all at once
        assert len(live_counts) >= 3


class TestDecoderCache:
    CONFIG = ModelConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32,
                         dropout=0.0, seed=4, dtype="float64")

    def test_incremental_logits_match_full_recompute(self):
        self._check_incremental(Transformer(self.CONFIG, 12, 12), atol=1e-12)

    def test_incremental_logits_match_full_recompute_in_float32(self):
        # The cached and the full pass add the same float32 terms in
        # different groupings (one-row GEMMs against batched ones, keys
        # appended rather than computed together), so logits differ by
        # rounding: about eps32 = 1.2e-7 per operation, relative, through a
        # two-layer decoder whose logits are O(1).  64 eps32 (7.6e-6) leaves
        # room for that; a misplaced position or key would be off by O(1).
        model = Transformer(replace(self.CONFIG, dtype="float32"), 12, 12)
        self._check_incremental(model, atol=64 * np.finfo(np.float32).eps)

    def _check_incremental(self, model, atol):
        rng = np.random.default_rng(0)
        src = rng.integers(4, 12, size=(3, 5))
        src_mask = np.zeros((1, 1, 1, 5))
        memory = model.encode(src, src_mask)
        prefixes = np.concatenate(
            [np.full((3, 1), BOS_ID), rng.integers(4, 12, size=(3, 6))], axis=1)
        cache = DecoderCache()
        # positions 0-1 in one call, then one position per call
        steps = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        rows = np.arange(3)
        for lo, hi in steps:
            if lo == 4:
                # reorder as a beam step would: beam 2 first, beam 0 twice
                cache.select([2, 0, 0])
                rows = rows[[2, 0, 0]]
                prefixes = prefixes[[2, 0, 0]]
            got = model.decode(memory, src_mask, prefixes[:, :hi],
                               cache=cache).data
            assert got.shape == (3, hi - lo, 12)
            assert cache.length == hi
            want = model.decode(Tensor(memory.data[rows]), src_mask,
                                prefixes[:, :hi]).data[:, lo:hi]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("dtype, atol", [
        ("float64", 1e-12), ("float32", 64 * np.finfo(np.float32).eps)])
    def test_even_select_matches_full_recompute(self, dtype, atol):
        # every source's rows in one run of equal length: cross-attention
        # runs one query block per source against its unrepeated keys
        model = Transformer(replace(self.CONFIG, dtype=dtype), 12, 12)
        runs = self._check_selects(model, atol, np.zeros((1, 1, 1, 5)))
        assert [(list(s), m) for s, m in runs] == [
            ([0, 1, 2], 2), ([1, 2], 2), ([1], 4)]

    def test_per_row_mask_matches_full_recompute(self):
        # a mask per decoder row cannot be shared by a run, so the keys
        # are gathered per row
        mask = np.zeros((3, 1, 1, 5))
        mask[0, ..., 3:] = NEG_INF
        mask[2, ..., 4:] = NEG_INF
        self._check_selects(Transformer(self.CONFIG, 12, 12), 1e-12, mask)

    def _check_selects(self, model, atol, src_mask):
        rng = np.random.default_rng(1)
        src = rng.integers(4, 12, size=(3, 5))
        memory = model.encode(src, src_mask)
        prefixes = np.concatenate(
            [np.full((3, 1), BOS_ID), rng.integers(4, 12, size=(3, 5))], axis=1)
        cache = DecoderCache()
        rows = np.arange(3)
        # every source repeated twice, then source 0 dropped with its
        # mates' beams reordered, then one source's run of four rows
        selects = {1: np.repeat(np.arange(3), 2), 2: [3, 2, 5, 5],
                   4: [1, 1, 0, 0]}
        runs = []
        for pos in range(6):
            if pos in selects:
                cache.select(selects[pos])
                rows = rows[selects[pos]]
                prefixes = prefixes[selects[pos]]
                runs.append(cache.runs)
            mask = src_mask if len(src_mask) == 1 else src_mask[rows]
            got = model.decode(memory, mask, prefixes[:, :pos + 1],
                               cache=cache).data
            want = model.decode(Tensor(memory.data[rows]), mask,
                                prefixes[:, :pos + 1]).data[:, pos:]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        return runs

    def test_positions_have_no_length_limit(self):
        """A 600-token source encodes, and cached decoding past position
        512 matches the full recompute."""
        model = Transformer(self.CONFIG, 12, 12)
        rng = np.random.default_rng(2)
        src_mask = np.zeros((1, 1, 1, 600))
        memory = model.encode(rng.integers(4, 12, size=(2, 600)), src_mask)
        assert memory.shape == (2, 600, 16)
        assert np.isfinite(memory.data).all()
        prefixes = np.concatenate(
            [np.full((2, 1), BOS_ID), rng.integers(4, 12, size=(2, 519))], axis=1)
        cache = DecoderCache()
        for lo, hi in [(0, 511), (511, 512), (512, 513), (513, 520)]:
            got = model.decode(memory, src_mask, prefixes[:, :hi],
                               cache=cache).data
            want = model.decode(memory, src_mask, prefixes[:, :hi]).data[:, lo:hi]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_select_leaves_cross_attention_arrays_uncopied(self):
        model = Transformer(self.CONFIG, 12, 12)
        mask = np.zeros((1, 1, 1, 5))
        memory = model.encode(np.full((3, 5), 6), mask)
        cache = DecoderCache()
        prefixes = np.full((3, 1), BOS_ID)
        model.decode(memory, mask, prefixes, cache=cache)
        before = dict(cache.cross_kv)
        assert len(before) == self.CONFIG.n_layers
        cache.select(np.repeat(np.arange(3), 2))
        cache.select([0, 1, 4])
        np.testing.assert_array_equal(cache.owner, [0, 0, 2])
        model.decode(memory, mask, np.full((3, 2), BOS_ID), cache=cache)
        for name, (k, v) in before.items():
            assert k.shape[0] == 3
            assert cache.cross_kv[name][0] is k
            assert cache.cross_kv[name][1] is v

    def test_cache_must_leave_a_position_to_run(self):
        model = Transformer(self.CONFIG, 12, 12)
        memory = model.encode(np.full((1, 3), 5), np.zeros((1, 1, 1, 3)))
        cache = DecoderCache()
        prefix = np.array([[BOS_ID, 5]])
        model.decode(memory, np.zeros((1, 1, 1, 3)), prefix, cache=cache)
        with pytest.raises(ShapeError):
            model.decode(memory, np.zeros((1, 1, 1, 3)), prefix, cache=cache)
