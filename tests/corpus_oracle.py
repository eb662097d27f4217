"""The list-based corpus path that the flat arrays replaced, kept as the
reference the array path must match, plus constructors for small
corpora of id tuples and for ``TokenLines`` of strings, and the
tracemalloc peak the memory bounds read."""

import tracemalloc
from collections import Counter
from typing import NamedTuple

import numpy as np

from normcl.corpus import (
    BOS_ID, EOS_ID, PAD_ID, SPECIALS, ParallelCorpus, TokenLines, Vocabulary,
)
from normcl.errors import ConfigError, DataError
from normcl.model import NEG_INF, EncodedBatch


class SentencePair(NamedTuple):
    id: int
    src: tuple
    tgt: tuple | None


def corpus_of(pairs) -> ParallelCorpus:
    """A ParallelCorpus of ``(src, tgt)`` id sequences, in order."""
    def side(seqs):
        offsets = np.cumsum([0] + [len(s) for s in seqs], dtype=np.int64)
        flat = np.array([i for s in seqs for i in s], dtype=np.int64)
        return flat, offsets
    return ParallelCorpus(*side([s for s, _ in pairs]), *side([t for _, t in pairs]))


def token_lines(texts) -> TokenLines:
    """The ``TokenLines`` of strings split on whitespace."""
    return TokenLines(map(str.split, texts))


def pairs_of(corpus: ParallelCorpus) -> list:
    """Every pair of ``corpus`` as a SentencePair of id tuples."""
    def side(ids, offsets):
        ends = offsets.tolist()
        return [tuple(ids[a:b].tolist()) for a, b in zip(ends, ends[1:])]
    src = side(corpus.src, corpus.src_offsets)
    tgt = [None] * len(src) if corpus.tgt is None else \
        side(corpus.tgt, corpus.tgt_offsets)
    return [SentencePair(i, s, t) for i, (s, t) in enumerate(zip(src, tgt))]


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes that tracemalloc saw allocated at
    once while it ran (NumPy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_vocab(lines, min_count: int = 1) -> Vocabulary:
    counter = Counter()
    for line in lines:
        counter.update(line.split() if isinstance(line, str) else line)
    kept = sorted(((tok, c) for tok, c in counter.items() if c >= min_count),
                  key=lambda item: (-item[1], item[0]))
    return Vocabulary(list(SPECIALS) + [tok for tok, _ in kept],
                      [0, 0, 0, 0] + [c for _, c in kept])


def load_parallel(src_lines, tgt_lines, vocab_src, vocab_tgt, max_len=200) -> list:
    if len(src_lines) != len(tgt_lines):
        raise DataError("line counts differ")
    pairs = []
    for src_tokens, tgt_tokens in zip(src_lines, tgt_lines):
        if not (0 < len(src_tokens) <= max_len and 0 < len(tgt_tokens) <= max_len):
            continue
        src = tuple(map(vocab_src.encode_token, src_tokens))
        tgt = None if vocab_tgt is None else tuple(map(vocab_tgt.encode_token, tgt_tokens))
        pairs.append(SentencePair(len(pairs), src, tgt))
    if not pairs:
        raise DataError("no sentence pairs survived length filtering")
    return pairs


def sample_batch(state, pairs, c_hat) -> list:
    """The per-pair budget loop over ``state``'s order and draws."""
    k = state.eligible_count(c_hat)
    if state.token_budget < state.max_side[:k].min():
        raise ConfigError("token_budget cannot fit any eligible pair")
    batch = []
    src_total = tgt_total = 0
    for idx in state.rng.permutation(k):
        pair = pairs[int(state.order[idx])]
        s, t = len(pair.src), len(pair.tgt)
        if batch and (src_total + s > state.token_budget
                      or tgt_total + t > state.token_budget):
            break
        batch.append(pair)
        src_total += s
        tgt_total += t
    return batch


def build_batch(pairs) -> EncodedBatch:
    b = len(pairs)
    ts = max(len(p.src) for p in pairs) + 1
    tt = max(len(p.tgt) for p in pairs) + 1
    src = np.full((b, ts), PAD_ID, dtype=np.int64)
    tgt_in = np.full((b, tt), PAD_ID, dtype=np.int64)
    tgt_out = np.full((b, tt), PAD_ID, dtype=np.int64)
    src_pad = np.zeros((b, ts), dtype=bool)
    loss_mask = np.zeros((b, tt), dtype=np.float64)
    tgt_lens = np.zeros(b, dtype=np.int64)
    for i, p in enumerate(pairs):
        ns, nt = len(p.src), len(p.tgt)
        src[i, :ns] = p.src
        src[i, ns] = EOS_ID
        src_pad[i, ns + 1:] = True
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1:nt + 1] = p.tgt
        tgt_out[i, :nt] = p.tgt
        tgt_out[i, nt] = EOS_ID
        loss_mask[i, :nt + 1] = 1.0
        tgt_lens[i] = nt + 1
    src_mask = np.where(src_pad, NEG_INF, 0.0)[:, None, None, :]
    return EncodedBatch([p.id for p in pairs], src, tgt_in, tgt_out,
                        src_mask, loss_mask, tgt_lens)
