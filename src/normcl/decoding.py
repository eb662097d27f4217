"""Greedy and beam decoding with length-normalized scoring.

Hypotheses are ranked by cumulative log-probability divided by the
length penalty lp(n) = ((5 + n) / 6)^alpha.  Within one expansion step
every candidate has the same length, so the raw cumulative score gives
the same ranking; the penalty only matters when hypotheses of different
lengths compete, i.e. between the finished pool and the active beams.

``decode_corpus`` groups the sources by length and hands each group to
``beam_decode`` as one batch: sources of one length need no padding.
Every step runs the decoder once over all live beams of all unfinished
sentences under ``no_grad``, with a ``DecoderCache`` so that only the
newest position is computed; the cache is reordered to the surviving
beams after each step.  Each sentence keeps its own finished pool and
stops on its own, so a hypothesis does not depend on its batch mates
beyond floating-point rounding.

A step expands every sentence at once.  All unfinished sentences hold
the same number of beams, so their candidate scores form one
(sentences, beams * vocab) array; one row-wise ``argpartition`` picks
each sentence's top 2 * beam_size and one stable ``argsort`` orders
them.  Ties therefore break by higher score first, then by the order
``argpartition`` leaves over that sentence's row, exactly as a search of
the sentence on its own would.  Array masks pick the finished
candidates and the survivors; Python only files the finished
hypotheses and the results of the sentences that stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID
from .errors import ConfigError, DataError
from .model import DecoderCache, Transformer
from .tensor import no_grad

__all__ = ["BeamConfig", "DecodedHypothesis", "length_penalty",
           "beam_decode", "decode_corpus"]


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 6
    alpha: float = 0.6
    max_decode_len: int = 64

    def __post_init__(self):
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ConfigError(
                f"max_decode_len must be >= 1, got {self.max_decode_len}"
            )


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


@dataclass(frozen=True)
class DecodedHypothesis:
    tokens: tuple[int, ...]  # generated ids, end marker stripped
    score: float             # cumulative log-prob / lp(generated length)
    truncated: bool          # True when no end marker appeared in time


def _candidate_scores(logits: np.ndarray, cum: np.ndarray,
                      work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cum[:, None]`` plus the row-wise log-softmax of ``logits``, and
    its negation, in float64 whatever the model dtype, so that beam
    scores accumulate and tie-break in float64.  Both are computed in
    place in ``work[0]`` and ``work[1]``, which hold at least as many
    rows as ``logits``: a ``beam_decode`` call reuses one workspace at
    every step rather than taking fresh candidate-sized arrays from the
    heap, whose state then decided how many pages each step faulted in."""
    scores, neg = work[0, :len(logits)], work[1, :len(logits)]
    np.copyto(scores, logits)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=neg)
    scores -= np.log(neg.sum(axis=-1, keepdims=True))
    scores += cum[:, None]
    return scores, np.negative(scores, out=neg)


def beam_decode(model: Transformer, sources: Sequence[Sequence[int]],
                cfg: BeamConfig) -> list[DecodedHypothesis]:
    """Decode source sentences of one length together, one hypothesis each.

    Per sentence, a hypothesis leaves the active set the moment it
    emits the end marker and joins that sentence's finished pool at its
    normalized score; the generated length counts that marker.  A
    sentence's search stops once its pool holds beam_size entries, or
    earlier when none of its active beams can still beat the pool:
    log-probabilities only accumulate downward, so cum / lp(max_decode_len)
    bounds anything an active beam may reach.  beam_size=1 therefore
    stops on the first end marker, which makes it exactly the greedy
    argmax rollout.

    Equal lengths need no padding, so the sentences are encoded as one
    batch and each step is one cached ``decode`` call over every live
    beam of every unfinished sentence.
    """
    if not sources:
        return []
    lengths = {len(source) for source in sources}
    if 0 in lengths:
        raise DataError("cannot decode an empty source sentence")
    if len(lengths) > 1:
        raise DataError(
            f"beam_decode needs sources of one length, got {sorted(lengths)}"
        )
    k = cfg.beam_size
    src = np.array([list(source) + [EOS_ID] for source in sources],
                   dtype=np.int64)
    src_mask = np.zeros((1, 1, 1, src.shape[1]))
    # cum stays <= 0, so cum / lp(max_decode_len) bounds every score an
    # active beam can still finish with (lp grows with length)
    lp_cap = length_penalty(cfg.max_decode_len, cfg.alpha)
    # per sentence: (normalized score, generated tokens without the end
    # marker), plus each pool's size and best score for the stop test
    finished: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in sources]
    pool_size = np.zeros(len(sources), dtype=np.int64)
    pool_best = np.full(len(sources), -np.inf)
    results: list[DecodedHypothesis | None] = [None] * len(sources)

    with no_grad():
        memory = model.encode(src, src_mask)
        cache = DecoderCache()
        # the unfinished sentences in input order, each with ``width``
        # live beams: rows j * width ... (j + 1) * width - 1 are live[j]'s
        live = np.arange(len(sources))
        width = 1
        prefixes = np.full((len(sources), 1), BOS_ID, dtype=np.int64)
        cum = np.zeros(len(sources))
        work = None
        for step in range(cfg.max_decode_len):
            logits = model.decode(memory, src_mask, prefixes,
                                  cache=cache).data[:, -1, :]
            vocab = logits.shape[1]
            if work is None:  # every step's rows fit: width <= k
                work = np.empty((2, len(sources) * k, vocab))
            # row j: every (beam, token) candidate of live[j], in C order
            flat, neg = (a.reshape(len(live), width * vocab)
                         for a in _candidate_scores(logits, cum, work))
            # 2k candidates guarantee k survivors: each beam contributes
            # at most one end-marker candidate
            take = min(2 * k, flat.shape[1])
            top = np.argpartition(neg, take - 1, axis=1)[:, :take]
            score = np.take_along_axis(flat, top, axis=1)
            order = np.argsort(-score, axis=1, kind="stable")
            top = np.take_along_axis(top, order, axis=1)
            score = np.take_along_axis(score, order, axis=1)
            beam, tok = np.divmod(top, vocab)
            row = beam + width * np.arange(len(live))[:, None]
            is_end = tok == EOS_ID
            # only end markers that made the beam proper finish; a
            # lower-ranked one would stop beam_size=1 where greedy
            # keeps going
            end_j, end_rank = np.nonzero(is_end[:, :k])
            norms = score[end_j, end_rank] / length_penalty(step + 1, cfg.alpha)
            for s, r, norm in zip(live[end_j].tolist(),
                                  row[end_j, end_rank].tolist(),
                                  norms.tolist()):
                finished[s].append((norm, tuple(prefixes[r, 1:].tolist())))
                pool_size[s] += 1
                pool_best[s] = max(pool_best[s], norm)
            # the first k other candidates survive, as many in every row:
            # 2k candidates hold at least k of them, and all width * vocab
            # hold width * (vocab - 1); the first is the best
            survive = ~is_end & (np.cumsum(~is_end, axis=1) <= k)
            best = score[np.arange(len(live)), survive.argmax(axis=1)]
            done = (~survive.any(axis=1) | (pool_size[live] >= k)
                    | (best / lp_cap <= pool_best[live]))
            for j in np.flatnonzero(done).tolist():
                beams = slice(j * width, (j + 1) * width)
                results[live[j]] = _best(finished[live[j]], prefixes[beams],
                                         cum[beams], cfg)
            survive &= ~done[:, None]
            live = live[~done]
            if not live.size:
                break
            keep = row[survive]
            width = keep.size // live.size
            prefixes = np.concatenate([prefixes[keep], tok[survive][:, None]],
                                      axis=1)
            cum = score[survive]
            cache.select(keep)
    # sentences still live after max_decode_len steps
    for j, s in enumerate(live.tolist()):
        beams = slice(j * width, (j + 1) * width)
        results[s] = _best(finished[s], prefixes[beams], cum[beams], cfg)
    return results


def _best(finished: list[tuple[float, tuple[int, ...]]], prefixes: np.ndarray,
          cum: np.ndarray, cfg: BeamConfig) -> DecodedHypothesis:
    """The best finished hypothesis, else the best live beam, truncated."""
    if finished:
        norm, tokens = max(finished, key=lambda f: f[0])
        return DecodedHypothesis(tokens, norm, False)
    lp = length_penalty(prefixes.shape[1] - 1, cfg.alpha)
    best = int(np.argmax(cum / lp))
    return DecodedHypothesis(tuple(prefixes[best, 1:].tolist()),
                             float(cum[best]) / lp, True)


def decode_corpus(model: Transformer, sources: Sequence[Sequence[int]],
                  cfg: BeamConfig) -> list[DecodedHypothesis]:
    """Beam-decode every source, one ``beam_decode`` batch per source
    length; hypotheses come back in input order."""
    groups: dict[int, list[int]] = {}
    for i, source in enumerate(sources):
        groups.setdefault(len(source), []).append(i)
    out: list[DecodedHypothesis | None] = [None] * len(sources)
    for members in groups.values():
        hyps = beam_decode(model, [sources[i] for i in members], cfg)
        for i, hyp in zip(members, hyps):
            out[i] = hyp
    return out
