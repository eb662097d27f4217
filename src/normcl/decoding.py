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


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax in float64, whatever the model dtype, so that
    beam scores accumulate and tie-break in float64."""
    logits = logits.astype(np.float64, copy=False)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
    # per sentence: (normalized score, generated tokens without the end marker)
    finished: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in sources]
    results: list[DecodedHypothesis | None] = [None] * len(sources)

    with no_grad():
        memory = model.encode(src, src_mask)
        cache = DecoderCache()
        # the live beams, their rows grouped by sentence in input order
        prefixes = np.full((len(sources), 1), BOS_ID, dtype=np.int64)
        cum = np.zeros(len(sources))
        owner = np.arange(len(sources))
        for step in range(cfg.max_decode_len):
            logits = model.decode(memory, src_mask, prefixes,
                                  cache=cache).data[:, -1, :]
            logp = _log_softmax_rows(logits)
            keep: list[int] = []
            keep_tok: list[int] = []
            keep_cum: list[float] = []
            for s, lo, hi in _sentences(owner):
                pool = finished[s]
                survivors = _expand(cum[lo:hi], logp[lo:hi], prefixes[lo:hi],
                                    step, cfg, pool)
                if (not survivors or len(pool) >= k
                        or (pool and max(c for _, _, c in survivors) / lp_cap
                            <= max(norm for norm, _ in pool))):
                    results[s] = _best(pool, prefixes[lo:hi], cum[lo:hi], cfg)
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
    # sentences still live after max_decode_len steps
    for s, lo, hi in _sentences(owner):
        if results[s] is None:
            results[s] = _best(finished[s], prefixes[lo:hi], cum[lo:hi], cfg)
    return results


def _sentences(owner: np.ndarray) -> list[tuple[int, int, int]]:
    """(sentence, first row, end row) of each run of rows it owns."""
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    ends = np.append(starts[1:], len(owner))
    return [(int(owner[lo]), int(lo), int(hi)) for lo, hi in zip(starts, ends)]


def _expand(cum: np.ndarray, logp: np.ndarray, prefixes: np.ndarray,
            step: int, cfg: BeamConfig,
            finished: list[tuple[float, tuple[int, ...]]]
            ) -> list[tuple[int, int, float]]:
    """One beam step of one sentence: add its finished candidates to
    ``finished`` and return up to beam_size (beam, token, cum) survivors."""
    k = cfg.beam_size
    flat = (cum[:, None] + logp).ravel()
    # 2k candidates guarantee k survivors: each beam contributes at
    # most one end-marker candidate
    take = min(2 * k, flat.size)
    top = np.argpartition(-flat, take - 1)[:take]
    top = top[np.argsort(-flat[top], kind="stable")]
    survivors: list[tuple[int, int, float]] = []
    for rank, idx in enumerate(top):
        beam, tok = divmod(int(idx), logp.shape[1])
        score = float(flat[idx])
        if tok == EOS_ID:
            # only end markers that made the beam proper finish; a
            # lower-ranked one would stop beam_size=1 where greedy
            # keeps going
            if rank < k:
                norm = score / length_penalty(step + 1, cfg.alpha)
                finished.append((norm, tuple(prefixes[beam, 1:].tolist())))
        elif len(survivors) < k:
            survivors.append((beam, tok, score))
    return survivors


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
