"""Synthetic corpora for tests and desk-scale experiments.

Both generators draw words from a Zipfian unigram distribution
p(rank) proportional to 1/(rank+1)**exponent, organized by a small
topic model that mimics how natural text distributes words:

* every word has a specificity lambda(rank) = (log(rank+2)/log(V+1))
  ** spec_power, rising smoothly from near 0 (frequent words are
  topic-neutral) to 1 (the rarest words live in a single home topic);
* a word's unigram mass is split across topics as (1-lambda)/K
  everywhere plus lambda on its home topic (home = rank mod K);
* a sentence picks one topic (by topic mass) and draws all its words
  from that topic's word distribution.

Global unigram frequencies therefore stay exactly Zipfian while
contexts become sharper for rarer words, which is the structure the
frequency/norm trend of skip-gram embeddings feeds on.  Everything is
fully determined by the seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["zipfian_corpus", "synthetic_pairs"]


def _word(i: int) -> str:
    return f"w{i:03d}"


class _TopicModel:
    def __init__(self, vocab_size: int, exponent: float, n_topics: int,
                 spec_power: float):
        if n_topics < 1:
            raise ConfigError(f"n_topics {n_topics} is not positive")
        if vocab_size < n_topics:
            raise ConfigError(
                f"vocab_size {vocab_size} smaller than n_topics {n_topics}"
            )
        if not spec_power >= 0:
            raise ConfigError(f"spec_power {spec_power} is not >= 0")
        ranks = np.arange(vocab_size)
        unigram = 1.0 / (ranks + 1.0) ** exponent
        unigram /= unigram.sum()
        if not np.isfinite(unigram).all():
            raise ConfigError(f"exponent {exponent} gives no distribution")
        lam = (np.log(ranks + 2.0) / np.log(vocab_size + 1.0)) ** spec_power
        alloc = np.repeat(((1.0 - lam) / n_topics)[:, None], n_topics, axis=1)
        alloc[ranks, ranks % n_topics] += lam
        joint = unigram[:, None] * alloc
        topic_mass = joint.sum(axis=0)
        self.topic_cdfs = np.cumsum(joint / topic_mass, axis=0).T.copy()
        self.topic_cdfs[:, -1] = 1.0
        self.mass_cdf = np.cumsum(topic_mass / topic_mass.sum())
        self.mass_cdf[-1] = 1.0

    def sentence_ids(self, rng: np.random.Generator, length: int) -> list[int]:
        z = self.mass_cdf.searchsorted(rng.random())
        return self.topic_cdfs[z].searchsorted(rng.random(length)).tolist()


def zipfian_corpus(seed: int, vocab_size: int = 220, n_tokens: int = 220_000,
                   exponent: float = 1.1, min_len: int = 5, max_len: int = 24,
                   n_topics: int = 20, spec_power: float = 2.0) -> list[str]:
    """Monolingual lines totalling at least n_tokens tokens."""
    if vocab_size < 2 or n_tokens < 1 or min_len < 1 or max_len < min_len:
        raise ConfigError("degenerate zipfian_corpus parameters")
    rng = np.random.default_rng(seed)
    model = _TopicModel(vocab_size, exponent, n_topics, spec_power)
    words = [_word(i) for i in range(vocab_size)]
    lines: list[str] = []
    produced = 0
    while produced < n_tokens:
        n = int(rng.integers(min_len, max_len + 1))
        lines.append(" ".join([words[i] for i in model.sentence_ids(rng, n)]))
        produced += n
    return lines


def synthetic_pairs(seed: int, n_pairs: int = 5000, vocab_size: int = 200,
                    exponent: float = 1.1, min_len: int = 3, max_len: int = 12,
                    task: str = "copy", n_topics: int = 20,
                    spec_power: float = 2.0) -> tuple[list[str], list[str]]:
    """Parallel (source, target) line lists for the desk-scale task.

    task="copy" repeats the source on the target side; task="mapped"
    sends each word through a fixed random permutation (a substitution
    cipher), keeping the mapping learnable while the sides differ.
    """
    if task not in ("copy", "mapped"):
        raise ConfigError(f"unknown task {task!r}")
    if vocab_size < 2 or n_pairs < 1 or min_len < 1 or max_len < min_len:
        raise ConfigError("degenerate synthetic_pairs parameters")
    rng = np.random.default_rng(seed)
    model = _TopicModel(vocab_size, exponent, n_topics, spec_power)
    words = [_word(i) for i in range(vocab_size)]
    # the cipher ignores the seed so separate train/dev draws stay consistent
    perm = np.random.default_rng(991).permutation(vocab_size).tolist()
    targets = words if task == "copy" else [words[i] for i in perm]
    src_lines, tgt_lines = [], []
    for _ in range(n_pairs):
        ids = model.sentence_ids(rng, int(rng.integers(min_len, max_len + 1)))
        src_lines.append(" ".join([words[i] for i in ids]))
        tgt_lines.append(" ".join([targets[i] for i in ids]))
    return src_lines, tgt_lines
