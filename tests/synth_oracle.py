"""The per-token synthetic generators that the per-call word tables
replaced, kept verbatim as the reference whose lines ``normcl.synth``
must reproduce byte for byte."""

import numpy as np


def _word(i: int) -> str:
    return f"w{i:03d}"


class _TopicModel:
    def __init__(self, vocab_size: int, exponent: float, n_topics: int,
                 spec_power: float):
        ranks = np.arange(vocab_size)
        unigram = 1.0 / (ranks + 1.0) ** exponent
        unigram /= unigram.sum()
        lam = (np.log(ranks + 2.0) / np.log(vocab_size + 1.0)) ** spec_power
        alloc = np.repeat(((1.0 - lam) / n_topics)[:, None], n_topics, axis=1)
        alloc[ranks, ranks % n_topics] += lam
        joint = unigram[:, None] * alloc
        topic_mass = joint.sum(axis=0)
        self.topic_cdfs = np.cumsum(joint / topic_mass, axis=0).T.copy()
        self.topic_cdfs[:, -1] = 1.0
        self.mass_cdf = np.cumsum(topic_mass / topic_mass.sum())
        self.mass_cdf[-1] = 1.0

    def sentence_ids(self, rng: np.random.Generator, length: int) -> np.ndarray:
        z = int(np.searchsorted(self.mass_cdf, rng.random()))
        return np.searchsorted(self.topic_cdfs[z], rng.random(length))


def zipfian_corpus(seed: int, vocab_size: int = 220, n_tokens: int = 220_000,
                   exponent: float = 1.1, min_len: int = 5, max_len: int = 24,
                   n_topics: int = 20, spec_power: float = 2.0) -> list[str]:
    rng = np.random.default_rng(seed)
    model = _TopicModel(vocab_size, exponent, n_topics, spec_power)
    lines: list[str] = []
    produced = 0
    while produced < n_tokens:
        n = int(rng.integers(min_len, max_len + 1))
        ids = model.sentence_ids(rng, n)
        lines.append(" ".join(_word(i) for i in ids))
        produced += n
    return lines


def synthetic_pairs(seed: int, n_pairs: int = 5000, vocab_size: int = 200,
                    exponent: float = 1.1, min_len: int = 3, max_len: int = 12,
                    task: str = "copy", n_topics: int = 20,
                    spec_power: float = 2.0) -> tuple[list[str], list[str]]:
    rng = np.random.default_rng(seed)
    model = _TopicModel(vocab_size, exponent, n_topics, spec_power)
    # the cipher ignores the seed so separate train/dev draws stay consistent
    perm = np.random.default_rng(991).permutation(vocab_size)
    src_lines, tgt_lines = [], []
    for _ in range(n_pairs):
        n = int(rng.integers(min_len, max_len + 1))
        ids = model.sentence_ids(rng, n)
        src_lines.append(" ".join(_word(i) for i in ids))
        out = ids if task == "copy" else perm[ids]
        tgt_lines.append(" ".join(_word(i) for i in out))
    return src_lines, tgt_lines
