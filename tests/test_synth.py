"""Synthetic corpus generator contracts."""

from collections import Counter

import pytest

from normcl.errors import ConfigError
from normcl.synth import synthetic_pairs, zipfian_corpus


class TestZipfianCorpus:
    def test_deterministic_per_seed(self):
        assert zipfian_corpus(3, n_tokens=2000) == zipfian_corpus(3, n_tokens=2000)
        assert zipfian_corpus(3, n_tokens=2000) != zipfian_corpus(4, n_tokens=2000)

    def test_token_budget_and_lengths(self):
        lines = zipfian_corpus(0, n_tokens=5000, min_len=5, max_len=24)
        lens = [len(l.split()) for l in lines]
        assert sum(lens) >= 5000
        assert min(lens) >= 5 and max(lens) <= 24

    def test_marginals_are_roughly_zipfian(self):
        lines = zipfian_corpus(1, vocab_size=50, n_tokens=200_000, n_topics=10)
        counts = Counter(w for l in lines for w in l.split())
        # rank-1 over rank-10 frequency ratio should be near 10**1.1
        ratio = counts["w000"] / counts["w009"]
        assert 0.7 * 10 ** 1.1 < ratio < 1.4 * 10 ** 1.1

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ConfigError):
            zipfian_corpus(0, vocab_size=1)
        with pytest.raises(ConfigError):
            zipfian_corpus(0, min_len=9, max_len=3)


class TestSyntheticPairs:
    def test_copy_task_mirrors_source(self):
        src, tgt = synthetic_pairs(0, n_pairs=50, task="copy")
        assert src == tgt

    def test_mapped_task_is_consistent_cipher(self):
        src1, tgt1 = synthetic_pairs(0, n_pairs=200, task="mapped")
        src2, tgt2 = synthetic_pairs(7, n_pairs=200, task="mapped")
        mapping: dict[str, str] = {}
        for s_line, t_line in zip(src1 + src2, tgt1 + tgt2):
            for s, t in zip(s_line.split(), t_line.split()):
                assert mapping.setdefault(s, t) == t

    def test_sides_align_in_length(self):
        src, tgt = synthetic_pairs(2, n_pairs=100, task="mapped")
        assert all(len(s.split()) == len(t.split()) for s, t in zip(src, tgt))

    def test_rejects_unknown_task(self):
        with pytest.raises(ConfigError):
            synthetic_pairs(0, task="reverse")
