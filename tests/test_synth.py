"""Synthetic corpus generator contracts."""

import hashlib
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth_oracle as oracle
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
        assert src is not tgt

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


class TestDegenerateTopicModel:
    @pytest.mark.parametrize("generate", [zipfian_corpus, synthetic_pairs])
    @pytest.mark.parametrize("n_topics", [0, -1])
    def test_rejects_non_positive_n_topics(self, generate, n_topics):
        with pytest.raises(ConfigError, match="n_topics"):
            generate(0, n_topics=n_topics)

    @pytest.mark.parametrize("generate", [zipfian_corpus, synthetic_pairs])
    @pytest.mark.parametrize("exponent", [float("nan"), float("-inf"), -1000.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_exponent_without_distribution(self, generate, exponent):
        with pytest.raises(ConfigError, match="exponent"):
            generate(0, exponent=exponent)

    @pytest.mark.parametrize("generate", [zipfian_corpus, synthetic_pairs])
    def test_rejects_negative_spec_power(self, generate):
        with pytest.raises(ConfigError, match="spec_power"):
            generate(0, spec_power=-0.5)


# The per-call word tables against the per-token loops they replaced
# (synth_oracle), line for line

@st.composite
def _topic_settings(draw):
    vocab_size = draw(st.integers(2, 5000))
    # the topic model holds vocab_size x n_topics float arrays; the cap
    # keeps each under 2 MB and still reaches n_topics == vocab_size up
    # to 500 words
    n_topics = draw(st.integers(1, min(vocab_size, 250_000 // vocab_size)))
    return dict(vocab_size=vocab_size, n_topics=n_topics,
                exponent=draw(st.floats(0.0, 2.0)),
                spec_power=draw(st.floats(0.0, 3.0)))


@st.composite
def _lengths(draw):
    min_len = draw(st.integers(1, 60))
    return dict(min_len=min_len, max_len=draw(st.integers(min_len, 60)))


_FOUR_DIGIT_IDS = dict(vocab_size=5000, n_topics=50, exponent=0.0,
                       spec_power=1.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), topics=_topic_settings(),
       lengths=_lengths(), n_pairs=st.integers(1, 40),
       task=st.sampled_from(["copy", "mapped"]))
@example(seed=0, topics=_FOUR_DIGIT_IDS, lengths=dict(min_len=60, max_len=60),
         n_pairs=20, task="mapped")
@example(seed=1, topics=dict(vocab_size=2, n_topics=2, exponent=2.0,
                             spec_power=3.0),
         lengths=dict(min_len=1, max_len=1), n_pairs=5, task="copy")
def test_synthetic_pairs_match_oracle(seed, topics, lengths, n_pairs, task):
    kwargs = dict(n_pairs=n_pairs, task=task, **topics, **lengths)
    assert synthetic_pairs(seed, **kwargs) == \
        oracle.synthetic_pairs(seed, **kwargs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), topics=_topic_settings(),
       lengths=_lengths(), n_tokens=st.integers(1, 600))
@example(seed=0, topics=_FOUR_DIGIT_IDS, lengths=dict(min_len=60, max_len=60),
         n_tokens=600)
@example(seed=1, topics=dict(vocab_size=2, n_topics=1, exponent=0.0,
                             spec_power=0.0),
         lengths=dict(min_len=1, max_len=1), n_tokens=1)
def test_zipfian_corpus_matches_oracle(seed, topics, lengths, n_tokens):
    kwargs = dict(n_tokens=n_tokens, **topics, **lengths)
    assert zipfian_corpus(seed, **kwargs) == \
        oracle.zipfian_corpus(seed, **kwargs)


def test_four_digit_ids_appear():
    src, _ = synthetic_pairs(0, n_pairs=20, min_len=60, max_len=60,
                             **_FOUR_DIGIT_IDS)
    assert any(len(w) == 5 for line in src for w in line.split())


class TestBenchmarkCorpora:
    """The corpora the benchmark workloads generate, pinned by digest so
    that a change to the generators cannot move them unseen.  The calls
    are written out as the workloads make them, for seed 17."""

    SEED = 17

    @staticmethod
    def _digest(pair) -> str:
        h = hashlib.sha256()
        for side in pair:
            h.update("".join(line + "\n" for line in side).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("call, expected", [
        # train-norm: training and dev corpora
        (lambda s: synthetic_pairs(s, 5000, vocab_size=200, task="mapped"),
         "7e5a81dabbf1a90e3f926d77ca96362d3aa121f53fd39764cb1e723433f5863d"),
        (lambda s: synthetic_pairs(s + 1_000_003, 300, vocab_size=200,
                                   task="mapped"),
         "6a8741124954aa2c88888af6a34ff9a49a03383cb4718e9feed147cc3d1cdc72"),
        # decode-beam: the checkpoint's fixed training corpus and test set
        (lambda s: synthetic_pairs(0, 5000, vocab_size=200, task="mapped"),
         "bac0f46ffd3c30d860db92b8d019d35bfc1383cae365427c1c6cb8ec8e0c434d"),
        (lambda s: synthetic_pairs(s + 2_000_003, 500, vocab_size=200,
                                   task="mapped"),
         "c5f4dd6959f11279d037c682a20c7412f94e7a8d6fa551ae5d5e430580763399"),
        # embed-score
        (lambda s: synthetic_pairs(s, 30000, vocab_size=220, max_len=24),
         "27896104cca1e242bb845bfc372b796f9ae5599cd4a848e1aed96497de141971"),
    ], ids=["train-norm-train", "train-norm-dev", "decode-beam-checkpoint",
            "decode-beam-test", "embed-score"])
    def test_digest(self, call, expected):
        assert self._digest(call(self.SEED)) == expected
