"""Corpus BLEU oracles and invariances."""

import math
import random

import pytest

from normcl.bleu import bleu_report
from normcl.errors import DataError


def _split(*sentences):
    return [s.split() for s in sentences]


def _brute_precision(hyps, refs, n):
    """Independent clipped-count walk, no Counter arithmetic."""
    num = 0
    den = 0
    for hyp, ref in zip(hyps, refs):
        hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        for g in set(hyp_grams):
            num += min(hyp_grams.count(g), ref_grams.count(g))
        den += len(hyp_grams)
    return num, den


class TestOracles:
    def test_identity_is_exactly_100(self):
        hyps = _split("the cat sat on the mat", "a small step", "one two three four")
        assert bleu_report(hyps, [list(h) for h in hyps])["bleu"] == 100.0

    def test_short_hypotheses_without_fourgram_score_zero(self):
        hyps = _split("the cat", "on mat", "a b c")
        refs = _split("the cat is here", "it sat on the mat", "a b c d")
        assert bleu_report(hyps, refs)["bleu"] == 0.0

    def test_unigram_clipping_two_sevenths(self):
        hyps = _split("the the the the the the the")
        refs = _split("the cat is on the mat")
        report = bleu_report(hyps, refs)
        assert report["precisions"][0] == 2.0 / 7.0

    def test_clipping_matches_brute_force_counter(self):
        rng = random.Random(7)
        words = ["the", "cat", "is", "on", "mat", "dog", "sat"]
        hyps = [[rng.choice(words) for _ in range(rng.randint(4, 12))]
                for _ in range(20)]
        refs = [[rng.choice(words) for _ in range(rng.randint(4, 12))]
                for _ in range(20)]
        report = bleu_report(hyps, refs)
        for n in range(1, 5):
            num, den = _brute_precision(hyps, refs, n)
            want = num / den if den else 0.0
            assert abs(report["precisions"][n - 1] - want) < 1e-9

    def test_hand_counted_corpus(self):
        # 1g 4/5, 2g 3/4, 3g 2/3, 4g 1/2, bp exp(1 - 6/5)
        report = bleu_report(_split("it is on the mat"),
                             _split("the cat is on the mat"))
        assert report["precisions"] == [4 / 5, 3 / 4, 2 / 3, 1 / 2]
        assert report["brevity_penalty"] == pytest.approx(math.exp(-0.2), rel=1e-15)
        want = 100.0 * math.exp(-0.2) * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert report["bleu"] == pytest.approx(want, rel=1e-12)

    def test_perfect_ngrams_short_hypothesis(self):
        # all precisions 1, score is pure brevity penalty
        report = bleu_report(_split("a b c d"), _split("a b c d e"))
        assert report["precisions"] == [1.0, 1.0, 1.0, 1.0]
        assert report["bleu"] == pytest.approx(100.0 * math.exp(-0.25), rel=1e-12)


class TestBrevityPenalty:
    def test_long_hypothesis_unpenalized(self):
        report = bleu_report(_split("a b c d e f g h"), _split("a b c d e"))
        assert report["brevity_penalty"] == 1.0

    def test_shrinking_hypotheses_strictly_lowers_penalty(self):
        ref = _split("a b c d e f g h i j")
        bps = []
        for cut in (8, 6, 4, 2):
            report = bleu_report([ref[0][:cut]], ref)
            bps.append(report["brevity_penalty"])
        assert all(b < a for a, b in zip(bps, bps[1:]))

    def test_empty_hypothesis_scores_zero(self):
        report = bleu_report([[]], _split("a b c"))
        assert report["bleu"] == 0.0
        assert report["brevity_penalty"] == 0.0


class TestInvariances:
    def test_joint_permutation_leaves_score_unchanged(self):
        rng = random.Random(3)
        words = ["w%d" % i for i in range(12)]
        hyps = [[rng.choice(words) for _ in range(rng.randint(3, 10))]
                for _ in range(15)]
        refs = [[rng.choice(words) for _ in range(rng.randint(3, 10))]
                for _ in range(15)]
        base = bleu_report(hyps, refs)["bleu"]
        order = list(range(15))
        for trial in range(5):
            rng.shuffle(order)
            assert bleu_report([hyps[i] for i in order],
                               [refs[i] for i in order])["bleu"] == base


class TestContract:
    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            bleu_report([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            bleu_report(_split("a"), _split("a", "b"))

    def test_report_shape(self):
        report = bleu_report(_split("a b c d", "e f"), _split("a b c d", "e f g"))
        assert set(report) == {"bleu", "brevity_penalty", "precisions", "n_sentences"}
        assert report["n_sentences"] == 2
        assert len(report["precisions"]) == 4
