"""Difficulty, CDF, competence, weight, and sampler contracts."""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

import normcl.curriculum
from corpus_oracle import corpus_of, pairs_of
from normcl.corpus import UNK_ID, Vocabulary
from normcl.curriculum import (
    CompetenceSchedule, DifficultyProfile, SamplerState, cdf_normalize,
    competence_norm, competence_time, embedding_matrix_norm, sample_batch,
    sentence_weight,
)
from normcl.embedding import EmbeddingTable
from normcl.errors import ConfigError, DataError, DegenerateStateError

# sqrt(0.50005), the exact midpoint value of both competence formulas
# at c0 = 0.01 (radicand 0.5*(1 - c0^2) + c0^2)
MIDPOINT = 0.7071421356417675


def _table(norms):
    # diagonal-ish matrix whose row norms are exactly `norms`
    m = np.zeros((len(norms), 2))
    m[:, 0] = norms
    return EmbeddingTable([f"t{i}" for i in range(len(norms))], m)


def _oracle_norm(sentence, table):
    """Sum of word-vector norms, one token at a time, left to right."""
    if len(sentence) == 0:
        raise DataError("cannot score an empty sentence")
    score = 0.0
    for t in sentence:
        score += float(table.word_norms[t])
    return score


def _oracle_rarity(sentence, vocab):
    """Sum of -log unigram probability; zero-count ids get the rarest
    in-vocabulary probability."""
    if len(sentence) == 0:
        raise DataError("cannot score an empty sentence")
    total = vocab.total_count
    floor = min(c for c in vocab.counts if c > 0)
    score = 0.0
    for t in sentence:
        count = vocab.counts[t]
        score -= math.log((count if count > 0 else floor) / total)
    return score


def _score(criterion, sentence, **inputs):
    """Raw difficulty of one sentence through DifficultyProfile.build."""
    corpus = corpus_of([(sentence, (4,))])
    return DifficultyProfile.build(corpus, criterion, **inputs).raw[0]


def _corpus(lengths):
    return corpus_of([([4] * s, [4] * t) for s, t in lengths])


class TestDifficultyCriteria:
    def test_norm_sum(self):
        # ids start at 4: id 1 is the unknown token, which reports the
        # vocabulary-max norm instead of its own row
        table = _table([0, 0, 0, 0, 1.5, 2.0, 0.5])
        assert _score("norm", [4, 5, 6], table=table) == pytest.approx(4.0)
        assert _score("norm", [4], table=_table([0, 0, 0, 0, 7.25])) == 7.25

    def test_unknown_token_contributes_max_norm(self):
        table = _table([0, 0, 0, 0, 1.5, 2.0, 0.5])
        assert _score("norm", [1], table=table) == 2.0

    def test_appending_positive_norm_token_increases(self):
        table = _table([0, 0, 0, 0, 1.5, 2.0, 0.5])
        base = _score("norm", [4, 5], table=table)
        assert _score("norm", [4, 5, 6], table=table) > base

    def test_empty_sentence_rejected(self):
        with pytest.raises(DataError):
            _score("norm", [], table=_table([1.0]))

    def test_length_is_token_count(self):
        assert _score("length", [5, 6, 7]) == 3.0
        assert _score("length", list(range(200))) == 200.0

    def test_length_additivity(self):
        a, b = [1, 2, 3], [4, 5]
        assert _score("length", a + b) == (
            _score("length", a) + _score("length", b)
        )

    def test_rarity_hand_computed(self):
        # 4-token corpus, "a" appears twice: p(a) = 0.5
        vocab = Vocabulary(["<pad>", "<unk>", "<s>", "</s>", "a", "b", "c"],
                           [0, 0, 0, 0, 2, 1, 1])
        a = vocab.encode_token("a")
        assert _score("rarity", [a], vocab=vocab) == pytest.approx(
            0.6931471805599453, rel=1e-12)
        assert _score("rarity", [a, a], vocab=vocab) == pytest.approx(
            1.3862943611198906, rel=1e-12)

    def test_rarity_zero_count_uses_rarest_probability(self):
        vocab = Vocabulary(["<pad>", "<unk>", "<s>", "</s>", "a", "b"],
                           [0, 0, 0, 0, 3, 1])
        rare = _score("rarity", [5], vocab=vocab)
        assert _score("rarity", [1], vocab=vocab) == pytest.approx(rare)

    def test_most_frequent_token_is_easiest_singleton(self):
        vocab = Vocabulary(["<pad>", "<unk>", "<s>", "</s>", "a", "b", "c"],
                           [0, 0, 0, 0, 5, 3, 2])
        scores = [_score("rarity", [t], vocab=vocab) for t in (4, 5, 6)]
        assert scores[0] == min(scores)

    def test_build_matches_per_sentence_oracles_bit_for_bit(self):
        # ids cover the unknown token and zero-count words; lengths vary,
        # so most rows of the padded matrix end in padding
        rng = np.random.default_rng(5)
        n_ids = 40
        counts = [0, 0, 0, 0] + rng.integers(0, 50, size=n_ids - 4).tolist()
        vocab = Vocabulary([f"t{i}" for i in range(n_ids)], counts)
        table = EmbeddingTable(vocab.tokens, rng.normal(size=(n_ids, 7)))
        sentences = [rng.integers(UNK_ID, n_ids, size=rng.integers(1, 31))
                     for _ in range(300)]
        corpus = corpus_of([(s.tolist(), (4,)) for s in sentences])
        for criterion, oracle, inputs in (("norm", _oracle_norm, table),
                                          ("rarity", _oracle_rarity, vocab)):
            prof = DifficultyProfile.build(corpus, criterion, table=table,
                                           vocab=vocab)
            want = [oracle(s.tolist(), inputs) for s in sentences]
            assert prof.raw.tolist() == want


class TestCdfNormalize:
    def test_four_point_example(self):
        assert cdf_normalize([2.0, 5.0, 3.0, 9.0]).tolist() == [0.25, 0.75, 0.5, 1.0]

    def test_tie_rule(self):
        assert cdf_normalize([1.0, 1.0, 2.0]).tolist() == [2 / 3, 2 / 3, 1.0]

    def test_all_equal_gives_ones(self):
        assert cdf_normalize([7.0] * 5).tolist() == [1.0] * 5

    def test_distinct_values_give_uniform_multiset(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            raws = rng.permutation(n) * 1.0
            got = sorted(cdf_normalize(raws).tolist())
            assert got == [(k + 1) / n for k in range(n)]

    def test_permutation_equivariance_small(self):
        raws = np.array([0.3, 1.7, 0.3, 2.2, 0.9])
        base = cdf_normalize(raws)
        for perm in itertools.permutations(range(5)):
            p = list(perm)
            assert np.array_equal(cdf_normalize(raws[p]), base[p])

    def test_permutation_equivariance_large(self):
        rng = np.random.default_rng(1)
        raws = rng.normal(size=10_000)
        base = cdf_normalize(raws)
        p = rng.permutation(10_000)
        assert np.array_equal(cdf_normalize(raws[p]), base[p])

    def test_monotone_in_raw(self):
        rng = np.random.default_rng(2)
        raws = rng.normal(size=300)
        cdf = cdf_normalize(raws)
        order = np.argsort(raws)
        assert (np.diff(cdf[order]) >= 0).all()

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            cdf_normalize([])


class TestCompetenceTime:
    def test_exact_endpoints(self):
        assert competence_time(0, 0.01, 1000) == 0.01
        assert competence_time(1000, 0.01, 1000) == 1.0
        assert competence_time(5000, 0.01, 1000) == 1.0

    def test_midpoint_value(self):
        assert competence_time(500, 0.01, 1000) == pytest.approx(MIDPOINT, rel=1e-15)

    def test_non_decreasing(self):
        values = [competence_time(t, 0.01, 777) for t in range(0, 1200, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCompetenceNorm:
    def test_exact_endpoints(self):
        assert competence_norm(100.0, 100.0, 0.01, 2.5) == 0.01
        assert competence_norm(350.0, 100.0, 0.01, 2.5) == 1.0
        assert competence_norm(9999.0, 100.0, 0.01, 2.5) == 1.0

    def test_midpoint_value(self):
        assert competence_norm(225.0, 100.0, 0.01, 2.5) == pytest.approx(
            MIDPOINT, rel=1e-15)

    def test_below_anchor_clamps_to_c0(self):
        assert competence_norm(42.0, 100.0, 0.01, 2.5) == 0.01

    def test_non_decreasing_in_m_t(self):
        values = [competence_norm(m, 50.0, 0.01, 2.5) for m in np.linspace(0, 400, 97)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestMatrixNorm:
    def test_hand_example(self):
        assert embedding_matrix_norm(np.array([[3.0, 4.0], [0.0, 0.5]])) == 5.5

    def test_scaled_identity(self):
        for n, k in ((3, 2.0), (5, -0.25)):
            assert embedding_matrix_norm(k * np.eye(n)) == pytest.approx(n * abs(k))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(10, 4))
        brute = sum(math.sqrt(sum(x * x for x in row)) for row in m.tolist())
        assert embedding_matrix_norm(m) == pytest.approx(brute, rel=1e-12)

    def test_row_sum_is_a_monotone_driver(self):
        # growing any row grows the norm
        rng = np.random.default_rng(6)
        m = rng.normal(size=(6, 3))
        grown = m.copy()
        grown[2] *= 3.0
        assert embedding_matrix_norm(grown) > embedding_matrix_norm(m)

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateStateError):
            embedding_matrix_norm(np.zeros((3, 2)))


class TestSentenceWeight:
    def test_ratio_one_is_exactly_one(self):
        for lw in (0.0, 0.5, 1.0, 3.0):
            assert sentence_weight(0.37, 0.37, lw) == 1.0

    def test_zero_exponent_is_exactly_one(self):
        assert sentence_weight(0.123, 0.9, 0.0) == 1.0

    def test_quarter_over_one_sqrt(self):
        assert sentence_weight(0.25, 1.0, 0.5) == 0.5

    def test_bounded_by_one_when_not_harder_than_competence(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            c = rng.uniform(0.05, 1.0)
            d = rng.uniform(0.0, 1.0) * c
            if d == 0.0:
                continue
            assert 0.0 < sentence_weight(d, c, rng.uniform(0.0, 4.0)) <= 1.0

    def test_monotone_in_difficulty(self):
        assert sentence_weight(0.8, 0.5, 0.5) > sentence_weight(0.4, 0.5, 0.5)

    def test_batch_matches_one_at_a_time(self):
        # numpy's vectorized power may round differently from the scalar
        # pow, by at most a unit in the last place
        d = np.random.default_rng(9).uniform(0.01, 1.0, 200)
        for lw in (0.0, 0.5, 1.7):
            batch = sentence_weight(d, 0.37, lw)
            assert batch.shape == d.shape
            one_by_one = [sentence_weight(float(x), 0.37, lw) for x in d]
            np.testing.assert_allclose(batch, one_by_one, rtol=2 ** -52, atol=0)


class TestDifficultyProfile:
    def _corpus(self):
        return corpus_of([((4, 5), (4,)), ((6,), (5, 6)), ((4, 5, 6), (6,))])

    def test_norm_criterion_orders_by_norm_sums(self):
        table = _table([0, 0, 0, 0, 1.0, 2.0, 10.0])
        prof = DifficultyProfile.build(self._corpus(), "norm", table=table)
        assert prof.raw.tolist() == [3.0, 10.0, 13.0]
        assert prof.cdf.tolist() == [1 / 3, 2 / 3, 1.0]

    def test_length_criterion(self):
        prof = DifficultyProfile.build(self._corpus(), "length")
        assert prof.raw.tolist() == [2.0, 1.0, 3.0]
        assert prof.cdf.tolist() == [2 / 3, 1 / 3, 1.0]

    def test_rarity_criterion(self):
        vocab = Vocabulary(["<pad>", "<unk>", "<s>", "</s>", "a", "b", "c"],
                           [0, 0, 0, 0, 4, 2, 2])
        prof = DifficultyProfile.build(self._corpus(), "rarity", vocab=vocab)
        assert prof.raw[2] == max(prof.raw)

    def test_invert_flips_order(self):
        fwd = DifficultyProfile.build(self._corpus(), "length")
        rev = DifficultyProfile.build(self._corpus(), "length", invert=True)
        assert np.argsort(fwd.cdf).tolist() == np.argsort(rev.cdf)[::-1].tolist()
        assert rev.raw.tolist() == fwd.raw.tolist()  # raws stay unflipped

    def test_save_load_round_trip_exact(self, tmp_path):
        prof = DifficultyProfile.build(self._corpus(), "length")
        p = tmp_path / "diff.tsv"
        prof.save(p)
        back = DifficultyProfile.load(p)
        assert np.array_equal(back.raw, prof.raw)
        assert np.array_equal(back.cdf, prof.cdf)
        assert back.criterion == "length"

    @pytest.mark.parametrize("n", [1, 3, 7, 9])
    def test_save_in_blocks_writes_the_whole_text(self, tmp_path, monkeypatch, n):
        """Rows are written three at a time here: the file holds the same
        bytes as the whole text formatted at once."""
        monkeypatch.setattr(normcl.curriculum, "_SAVE_ROWS", 3)
        raw = np.random.default_rng(n).normal(size=n) * 1e3
        prof = DifficultyProfile(raw, cdf_normalize(raw), "norm")
        p = tmp_path / "diff.tsv"
        prof.save(p)
        assert p.read_text(encoding="utf-8") == "".join(
            f"{i}\t{r!r}\t{c!r}\tnorm\n"
            for i, (r, c) in enumerate(zip(raw.tolist(), prof.cdf.tolist())))

    @pytest.mark.parametrize("raw, cdf", [
        ([1.0, math.nan], [0.5, 1.0]), ([math.inf, 1.0], [1.0, 0.5]),
        ([1.0, 2.0], [0.0, 1.0]), ([1.0, 2.0], [0.5, 1.5]),
        ([1.0, 2.0], [0.5, math.nan]),
    ])
    def test_non_finite_raw_or_cdf_outside_unit_interval_rejected(self, raw, cdf):
        with pytest.raises(DataError):
            DifficultyProfile(np.array(raw), np.array(cdf), "length")

    def test_load_names_file_of_non_finite_raw(self, tmp_path):
        p = tmp_path / "diff.tsv"
        p.write_text("0\t1.5\t0.5\tnorm\n1\tnan\t1.0\tnorm\n")
        with pytest.raises(DataError, match="sentence 1 in .*diff.tsv"):
            DifficultyProfile.load(p)

    def test_missing_inputs_rejected(self):
        with pytest.raises(ConfigError):
            DifficultyProfile.build(self._corpus(), "norm")
        with pytest.raises(ConfigError):
            DifficultyProfile.build(self._corpus(), "rarity")


class TestCompetenceSchedule:
    def test_time_kind_tracks_steps(self):
        sched = CompetenceSchedule("time_sqrt", c0=0.01, lambda_t=100)
        assert sched.competence(0) == 0.01
        assert sched.competence(100) == 1.0

    def test_norm_kind_needs_anchor(self):
        sched = CompetenceSchedule("norm_based", lambda_m=2.5)
        with pytest.raises(ConfigError):
            sched.competence(0)
        sched.set_anchor(100.0)
        assert sched.competence(0) == 0.01

    def test_driver_is_running_peak(self):
        sched = CompetenceSchedule("norm_based", lambda_m=2.5)
        sched.set_anchor(100.0)
        sched.observe_norm(225.0)
        mid = sched.competence(0)
        sched.observe_norm(150.0)  # dip must not lower competence
        assert sched.competence(0) == mid == pytest.approx(MIDPOINT, rel=1e-15)

    def test_state_round_trip(self):
        sched = CompetenceSchedule("norm_based", lambda_m=2.5)
        sched.set_anchor(80.0)
        sched.observe_norm(140.0)
        back = CompetenceSchedule(**asdict(sched))
        assert back.competence(0) == sched.competence(0)

    def test_none_kind_is_full_competence_and_tracks_driver(self):
        sched = CompetenceSchedule("none")
        sched.set_anchor(50.0)
        sched.observe_norm(40.0)
        assert sched.competence(0) == sched.competence(10 ** 6) == 1.0
        assert sched.driver == 50.0
        sched.observe_norm(60.0)
        assert sched.driver == 60.0

    def test_c0_range_is_half_open(self):
        sched = CompetenceSchedule("time_sqrt", c0=1.0, lambda_t=10)
        assert sched.competence(0) == 1.0
        for c0 in (0.0, 1.01):
            with pytest.raises(ConfigError, match="c0"):
                CompetenceSchedule("time_sqrt", c0=c0, lambda_t=10)

    def test_rejects_bad_kinds_and_params(self):
        with pytest.raises(ConfigError):
            CompetenceSchedule("linear")
        with pytest.raises(ConfigError):
            CompetenceSchedule("time_sqrt")
        with pytest.raises(ConfigError):
            CompetenceSchedule("norm_based", lambda_m=0.0)


class TestSampler:
    def _profile(self, n):
        raws = np.arange(1, n + 1, dtype=float)
        return DifficultyProfile(raws, cdf_normalize(raws), "length")

    def test_eligibility_strict_enumeration(self):
        corpus = _corpus([(2, 2)] * 10)
        state = SamplerState(corpus, self._profile(10), token_budget=100,
                             min_pool=1, seed=0)
        # cdf values k/10; strict < 0.35 leaves {0.1, 0.2, 0.3}
        assert state.eligible_count(0.35) == 3
        seen = set()
        for trial in range(200):
            seen.update(sample_batch(state, corpus, 0.35).tolist())
        assert seen == {0, 1, 2}

    def test_chat_one_includes_whole_corpus(self):
        corpus = _corpus([(2, 2)] * 10)
        state = SamplerState(corpus, self._profile(10), token_budget=4, seed=1)
        assert state.eligible_count(1.0) == 10
        seen = set()
        for trial in range(300):
            seen.update(sample_batch(state, corpus, 1.0).tolist())
        assert seen == set(range(10))

    def test_min_pool_floor(self):
        corpus = _corpus([(2, 2)] * 10)
        state = SamplerState(corpus, self._profile(10), token_budget=100,
                             min_pool=2, seed=2)
        assert state.eligible_count(0.05) == 2
        seen = set()
        for trial in range(100):
            seen.update(sample_batch(state, corpus, 0.05).tolist())
        assert seen == {0, 1}

    def test_budget_respected_after_first_pair(self):
        corpus = _corpus([(3, 2), (4, 5), (2, 2), (5, 3), (1, 1)] * 4)
        state = SamplerState(corpus, self._profile(20), token_budget=12, seed=3)
        for trial in range(200):
            batch = sample_batch(state, corpus, 1.0)
            assert len(batch) >= 1
            assert corpus.src_lengths[batch].sum() <= 12
            assert corpus.tgt_lengths[batch].sum() <= 12

    def test_no_repeats_within_batch(self):
        corpus = _corpus([(1, 1)] * 6)
        state = SamplerState(corpus, self._profile(6), token_budget=100, seed=4)
        for trial in range(100):
            ids = sample_batch(state, corpus, 1.0).tolist()
            assert len(ids) == len(set(ids))

    def test_budget_too_small_rejected(self):
        corpus = _corpus([(5, 5), (6, 6)])
        state = SamplerState(corpus, self._profile(2), token_budget=4, seed=5)
        with pytest.raises(ConfigError):
            sample_batch(state, corpus, 1.0)

    def test_uniformity_on_fixed_pool(self):
        corpus = _corpus([(1, 1)] * 10)
        for seed in range(3):
            state = SamplerState(corpus, self._profile(10), token_budget=1, seed=seed)
            counts = np.zeros(10)
            n_draws = 10_000
            for trial in range(n_draws):
                batch = sample_batch(state, corpus, 1.0)
                assert len(batch) == 1
                counts[batch[0]] += 1
            # binomial 3-sigma band around n/10
            sigma = math.sqrt(n_draws * 0.1 * 0.9)
            assert (np.abs(counts - n_draws / 10) <= 3 * sigma).all()

    def test_rng_state_round_trip_resumes_exactly(self):
        corpus = _corpus([(2, 3)] * 8)
        a = SamplerState(corpus, self._profile(8), token_budget=10, seed=9)
        for _ in range(5):
            sample_batch(a, corpus, 1.0)
        saved = a.rng_state()
        next_a = sample_batch(a, corpus, 1.0).tolist()
        b = SamplerState(corpus, self._profile(8), token_budget=10, seed=0)
        b.set_rng_state(saved)
        assert sample_batch(b, corpus, 1.0).tolist() == next_a

    def test_natural_order_matches_reference_walk(self):
        corpus = _corpus([(2, 2), (3, 1), (1, 4), (2, 2), (4, 4), (1, 1)])
        state = SamplerState(corpus, None, token_budget=8, seed=11)
        ref_rng = np.random.default_rng(11)
        pairs = pairs_of(corpus)
        for step in range(50):
            batch = sample_batch(state, corpus, 1.0).tolist()
            perm = ref_rng.permutation(6)
            want, s_tot, t_tot = [], 0, 0
            for i in perm:
                s, t = len(pairs[int(i)].src), len(pairs[int(i)].tgt)
                if want and (s_tot + s > 8 or t_tot + t > 8):
                    break
                want.append(int(i))
                s_tot += s
                t_tot += t
            assert batch == want

    def test_profile_corpus_size_mismatch(self):
        corpus = _corpus([(1, 1)] * 4)
        with pytest.raises(DataError):
            SamplerState(corpus, self._profile(5), token_budget=10)
