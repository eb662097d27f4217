"""Tokenizer, vocabulary, subword-merge and read-once corpus contracts."""

import random
import re
import json
import string
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_oracle as oracle
from corpus_oracle import (
    SentencePair, corpus_of, pairs_of, token_lines, traced_peak,
)
from normcl.cli import (
    DIFFICULTY_FILE, VOCAB_SRC_FILE, _dev_corpus, _prepare_corpus, _token_lines,
    main,
)
from normcl.config import run_config_from_dict
from normcl.corpus import (
    _PUNCT_SPACED, BOS_ID, EOS_ID, EOW, PAD_ID, SPECIALS, UNK_ID,
    MergeTable, TokenLines, Vocabulary, build_vocab,
    detokenize_subwords, learn_merges, load_parallel, read_fields, read_lines,
    tokenize,
)
from normcl.curriculum import (
    DifficultyProfile, SamplerState, cdf_normalize, sample_batch,
)
from normcl.errors import ConfigError, DataError
from normcl.model import EncodedBatch, build_batch
from normcl.synth import synthetic_pairs


class TestTokenize:
    def test_punctuation_is_separated(self):
        assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_hyphens_and_digits(self):
        assert tokenize("state-of-the-art 3.14") == [
            "state", "-", "of", "-", "the", "-", "art", "3", ".", "14",
        ]

    def test_idempotent_on_separated_text(self):
        once = tokenize("a , b .")
        assert tokenize(" ".join(once)) == once

    def test_empty_line(self):
        assert tokenize("   ") == []

    def test_matches_regex_oracle(self):
        # the regex tokenizer the translate table replaced
        punct = re.compile(r"([!\"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~])")
        rng = random.Random(5)
        alphabet = string.punctuation + " \t\x0b\x0c\r\x1c\x85\xa0\u3000aZ9é"
        for _ in range(5000):
            line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            assert tokenize(line) == punct.sub(r" \1 ", line).split(), line


class TestVocabulary:
    def test_specials_come_first_with_fixed_ids(self):
        v = build_vocab(token_lines(["a b b c c c"]), 1)
        assert tuple(v.tokens[:4]) == SPECIALS
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)

    def test_descending_count_then_lexicographic(self):
        v = build_vocab(token_lines(["b b a a c"]), 1)
        # a and b tie at 2, a sorts first; c trails with 1
        assert v.tokens[4:] == ["a", "b", "c"]
        assert v.counts[4:] == [2, 2, 1]

    def test_min_count_filters(self):
        v = build_vocab(token_lines(["a a b"]), min_count=2)
        assert "b" not in v.tokens
        assert v.encode_token("b") == UNK_ID

    def test_encode_decode(self):
        v = build_vocab(token_lines(["x y"]), 1)
        ids = [v.encode_token(t) for t in ["x", "zap", "y"]]
        assert ids[1] == UNK_ID
        assert v.decode([ids[0], ids[2]]) == ["x", "y"]

    def test_rejects_bad_min_count(self):
        # build_vocab trusts min_count; CorpusConfig refuses it at load
        with pytest.raises(ConfigError, match=r"corpus\.min_count"):
            run_config_from_dict({"corpus": {"min_count": 0}})

    def test_rejects_empty_stream(self):
        with pytest.raises(DataError):
            build_vocab(token_lines([]), 1)

    def test_tsv_round_trip_is_byte_identical(self, tmp_path):
        v = build_vocab(token_lines(["the cat sat on the mat", "a cat"]), 1)
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        v.save(p1)
        Vocabulary.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_missing_specials(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\t0\t3\n", encoding="utf-8")
        with pytest.raises(DataError):
            Vocabulary.load(p)


class TestLearnMerges:
    # Hand-run on "low low lower": pair counts are (l,o)=3, (o,w)=3,
    # (w,</w>)=2, (w,e)=1, (e,r)=1, (r,</w>)=1.  The count-3 tie breaks
    # lexicographically to ('l','o'); the next two merges follow as
    # ('lo','w') then ('low','</w>').
    CORPUS = ["low low lower"]

    def test_first_merge_is_lo(self):
        table = learn_merges(token_lines(self.CORPUS), n_merges=1)
        assert table.merges == [("l", "o")]

    def test_three_merge_sequence(self):
        table = learn_merges(token_lines(self.CORPUS), n_merges=3)
        assert table.merges == [("l", "o"), ("lo", "w"), ("low", EOW)]
        assert table.segment_word("low") == ("low" + EOW,)
        assert table.segment_word("lower") == ("low", "e", "r", EOW)

    def test_zero_merges_is_character_level(self):
        table = learn_merges(token_lines(self.CORPUS), n_merges=0)
        assert table.segment_word("low") == ("l", "o", "w", EOW)

    def test_stops_when_no_pairs_remain(self):
        table = learn_merges(token_lines(["a a a"]), n_merges=10)
        # 'a </w>' merges once, then the single-symbol type has no pairs
        assert table.merges == [("a", EOW)]

    def test_learning_is_deterministic(self):
        t1 = learn_merges(token_lines(["the cat sat on the mat"]), n_merges=8)
        t2 = learn_merges(token_lines(["the cat sat on the mat"]), n_merges=8)
        assert t1.merges == t2.merges

    def test_save_load_round_trip(self, tmp_path):
        table = learn_merges(token_lines(self.CORPUS), n_merges=3)
        p = tmp_path / "merges.txt"
        table.save(p)
        assert MergeTable.load(p).merges == table.merges


class TestRoundTrip:
    def test_detokenize_handles_fused_and_bare_markers(self):
        assert detokenize_subwords(["lo", "w" + EOW, "e", "r", EOW]) == ["low", "er"]

    def test_detokenize_flushes_trailing_fragment(self):
        # truncated decoder output: no final end-of-word marker
        assert detokenize_subwords(["ca", "t"]) == ["cat"]

    def test_segmentation_round_trip_random_words(self):
        rng = random.Random(7)
        words = [
            "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 12)))
            for _ in range(300)
        ]
        table = learn_merges(token_lines([" ".join(words)]), n_merges=60)
        for trial in range(50):
            sent = [rng.choice(words) for _ in range(rng.randint(1, 9))]
            assert detokenize_subwords(table.apply(sent)) == sent


class TestReadFields:
    def test_fields_are_converted_and_numbered_from_start(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("header\na\t1\t2.5\nb\t-3\t1e-3\n", encoding="utf-8")
        assert list(read_fields(p, "\t", (str, int, float), "row", start=2)) == [
            (2, ["a", 1, 2.5]), (3, ["b", -3, 1e-3])]

    @pytest.mark.parametrize("line", ["a\t1", "a\t1\t2.5\t", "a\tx\t2.5",
                                      "a\t1\t"],
                             ids=["short", "long", "bad_int", "empty_float"])
    def test_malformed_line_names_what_line_and_file(self, tmp_path, line):
        p = tmp_path / "f.tsv"
        p.write_text(f"a\t1\t2.5\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            list(read_fields(p, "\t", (str, int, float), "row"))
        assert str(exc.value) == f"malformed row line 2 in {p}: {line!r}"

    def test_malformed_merge_rule_names_its_line(self, tmp_path):
        p = tmp_path / "merges.txt"
        p.write_text("a b\nab c d\n", encoding="utf-8")
        with pytest.raises(DataError, match="malformed merge line 2 in"):
            MergeTable.load(p)


class TestLoadParallel:
    def _vocab(self):
        return build_vocab(token_lines(["a b c d e f g h"]), 1)

    def test_misaligned_files_raise(self):
        with pytest.raises(DataError):
            load_parallel(TokenLines([["a", "b"], ["c", "d"]]),
                          TokenLines([["a", "b"]]), self._vocab(), self._vocab(),
                          200)

    def test_filters_empty_and_overlong_then_renumbers(self):
        src = [["a", "b"], [], ["c", "d", "e", "f"], ["g"]]
        tgt = [["a"], ["b"], ["c"], ["d"]]
        corpus = load_parallel(TokenLines(src), TokenLines(tgt), self._vocab(),
                               self._vocab(), max_len=3)
        # line 2 is empty on the source side, line 3 exceeds max_len
        assert len(corpus) == 2
        assert pairs_of(corpus)[1].src == (self._vocab().encode_token("g"),)

    def test_lengths_measured_after_subword_split(self):
        table = learn_merges(token_lines(["a b c abc"]), n_merges=0)
        vocab = build_vocab(TokenLines([table.apply(["a", "b", "c", "abc"])]), 1)
        # "abc" splits into 4 symbols, over a max_len of 3
        with pytest.raises(DataError):
            load_parallel(TokenLines([table.apply(["abc"])]),
                          TokenLines([table.apply(["a"])]), vocab, vocab,
                          max_len=3)

    def test_all_filtered_raises(self):
        with pytest.raises(DataError):
            load_parallel(TokenLines([[]]), TokenLines([["a"]]), self._vocab(),
                          self._vocab(), 200)


# The file-reading load_parallel that re-tokenized both files itself,
# kept as the oracle for the read-once path through the CLI.
def _oracle_encode_side(line, vocab, merges):
    tokens = tokenize(line)
    if merges is not None:
        tokens = merges.apply(tokens)
    return list(map(vocab.encode_token, tokens))


def _oracle_load_parallel(source_file, target_file, vocab_src, vocab_tgt,
                          max_len=200, merges_src=None, merges_tgt=None):
    src_lines = list(read_lines(source_file))
    tgt_lines = list(read_lines(target_file))
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line counts differ: {source_file} has {len(src_lines)}, "
            f"{target_file} has {len(tgt_lines)}"
        )
    pairs = []
    for src_line, tgt_line in zip(src_lines, tgt_lines):
        src = _oracle_encode_side(src_line, vocab_src, merges_src)
        tgt = _oracle_encode_side(tgt_line, vocab_tgt, merges_tgt)
        if not src or not tgt or len(src) > max_len or len(tgt) > max_len:
            continue
        pairs.append(SentencePair(len(pairs), tuple(src), tuple(tgt)))
    if not pairs:
        raise DataError("no sentence pairs survived length filtering")
    return pairs


class TestReadOncePath:
    SRC = ["Hello, world!", "", "the cat sat on the mat.",
           "a b c d e f g h i j k l m", "don't stop (now)", "x",
           "state-of-the-art 3.14", "the mat, the cat", "ok"]
    TGT = ["Bonjour, le monde!", "vide", "le chat", "", "n'arrête pas",
           "y z w v u t s r q p o n m l", "l'état de l'art", "le chat",
           "ok"]

    def _config(self, tmp_path, merges, max_len):
        paths = {}
        for name, lines in (("source", self.SRC), ("target", self.TGT)):
            paths[name] = tmp_path / name
            paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        return run_config_from_dict({"corpus": {
            "source": str(paths["source"]), "target": str(paths["target"]),
            "dev_source": str(paths["source"]),
            "dev_target": str(paths["target"]),
            "merges": merges, "max_len": max_len}})

    @pytest.mark.parametrize("merges,max_len", [(0, 5), (30, 12)])
    def test_matches_file_reading_oracle(self, tmp_path, merges, max_len):
        config = self._config(tmp_path, merges, max_len)
        ccfg = config.corpus
        vocab_src, vocab_tgt, merges_src, merges_tgt, corpus = \
            _prepare_corpus(config)
        assert (merges_src is None) == (merges == 0)
        if merges:
            assert len(merges_src) == len(merges_tgt) == merges
        want = _oracle_load_parallel(ccfg.source, ccfg.target, vocab_src,
                                     vocab_tgt, max_len, merges_src, merges_tgt)
        assert pairs_of(corpus) == want
        # empty lines and overlong lines were both dropped
        assert 0 < len(corpus) < len(self.SRC) - 2
        dev = _dev_corpus(config, vocab_src, vocab_tgt, merges_src,
                          merges_tgt, corpus)
        assert pairs_of(dev) == want
        for path, vocab, table in ((ccfg.source, vocab_src, merges_src),
                                   (ccfg.target, vocab_tgt, merges_tgt)):
            units = [tokenize(line) for line in read_lines(path)]
            if table is not None:
                units = [table.apply(toks) for toks in units]
            want_vocab = oracle.build_vocab(units)
            assert (vocab.tokens, vocab.counts) == \
                (want_vocab.tokens, want_vocab.counts)


def test_byte_order_mark_is_not_part_of_the_first_token(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeffhello world\nhello there\n".encode("utf-8"))
    vocab = build_vocab(_token_lines(path), 1)
    assert vocab.tokens[len(SPECIALS):] == ["hello", "there", "world"]
    assert vocab.counts[len(SPECIALS)] == 2


@pytest.fixture(scope="module")
def long_side():
    """20,000 pairs whose source side holds 270,051 tokens."""
    return synthetic_pairs(seed=1, n_pairs=20000, vocab_size=220, max_len=24)


LONG_SIDE_TOKENS = 270051


class TestReadMemory:
    """A side is interned line by line: reading it never holds every
    token's string, and a side read for its lengths holds only offsets."""

    def test_interned_side_peaks_under_32_bytes_per_token(self, long_side):
        text = TokenLines(map(tokenize, long_side[0]))
        _, peak = traced_peak(getattr, text, "ids")
        # 8 bytes of ids per token; a token string each would cost ~70
        assert peak / len(text.ids) < 32

    def test_lengths_only_side_peaks_near_its_offsets(self, long_side):
        text = TokenLines(map(tokenize, long_side[0]), lengths_only=True)
        _, peak = traced_peak(getattr, text, "offsets")
        assert len(text) == len(long_side[0])
        assert peak < 1.25 * text.offsets.nbytes


class TestOneIdArrayPerSide:
    """Encoding maps a side's ids in place, and the corpus keeps that
    array unless length filtering drops a pair."""

    LINES = [["a", "b", "a"], ["c"], ["b", "a", "d", "a"], ["a", "b"]]

    def test_encode_leaves_no_type_ids(self):
        text = TokenLines(self.LINES)
        vocab = build_vocab(text, min_count=2)
        type_ids = text.ids
        ids = text.encode(vocab)
        assert np.shares_memory(ids, type_ids)
        assert "ids" not in vars(text)
        assert ids.tolist() == [4, 5, 4, UNK_ID, 5, 4, UNK_ID, 4, 4, 5]
        with pytest.raises(AttributeError, match="ids"):
            text.ids
        with pytest.raises(AttributeError, match="ids"):
            text.counts()

    @pytest.mark.parametrize("max_len, copied", [(4, False), (3, True)])
    def test_corpus_holds_the_encoded_arrays_unless_a_pair_drops(self, max_len,
                                                                 copied):
        src, tgt = TokenLines(self.LINES), TokenLines(self.LINES[::-1])
        vocab_src, vocab_tgt = build_vocab(src, 1), build_vocab(tgt, 1)
        src_ids, tgt_ids = src.ids, tgt.ids
        corpus = load_parallel(src, tgt, vocab_src, vocab_tgt, max_len)
        assert len(corpus) == (2 if copied else 4)
        assert np.shares_memory(corpus.src, src_ids) is not copied
        assert np.shares_memory(corpus.tgt, tgt_ids) is not copied


class TestCommandMemory:
    """``embed`` and ``score`` hold one id array per side, so each peaks
    at the reader's own interning (about 18 bytes per source token),
    with unknown tokens and with dropped pairs."""

    @pytest.fixture(scope="class")
    def files(self, long_side, tmp_path_factory):
        root = tmp_path_factory.mktemp("command_memory")
        for name, lines in zip(("src", "tgt"), long_side):
            (root / name).write_text("\n".join(lines) + "\n")
        return root

    # every word occurs at least 128 times: min_count 200 makes 53 of
    # the 220 word types unknown; max_len 20 drops 3,663 pairs
    @pytest.mark.parametrize("min_count", [1, 200])
    @pytest.mark.parametrize("max_len", [200, 20])
    def test_embed_and_score_peak_under_22_bytes_per_token(self, files, tmp_path,
                                                          min_count, max_len):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus": {"source": str(files / "src"), "target": str(files / "tgt"),
                       "min_count": min_count, "max_len": max_len},
            "sgns": {"dim": 8, "epochs": 1}}))
        out = tmp_path / "run"
        for command in ("embed", "score"):
            code, peak = traced_peak(main, [command, "--config", str(config),
                                            "--out", str(out)])
            assert code == 0
            assert peak / LONG_SIDE_TOKENS < 22, command
        n_vocab = len((out / VOCAB_SRC_FILE).read_text().splitlines())
        n_scored = len((out / DIFFICULTY_FILE).read_text().splitlines())
        assert (n_vocab < 4 + 220) == (min_count > 1)
        assert (n_scored < 20000) == (max_len < 24)


def test_dev_set_defaults_to_the_first_200_training_pairs(tmp_path):
    src, tgt = synthetic_pairs(seed=3, n_pairs=260, vocab_size=30)
    (tmp_path / "s").write_text("\n".join(src) + "\n")
    (tmp_path / "t").write_text("\n".join(tgt) + "\n")
    config = run_config_from_dict({"corpus": {
        "source": str(tmp_path / "s"), "target": str(tmp_path / "t")}})
    vocab_src, vocab_tgt, merges_src, merges_tgt, corpus = _prepare_corpus(config)
    dev = _dev_corpus(config, vocab_src, vocab_tgt, merges_src, merges_tgt,
                      corpus)
    assert len(corpus) == 260
    assert pairs_of(dev) == pairs_of(corpus)[:200]


# ---------------------------------------------------------------------------
# The flat-array path against the list path it replaced (corpus_oracle)
# ---------------------------------------------------------------------------

# few short words, so that counts tie, merges find pairs and lines repeat
_WORDS = st.sampled_from(["a", "b", "ab", "ba", "abc", "cab", "c", "bb"])
_LINES = st.lists(st.lists(_WORDS, max_size=7), min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(lines=_LINES, min_count=st.integers(1, 3), merges=st.sampled_from([0, 20]))
def test_vocabulary_and_ids_match_the_list_path(lines, min_count, merges):
    text = TokenLines(lines, merges or None)
    units = lines
    if merges:
        table = learn_merges(TokenLines(lines), merges)
        units = [table.apply(toks) for toks in lines]
        assert text.merges.merges == table.merges
    want = oracle.build_vocab(units, min_count)
    got = build_vocab(text, min_count)
    assert (got.tokens, got.counts) == (want.tokens, want.counts)
    ids = text.encode(got)
    assert [ids[a:b].tolist() for a, b in zip(text.offsets, text.offsets[1:])] \
        == [list(map(want.encode_token, toks)) for toks in units]


@settings(max_examples=100, deadline=None)
@given(lines=_LINES, merges=st.sampled_from([0, 20]))
def test_lengths_only_keeps_the_offsets_and_no_ids(lines, merges):
    full = TokenLines(lines, merges or None)
    text = TokenLines(lines, merges or None, lengths_only=True)
    assert text.offsets.tolist() == full.offsets.tolist()
    assert getattr(text.merges, "merges", None) == \
        getattr(full.merges, "merges", None)
    for name in ("types", "ids"):
        with pytest.raises(AttributeError):
            getattr(text, name)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.lists(_WORDS, max_size=6),
                                st.lists(_WORDS, max_size=6)),
                      min_size=1, max_size=20),
       max_len=st.integers(1, 6), encode_target=st.booleans())
def test_length_filter_matches_the_list_path(pairs, max_len, encode_target):
    """Empty lines and lines over ``max_len`` drop the pair, on either side."""
    src, tgt = [s for s, _ in pairs], [t for _, t in pairs]
    vocab_src = oracle.build_vocab(src, 2)
    vocab_tgt = oracle.build_vocab(tgt, 2) if encode_target else None
    try:
        want = oracle.load_parallel(src, tgt, vocab_src, vocab_tgt, max_len)
    except DataError:
        with pytest.raises(DataError):
            load_parallel(TokenLines(src), TokenLines(tgt), vocab_src,
                          vocab_tgt, max_len)
        return
    got = load_parallel(TokenLines(src), TokenLines(tgt), vocab_src, vocab_tgt,
                        max_len)
    assert pairs_of(got) == want
    assert got.tgt_lengths.tolist() == [
        len(t) for s, t in pairs if 0 < len(s) <= max_len and 0 < len(t) <= max_len]


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                        min_size=1, max_size=30),
       budget=st.integers(1, 40), min_pool=st.integers(1, 6),
       c_hat=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_sampled_ids_and_batches_match_the_list_path(lengths, budget, min_pool,
                                                     c_hat, seed):
    rng = np.random.default_rng(seed)
    corpus = corpus_of([(rng.integers(4, 30, s).tolist(),
                         rng.integers(4, 30, t).tolist()) for s, t in lengths])
    raw = rng.integers(0, 5, len(lengths)).astype(float)  # with ties
    profile = DifficultyProfile(raw, cdf_normalize(raw), "length")
    got_state = SamplerState(corpus, profile, budget, min_pool, seed=seed)
    want_state = SamplerState(corpus, profile, budget, min_pool, seed=seed)
    pairs = pairs_of(corpus)
    for _ in range(4):
        try:
            want = oracle.sample_batch(want_state, pairs, c_hat)
        except ConfigError:
            with pytest.raises(ConfigError):
                sample_batch(got_state, corpus, c_hat)
            return
        got = sample_batch(got_state, corpus, c_hat)
        assert got.tolist() == [p.id for p in want]
        got_batch, want_batch = build_batch(corpus, got), oracle.build_batch(want)
        for f in fields(EncodedBatch):
            a = np.asarray(getattr(got_batch, f.name))
            b = np.asarray(getattr(want_batch, f.name))
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=string.punctuation + " \t\r\x1c\x1d\x1e\x1f\u00a0\u2028"
               "aZ9\u00e9\u00df\u0301\u4e2d\u0663", max_size=20))
def test_tokenize_equals_the_translate_path(line):
    """The split-only shortcut for lines of letters, digits and spaces
    gives what separating punctuation and splitting always gave."""
    assert tokenize(line) == line.translate(_PUNCT_SPACED).split()
