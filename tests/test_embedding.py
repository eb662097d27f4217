"""SGNS trainer and norm-lookup contracts."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from normcl import embedding
from corpus_oracle import token_lines
from normcl.corpus import UNK_ID, build_vocab
from normcl.embedding import EmbeddingTable, SgnsConfig, sgns_step, train_sgns
from normcl.errors import ConfigError, DataError
from normcl.synth import zipfian_corpus

TOKENS8 = ["<pad>", "<unk>", "<s>", "</s>", "a", "b", "c", "d"]


def _tiny_corpus(rng, n_lines=40, line_len=6, lo=4, hi=8):
    return [rng.integers(lo, hi, size=line_len).tolist() for _ in range(n_lines)]


def _flat(lines):
    """``train_sgns``'s input for id lines: the ids and the line offsets."""
    flat = np.array([i for line in lines for i in line], dtype=np.int64)
    return flat, np.cumsum([0] + [len(line) for line in lines])


def _oracle_sgns_step(w_in, w_out, center, targets, n_pos, lr):
    """The per-center update: ``targets[:n_pos]`` carry label 1."""
    v = w_in[center]
    u = w_out[targets]
    scores = np.clip(u @ v, -50.0, 50.0)
    sigma = 1.0 / (1.0 + np.exp(-scores))
    g = -sigma * lr
    g[:n_pos] += lr
    dv = g @ u
    np.add.at(w_out, targets, g[:, None] * v)
    w_in[center] = v + dv


def _naive_block(w_in, w_out, centers, targets, labels, lr):
    """A block pair by pair, every pair reading pre-block snapshots."""
    v0, u0 = w_in.copy(), w_out.copy()
    for c, t, y, a in zip(centers, targets, labels, lr):
        s = np.clip(v0[c] @ u0[t], -50.0, 50.0)
        g = a * (y - 1.0 / (1.0 + np.exp(-s)))
        w_in[c] += g * u0[t]
        w_out[t] += g * v0[c]


def _unique_sgns_step(w_in, w_out, centers, targets, labels, lr):
    """``sgns_step`` with its block index taken from ``np.unique``."""
    rows, row_of = np.unique(centers, return_inverse=True)
    cols, col_of = np.unique(targets, return_inverse=True)
    v = w_in[rows]
    u = w_out[cols]
    scores = np.clip((v @ u.T)[row_of, col_of], -50.0, 50.0)
    sigma = 1.0 / (1.0 + np.exp(-scores))
    g = labels * lr - sigma * lr
    grad = np.bincount(row_of * len(cols) + col_of, weights=g,
                       minlength=len(rows) * len(cols))
    grad = grad.reshape(len(rows), len(cols))
    w_out[cols] += grad.T @ v
    w_in[rows] += grad @ u


def _mask_sample_chunk(flat, starts, seen, keep_prob, noise, config,
                       total_budget, rng):
    """``_sample_chunk`` with each kept token's context read off a
    (kept x 2 window) mask of its neighbours: the same draws in the same
    order, the same fields."""
    lo, hi = starts[0], starts[-1]
    kept = lo + np.flatnonzero(rng.random(hi - lo) < keep_prob[flat[lo:hi]])
    line = np.searchsorted(starts, kept, side="right") - 1
    n_kept = np.bincount(line, minlength=len(starts) - 1)
    first = (np.cumsum(n_kept) - n_kept)[line]
    last = first + n_kept[line]
    span = rng.integers(1, config.window + 1, size=len(kept))
    offsets = np.concatenate((np.arange(-config.window, 0),
                              np.arange(1, config.window + 1)))
    near = np.arange(len(kept))[:, None] + offsets
    ok = ((np.abs(offsets) <= span[:, None])
          & (near >= first[:, None]) & (near < last[:, None]))
    n_context = ok.sum(axis=1)
    has = n_context > 0
    lr = np.maximum(
        config.initial_lr * (1.0 - (seen + starts[line[has]]) / total_budget),
        config.initial_lr * 1e-4)
    n_context = n_context[has]
    draws = rng.random(int(n_context.sum()) * config.negatives)
    return embedding._Chunk(kept, kept[has], span[has], lr, n_context,
                            kept[near[ok]], noise.lookup(draws))


@st.composite
def _blocks(draw):
    """A vocabulary size and a block of (center, target, label) pairs;
    half the ids come from a pool of at most three, so ids repeat."""
    vocab = draw(st.integers(1, 30))
    ids = st.integers(0, vocab - 1)
    pool = draw(st.lists(ids, min_size=1, max_size=3))
    pick = st.one_of(ids, st.sampled_from(pool))
    pairs = draw(st.lists(st.tuples(pick, pick, st.booleans()),
                          min_size=1, max_size=70))
    return vocab, pairs, draw(st.integers(0, 2**32 - 1))


@st.composite
def _sampler_inputs(draw):
    """A corpus of lines 0 to 30 tokens long and the ``starts`` of one
    chunk of it: a run of its line starts, cut between lines, with
    further cuts inside lines when ``inner`` points are drawn."""
    lengths = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    flat = rng.integers(4, 12, size=sum(lengths))
    line_starts = np.unique(np.cumsum([0] + lengths))
    assume(len(line_starts) >= 2)
    a = draw(st.integers(0, len(line_starts) - 2))
    b = draw(st.integers(a + 1, len(line_starts) - 1))
    inner = draw(st.lists(st.integers(line_starts[a] + 1,
                                      line_starts[b] - 1), max_size=4)
                 if line_starts[b] - line_starts[a] > 1 else st.just([]))
    starts = np.unique(np.concatenate((line_starts[a:b + 1], inner)))
    return flat, starts.astype(np.int64), seed


def _record(monkeypatch, name):
    """Wrap ``embedding.<name>`` so every call's arguments and result are
    kept, in call order."""
    calls = []
    inner = getattr(embedding, name)

    def wrapper(*args):
        kept = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        result = inner(*args)
        calls.append((kept, result))
        return result

    monkeypatch.setattr(embedding, name, wrapper)
    return calls


class TestTableContracts:
    def test_norm_is_euclidean(self):
        table = EmbeddingTable(["<pad>", "<unk>", "x"], np.array([
            [0.0, 0.0], [1.0, 0.0], [3.0, 4.0],
        ]))
        assert table.word_norms[2] == pytest.approx(5.0)
        assert table.word_norms[0] == 0.0

    def test_unknown_token_reports_max_norm(self):
        table = EmbeddingTable(["<pad>", "<unk>", "x"], np.array([
            [0.0, 0.0], [0.1, 0.0], [3.0, 4.0],
        ]))
        assert table.word_norms[UNK_ID] == pytest.approx(5.0)

    def test_norms_match_rows_everywhere(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(20, 7))
        table = EmbeddingTable([f"t{i}" for i in range(20)], m)
        expect = np.sqrt((m * m).sum(axis=1))
        assert np.allclose(table.norms, expect, rtol=1e-6)

    def test_scaling_vectors_scales_norms(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(9, 5))
        base = EmbeddingTable([f"t{i}" for i in range(9)], m)
        scaled = EmbeddingTable(base.tokens, m * -2.5)
        assert np.allclose(scaled.norms, 2.5 * base.norms)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a", "b"], np.ones((3, 2)))

    def test_vectors_file_round_trip(self, tmp_path):
        table = EmbeddingTable(["a", "b"], np.array([[0.1, -2.0], [3.0, 1e-17]]))
        table.save_vectors(tmp_path / "v.txt")
        loaded = EmbeddingTable.load_vectors(tmp_path / "v.txt")
        assert loaded.tokens == table.tokens
        assert np.array_equal(loaded.matrix, table.matrix)

    @pytest.mark.parametrize("text, message", [
        ("", "empty vectors file"),
        ("2\na 1.0\n", "malformed vectors header line 1"),
        ("2 x\na 1.0\n", "malformed vectors header line 1"),
        ("1 0\na\n", "bad vector dimension 0"),
        # a damaged dim is refused before a row type per entry is built
        ("1 1000000000000\na 1.0\n", "bad vector dimension 1000000000000"),
        ("1 2\na 1.0\n", "malformed vector line 2"),
        ("1 1\na abc\n", "malformed vector line 2"),
        ("1 1\na inf\n", "non-finite vector entry at line 2"),
        ("2 1\na 1.0\n", "declares 2 rows, has 1"),
    ], ids=["empty", "one_field_header", "non_int_header", "zero_dim",
            "huge_dim", "short_row", "non_float", "inf", "missing_row"])
    def test_malformed_vectors_file_refused(self, tmp_path, text, message):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            EmbeddingTable.load_vectors(path)


class TestConfig:
    def test_defaults_hold(self):
        cfg = SgnsConfig()
        assert (cfg.dim, cfg.window, cfg.negatives, cfg.epochs) == (100, 5, 5, 5)
        assert cfg.initial_lr == 0.05
        assert cfg.subsample_threshold == 1e-4

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"window": 0}, {"negatives": -1}, {"epochs": 0},
        {"initial_lr": 0.0}, {"subsample_threshold": 0.0},
        {"subsample_threshold": 1.5},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            SgnsConfig(**kwargs)


class TestTrainSgns:
    def test_output_shape(self):
        corpus = _tiny_corpus(np.random.default_rng(0))
        cfg = SgnsConfig(dim=8, epochs=1, negatives=2, seed=1, subsample_threshold=1.0)
        table = train_sgns(*_flat(corpus), cfg, TOKENS8)
        assert table.matrix.shape == (8, 8)

    def test_single_thread_determinism(self):
        corpus = _tiny_corpus(np.random.default_rng(1))
        cfg = SgnsConfig(dim=8, epochs=2, negatives=3, seed=5, subsample_threshold=1.0)
        a = train_sgns(*_flat(corpus), cfg, TOKENS8)
        b = train_sgns(*_flat(corpus), cfg, TOKENS8)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seed_changes_output(self):
        corpus = _tiny_corpus(np.random.default_rng(2))
        kw = dict(dim=8, epochs=1, negatives=2, subsample_threshold=1.0)
        a = train_sgns(*_flat(corpus), SgnsConfig(seed=1, **kw), TOKENS8)
        b = train_sgns(*_flat(corpus), SgnsConfig(seed=2, **kw), TOKENS8)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_vocab_too_small_for_negatives(self):
        with pytest.raises(ConfigError):
            train_sgns(*_flat([[0, 1]]), SgnsConfig(negatives=5), ["a", "b"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_sgns(*_flat([]), SgnsConfig(negatives=2), TOKENS8)
        with pytest.raises(DataError):
            train_sgns(*_flat([[], []]), SgnsConfig(negatives=2), TOKENS8)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(DataError):
            train_sgns(*_flat([[0, 99]]), SgnsConfig(negatives=2), TOKENS8)


class TestGradientDirection:
    def test_positive_pair_update_increases_dot(self):
        # 2-word toy at lr=1e-3: one positive update must strictly
        # raise the center/target dot product
        rng = np.random.default_rng(11)
        for trial in range(20):
            w_in = rng.normal(size=(2, 6))
            w_out = rng.normal(size=(2, 6))
            before = float(w_in[0] @ w_out[1])
            sgns_step(w_in, w_out, np.array([0]), np.array([1]),
                      np.array([True]), 1e-3)
            after = float(w_in[0] @ w_out[1])
            assert after > before

    def test_negative_update_decreases_dot(self):
        rng = np.random.default_rng(12)
        w_in = rng.normal(size=(2, 6))
        w_out = rng.normal(size=(2, 6))
        before = float(w_in[0] @ w_out[1])
        sgns_step(w_in, w_out, np.array([0]), np.array([1]),
                  np.array([False]), 1e-3)
        assert float(w_in[0] @ w_out[1]) < before

    def test_duplicate_targets_accumulate(self):
        w_in = np.ones((2, 3)) * 0.1
        w_out_a = np.ones((2, 3)) * 0.2
        w_out_b = w_out_a.copy()
        # same target twice in one call vs two sequential calls differ:
        # the batched form uses one snapshot of u, so just check the
        # duplicate row moved roughly twice as far as a single hit
        sgns_step(w_in.copy(), w_out_a, np.array([0, 0]), np.array([1, 1]),
                  np.array([True, True]), 1e-2)
        sgns_step(w_in.copy(), w_out_b, np.array([0]), np.array([1]),
                  np.array([True]), 1e-2)
        delta_a = w_out_a[1] - 0.2
        delta_b = w_out_b[1] - 0.2
        assert np.allclose(delta_a, 2.0 * delta_b)


class TestNormTrends:
    def test_fixed_context_word_outnorm_varied_word(self):
        # F occurs in 50 distinct contexts, S occurs 50 times inside
        # one fixed 3-gram; S should end up with the larger norm in at
        # least 9 of 10 seeds
        fillers = [f"f{i:02d}" for i in range(100)]
        lines = []
        for i in range(50):
            lines.append(f"{fillers[2 * i]} F {fillers[2 * i + 1]}")
            lines.append("p S q")
        vocab = build_vocab(token_lines(lines), min_count=1)
        ids = [list(map(vocab.encode_token, line.split())) for line in lines]
        wins = 0
        for seed in range(10):
            cfg = SgnsConfig(dim=16, window=2, negatives=5, epochs=20,
                             subsample_threshold=1.0, seed=seed)
            table = train_sgns(*_flat(ids), cfg, vocab.tokens)
            s = table.word_norms[vocab.encode_token("S")]
            f = table.word_norms[vocab.encode_token("F")]
            wins += s > f
        assert wins >= 9

    def test_zipfian_frequency_norm_correlation(self):
        lines = zipfian_corpus(seed=0, vocab_size=220, n_tokens=200_000)
        vocab = build_vocab(token_lines(lines), min_count=5)
        ids = [list(map(vocab.encode_token, line.split())) for line in lines]
        cfg = SgnsConfig(dim=32, window=5, negatives=5, epochs=5, seed=0)
        table = train_sgns(*_flat(ids), cfg, vocab.tokens)
        logf, norms = [], []
        for tid in range(4, len(vocab)):
            if vocab.counts[tid] >= 5:
                logf.append(np.log(vocab.counts[tid]))
                norms.append(table.norms[tid])
        rho = spearmanr(logf, norms).statistic
        assert rho <= -0.3


class TestBlockStep:
    def test_one_center_block_matches_per_center_update(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            w_in = rng.normal(size=(9, 6))
            w_out = rng.normal(size=(9, 6))
            n_pos = int(rng.integers(1, 6))
            targets = rng.integers(0, 9, size=n_pos * 4)  # repeats likely
            lr = float(rng.uniform(1e-3, 1e-1))
            center = int(rng.integers(0, 9))
            a_in, a_out = w_in.copy(), w_out.copy()
            _oracle_sgns_step(a_in, a_out, center, targets, n_pos, lr)
            labels = np.arange(len(targets)) < n_pos
            sgns_step(w_in, w_out, np.full(len(targets), center), targets,
                      labels, lr)
            assert np.abs(w_in - a_in).max() <= 1e-12
            assert np.abs(w_out - a_out).max() <= 1e-12

    def test_block_matches_pair_loop_on_pre_block_vectors(self):
        # 64 centers over 7 ids, targets over 11 ids: centers, targets and
        # whole (center, target) pairs repeat, and an id is often both a
        # center and a target
        rng = np.random.default_rng(22)
        w_in = rng.normal(size=(11, 5))
        w_out = rng.normal(size=(11, 5))
        per_center = rng.integers(2, 9, size=64)
        centers = np.repeat(rng.integers(0, 7, size=64), per_center)
        targets = rng.integers(0, 11, size=len(centers))
        labels = rng.random(len(centers)) < 0.3
        lr = np.repeat(rng.uniform(1e-3, 0.5, size=64), per_center)
        a_in, a_out = w_in.copy(), w_out.copy()
        _naive_block(a_in, a_out, centers, targets, labels, lr)
        sgns_step(w_in, w_out, centers, targets, labels, lr)
        assert np.abs(w_in - a_in).max() <= 1e-12
        assert np.abs(w_out - a_out).max() <= 1e-12

    def test_block_of_one_matches_per_center_training(self, monkeypatch):
        # the same sampled stream applied center by center by the
        # per-center update gives the same vectors
        monkeypatch.setattr(embedding, "_BLOCK", 1)
        calls = _record(monkeypatch, "sgns_step")
        corpus = _tiny_corpus(np.random.default_rng(23), n_lines=30)
        cfg = SgnsConfig(dim=8, epochs=2, negatives=3, window=3, seed=4,
                         subsample_threshold=0.05)
        table = train_sgns(*_flat(corpus), cfg, TOKENS8)
        w_in, w_out = calls[0][0][0], calls[0][0][1]
        for (_, _, centers, targets, labels, lr), _ in calls:
            n_pos = int(labels.sum())
            assert (centers == centers[0]).all() and (lr == lr[0]).all()
            assert labels[:n_pos].all() and not labels[n_pos:].any()
            _oracle_sgns_step(w_in, w_out, int(centers[0]), targets, n_pos,
                              float(lr[0]))
        assert len(calls) > 100
        assert np.abs(table.matrix - w_in).max() <= 1e-12


class TestBlockIndex:
    """``sgns_step``'s table-based block index against ``np.unique``."""

    @settings(max_examples=300, deadline=None)
    @given(_blocks())
    @example((1, [(0, 0, True)], 0))                           # one id
    @example((9, [(0, 8, True), (8, 0, False), (8, 8, False)], 1))  # 0, V-1
    @example((5, [(2, 2, True)] * 40 + [(2, 3, False)] * 40, 2))    # repeats
    @example((6, [(3, 1, True), (1, 3, False), (3, 3, True)], 3))   # both sides
    def test_matches_unique_oracle_bit_for_bit(self, block):
        vocab, pairs, seed = block
        rng = np.random.default_rng(seed)
        w_in = rng.normal(size=(vocab, 5))
        w_out = rng.normal(size=(vocab, 5))
        centers, targets, labels = (np.array(a) for a in zip(*pairs))
        lr = rng.uniform(1e-3, 0.5, size=len(pairs))
        a_in, a_out = w_in.copy(), w_out.copy()
        _unique_sgns_step(a_in, a_out, centers, targets, labels, lr)
        sgns_step(w_in, w_out, centers, targets, labels, lr)
        assert w_in.tobytes() == a_in.tobytes()
        assert w_out.tobytes() == a_out.tobytes()

    def test_kept_table_across_sizes_and_shrinking_ids(self):
        """Blocks over two vocabulary sizes and two dims, interleaved, with
        fewer and smaller ids from call to call, match the ``np.unique``
        oracle bit for bit; between calls the block index keeps only one
        zeroed table of the last call's vocabulary size."""
        rng = np.random.default_rng(31)
        shapes = [(40, 5), (13, 8), (40, 8), (13, 5)]
        got = {s: (rng.normal(size=s), rng.normal(size=s)) for s in shapes}
        want = {s: (a.copy(), b.copy()) for s, (a, b) in got.items()}
        for call in range(16):
            shape = shapes[call % 4]
            top = max(1, shape[0] - 3 * call)
            n = 70 - 4 * call
            block = (rng.integers(0, top, n), rng.integers(0, top, n),
                     rng.random(n) < 0.3, rng.uniform(1e-3, 0.5, n))
            sgns_step(*got[shape], *block)
            _unique_sgns_step(*want[shape], *block)
            assert got[shape][0].tobytes() == want[shape][0].tobytes()
            assert got[shape][1].tobytes() == want[shape][1].tobytes()
            kept = vars(embedding._block_index)
            assert list(kept) == ["table"]
            assert kept["table"].shape == (shape[0],)
            assert not kept["table"].any()


class TestNoiseTable:
    """Noise draws through the bin table equal ``np.searchsorted`` on the
    same cdf, element by element."""

    COUNTS = {
        # the four specials have count 0
        "leading_zeros": [0, 0, 0, 0, 5, 3, 3, 1, 1, 1],
        "one_word_holds_most": [0, 0, 0, 0, 10**9, 1, 2, 1],
        "many_words_in_one_bin": [0, 0, 0, 0, 10**9] + [1] * 500,
        "zero_between": [0, 7, 0, 0, 2, 0, 0, 0, 9, 0],
        "zipf": [0, 0, 0, 0] + [int(1e6 / k) for k in range(1, 300)],
    }

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_matches_searchsorted(self, name):
        table = embedding._NoiseTable(np.array(self.COUNTS[name], dtype=float))
        cdf, bins = table.cdf, table.bins
        assert cdf[-1] == 1.0 and bins & (bins - 1) == 0
        edges = np.arange(bins) / bins
        r = np.concatenate((
            [0.0, np.nextafter(1.0, 0.0)],
            edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
            cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0),
            np.random.default_rng(3).random(20000)))
        r = r[(r >= 0.0) & (r < 1.0)]
        assert np.array_equal(table.lookup(r), np.searchsorted(cdf, r))


class TestSgnsSampler:
    """The sampled stream, read through the chunks ``train_sgns`` draws
    and the blocks it passes to ``sgns_step``."""

    LINES = [[4, 5, 6, 7, 4, 5], [6], [], [7, 4], [5, 6, 7, 4, 5, 6, 7, 4],
             [4], [5, 5, 6], [7, 6, 5, 4, 7], [6, 4], [5, 7, 6, 4, 4, 5]]

    def _train(self, monkeypatch, **kw):
        monkeypatch.setattr(embedding, "_CHUNK_LINES", 3)
        monkeypatch.setattr(embedding, "_BLOCK", 4)
        chunks = _record(monkeypatch, "_sample_chunk")
        steps = _record(monkeypatch, "sgns_step")
        cfg = SgnsConfig(dim=6, epochs=2, negatives=2, window=3, seed=7, **kw)
        train_sgns(*_flat(self.LINES), cfg, TOKENS8)
        return cfg, chunks, steps

    def test_contexts_come_from_the_span_among_kept_tokens(self, monkeypatch):
        cfg, chunks, _ = self._train(monkeypatch, subsample_threshold=0.02)
        lines = [line for line in self.LINES if line]
        starts = np.cumsum([0] + [len(line) for line in lines])
        n_dropped = 0
        for (args, chunk) in chunks:
            lo, hi = args[1][0], args[1][-1]
            assert ((chunk.kept >= lo) & (chunk.kept < hi)).all()
            n_dropped += hi - lo - len(chunk.kept)
            assert ((chunk.span >= 1) & (chunk.span <= cfg.window)).all()
            assert len(chunk.noise) == cfg.negatives * chunk.n_context.sum()
            want_centers, at = [], 0
            for line in range(np.searchsorted(starts, lo),
                              np.searchsorted(starts, hi)):
                kept = [p for p in chunk.kept
                        if starts[line] <= p < starts[line + 1]]
                if len(kept) < 2:
                    continue  # no center of this line has context
                for i, p in enumerate(kept):
                    want_centers.append(p)
                    j = len(want_centers) - 1
                    b = int(chunk.span[j])
                    want = kept[max(0, i - b):i] + kept[i + 1:i + 1 + b]
                    got = chunk.context[at:at + chunk.n_context[j]].tolist()
                    assert got == want
                    at += chunk.n_context[j]
            assert chunk.center.tolist() == want_centers
            assert at == len(chunk.context)
        assert n_dropped > 0  # subsampling was exercised

    def test_chunks_cover_every_line_once_per_epoch(self, monkeypatch):
        _, chunks, _ = self._train(monkeypatch, subsample_threshold=1.0)
        n_tokens = sum(len(line) for line in self.LINES)
        bounds = [(args[1][0], args[1][-1], args[2]) for args, _ in chunks]
        per_epoch = len(bounds) // 2
        assert per_epoch == 3  # 9 non-empty lines, 3 per chunk
        for epoch in range(2):
            mine = bounds[epoch * per_epoch:(epoch + 1) * per_epoch]
            assert mine[0][0] == 0 and mine[-1][1] == n_tokens
            assert all(a[1] == b[0] for a, b in zip(mine, mine[1:]))
            assert all(seen == epoch * n_tokens for _, _, seen in mine)
        for (lo, hi, _), (_, chunk) in zip(bounds, chunks):
            assert chunk.kept.tolist() == list(range(lo, hi))  # all kept

    def test_learning_rate_decays_with_tokens_before_the_line(self, monkeypatch):
        cfg, chunks, _ = self._train(monkeypatch, subsample_threshold=1.0,
                                     initial_lr=0.3)
        lines = [line for line in self.LINES if line]
        starts = np.cumsum([0] + [len(line) for line in lines])
        total_budget = starts[-1] * cfg.epochs
        for args, chunk in chunks:
            seen = args[2] + starts[np.searchsorted(starts, chunk.center,
                                                    side="right") - 1]
            want = [max(cfg.initial_lr * (1.0 - int(s) / int(total_budget)),
                        1e-4 * cfg.initial_lr) for s in seen]
            assert chunk.lr.tolist() == want

    def test_blocks_carry_each_center_with_its_negatives(self, monkeypatch):
        cfg, chunks, steps = self._train(monkeypatch, subsample_threshold=0.05)
        lines = [line for line in self.LINES if line]
        flat = np.concatenate(lines)
        want_blocks = []
        for _, chunk in chunks:
            pairs, at = [], 0
            for j, p in enumerate(chunk.center):
                k = int(chunk.n_context[j])
                ctx = flat[chunk.context[at:at + k]].tolist()
                neg = chunk.noise[at * cfg.negatives:(at + k) * cfg.negatives]
                at += k
                pairs.append([(flat[p], t, True, chunk.lr[j]) for t in ctx]
                             + [(flat[p], t, False, chunk.lr[j]) for t in neg])
            for b in range(0, len(pairs), embedding._BLOCK):
                want_blocks.append(sum(pairs[b:b + embedding._BLOCK], []))
        got_blocks = [list(zip(*[a.tolist() for a in args[2:]]))
                      for args, _ in steps]
        assert got_blocks == want_blocks
        for args, _ in steps:
            labels = args[4]
            assert (~labels).sum() == cfg.negatives * labels.sum()

    @settings(max_examples=300, deadline=None)
    @given(_sampler_inputs(), st.integers(1, 5), st.booleans(),
           st.integers(1, 3))
    def test_matches_the_window_mask_oracle(self, inputs, window, subsample,
                                            negatives):
        flat, starts, seed = inputs
        rng = np.random.default_rng(seed)
        keep_prob = rng.random(12) if subsample else np.ones(12)
        noise = embedding._NoiseTable(
            np.bincount(flat, minlength=12).astype(np.float64) + 1.0)
        cfg = SgnsConfig(window=window, negatives=negatives, initial_lr=0.3)
        seen = int(rng.integers(0, 100))
        budget = 2 * (seen + len(flat))
        rng_a = np.random.default_rng(seed + 1)
        rng_b = np.random.default_rng(seed + 1)
        got = embedding._sample_chunk(flat, starts, seen, keep_prob, noise,
                                      cfg, budget, rng_a)
        want = _mask_sample_chunk(flat, starts, seen, keep_prob, noise, cfg,
                                  budget, rng_b)
        for name, g, w in zip(embedding._Chunk._fields, got, want):
            assert g.dtype == w.dtype, name
            assert g.tobytes() == w.tobytes(), name
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_empty_lines_are_skipped(self, monkeypatch):
        """Empty lines (an encoded line whose ids were all unknown) leave
        the chunks, and so the vectors, as they are without them."""
        monkeypatch.setattr(embedding, "_CHUNK_LINES", 3)
        corpus = _tiny_corpus(np.random.default_rng(24))
        cfg = SgnsConfig(dim=8, epochs=2, negatives=3, seed=2,
                         subsample_threshold=0.05)
        a = train_sgns(*_flat(corpus), cfg, TOKENS8)
        padded = [[]] + [x for line in corpus for x in (line, [])]
        b = train_sgns(*_flat(padded), cfg, TOKENS8)
        assert np.array_equal(a.matrix, b.matrix)
