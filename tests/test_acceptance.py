"""Release acceptance gate: ten independent checks, one test each.

Every test pins its numeric tolerance in the asserts and self-times
against a wall-clock budget, so both a wrong answer and a performance
regression fail loudly.  Tests 5-7 train real models and dominate the
runtime; the whole module finishes in roughly fifteen minutes on one
core.  Run with ``pytest -v`` to get one pass/fail line per check.
"""

import itertools
import json
import math
import statistics
import time
from collections import Counter

import numpy as np
from scipy.stats import spearmanr

from normcl.cli import main
from normcl.corpus import ParallelCorpus, SentencePair, build_vocab, load_parallel, tokenize
from normcl.curriculum import (
    CompetenceSchedule,
    DifficultyProfile,
    SamplerState,
    cdf_normalize,
    competence_norm,
    competence_time,
    sample_batch,
    sentence_weight,
)
from normcl.bleu import bleu, bleu_report
from normcl.embedding import SgnsConfig, train_sgns
from normcl.model import ModelConfig, Transformer, build_batch
from normcl.optim import AdamState, lr_schedule
from normcl.synth import synthetic_pairs, zipfian_corpus
from normcl.tensor import (
    Tensor,
    add,
    concat,
    cross_entropy_with_log_softmax,
    dropout,
    embedding_lookup,
    grad_check,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    softmax,
    tensor_slice,
    tensor_sum,
    transpose,
)
from normcl.trainer import TrainerState, load_checkpoint, save_checkpoint, train_step


def run_cli(*argv):
    return main([str(a) for a in argv])


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pair_files(directory, stem, seed, n, **kwargs):
    src_lines, tgt_lines = synthetic_pairs(seed, n_pairs=n, **kwargs)
    src, tgt = directory / f"{stem}.src", directory / f"{stem}.tgt"
    _write_lines(src, src_lines)
    _write_lines(tgt, tgt_lines)
    return src, tgt


def _trace_losses(path):
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [(int(r.split(",")[0]), float(r.split(",")[5])) for r in rows]


def _report(out_dir, name="train_report.json"):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# 1. competence / weight formulas hit their anchor points exactly
# --------------------------------------------------------------------------

def test_01_formula_exactness():
    t0 = time.monotonic()
    for c0 in (0.01, 0.25, 0.9):
        for lam in (1, 7, 250):
            assert competence_time(0, c0, lam) == c0
            assert competence_time(lam, c0, lam) == 1.0
            assert competence_time(3 * lam, c0, lam) == 1.0
        for m0 in (0.5, 1.0, 100.0, 202.5):
            for lm in (0.3, 1.0, 2.5):
                assert competence_norm(m0, m0, c0, lm) == c0
                assert competence_norm((1.0 + lm) * m0, m0, c0, lm) == 1.0
                # norm dipping below the anchor clamps at c0, never under
                assert competence_norm(0.5 * m0, m0, c0, lm) == c0
    for d in (0.037, 0.5, 1.0):
        for lw in (0.0, 0.5, 2.0):
            assert sentence_weight(d, d, lw) == 1.0
    for d, c in ((0.001, 0.9), (0.42, 0.007), (1.0, 1.0)):
        assert sentence_weight(d, c, 0.0) == 1.0
    assert time.monotonic() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. CDF normalization against a brute-force rank oracle
# --------------------------------------------------------------------------

def _ecdf_oracle(xs):
    n = len(xs)
    return np.array([sum(1 for y in xs if y <= x) / n for x in xs])


def test_02_cdf_normalization_suite():
    t0 = time.monotonic()
    assert np.array_equal(cdf_normalize([1.0, 1.0, 2.0]),
                          np.array([2 / 3, 2 / 3, 1.0]))

    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 17, 100):
        xs = rng.permutation(n).astype(float) * 1.37 + 0.5
        got = sorted(cdf_normalize(xs))
        assert got == [(i + 1) / n for i in range(n)]

    # exhaustive over a 3-value alphabet: every tie pattern up to N=8
    alphabet = (1.0, 2.0, 3.0)
    for n in range(1, 9):
        for tup in itertools.product(alphabet, repeat=n):
            xs = np.array(tup)
            got = cdf_normalize(xs)
            assert np.array_equal(got, _ecdf_oracle(tup))
            assert got.max() == 1.0 and got.min() > 0.0
            if n <= 4:
                perms = itertools.permutations(range(n))
            else:
                perms = (rng.permutation(n) for _ in range(3))
            for p in perms:
                p = np.array(p)
                assert np.array_equal(cdf_normalize(xs[p]), got[p])

    # randomized large case with heavy ties; the quadratic oracle is too
    # slow here, so count "values <= x" through a cumulative histogram
    xs = rng.integers(0, 50, size=10_000).astype(float)
    got = cdf_normalize(xs)
    vals, cnts = np.unique(xs, return_counts=True)
    below = dict(zip(vals.tolist(), (np.cumsum(cnts) / len(xs)).tolist()))
    assert np.array_equal(got, np.array([below[v] for v in xs.tolist()]))
    assert got.max() == 1.0 and got.min() > 0.0
    for _ in range(3):
        p = rng.permutation(10_000)
        assert np.array_equal(cdf_normalize(xs[p]), got[p])
    assert time.monotonic() - t0 < 5.0


# --------------------------------------------------------------------------
# 3. sampler: no ineligible draws, uniform over the eligible pool
# --------------------------------------------------------------------------

def _int_pairs(rng, n, lo=4, hi=40, min_len=3, max_len=8):
    pairs = []
    for i in range(n):
        k = int(rng.integers(min_len, max_len + 1))
        toks = tuple(int(t) for t in rng.integers(lo, hi, size=k))
        pairs.append(SentencePair(i, toks, toks))
    return pairs


def test_03_sampler_soundness_and_uniformity():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    n = 2000
    corpus = ParallelCorpus(_int_pairs(rng, n))
    raw = rng.permutation(n).astype(float)
    profile = DifficultyProfile(raw, cdf_normalize(raw), "length")

    sampler = SamplerState(corpus, profile, token_budget=64, min_pool=1, seed=123)
    c_hat, drawn, violations = 0.37, 0, 0
    while drawn < 100_000:
        for p in sample_batch(sampler, corpus, c_hat):
            drawn += 1
            if profile.cdf[p.id] >= c_hat:
                violations += 1
    assert violations == 0

    # the min_pool floor may only ever admit the easiest sentences
    floor = SamplerState(corpus, profile, token_budget=64, min_pool=64, seed=7)
    easiest = set(np.lexsort((np.arange(n), profile.cdf))[:64].tolist())
    got = set()
    for _ in range(200):
        got.update(p.id for p in sample_batch(floor, corpus, 1e-4))
    assert got <= easiest

    # uniformity: 10 same-length pairs, budget forces one pair per batch
    pool = ParallelCorpus([SentencePair(i, (4 + i, 5, 6, 7), (4 + i, 5, 6, 7))
                           for i in range(10)])
    raw10 = np.arange(10, dtype=float)
    prof10 = DifficultyProfile(raw10, cdf_normalize(raw10), "length")
    n_draws = 20_000
    bound = 3.0 * math.sqrt(n_draws * 0.1 * 0.9)
    for seed in (0, 1, 2):
        smp = SamplerState(pool, prof10, token_budget=4, min_pool=1, seed=seed)
        counts = Counter()
        for _ in range(n_draws):
            batch = sample_batch(smp, pool, 1.0)
            assert len(batch) == 1
            counts[batch[0].id] += 1
        for i in range(10):
            assert abs(counts[i] - n_draws / 10) <= bound, (seed, i, counts[i])
    assert time.monotonic() - t0 < 30.0


# --------------------------------------------------------------------------
# 4. gradients: every kernel at 1e-6, the whole model at 1e-5
# --------------------------------------------------------------------------

def test_04_gradient_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)

    def away_from_zero(*shape):
        x = rng.standard_normal(shape)
        return Tensor(x + 0.2 * np.sign(x))

    # multipliers are fixed up front: grad_check re-runs the closure, so
    # anything random inside it would change between difference evaluations
    w34 = Tensor(rng.standard_normal((3, 4)))
    w43 = Tensor(rng.standard_normal((4, 3)))
    w26 = Tensor(rng.standard_normal((2, 6)))
    w64 = Tensor(rng.standard_normal((6, 4)))
    w22 = Tensor(rng.standard_normal((2, 2)))
    w36 = Tensor(rng.standard_normal((3, 6)))
    w223 = Tensor(rng.standard_normal((2, 2, 3)))
    w31 = Tensor(rng.standard_normal((3, 1)))
    ids = np.array([[0, 2], [1, 3]])
    targets = np.array([1, 0, 2])
    drop_rng = np.random.default_rng(5)
    kernels = [
        ("matmul_rhs", lambda t: tensor_sum(matmul(w34, t)), Tensor(rng.standard_normal((4, 2)))),
        ("matmul_lhs", lambda t: tensor_sum(matmul(t, w43)), Tensor(rng.standard_normal((2, 4)))),
        ("add", lambda t: tensor_sum(mul(add(t, w34), w34)), Tensor(rng.standard_normal((3, 4)))),
        ("mul", lambda t: tensor_sum(mul(t, w34)), Tensor(rng.standard_normal((3, 4)))),
        ("scale", lambda t: tensor_sum(scale(t, -1.7)), Tensor(rng.standard_normal(6))),
        ("transpose", lambda t: tensor_sum(mul(transpose(t), w43)), Tensor(rng.standard_normal((3, 4)))),
        ("reshape", lambda t: tensor_sum(mul(reshape(t, (2, 6)), w26)), Tensor(rng.standard_normal((3, 4)))),
        ("concat", lambda t: tensor_sum(mul(concat([t, w34], axis=0), w64)), Tensor(rng.standard_normal((3, 4)))),
        ("tensor_slice", lambda t: tensor_sum(mul(tensor_slice(t, (slice(1, 3), slice(0, 2))), w22)), Tensor(rng.standard_normal((4, 4)))),
        ("relu", lambda t: tensor_sum(mul(relu(t), w34)), away_from_zero(3, 4)),
        ("softmax", lambda t: tensor_sum(mul(softmax(t), w34)), Tensor(rng.standard_normal((3, 4)))),
        ("layer_norm", lambda t: tensor_sum(mul(layer_norm(t), w36)), Tensor(rng.standard_normal((3, 6)))),
        ("embedding_lookup", lambda t: tensor_sum(mul(embedding_lookup(t, ids), w223)), Tensor(rng.standard_normal((5, 3)))),
        ("cross_entropy", lambda t: tensor_sum(cross_entropy_with_log_softmax(t, targets)), Tensor(rng.standard_normal((3, 6)))),
        ("tensor_sum_axis", lambda t: tensor_sum(mul(tensor_sum(t, axis=1, keepdims=True), w31)), Tensor(rng.standard_normal((3, 4)))),
        ("dropout_p0", lambda t: tensor_sum(mul(dropout(t, 0.0, drop_rng), w34)), Tensor(rng.standard_normal((3, 4)))),
    ]
    for name, f, x in kernels:
        err = grad_check(f, x)
        assert err <= 1e-6, f"{name}: {err}"

    cfg = ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16,
                      dropout=0.0, max_positions=32, seed=3)
    model = Transformer(cfg, 10, 10)
    batch = build_batch([SentencePair(0, (4, 5, 6), (5, 4)),
                         SentencePair(1, (7,), (8, 9, 6))])
    for name in ("src_embed", "tgt_embed", "enc0.self.wq.w", "dec0.cross.wv.w",
                 "dec0.ff1.w", "enc0.ff2.b", "dec0.self.wo.b"):
        original = model.params[name]

        def f(t, name=name):
            model.params[name] = t
            loss, _ = model.forward_loss(batch)
            return loss

        # h=1e-4: some full-model gradients are small enough that 1e-5
        # steps sit in the central-difference roundoff regime
        err = grad_check(f, original, h=1e-4)
        model.params[name] = original
        model.zero_grad()
        assert err <= 1e-5, f"{name}: {err}"
    assert time.monotonic() - t0 < 120.0


# --------------------------------------------------------------------------
# 5. word-vector norms anticorrelate with corpus frequency
# --------------------------------------------------------------------------

def test_05_norms_track_rarity():
    t0 = time.monotonic()
    rhos = []
    for seed in (0, 1, 2):
        lines = zipfian_corpus(seed=seed, vocab_size=220, n_tokens=200_000)
        vocab = build_vocab(lines, min_count=5)
        ids = [vocab.encode(line.split()) for line in lines]
        cfg = SgnsConfig(dim=32, window=5, negatives=5, epochs=5,
                         min_count=5, seed=seed)
        table = train_sgns(ids, cfg, vocab.tokens)
        logf, norms = [], []
        for tid in range(4, len(vocab)):
            count = vocab.count_of(tid)
            if count >= cfg.min_count:
                logf.append(np.log(count))
                norms.append(table.norms[tid])
        rhos.append(spearmanr(logf, norms).statistic)
    assert statistics.median(rhos) <= -0.3, rhos
    assert time.monotonic() - t0 < 300.0


# --------------------------------------------------------------------------
# 6. the live source-embedding norm grows over early training
# --------------------------------------------------------------------------

def test_06_embedding_norm_grows_in_training(tmp_path):
    t0 = time.monotonic()
    src, tgt = _pair_files(tmp_path, "train", seed=0, n=5000,
                           vocab_size=200, task="mapped")
    src_lines = src.read_text(encoding="utf-8").splitlines()
    tgt_lines = tgt.read_text(encoding="utf-8").splitlines()
    vocab_src = build_vocab([tokenize(l) for l in src_lines], 1)
    vocab_tgt = build_vocab([tokenize(l) for l in tgt_lines], 1)
    corpus = load_parallel(src, tgt, vocab_src, vocab_tgt, 64)

    cfg = ModelConfig(d_model=64, n_heads=4, n_layers=2, d_ff=128,
                      dropout=0.1, max_positions=64, seed=0)
    model = Transformer(cfg, len(vocab_src), len(vocab_tgt))
    state = TrainerState(model=model, adam=AdamState(model.params))
    state.capture_anchor()
    sampler = SamplerState(corpus, None, token_budget=512, min_pool=64,
                           seed=(0, 2), natural_order=True)

    ms = [state.m0]
    for t in range(1, 501):
        pairs = sample_batch(sampler, corpus, 1.0)
        metrics = train_step(state, build_batch(pairs), None,
                             lr_schedule(t, 400, 2e-3))
        if t % 50 == 0:
            ms.append(float(metrics["m_t"]))

    increments = np.diff(ms)
    assert ms[-1] > ms[0], ms
    assert int((increments > 0).sum()) >= 8, ms
    assert time.monotonic() - t0 < 600.0


# --------------------------------------------------------------------------
# 7. norm curriculum reaches the vanilla target at least as fast
# --------------------------------------------------------------------------

def _steps_to(report, target):
    for e in report["evals"]:
        if e["token_accuracy"] >= target:
            return e["step"]
    return math.inf


def test_07_norm_curriculum_reaches_target_no_later(tmp_path):
    t0 = time.monotonic()
    data = tmp_path / "data"
    data.mkdir()
    train_src, train_tgt = _pair_files(data, "train", seed=0, n=5000,
                                       vocab_size=200, task="mapped")
    dev_src, dev_tgt = _pair_files(data, "dev", seed=555, n=300,
                                   vocab_size=200, task="mapped")
    test_src, test_tgt = _pair_files(data, "test", seed=777, n=150,
                                     vocab_size=200, task="mapped")
    base = {
        "seed": 0, "total_steps": 600, "log_interval": 50, "eval_interval": 50,
        "corpus": {"source": str(train_src), "target": str(train_tgt),
                   "dev_source": str(dev_src), "dev_target": str(dev_tgt),
                   "min_count": 1, "max_len": 64},
        "sgns": {"dim": 64, "window": 5, "negatives": 5, "epochs": 3,
                 "min_count": 1},
        "model": {"d_model": 64, "n_heads": 4, "n_layers": 2, "d_ff": 128,
                  "dropout": 0.1, "max_positions": 64},
        # lambda_m sized to the task: source-matrix growth over these 600
        # steps is ~0.3-0.5 of m0, so competence saturates mid-run instead
        # of never leaving its floor
        "curriculum": {"criterion": "norm", "kind": "norm_based", "c0": 0.01,
                       "lambda_m": 0.3, "lambda_w": 0.5,
                       "token_budget": 512, "min_pool": 64},
        "optimizer": {"warmup": 400, "peak_lr": 2e-3},
    }
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps(base), encoding="utf-8")

    arm_extra = {
        "norm": (),
        "anti": ("--set", "curriculum.invert=true"),
        "van": ("--set", "curriculum.kind=none"),
    }
    steps = {"norm": [], "anti": [], "van": []}
    bleus = {"norm": [], "van": []}
    for seed in (0, 1, 2):
        emb = tmp_path / f"emb{seed}"
        assert run_cli("embed", "--config", cfg, "--seed", seed,
                       "--out", emb) == 0
        reports = {}
        for arm, extra in arm_extra.items():
            out = tmp_path / f"{arm}{seed}"
            if arm != "van":
                assert run_cli("score", "--config", cfg, "--seed", seed,
                               "--out", out, "--vectors", emb / "vectors.txt",
                               *extra) == 0
            assert run_cli("train", "--config", cfg, "--seed", seed,
                           "--out", out, *extra) == 0
            reports[arm] = _report(out)
        target = 0.9 * reports["van"]["final_accuracy"]
        for arm in steps:
            steps[arm].append(_steps_to(reports[arm], target))
        for arm in bleus:
            out = tmp_path / f"{arm}{seed}"
            assert run_cli("evaluate", "--config", cfg, "--seed", seed,
                           "--out", out,
                           "--checkpoint", out / "checkpoint-last.ckpt",
                           "--test-source", test_src,
                           "--test-target", test_tgt,
                           *arm_extra[arm]) == 0
            bleus[arm].append(_report(out, "eval_report.json")["bleu"])

    med = {arm: statistics.median(v) for arm, v in steps.items()}
    assert med["norm"] <= med["van"], (steps, med)
    assert med["norm"] <= med["anti"], (steps, med)
    assert (statistics.median(bleus["norm"])
            >= statistics.median(bleus["van"]) - 0.5), bleus
    assert time.monotonic() - t0 < 2700.0


# --------------------------------------------------------------------------
# 8. kind=none is bit-for-bit a curriculum-free training loop
# --------------------------------------------------------------------------

def test_08_vanilla_reduction(tmp_path):
    t0 = time.monotonic()
    src, tgt = _pair_files(tmp_path, "train", seed=42, n=1500,
                           vocab_size=120, task="copy")
    config = {
        "seed": 42, "total_steps": 40, "log_interval": 1, "eval_interval": 40,
        "corpus": {"source": str(src), "target": str(tgt),
                   "min_count": 1, "max_len": 64},
        "model": {"d_model": 32, "n_heads": 2, "n_layers": 1, "d_ff": 64,
                  "dropout": 0.1, "max_positions": 64},
        "curriculum": {"criterion": "norm", "kind": "none", "lambda_w": 0.0,
                       "token_budget": 256, "min_pool": 16},
        "optimizer": {"warmup": 20, "peak_lr": 1e-3},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("train", "--config", cfg, "--out", out) == 0
    trace = _trace_losses(out / "trace.csv")
    assert [s for s, _ in trace] == list(range(1, 41))

    # reference loop: no curriculum objects at all, same seeds
    src_lines = src.read_text(encoding="utf-8").splitlines()
    tgt_lines = tgt.read_text(encoding="utf-8").splitlines()
    vocab_src = build_vocab([tokenize(l) for l in src_lines], 1)
    vocab_tgt = build_vocab([tokenize(l) for l in tgt_lines], 1)
    corpus = load_parallel(src, tgt, vocab_src, vocab_tgt, 64)
    model = Transformer(ModelConfig(d_model=32, n_heads=2, n_layers=1,
                                    d_ff=64, dropout=0.1, max_positions=64,
                                    seed=42),
                        len(vocab_src), len(vocab_tgt))
    state = TrainerState(model=model, adam=AdamState(model.params))
    state.capture_anchor()
    rng = np.random.default_rng((42, 2))
    budget, n = 256, len(corpus)
    losses = []
    for t in range(1, 41):
        batch, src_total, tgt_total = [], 0, 0
        for idx in rng.permutation(n):
            pair = corpus[int(idx)]
            s, g = len(pair.src), len(pair.tgt)
            if batch and (src_total + s > budget or tgt_total + g > budget):
                break
            batch.append(pair)
            src_total += s
            tgt_total += g
        metrics = train_step(state, build_batch(batch), None,
                             lr_schedule(t, 20, 1e-3))
        losses.append(float(metrics["loss"]))

    worst = max(abs(a - b) for (_, a), b in zip(trace, losses))
    assert worst <= 1e-12, worst
    assert time.monotonic() - t0 < 120.0


# --------------------------------------------------------------------------
# 9. BLEU anchors and hand-counted clipping
# --------------------------------------------------------------------------

def _brute_bleu_parts(hyps, refs, max_order=4):
    matches, totals = [0] * max_order, [0] * max_order
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_order + 1):
            got = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            want = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            totals[n - 1] += sum(got.values())
            matches[n - 1] += sum(min(c, want[g]) for g, c in got.items())
    return matches, totals


def test_09_bleu_oracle():
    t0 = time.monotonic()
    refs = [["the", "cat", "sat"], ["a", "small", "dog", "ran", "away"]]
    assert bleu(refs, refs) == 100.0
    assert bleu([["x", "y", "z"]], [["a", "b", "c"]]) == 0.0
    assert bleu([["a", "b", "c"]], [["a", "b", "c"]]) == 0.0  # no 4-gram exists

    # clipping: 7x "the" against a reference holding only two
    hyp = [["the"] * 7]
    ref = [["the", "cat", "is", "on", "the", "mat"]]
    report = bleu_report(hyp, ref)
    assert abs(report["precisions"][0] - 2 / 7) <= 1e-9
    assert report["bleu"] == 0.0

    # noisy copies of the references guarantee overlap at every order
    rng = np.random.default_rng(3)
    hyps, refs = [], []
    for _ in range(50):
        n = int(rng.integers(6, 15))
        ref = [str(t) for t in rng.integers(0, 12, size=n)]
        hyp = list(ref)
        hyp[int(rng.integers(0, n))] = str(int(rng.integers(0, 12)))
        if rng.random() < 0.3:
            hyp = hyp[:-1]  # exercise the brevity penalty branch
        refs.append(ref)
        hyps.append(hyp)
    report = bleu_report(hyps, refs)
    matches, totals = _brute_bleu_parts(hyps, refs)
    assert all(t > 0 and m > 0 for m, t in zip(matches, totals)), (matches, totals)
    for n in range(4):
        assert abs(report["precisions"][n] - matches[n] / totals[n]) <= 1e-9
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    want = 100.0 * bp * math.exp(
        sum(math.log(m / t) for m, t in zip(matches, totals)) / 4)
    assert abs(report["bleu"] - want) <= 1e-9
    assert time.monotonic() - t0 < 1.0


# --------------------------------------------------------------------------
# 10. checkpoints: bit-identical round trip, deterministic resume
# --------------------------------------------------------------------------

def test_10_persistence_round_trip_and_resume(tmp_path):
    t0 = time.monotonic()

    # in-memory round trip preserves logits bitwise and m0 exactly
    model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1,
                                    d_ff=32, dropout=0.0, max_positions=32,
                                    seed=9), 30, 30)
    state = TrainerState(model=model, adam=AdamState(model.params),
                         config_snapshot={"hash": "roundtrip"})
    state.capture_anchor()
    rng = np.random.default_rng(1)
    batch = build_batch(_int_pairs(rng, 6, lo=4, hi=30, min_len=2, max_len=7))
    for t in range(1, 4):
        train_step(state, batch, None, 1e-3)
    before = state.model.forward(batch).data.copy()
    ckpt = tmp_path / "trip.ckpt"
    save_checkpoint(state, ckpt)
    loaded = load_checkpoint(ckpt)
    assert np.array_equal(loaded.model.forward(batch).data, before)
    assert loaded.m0 == state.m0

    # resumed CLI training continues the unbroken loss trace
    src, tgt = _pair_files(tmp_path, "pairs", seed=7, n=300,
                           vocab_size=80, task="copy")
    config = {
        "seed": 5, "total_steps": 24, "log_interval": 1, "eval_interval": 6,
        "corpus": {"source": str(src), "target": str(tgt),
                   "min_count": 1, "max_len": 32},
        "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
                  "dropout": 0.1, "max_positions": 32},
        "curriculum": {"criterion": "length", "kind": "norm_based",
                       "c0": 0.1, "lambda_m": 2.5, "lambda_w": 0.5,
                       "token_budget": 128, "min_pool": 16},
        "optimizer": {"warmup": 10, "peak_lr": 1e-3},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")

    whole = tmp_path / "whole"
    assert run_cli("score", "--config", cfg, "--out", whole) == 0
    assert run_cli("train", "--config", cfg, "--out", whole) == 0

    split = tmp_path / "split"
    assert run_cli("score", "--config", cfg, "--out", split) == 0
    assert run_cli("train", "--config", cfg, "--out", split,
                   "--set", "total_steps=12") == 0
    assert run_cli("train", "--config", cfg, "--out", split, "--resume") == 0

    a = _trace_losses(whole / "trace.csv")
    b = _trace_losses(split / "trace.csv")
    assert [s for s, _ in a] == [s for s, _ in b] == list(range(1, 25))
    worst = max(abs(x - y) for (_, x), (_, y) in zip(a, b))
    assert worst <= 1e-9, worst
    assert _report(whole)["m0"] == _report(split)["m0"]
    assert time.monotonic() - t0 < 120.0
