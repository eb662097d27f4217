"""Workloads, correctness checks and metrics of the normcl benchmark.

Every workload drives the public CLI, ``normcl.cli.main``, in-process on
data generated from the seed.  A run sets the workload up
``SETUP_REPEATS`` times (``setup_s`` is the median), then repeats one
fixed unit of timed CLI work until the requested seconds have passed.
A unit is deterministic, so each one must reproduce the first unit's
outputs bit for bit, and each set-up the first set-up's.

With tracing on, untraced and traced units alternate.  The traced ones
give the per-layer metrics; the ratio of the two kinds' walls is the
tracing overhead, and their outputs must match bit for bit.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from normcl import cli, decoding, embedding, model, synth, tensor, trainer
from normcl.curriculum import DifficultyProfile
from normcl.embedding import EmbeddingTable
from normcl.model import Transformer
from normcl.tensor import Tensor

from spans import Hook, Recorder, installed

SETUP_REPEATS = 3
DEV_SEED_OFFSET = 1_000_003
TEST_SEED_OFFSET = 2_000_003
CHECKPOINT_SEED = 0
MIN_SPAN_COVERAGE = 0.9

# acceptance shapes shared by the train-norm and decode-beam models
MODEL = {"d_model": 64, "n_heads": 4, "n_layers": 2, "d_ff": 128,
         "dropout": 0.1}
BEAM = {"beam_size": 6, "alpha": 0.6, "max_decode_len": 64}


@dataclass(frozen=True)
class Sizes:
    train_pairs: int = 5000      # train-norm and decode-beam corpus
    dev_pairs: int = 300         # train-norm dev set
    train_steps: int = 32        # steps in one train-norm unit
    eval_interval: int = 8       # dev evaluation + checkpoint period
    ckpt_steps: int = 60         # decode-beam set-up training
    test_pairs: int = 500        # sentences in one decode-beam unit
    embed_pairs: int = 30000     # embed-score corpus
    sgns_epochs: int = 5


FULL = Sizes()
SMOKE = Sizes(train_pairs=400, dev_pairs=20, train_steps=4, eval_interval=2,
              ckpt_steps=12, test_pairs=6, embed_pairs=3000, sgns_epochs=2)

# (name, unit, better); values differ in meaning per workload, see README
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("tokens_per_s", "tokens/s", "higher"),
    ("quality", "score", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("trainer.train_step_ms.p50", "ms"),
    ("trainer.train_step_ms.p90", "ms"),
    ("tensor.backward_ms.p50", "ms"),
    ("model.forward_loss_ms.p50", "ms"),
    ("optim.adam_ms.p50", "ms"),
    ("model.build_batch_ms.p50", "ms"),
    ("curriculum.sample_batch_ms.p50", "ms"),
    ("curriculum.sentence_weight_calls_per_step", "calls/step"),
    ("curriculum.sentence_weight_ms_per_step", "ms/step"),
    ("tensor.fwd_kernel_calls_per_step", "calls/step"),
    ("tensor.matmul_gflop_per_step", "GFLOP/step"),
    ("cli.loop_self_ms_per_step", "ms/step"),
    ("trainer.token_accuracy_s", "s"),
    ("trainer.save_checkpoint_ms", "ms"),
    ("trainer.checkpoint_bytes", "bytes"),
    ("curriculum.final_competence", "fraction"),
    ("decoding.beam_decode_ms.p50", "ms"),
    ("decoding.beam_decode_ms.p90", "ms"),
    ("model.encode_ms_per_sentence", "ms/sentence"),
    ("model.decode_calls_per_sentence", "calls/sentence"),
    ("model.decode_ms.p50", "ms"),
    ("decoding.decode_positions_per_gen_token", "positions/token"),
    ("decoding.gen_tokens", "count"),
    ("decoding.truncated", "count"),
    ("tensor.fwd_kernel_calls_per_sentence", "calls/sentence"),
    ("trainer.load_checkpoint_ms", "ms"),
    ("bleu.report_ms", "ms"),
    ("embedding.train_sgns_s", "s"),
    ("embedding.sgns_step_calls", "count"),
    ("embedding.sgns_step_us.mean", "us"),
    ("embedding.save_s", "s"),
    ("embedding.load_vectors_s", "s"),
    ("curriculum.profile_build_s", "s"),
    ("corpus.build_vocab_s", "s"),
    ("corpus.load_parallel_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.span_coverage_frac", "fraction"),
)


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class Ledger:
    """Counts attempted and failed operations: CLI commands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


def run_cli(ledger: Ledger, *argv) -> float:
    """Run one ``normcl`` command; return its wall time in seconds.

    The command's own output goes to stderr, so the benchmark's result
    stays the last line of stdout.
    """
    argv = [str(a) for a in argv]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = "an exception"
    wall = time.perf_counter() - t0
    ledger.check(code == 0, f"normcl {argv[0]} exited with {code}")
    return wall


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def check_difficulty(ledger: Ledger, path: Path) -> int:
    """Return the number of scored sentences; the CDF must top out at 1."""
    cdf = [float(line.split("\t")[2])
           for line in path.read_text(encoding="utf-8").splitlines()]
    ledger.check(bool(cdf) and max(cdf) == 1.0,
                 f"difficulty CDF maximum is {max(cdf, default=None)}, not 1")
    return len(cdf)


def ranks(values) -> np.ndarray:
    """0-based ranks, ties sharing their mean rank."""
    v = np.asarray(values, dtype=np.float64)
    r = np.empty(len(v))
    r[np.argsort(v, kind="stable")] = np.arange(len(v))
    _, inverse = np.unique(v, return_inverse=True)
    return (np.bincount(inverse, weights=r) / np.bincount(inverse))[inverse]


def spearman(x, y) -> float:
    rx, ry = ranks(x), ranks(y)
    if len(rx) < 3 or rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """What set-up leaves for the timed units."""

    config: Path
    info: dict      # paths and sizes the units and metrics need
    digest: str


@dataclass
class Unit:
    """One repetition of a workload's timed CLI work."""

    wall: float                     # seconds inside timed CLI commands
    digest: str                     # outputs that must repeat exactly
    counts: dict = field(default_factory=dict)


class TrainNorm:
    """``normcl train`` with the norm curriculum at the acceptance shapes."""

    name = "train-norm"
    expected_spans = ("cli.train", "corpus.build_vocab", "corpus.load_parallel",
                      "curriculum.sample_batch", "curriculum.sentence_weight",
                      "model.build_batch", "trainer.train_step",
                      "model.forward_loss", "tensor.backward", "optim.adam",
                      "trainer.token_accuracy", "trainer.save_checkpoint")
    expected_tallies = ("tensor.fwd_kernel",)
    min_span_coverage = MIN_SPAN_COVERAGE

    def setup(self, data: Path, work: Path, seed: int, sizes: Sizes,
              ledger: Ledger) -> Prepared:
        src, tgt = synth.synthetic_pairs(seed, n_pairs=sizes.train_pairs,
                                         vocab_size=200, task="mapped")
        dsrc, dtgt = synth.synthetic_pairs(seed + DEV_SEED_OFFSET,
                                           n_pairs=sizes.dev_pairs,
                                           vocab_size=200, task="mapped")
        corpus = {
            "source": write_lines(data / "train.src", src),
            "target": write_lines(data / "train.tgt", tgt),
            "dev_source": write_lines(data / "dev.src", dsrc),
            "dev_target": write_lines(data / "dev.tgt", dtgt),
        }
        config = write_json(data / "train-norm.json", {
            "seed": seed,
            "total_steps": sizes.train_steps,
            "eval_interval": sizes.eval_interval,
            "log_interval": 1,
            "corpus": {k: str(v) for k, v in corpus.items()},
            "sgns": {"dim": 64, "epochs": sizes.sgns_epochs},
            "model": MODEL,
            "curriculum": {"criterion": "norm", "kind": "norm_based",
                           "c0": 0.01, "lambda_m": 0.3, "lambda_w": 0.5,
                           "token_budget": 512, "min_pool": 64},
            "optimizer": {"warmup": 400, "peak_lr": 2e-3},
        })
        run_cli(ledger, "embed", "--config", config, "--out", work)
        run_cli(ledger, "score", "--config", config, "--out", work)
        difficulty = work / cli.DIFFICULTY_FILE
        check_difficulty(ledger, difficulty)
        return Prepared(config, {"difficulty": difficulty},
                        digest(work / cli.VECTORS_FILE, difficulty))

    def unit(self, prep: Prepared, out: Path, ledger: Ledger) -> Unit:
        # the one hook of an untraced run: target tokens per training batch
        meter = Recorder()
        tokens = meter.counter(
            "batches", lambda args: {"tgt_tokens": float(args[1].loss_mask.sum())})
        with installed([Hook(Transformer, "forward_loss", tokens)]):
            wall = run_cli(ledger, "train", "--config", prep.config,
                           "--out", out,
                           "--difficulty", prep.info["difficulty"])
        trace_path = out / cli.TRACE_FILE
        report_path = out / cli.TRAIN_REPORT
        with open(trace_path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        competence = [float(r[2]) for r in rows]
        final_loss = float(rows[-1][5])
        c0 = json.loads(prep.config.read_text())["curriculum"]["c0"]
        ledger.check(competence[0] == c0,
                     f"first competence {competence[0]!r} is not c0 {c0!r}")
        ledger.check(all(b >= a for a, b in zip(competence, competence[1:])),
                     "competence decreased during training")
        ledger.check(math.isfinite(final_loss), f"final loss {final_loss!r}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        steps = int(report["final_step"])
        n_tokens = meter.totals["tgt_tokens"]
        ledger.check(meter.totals["batches"] == steps and n_tokens > 0,
                     "training batches were not metered once per step")
        return Unit(wall, digest(trace_path, report_path), {
            "steps": steps,
            "tgt_tokens": n_tokens,
            "final_loss": final_loss,
            "dev_token_accuracy": float(report["final_accuracy"]),
            "final_competence": competence[-1],
        })

    def end_to_end(self, prep: Prepared, units) -> dict:
        return {
            "wall_s": median([u.wall for u in units]),
            "items_per_s": median([u.counts["steps"] / u.wall for u in units]),
            "tokens_per_s": median([u.counts["tgt_tokens"] / u.wall
                                    for u in units]),
            "quality": units[0].counts["dev_token_accuracy"],
        }

    def named(self, e2e: dict, units) -> dict:
        return {
            "train.steps_per_s": (e2e["items_per_s"], "steps/s"),
            "train.tgt_tokens_per_s": (e2e["tokens_per_s"], "tokens/s"),
            "train.final_loss": (units[0].counts["final_loss"], "nats"),
            "train.dev_token_accuracy": (e2e["quality"], "fraction"),
        }


class DecodeBeam:
    """``normcl evaluate`` at beam 6 on a checkpoint trained in set-up."""

    name = "decode-beam"
    expected_spans = ("cli.evaluate", "trainer.load_checkpoint",
                      "decoding.decode_corpus", "decoding.beam_decode",
                      "model.encode", "model.decode", "bleu.report")
    expected_tallies = ("tensor.fwd_kernel", "decode_positions")
    min_span_coverage = 0.0

    def setup(self, data: Path, work: Path, seed: int, sizes: Sizes,
              ledger: Ledger) -> Prepared:
        # the checkpoint does not depend on the seed, only the test set
        # does: decoding cost follows the model's output lengths, and a
        # model that changes with the seed would add its own spread
        src, tgt = synth.synthetic_pairs(CHECKPOINT_SEED,
                                         n_pairs=sizes.train_pairs,
                                         vocab_size=200, task="mapped")
        tsrc, ttgt = synth.synthetic_pairs(seed + TEST_SEED_OFFSET,
                                           n_pairs=sizes.test_pairs,
                                           vocab_size=200, task="mapped")
        paths = {
            "test_source": write_lines(data / "test.src", tsrc),
            "test_target": write_lines(data / "test.tgt", ttgt),
        }
        # kind none, small batches and a short warmup: two seconds of
        # training teach the model output lengths near the source's, which
        # is what decoding pays for
        config = write_json(data / "decode-beam.json", {
            "seed": CHECKPOINT_SEED,
            "total_steps": sizes.ckpt_steps,
            "eval_interval": sizes.ckpt_steps,
            "corpus": {"source": str(write_lines(data / "train.src", src)),
                       "target": str(write_lines(data / "train.tgt", tgt))},
            "model": MODEL,
            "curriculum": {"kind": "none", "token_budget": 128},
            "optimizer": {"warmup": 20, "peak_lr": 8e-3},
            "eval": BEAM,
        })
        run_cli(ledger, "train", "--config", config, "--out", work)
        paths["run"] = work
        checkpoints = sorted(work.glob("*.ckpt"))
        ledger.check(bool(checkpoints), "set-up training wrote no checkpoint")
        return Prepared(config, paths, digest(*checkpoints))

    def unit(self, prep: Prepared, out: Path, ledger: Ledger) -> Unit:
        run = prep.info["run"]
        wall = run_cli(ledger, "evaluate", "--config", prep.config,
                       "--out", run,
                       "--test-source", prep.info["test_source"],
                       "--test-target", prep.info["test_target"])
        hyps = (run / cli.TRANSLATIONS_FILE).read_text(encoding="utf-8")
        hyps = [line.split() for line in hyps.splitlines()]
        n_src = len(prep.info["test_source"].read_text().splitlines())
        ledger.check(len(hyps) == n_src,
                     f"{len(hyps)} translations for {n_src} test sources")
        # a truncated hypothesis is the only kind reaching max_decode_len
        truncated = sum(len(h) >= BEAM["max_decode_len"] for h in hyps)
        ledger.check(truncated == 0, f"{truncated} hypotheses truncated")
        report_path = run / cli.EVAL_REPORT
        report = json.loads(report_path.read_text(encoding="utf-8"))
        return Unit(wall, digest(run / cli.TRANSLATIONS_FILE, report_path), {
            "sentences": len(hyps),
            # every finished hypothesis also generated its end marker
            "gen_tokens": sum(len(h) for h in hyps) + len(hyps) - truncated,
            "truncated": truncated,
            "bleu": float(report["bleu"]),
            "unigram_precision": float(report["precisions"][0]),
            "mean_hyp_len": sum(len(h) for h in hyps) / max(len(hyps), 1),
        })

    def end_to_end(self, prep: Prepared, units) -> dict:
        return {
            "wall_s": median([u.wall for u in units]),
            "items_per_s": median([u.counts["sentences"] / u.wall
                                   for u in units]),
            "tokens_per_s": median([u.counts["gen_tokens"] / u.wall
                                    for u in units]),
            "quality": units[0].counts["unigram_precision"],
        }

    def named(self, e2e: dict, units) -> dict:
        return {
            "evaluate.sent_per_s": (e2e["items_per_s"], "sentences/s"),
            "evaluate.gen_tokens_per_s": (e2e["tokens_per_s"], "tokens/s"),
            "evaluate.bleu": (units[0].counts["bleu"], "BLEU"),
            "evaluate.unigram_precision": (e2e["quality"], "fraction"),
            "evaluate.mean_hyp_len": (units[0].counts["mean_hyp_len"], "tokens"),
        }


class EmbedScore:
    """``normcl embed`` then ``normcl score`` on a larger Zipfian corpus."""

    name = "embed-score"
    expected_spans = ("cli.embed", "cli.score", "corpus.build_vocab",
                      "corpus.load_parallel", "embedding.train_sgns",
                      "embedding.sgns_step", "embedding.save",
                      "embedding.load_vectors", "curriculum.profile_build")
    expected_tallies = ()
    min_span_coverage = 0.0
    min_count_for_rho = 5

    def setup(self, data: Path, work: Path, seed: int, sizes: Sizes,
              ledger: Ledger) -> Prepared:
        src, tgt = synth.synthetic_pairs(seed, n_pairs=sizes.embed_pairs,
                                         vocab_size=220, max_len=24)
        source = write_lines(data / "embed.src", src)
        target = write_lines(data / "embed.tgt", tgt)
        config = write_json(data / "embed-score.json", {
            "seed": seed,
            "corpus": {"source": str(source), "target": str(target)},
            "sgns": {"dim": 64, "epochs": sizes.sgns_epochs},
            "curriculum": {"criterion": "norm"},
        })
        n_tokens = sum(len(line.split()) for line in src)
        return Prepared(config, {"src_tokens": n_tokens,
                                 "epochs": sizes.sgns_epochs},
                        digest(source, target, config))

    def unit(self, prep: Prepared, out: Path, ledger: Ledger) -> Unit:
        embed_wall = run_cli(ledger, "embed", "--config", prep.config,
                             "--out", out)
        score_wall = run_cli(ledger, "score", "--config", prep.config,
                             "--out", out)
        n_scored = check_difficulty(ledger, out / cli.DIFFICULTY_FILE)
        return Unit(embed_wall + score_wall,
                    digest(out / cli.VECTORS_FILE, out / cli.DIFFICULTY_FILE), {
                        "embed_wall": embed_wall,
                        "score_wall": score_wall,
                        "sentences": n_scored,
                        "rho": self.norm_freq_rho(out),
                    })

    def norm_freq_rho(self, out: Path) -> float:
        """Spearman correlation of log count against vector norm."""
        counts = {}
        for line in (out / cli.VOCAB_SRC_FILE).read_text().splitlines():
            tok, _, count = line.split("\t")
            counts[tok] = int(count)
        pairs = []
        for line in (out / cli.NORMS_FILE).read_text().splitlines():
            tok, norm = line.split("\t")
            if counts.get(tok, 0) >= self.min_count_for_rho:
                pairs.append((math.log(counts[tok]), float(norm)))
        return spearman([p[0] for p in pairs], [p[1] for p in pairs])

    def end_to_end(self, prep: Prepared, units) -> dict:
        epoch_tokens = prep.info["src_tokens"] * prep.info["epochs"]
        return {
            "wall_s": median([u.wall for u in units]),
            "items_per_s": median([u.counts["sentences"] / u.wall
                                   for u in units]),
            "tokens_per_s": median([epoch_tokens / u.counts["embed_wall"]
                                    for u in units]),
            "quality": -units[0].counts["rho"],
        }

    def named(self, e2e: dict, units) -> dict:
        return {
            "embed.src_tokens_per_s": (e2e["tokens_per_s"], "tokens/s"),
            "embed.norm_freq_rho": (units[0].counts["rho"], "rho"),
            "score.sent_per_s": (median([u.counts["sentences"] / u.counts["score_wall"]
                                         for u in units]), "sentences/s"),
        }


WORKLOADS = {w.name: w for w in (TrainNorm, DecodeBeam, EmbedScore)}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _matmul_flops(args) -> dict:
    a, b = np.shape(getattr(args[0], "data", args[0])), \
        np.shape(getattr(args[1], "data", args[1]))
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    m = a[-2] if len(a) >= 2 else 1
    return {"matmul_flop": 2.0 * math.prod(batch) * m * a[-1] * b[-1]}


def _model_kernels() -> list[str]:
    """The tensor kernels the model module calls by name."""
    kernels = set(tensor.__all__) - {"Tensor", "grad_check"}
    return sorted(name for name, obj in vars(model).items()
                  if name in kernels and inspect.isfunction(obj))


def trace_hooks(rec: Recorder) -> list[Hook]:
    """Hooks at every layer boundary, named ``<module>.<what>``."""
    span = rec.span

    def checkpoint_bytes(args, _result):
        rec.tally("checkpoint_bytes", Path(args[1]).stat().st_size)

    def decode_positions(args, _result):
        rows, length = np.shape(args[3])
        rec.tally("decode_positions", rows * length)

    hooks = [
        Hook(cli, "cmd_train", span("cli.train")),
        Hook(cli, "cmd_evaluate", span("cli.evaluate")),
        Hook(cli, "cmd_embed", span("cli.embed")),
        Hook(cli, "cmd_score", span("cli.score")),
        Hook(cli, "build_vocab", span("corpus.build_vocab")),
        Hook(cli, "load_parallel", span("corpus.load_parallel")),
        Hook(cli, "sample_batch", span("curriculum.sample_batch")),
        Hook(cli, "sentence_weight",
             span("curriculum.sentence_weight", keep_samples=False)),
        Hook(DifficultyProfile, "build", span("curriculum.profile_build")),
        Hook(DifficultyProfile, "load", span("curriculum.profile_load")),
        Hook(cli, "build_batch", span("model.build_batch")),
        Hook(cli, "train_step", span("trainer.train_step")),
        Hook(cli, "token_accuracy", span("trainer.token_accuracy")),
        Hook(cli, "save_checkpoint",
             span("trainer.save_checkpoint", after=checkpoint_bytes)),
        Hook(cli, "load_checkpoint", span("trainer.load_checkpoint")),
        Hook(cli, "decode_corpus", span("decoding.decode_corpus")),
        Hook(cli, "bleu_report", span("bleu.report")),
        Hook(cli, "train_sgns", span("embedding.train_sgns")),
        Hook(decoding, "beam_decode", span("decoding.beam_decode")),
        Hook(embedding, "sgns_step",
             span("embedding.sgns_step", keep_samples=False)),
        Hook(EmbeddingTable, "save_vectors", span("embedding.save")),
        Hook(EmbeddingTable, "save_norms", span("embedding.save")),
        Hook(EmbeddingTable, "load_vectors", span("embedding.load_vectors")),
        Hook(trainer, "adam_step", span("optim.adam")),
        Hook(Transformer, "forward_loss", span("model.forward_loss")),
        Hook(Transformer, "encode", span("model.encode")),
        Hook(Transformer, "decode", span("model.decode", after=decode_positions)),
        Hook(Tensor, "backward", span("tensor.backward")),
    ]
    for name in _model_kernels():
        measure = _matmul_flops if name == "matmul" else None
        hooks.append(Hook(model, name, rec.counter("tensor.fwd_kernel", measure)))
    return hooks


COMMAND_SPANS = ("cli.train", "cli.evaluate", "cli.embed", "cli.score")


def per_layer(rec: Recorder, traced, plain) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    n_units = len(traced)
    steps = rec.calls["trainer.train_step"]
    sentences = rec.calls["decoding.beam_decode"]
    gen_tokens = sum(u.counts.get("gen_tokens", 0) for u in traced)

    def per(x, n):
        return x / n if n else 0.0

    def p(name, q):
        samples = rec.samples[name]
        return float(np.percentile(samples, q)) * 1e3 if samples else 0.0

    commands_wall = sum(u.wall for u in traced)
    covered = sum(rec.seconds[c] - rec.self_seconds(c) for c in COMMAND_SPANS)
    last = traced[-1].counts if traced else {}
    return {
        "trainer.train_step_ms.p50": p("trainer.train_step", 50),
        "trainer.train_step_ms.p90": p("trainer.train_step", 90),
        "tensor.backward_ms.p50": p("tensor.backward", 50),
        "model.forward_loss_ms.p50": p("model.forward_loss", 50),
        "optim.adam_ms.p50": p("optim.adam", 50),
        "model.build_batch_ms.p50": p("model.build_batch", 50),
        "curriculum.sample_batch_ms.p50": p("curriculum.sample_batch", 50),
        "curriculum.sentence_weight_calls_per_step":
            per(rec.calls["curriculum.sentence_weight"], steps),
        "curriculum.sentence_weight_ms_per_step":
            per(rec.seconds["curriculum.sentence_weight"] * 1e3, steps),
        "tensor.fwd_kernel_calls_per_step":
            per(rec.tallies[("trainer.train_step", "tensor.fwd_kernel")], steps),
        "tensor.matmul_gflop_per_step":
            per(rec.tallies[("trainer.train_step", "matmul_flop")] / 1e9, steps),
        "cli.loop_self_ms_per_step":
            per(rec.self_seconds("cli.train") * 1e3, steps),
        "trainer.token_accuracy_s": p("trainer.token_accuracy", 50) / 1e3,
        "trainer.save_checkpoint_ms": p("trainer.save_checkpoint", 50),
        "trainer.checkpoint_bytes": per(rec.totals["checkpoint_bytes"],
                                        rec.calls["trainer.save_checkpoint"]),
        "curriculum.final_competence": last.get("final_competence", 0.0),
        "decoding.beam_decode_ms.p50": p("decoding.beam_decode", 50),
        "decoding.beam_decode_ms.p90": p("decoding.beam_decode", 90),
        "model.encode_ms_per_sentence": per(
            rec.child_seconds[("decoding.beam_decode", "model.encode")] * 1e3,
            sentences),
        "model.decode_calls_per_sentence": per(
            rec.child_calls[("decoding.beam_decode", "model.decode")], sentences),
        "model.decode_ms.p50": p("model.decode", 50),
        "decoding.decode_positions_per_gen_token": per(
            rec.tallies[("decoding.beam_decode", "decode_positions")], gen_tokens),
        "decoding.gen_tokens": per(gen_tokens, n_units),
        "decoding.truncated": per(sum(u.counts.get("truncated", 0)
                                      for u in traced), n_units),
        "tensor.fwd_kernel_calls_per_sentence":
            per(rec.tallies[("decoding.beam_decode", "tensor.fwd_kernel")], sentences),
        "trainer.load_checkpoint_ms": p("trainer.load_checkpoint", 50),
        "bleu.report_ms": p("bleu.report", 50),
        "embedding.train_sgns_s": per(rec.seconds["embedding.train_sgns"], n_units),
        "embedding.sgns_step_calls": per(rec.calls["embedding.sgns_step"], n_units),
        "embedding.sgns_step_us.mean": per(rec.seconds["embedding.sgns_step"] * 1e6,
                                           rec.calls["embedding.sgns_step"]),
        "embedding.save_s": per(rec.seconds["embedding.save"], n_units),
        "embedding.load_vectors_s": per(rec.seconds["embedding.load_vectors"],
                                        n_units),
        "curriculum.profile_build_s": per(rec.seconds["curriculum.profile_build"],
                                          n_units),
        "corpus.build_vocab_s": per(rec.seconds["corpus.build_vocab"], n_units),
        "corpus.load_parallel_s": per(rec.seconds["corpus.load_parallel"], n_units),
        "trace.overhead_frac": per(median([u.wall for u in traced]),
                                   median([u.wall for u in plain])) - 1.0,
        "trace.span_coverage_frac": per(covered, commands_wall),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    details: dict


@contextlib.contextmanager
def _inside(directory: Path):
    """Work in ``directory``.  Every path the CLI sees is relative to it,
    so configs, config hashes and checkpoints do not depend on where
    the run happens, and digests repeat across processes."""
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _units(workload, prep, seconds: float, trace: bool, rec: Recorder,
           ledger: Ledger):
    """Repeat the unit until ``seconds`` pass; with tracing, alternate
    untraced and traced units, at least one of each."""
    plain, traced = [], []
    hooks = trace_hooks(rec) if trace else []
    start = time.perf_counter()
    i = 0
    while True:
        out = Path(f"unit{i}")
        out.mkdir()
        gc.collect()
        if trace and i % 2 == 1:
            with installed(hooks):
                traced.append(workload.unit(prep, out, ledger))
        else:
            plain.append(workload.unit(prep, out, ledger))
        shutil.rmtree(out)
        i += 1
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, scratch: Path) -> Result:
    workload = WORKLOADS[name]()
    ledger = Ledger()
    rec = Recorder()
    setup_walls, setup_digests = [], []
    prep = None
    with _inside(scratch):
        data = Path("data")
        data.mkdir()
        for i in range(SETUP_REPEATS):
            work = Path(f"setup{i}")
            work.mkdir()
            t0 = time.perf_counter()
            p = workload.setup(data, work, seed, sizes, ledger)
            setup_walls.append(time.perf_counter() - t0)
            setup_digests.append(p.digest)
            prep = prep or p
        ledger.check(len(set(setup_digests)) == 1,
                     f"set-up repeats disagree: {setup_digests}")
        plain, traced = _units(workload, prep, seconds, trace, rec, ledger)
    units = plain + traced
    ledger.check(all(u.digest == units[0].digest for u in units),
                 "units of one seed gave different outputs: "
                 f"{sorted({u.digest for u in units})}")

    e2e = workload.end_to_end(prep, plain)
    e2e["setup_s"] = median(setup_walls)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        values = per_layer(rec, traced, plain)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        for span in workload.expected_spans:
            ledger.check(rec.calls[span] > 0, f"span {span} recorded no calls")
        for key in workload.expected_tallies:
            ledger.check(rec.totals[key] > 0,
                         f"counter {key} recorded nothing")
        coverage = values["trace.span_coverage_frac"]
        ledger.check(coverage >= workload.min_span_coverage,
                     f"spans cover {coverage:.3f} of the traced wall, "
                     f"below {workload.min_span_coverage}")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}

    details = {
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in workload.named(e2e, plain).items()},
        "failed_ops": {"failed": ledger.failed, "attempted": ledger.attempted,
                       "value": ledger.failed / ledger.attempted},
        "units": {"untraced": len(plain), "traced": len(traced)},
        "unit_walls_s": [u.wall for u in units],
        "setup_walls_s": setup_walls,
        "digests": {"setup": setup_digests[0], "unit": units[0].digest},
    }
    return Result(ledger.failed == 0, ledger.attempted, ledger.failed,
                  metrics, details)
