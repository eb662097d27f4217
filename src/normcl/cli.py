"""Command-line workflow: embed, score, train, evaluate, compare.

Every command echoes its effective merged configuration into the output
directory, so a run directory is self-describing.  All artifacts are
deterministic functions of (inputs, seed): reports are sorted-key JSON,
traces are CSV with repr-round-trip floats, and no output embeds wall
clock or hostnames, which is what makes byte-identical reruns possible.

Trace convention: the row for update t records the competence that was
used to SAMPLE update t (so the first row is exactly c0) and the m_t
column holds the monotone norm driver the schedule consumed at that
moment.  Recomputing the schedule formula offline from a row's own
step/m_t therefore reproduces the competence column exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bleu import bleu_report
from .config import (
    RunConfig, apply_overrides, config_hash, load_config_file, require_file,
    run_config_from_dict, run_config_to_dict,
)
from .corpus import (
    UNK_ID, MergeTable, ParallelCorpus, TokenLines, Vocabulary, atomic_write,
    build_vocab, detokenize_subwords, load_parallel, read_lines, tokenize,
)
from .curriculum import (
    DifficultyProfile, SamplerState, sample_batch, sentence_weight,
)
from .decoding import decode_corpus
from .embedding import EmbeddingTable, train_sgns
from .errors import ConfigError, DataError, NormclError
from .model import Transformer, build_batch
from .optim import AdamState, lr_schedule
from .trainer import (
    TrainerState, load_checkpoint, save_checkpoint, token_accuracy, train_step,
)

__all__ = ["main", "cmd_embed", "cmd_score", "cmd_train", "cmd_evaluate",
           "cmd_compare"]

VECTORS_FILE = "vectors.txt"
NORMS_FILE = "norms.tsv"
VOCAB_SRC_FILE = "vocab.src.tsv"
VOCAB_TGT_FILE = "vocab.tgt.tsv"
MERGES_SRC_FILE = "merges.src.txt"
MERGES_TGT_FILE = "merges.tgt.txt"
DIFFICULTY_FILE = "difficulty.tsv"
TRACE_FILE = "trace.csv"
CKPT_LAST = "checkpoint-last.ckpt"
CKPT_BEST = "checkpoint-best.ckpt"
CONFIG_ECHO = "config.json"
TRAIN_REPORT = "train_report.json"
EVAL_REPORT = "eval_report.json"
TRANSLATIONS_FILE = "translations.txt"
COMPARE_REPORT = "compare_report.json"

TRACE_HEADER = "step,m_t,competence,eligible_fraction,mean_weight,loss,lr"


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path, payload) -> None:
    # no fsync: the rename alone keeps a report whole if the process dies,
    # and syncing both reports of a 4-step train command measured 1.4 ms
    # of its 160
    with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {path} as the output directory: "
                          f"{exc.strerror}") from None
    return path


def _prepare_out(config: RunConfig) -> Path:
    out = _make_dir(config.resolved_out_dir())
    _write_json(out / CONFIG_ECHO, run_config_to_dict(config))
    return out


# ---------------------------------------------------------------------------
# Shared corpus preparation
# ---------------------------------------------------------------------------

def _token_lines(path, merges=None, lengths_only: bool = False) -> TokenLines:
    """The tokenized lines of ``path``, segmented by ``merges`` (a
    ``MergeTable``, or a number of merges to learn).  The file is read
    at the first use, inside ``build_vocab`` or ``load_parallel``."""
    return TokenLines(map(tokenize, read_lines(path)), merges, lengths_only)


def _load_pairs(src_path, tgt_path, src_lines, tgt_lines, vocab_src,
                vocab_tgt, max_len: int) -> ParallelCorpus:
    """``load_parallel`` over the segmented lines of two files, with
    both file names in its errors."""
    try:
        return load_parallel(src_lines, tgt_lines, vocab_src, vocab_tgt, max_len)
    except DataError as exc:
        raise DataError(f"{src_path} and {tgt_path}: {exc}") from None


def _prepare_corpus(config: RunConfig, encode_target: bool = True):
    """Without ``encode_target`` the target side only filters by length:
    ``vocab_tgt`` and the corpus's ``tgt`` are None."""
    ccfg = config.corpus
    require_file(ccfg.source, "corpus.source")
    require_file(ccfg.target, "corpus.target")
    src = _token_lines(ccfg.source, ccfg.merges or None)
    tgt = _token_lines(ccfg.target, ccfg.merges or None,
                       lengths_only=not encode_target)
    vocab_src = build_vocab(src, ccfg.min_count)
    vocab_tgt = build_vocab(tgt, ccfg.min_count) if encode_target else None
    corpus = _load_pairs(ccfg.source, ccfg.target, src, tgt,
                         vocab_src, vocab_tgt, ccfg.max_len)
    return vocab_src, vocab_tgt, src.merges, tgt.merges, corpus


def _load_run_vocabs(out: Path):
    vocab_src = Vocabulary.load(
        require_file(out / VOCAB_SRC_FILE, "source vocabulary (run train first)"))
    vocab_tgt = Vocabulary.load(
        require_file(out / VOCAB_TGT_FILE, "target vocabulary (run train first)"))
    merges_src = merges_tgt = None
    if (out / MERGES_SRC_FILE).is_file():
        merges_src = MergeTable.load(out / MERGES_SRC_FILE)
    if (out / MERGES_TGT_FILE).is_file():
        merges_tgt = MergeTable.load(out / MERGES_TGT_FILE)
    return vocab_src, vocab_tgt, merges_src, merges_tgt


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def cmd_embed(config: RunConfig) -> Path:
    ccfg = config.corpus
    require_file(ccfg.source, "corpus.source")
    src = _token_lines(ccfg.source, ccfg.merges or None)
    vocab = build_vocab(src, ccfg.min_count)

    # one vocabulary, cut at corpus.min_count, serves both the encoder and
    # the difficulty vectors; out-of-vocabulary tokens never enter the
    # stream (their difficulty comes from the max-norm unknown rule instead):
    # each line start moves back by the unknowns before it
    ids, offsets = src.encode(vocab), src.offsets
    unknown = np.flatnonzero(ids == UNK_ID)
    if unknown.size:
        offsets = offsets - np.searchsorted(unknown, offsets)
        ids = np.delete(ids, unknown)
    table = train_sgns(ids, offsets, config.sgns, vocab.tokens)

    out = _prepare_out(config)
    vocab.save(out / VOCAB_SRC_FILE)
    if src.merges is not None:
        src.merges.save(out / MERGES_SRC_FILE)
    table.save_vectors(out / VECTORS_FILE)
    table.save_norms(out / NORMS_FILE)
    print(f"embed: {len(vocab)} vectors of dim {config.sgns.dim} "
          f"-> {out / VECTORS_FILE}")
    return out


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def cmd_score(config: RunConfig, vectors: str | None = None) -> Path:
    out = config.resolved_out_dir()
    vocab_src, _, _, _, corpus = _prepare_corpus(config, encode_target=False)
    cur = config.curriculum
    table = None
    if cur.criterion == "norm":
        vpath = require_file(vectors or out / VECTORS_FILE,
                             "vectors file for criterion=norm (run embed first)")
        table = EmbeddingTable.load_vectors(vpath)
        if list(table.tokens) != vocab_src.tokens:
            raise DataError(
                f"vectors in {vpath} do not match the corpus vocabulary"
            )
    profile = DifficultyProfile.build(corpus, cur.criterion, table=table,
                                      vocab=vocab_src, invert=cur.invert)
    _prepare_out(config)
    profile.save(out / DIFFICULTY_FILE)
    print(f"score: {len(profile)} sentences by {cur.criterion} "
          f"-> {out / DIFFICULTY_FILE}")
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _dev_corpus(config: RunConfig, vocab_src, vocab_tgt, merges_src, merges_tgt,
                corpus: ParallelCorpus) -> ParallelCorpus:
    """The dev files segmented with the training merges, or else the
    first 200 training pairs.  ``CorpusConfig`` sets both files or neither."""
    ccfg = config.corpus
    if ccfg.dev_source:
        src = require_file(ccfg.dev_source, "corpus.dev_source")
        tgt = require_file(ccfg.dev_target, "corpus.dev_target")
        return _load_pairs(src, tgt, _token_lines(src, merges_src),
                           _token_lines(tgt, merges_tgt), vocab_src, vocab_tgt,
                           ccfg.max_len)
    return corpus.head(min(200, len(corpus)))


def _write_trace(path: Path, rows: list) -> None:
    with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(",".join([str(row[0]), *map(_fmt, row[1:])]) + "\n"
                      for row in rows)


def _vocab_digest(vocab_src: Vocabulary, vocab_tgt: Vocabulary) -> str:
    """sha256 of both token lists: equal digests mean equal ids."""
    blob = json.dumps([vocab_src.tokens, vocab_tgt.tokens]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _check_vocab_digest(state: TrainerState, ckpt, digest: str) -> None:
    """Refuse a checkpoint trained on other tokens or other token ids."""
    if state.vocab_digest != digest:
        raise DataError(
            f"checkpoint {ckpt} was trained on other vocabularies than the "
            f"vocabularies in use (digest {state.vocab_digest[:16]} != "
            f"{digest[:16]})")


def cmd_train(config: RunConfig, resume: bool = False,
              checkpoint: str | None = None,
              difficulty: str | None = None) -> dict:
    if checkpoint and not resume:
        raise ConfigError("--checkpoint names a checkpoint to resume from; "
                          "it needs --resume")
    out = config.resolved_out_dir()
    vocab_src, vocab_tgt, merges_src, merges_tgt, corpus = _prepare_corpus(config)
    dev = _dev_corpus(config, vocab_src, vocab_tgt, merges_src, merges_tgt,
                      corpus)

    cur = config.curriculum
    profile = None
    if cur.kind != "none":
        dpath = require_file(difficulty or out / DIFFICULTY_FILE,
                             "difficulty file (run score first)")
        profile = DifficultyProfile.load(dpath)
        if profile.criterion != cur.criterion:
            raise ConfigError(
                f"difficulty file was scored with criterion "
                f"{profile.criterion!r}, config says {cur.criterion!r}"
            )

    chash = config_hash(config)
    vdigest = _vocab_digest(vocab_src, vocab_tgt)
    sampler = SamplerState(corpus, profile, cur.token_budget, cur.min_pool,
                           seed=(config.seed, 2))

    if resume:
        ckpt = require_file(checkpoint or out / CKPT_LAST,
                            "checkpoint to resume from")
        state = load_checkpoint(ckpt)
        if state.config_hash != chash:
            raise ConfigError(
                "refusing to resume: the checkpoint was produced under a "
                f"different configuration (hash {state.config_hash} != {chash})"
            )
        _check_vocab_digest(state, ckpt, vdigest)
        if state.sampler_rng is not None:
            sampler.set_rng_state(state.sampler_rng)
    else:
        model = Transformer(config.model, len(vocab_src), len(vocab_tgt))
        state = TrainerState(model=model, adam=AdamState(model.params),
                             schedule=cur.schedule(), config_hash=chash,
                             vocab_digest=vdigest)
        state.capture_anchor()

    # the run directory changes only once a resume has been accepted
    _prepare_out(config)
    vocab_src.save(out / VOCAB_SRC_FILE)
    vocab_tgt.save(out / VOCAB_TGT_FILE)
    if merges_src is not None:
        merges_src.save(out / MERGES_SRC_FILE)
    if merges_tgt is not None:
        merges_tgt.save(out / MERGES_TGT_FILE)

    schedule = state.schedule
    evals = state.evals
    best_acc = max((e["token_accuracy"] for e in evals), default=float("-inf"))
    start_step = state.step + 1
    n = len(corpus)

    # the rows travel in the checkpoint; the file is rewritten from them
    # before each checkpoint, so a run killed after one has its rows, and
    # when the loop ends, so a failed run keeps every row it logged
    try:
        for t in range(start_step, config.total_steps + 1):
            c_used = schedule.competence(state.step)
            driver_before = schedule.driver
            ids = sample_batch(sampler, corpus, c_used)
            if profile is None:
                weights = None
            else:
                weights = sentence_weight(profile.cdf[ids], c_used, cur.lambda_w)
            lr = lr_schedule(t, config.optimizer.warmup, config.optimizer.peak_lr)
            metrics = train_step(state, build_batch(corpus, ids), weights, lr)
            schedule.observe_norm(metrics["m_t"])

            if t == 1 or t % config.log_interval == 0 \
                    or t == config.total_steps:
                frac = sampler.eligible_count(c_used) / n
                mean_w = 1.0 if weights is None else np.mean(weights)
                state.trace.append([t, *map(float, (
                    driver_before, c_used, frac, mean_w, metrics["loss"], lr))])
            if t % config.eval_interval == 0 or t == config.total_steps:
                acc = token_accuracy(state.model, dev)
                evals.append({"step": t, "token_accuracy": float(acc),
                              "loss": float(metrics["loss"])})
                state.sampler_rng = sampler.rng_state()
                paths = [out / CKPT_LAST]
                if acc > best_acc:
                    best_acc = acc
                    paths.append(out / CKPT_BEST)
                _write_trace(out / TRACE_FILE, state.trace)
                save_checkpoint(state, *paths)
    finally:
        _write_trace(out / TRACE_FILE, state.trace)

    best = max(evals, key=lambda e: e["token_accuracy"])
    report = {
        "config_hash": chash,
        "kind": cur.kind,
        "criterion": cur.criterion,
        "m0": float(schedule.m0),
        "final_step": state.step,
        "final_accuracy": evals[-1]["token_accuracy"],
        "best": best,
        "evals": evals,
    }
    _write_json(out / TRAIN_REPORT, report)
    print(f"train: {state.step} steps, final dev token accuracy "
          f"{evals[-1]['token_accuracy']:.4f} -> {out}")
    return report


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(config: RunConfig, test_source: str, test_target: str,
                 checkpoint: str | None = None) -> dict:
    out = config.resolved_out_dir()
    if checkpoint:
        ckpt = require_file(checkpoint, "checkpoint")
    elif (out / CKPT_BEST).is_file():
        ckpt = out / CKPT_BEST
    else:
        ckpt = require_file(out / CKPT_LAST, "checkpoint (run train first)")
    state = load_checkpoint(ckpt)
    vocab_src, vocab_tgt, merges_src, merges_tgt = _load_run_vocabs(out)
    _check_vocab_digest(state, ckpt, _vocab_digest(vocab_src, vocab_tgt))

    sources = _token_lines(require_file(test_source, "test source file"),
                           merges_src)
    refs = list(map(tokenize, read_lines(require_file(test_target,
                                                      "test target file"))))
    if not len(sources) or not refs:
        raise ConfigError("empty test file")
    if len(sources) != len(refs):
        raise DataError(f"test line counts differ: {len(sources)} vs {len(refs)}")
    empty = np.flatnonzero(np.diff(sources.offsets) == 0)
    if empty.size:
        raise DataError(f"test source line {empty[0] + 1} is empty")

    ids = np.split(sources.encode(vocab_src), sources.offsets[1:-1])
    hyps = decode_corpus(state.model, [line.tolist() for line in ids],
                         config.eval)
    hyp_words = []
    for h in hyps:
        words = vocab_tgt.decode(h.tokens)
        if merges_tgt is not None:
            words = detokenize_subwords(words)
        hyp_words.append(words)
    _prepare_out(config)
    with atomic_write(out / TRANSLATIONS_FILE, "w", sync=False,
                      encoding="utf-8") as fh:
        for words in hyp_words:
            fh.write(" ".join(words) + "\n")

    report = bleu_report(hyp_words, refs)
    _write_json(out / EVAL_REPORT, report)
    truncated = sum(1 for h in hyps if h.truncated)
    print(f"evaluate: BLEU {report['bleu']:.2f} on {report['n_sentences']} "
          f"sentences ({truncated} truncated) -> {out / EVAL_REPORT}")
    return report


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _reseeded(data: dict, seed: int, out_dir: Path) -> RunConfig:
    d = json.loads(json.dumps(data))
    d["seed"] = seed
    d.setdefault("sgns", {})["seed"] = seed
    d.setdefault("model", {})["seed"] = seed
    d["out_dir"] = str(out_dir)
    return run_config_from_dict(d)


def _run_arm(config: RunConfig) -> dict:
    if config.curriculum.kind != "none":
        if config.curriculum.criterion == "norm":
            cmd_embed(config)
        cmd_score(config)
    return cmd_train(config)


def _steps_to_target(evals, target: float):
    for e in evals:
        if e["token_accuracy"] >= target:
            return e["step"]
    return None


def cmd_compare(config_a: dict, config_b: dict, seeds, out_root: Path,
                target_accuracy: float | None = None,
                target_fraction: float = 0.9) -> dict:
    a_probe = run_config_from_dict(config_a)
    b_probe = run_config_from_dict(config_b)
    if config_a.get("corpus") != config_b.get("corpus"):
        raise ConfigError("compare arms must share the corpus block")
    if replace(a_probe.model, seed=0) != replace(b_probe.model, seed=0):
        raise ConfigError("compare arms must share model dimensions")
    if target_accuracy is not None and not 0 < target_accuracy <= 1:
        raise ConfigError(
            f"--target-accuracy must be in (0, 1], got {target_accuracy}")
    if not (math.isfinite(target_fraction) and target_fraction > 0):
        raise ConfigError(
            f"--target-fraction must be finite and positive, got {target_fraction}")

    _make_dir(out_root)
    rows = []
    for seed in seeds:
        arm_a = _run_arm(_reseeded(config_a, seed, out_root / f"seed{seed}" / "a"))
        arm_b = _run_arm(_reseeded(config_b, seed, out_root / f"seed{seed}" / "b"))
        target = (target_accuracy if target_accuracy is not None
                  else target_fraction * arm_b["final_accuracy"])
        steps_a = _steps_to_target(arm_a["evals"], target)
        steps_b = _steps_to_target(arm_b["evals"], target)
        row = {
            "seed": seed,
            "target_accuracy": float(target),
            "steps_a": steps_a if steps_a is not None else "not reached",
            "steps_b": steps_b if steps_b is not None else "not reached",
        }
        if steps_a is not None and steps_b is not None:
            row["ratio"] = steps_b / steps_a
        rows.append(row)

    reached_a = [r["steps_a"] for r in rows if isinstance(r["steps_a"], int)]
    reached_b = [r["steps_b"] for r in rows if isinstance(r["steps_b"], int)]
    median_row = {
        "seed": "median",
        "steps_a": statistics.median(reached_a) if reached_a else "not reached",
        "steps_b": statistics.median(reached_b) if reached_b else "not reached",
    }
    if reached_a and reached_b:
        median_row["ratio"] = median_row["steps_b"] / median_row["steps_a"]
    rows.append(median_row)

    report = {"target_metric": "token_accuracy", "rows": rows}
    _write_json(out_root / COMPARE_REPORT, report)
    print(f"compare: {len(seeds)} seeds -> {out_root / COMPARE_REPORT}")
    return report


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _output_flags() -> argparse.ArgumentParser:
    """``--out`` and ``--set``: every command takes them."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--out", help="output directory (default: "
                       "$NORMCL_OUT or the working directory)")
    flags.add_argument("--set", action="append", dest="overrides",
                       metavar="KEY=VALUE",
                       help="override any config field, e.g. curriculum.kind=none")
    return flags


def _common_flags() -> argparse.ArgumentParser:
    """The output flags plus ``--config`` and ``--seed``: all but ``compare``."""
    common = argparse.ArgumentParser(add_help=False, parents=[_output_flags()])
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="override the run seed")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="normcl",
        description="Curriculum-ordered seq2seq training driven by "
                    "word-vector norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("embed", parents=[common],
                   help="train difficulty word vectors on the source side")

    p = sub.add_parser("score", parents=[common],
                       help="write per-sentence difficulty (raw + cdf)")
    p.add_argument("--vectors", help="vectors file (default: <out>/vectors.txt)")

    p = sub.add_parser("train", parents=[common], help="run the training loop")
    p.add_argument("--resume", action="store_true",
                   help="continue from the latest checkpoint in the output dir")
    p.add_argument("--checkpoint", help="explicit checkpoint to resume from")
    p.add_argument("--difficulty",
                   help="difficulty file (default: <out>/difficulty.tsv)")

    p = sub.add_parser("evaluate", parents=[common],
                       help="decode a test set and report corpus BLEU")
    p.add_argument("--test-source", required=True)
    p.add_argument("--test-target", required=True)
    p.add_argument("--checkpoint",
                   help="checkpoint to load (default: best, then last)")

    # no abbreviations: --seed, which compare lacks, would mean --seeds
    p = sub.add_parser("compare", parents=[_output_flags()], allow_abbrev=False,
                       help="train two configurations across seeds and "
                            "report steps-to-target")
    p.add_argument("--config-a", required=True, help="method configuration")
    p.add_argument("--config-b", required=True, help="baseline configuration")
    p.add_argument("--seeds", default="0,1,2",
                   help="comma-separated seed list (default 0,1,2)")
    p.add_argument("--target-accuracy", type=float,
                   help="explicit token-accuracy target")
    p.add_argument("--target-fraction", type=float, default=0.9,
                   help="target as a fraction of arm B's final accuracy "
                        "(default 0.9)")

    return parser


def _assemble_config(args) -> RunConfig:
    data = load_config_file(args.config) if args.config else {}
    data = apply_overrides(data, args.overrides)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out:
        data["out_dir"] = args.out
    return run_config_from_dict(data)


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "embed":
            cmd_embed(_assemble_config(args))
        elif args.command == "score":
            cmd_score(_assemble_config(args), vectors=args.vectors)
        elif args.command == "train":
            cmd_train(_assemble_config(args), resume=args.resume,
                      checkpoint=args.checkpoint, difficulty=args.difficulty)
        elif args.command == "evaluate":
            cmd_evaluate(_assemble_config(args), args.test_source,
                         args.test_target, checkpoint=args.checkpoint)
        elif args.command == "compare":
            config_a = apply_overrides(load_config_file(args.config_a),
                                       args.overrides)
            config_b = apply_overrides(load_config_file(args.config_b),
                                       args.overrides)
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
            except ValueError:
                raise ConfigError(f"--seeds must list integers, got "
                                  f"{args.seeds!r}") from None
            if not seeds:
                raise ConfigError("--seeds must list at least one seed")
            out_root = Path(args.out) if args.out else \
                run_config_from_dict({}).resolved_out_dir()
            cmd_compare(config_a, config_b, seeds, out_root,
                        target_accuracy=args.target_accuracy,
                        target_fraction=args.target_fraction)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except NormclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
