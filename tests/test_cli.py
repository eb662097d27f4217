"""End-to-end command tests: every artifact a run directory promises,
the trace conventions, resume, and the comparison harness."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normcl.cli
import normcl.corpus
import normcl.trainer
from corpus_oracle import pairs_of
from normcl.cli import (
    CKPT_BEST, CKPT_LAST, COMPARE_REPORT, DIFFICULTY_FILE, EVAL_REPORT,
    MERGES_SRC_FILE, NORMS_FILE, TRACE_FILE, TRACE_HEADER, TRAIN_REPORT, TRANSLATIONS_FILE,
    VECTORS_FILE, VOCAB_SRC_FILE, VOCAB_TGT_FILE, main,
)
from normcl.config import (
    _BLOCKS, RunConfig, run_config_from_dict, run_config_to_dict,
)
from normcl.corpus import (
    EOW, UNK_ID, MergeTable, TokenLines, Vocabulary, build_vocab, learn_merges,
    load_parallel, read_lines, tokenize,
)
from normcl.curriculum import DifficultyProfile, competence_norm, competence_time
from normcl.decoding import decode_corpus
from normcl.embedding import EmbeddingTable, train_sgns
from normcl.synth import synthetic_pairs
from normcl.trainer import load_checkpoint, save_checkpoint


def run_cli(*argv):
    return main([str(a) for a in argv])


def _float_fields() -> list[str]:
    """``block.field`` for every field of every config block that may
    hold a float, so a new float field is covered when it is added."""
    names = []
    for block, cls in _BLOCKS.items():
        for name, hint in typing.get_type_hints(cls).items():
            if float in (typing.get_args(hint) or (hint,)):
                names.append(f"{block}.{name}")
    return names


def read_trace(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    cols = {name: [] for name in TRACE_HEADER.split(",")}
    for line in lines[1:]:
        for name, cell in zip(TRACE_HEADER.split(","), line.split(",")):
            cols[name].append(float(cell))
    return cols


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus files plus a small shared config, built once."""
    root = tmp_path_factory.mktemp("cli")
    src, tgt = synthetic_pairs(seed=11, n_pairs=200, vocab_size=50,
                               task="copy", min_len=3, max_len=9)
    (root / "train.src").write_text("\n".join(src) + "\n")
    (root / "train.tgt").write_text("\n".join(tgt) + "\n")
    dsrc, dtgt = synthetic_pairs(seed=12, n_pairs=30, vocab_size=50,
                                 task="copy", min_len=3, max_len=9)
    (root / "dev.src").write_text("\n".join(dsrc) + "\n")
    (root / "dev.tgt").write_text("\n".join(dtgt) + "\n")
    cfg = {
        "corpus": {"source": str(root / "train.src"),
                   "target": str(root / "train.tgt"),
                   "dev_source": str(root / "dev.src"),
                   "dev_target": str(root / "dev.tgt")},
        "sgns": {"dim": 16, "epochs": 2},
        "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
                  "dropout": 0.0},
        "curriculum": {"token_budget": 64, "min_pool": 16},
        "optimizer": {"warmup": 20, "peak_lr": 1e-3},
        "eval": {"beam_size": 2, "max_decode_len": 12},
        "total_steps": 24, "log_interval": 4, "eval_interval": 8,
    }
    (root / "run.json").write_text(json.dumps(cfg))
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    """One full embed -> score -> train pipeline, reused read-only."""
    out = workdir / "base"
    cfg = workdir / "run.json"
    assert run_cli("embed", "--config", cfg, "--out", out) == 0
    assert run_cli("score", "--config", cfg, "--out", out) == 0
    assert run_cli("train", "--config", cfg, "--out", out) == 0
    return out


class TestArtifacts:
    def test_run_directory_is_complete(self, trained):
        for name in (VECTORS_FILE, NORMS_FILE, DIFFICULTY_FILE, TRACE_FILE,
                     CKPT_LAST, CKPT_BEST, TRAIN_REPORT, "config.json",
                     VOCAB_SRC_FILE, "vocab.tgt.tsv"):
            assert (trained / name).is_file(), name

    def test_new_best_writes_the_last_checkpoints_bytes(self, workdir, trained,
                                                        monkeypatch):
        """A run's one evaluation is a new best: both checkpoints hold
        the bytes of one serialization, and every artifact equals that of
        a run that serializes each checkpoint file on its own."""
        cfg = workdir / "run.json"
        args = ("--difficulty", trained / DIFFICULTY_FILE, "--set", "total_steps=8")
        once = workdir / "best_once"
        assert run_cli("train", "--config", cfg, "--out", once, *args) == 0
        assert (once / CKPT_BEST).read_bytes() == (once / CKPT_LAST).read_bytes()

        written = []

        def one_file_per_call(state, *paths):
            for path in paths:
                written.append(path.name)
                save_checkpoint(state, path)

        monkeypatch.setattr(normcl.cli, "save_checkpoint", one_file_per_call)
        apart = workdir / "best_apart"
        assert run_cli("train", "--config", cfg, "--out", apart, *args) == 0
        assert written == [CKPT_LAST, CKPT_BEST]
        for name in (TRACE_FILE, TRAIN_REPORT, CKPT_LAST, CKPT_BEST):
            assert (once / name).read_bytes() == (apart / name).read_bytes(), name

    def test_norms_file_covers_vocab(self, trained):
        n_vocab = len((trained / VOCAB_SRC_FILE).read_text().splitlines())
        n_norms = len((trained / NORMS_FILE).read_text().splitlines())
        assert n_norms == n_vocab

    def test_config_echo_round_trips(self, trained, workdir):
        echo = json.loads((trained / "config.json").read_text())
        want = json.loads((workdir / "run.json").read_text())
        assert echo["total_steps"] == want["total_steps"]
        assert echo["corpus"]["source"] == want["corpus"]["source"]
        # defaults are materialized in the echo
        assert echo["curriculum"]["kind"] == "norm_based"
        assert echo["curriculum"]["lambda_w"] == 0.5

    def test_train_report_shape(self, trained):
        report = json.loads((trained / TRAIN_REPORT).read_text())
        assert report["final_step"] == 24
        assert report["m0"] > 0
        steps = [e["step"] for e in report["evals"]]
        assert steps == [8, 16, 24]
        assert all(0.0 <= e["token_accuracy"] <= 1.0 for e in report["evals"])
        assert report["best"]["token_accuracy"] == max(
            e["token_accuracy"] for e in report["evals"])


class TestScore:
    def test_length_cdf_oracle(self, tmp_path):
        """Three sentences of distinct lengths get cdf 1/3, 2/3, 1."""
        (tmp_path / "s.txt").write_text("a b\nc d e f g\nh i j k l m n o p\n")
        (tmp_path / "t.txt").write_text("a b\nc d e f g\nh i j k l m n o p\n")
        code = run_cli("score", "--out", tmp_path / "o",
                       "--set", f"corpus.source={tmp_path / 's.txt'}",
                       "--set", f"corpus.target={tmp_path / 't.txt'}",
                       "--set", "curriculum.criterion=length")
        assert code == 0
        rows = [line.split("\t") for line in
                (tmp_path / "o" / DIFFICULTY_FILE).read_text().splitlines()]
        assert [float(r[1]) for r in rows] == [2.0, 5.0, 9.0]
        assert [float(r[2]) for r in rows] == [1 / 3, 2 / 3, 1.0]
        assert [r[3] for r in rows] == ["length"] * 3

    def test_norm_raw_matches_vector_file(self, trained, workdir):
        """difficulty.tsv raw column == per-sentence sum of vector norms,
        recomputed from the saved artifacts alone."""
        table = EmbeddingTable.load_vectors(trained / VECTORS_FILE)
        vocab = Vocabulary.load(trained / VOCAB_SRC_FILE)
        norms = np.linalg.norm(table.matrix, axis=1)
        norms[UNK_ID] = norms.max()
        raws = [float(line.split("\t")[1]) for line in
                (trained / DIFFICULTY_FILE).read_text().splitlines()]
        lines = (workdir / "train.src").read_text().splitlines()
        assert len(raws) == len(lines)
        for line, raw in zip(lines, raws):
            ids = map(vocab.encode_token, tokenize(line))
            assert abs(raw - float(sum(norms[i] for i in ids))) < 1e-9

    def test_all_criteria_score_the_same_corpus(self, trained, workdir):
        for criterion in ("length", "rarity"):
            out = workdir / f"crit_{criterion}"
            code = run_cli("score", "--config", workdir / "run.json",
                           "--out", out,
                           "--set", f"curriculum.criterion={criterion}")
            assert code == 0
            rows = (out / DIFFICULTY_FILE).read_text().splitlines()
            base = (trained / DIFFICULTY_FILE).read_text().splitlines()
            assert len(rows) == len(base)
            assert [r.split("\t")[0] for r in rows] == \
                   [r.split("\t")[0] for r in base]
            cdf = [float(r.split("\t")[2]) for r in rows]
            assert all(0.0 < c <= 1.0 for c in cdf)

    def test_norm_without_vectors_rejected(self, workdir, capsys):
        code = run_cli("score", "--config", workdir / "run.json",
                       "--out", workdir / "no_vectors_here")
        assert code == 2
        assert "run embed first" in capsys.readouterr().err


class TestScoreTargetSide:
    """``score`` reads the target side only to filter pairs by length."""

    SRC = ["a b c", "d e", "a b", "c d e f", "e f a", "b c d", "f a",
           "a c e", "b d f"]
    TGT = ["x y z", "", "x y q r s t u v w k", "rare1 y", "z x", "y y",
           "q rare2 x", "z", "x z y y z x"]

    def _config(self, tmp_path, merges, src=SRC, tgt=TGT):
        (tmp_path / "s.txt").write_text("\n".join(src) + "\n")
        (tmp_path / "t.txt").write_text("\n".join(tgt) + "\n")
        cfg = {"corpus": {"source": str(tmp_path / "s.txt"),
                          "target": str(tmp_path / "t.txt"),
                          "min_count": 2, "max_len": 6, "merges": merges},
               "sgns": {"dim": 4, "epochs": 1, "negatives": 2}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        return tmp_path / "run.json"

    @staticmethod
    def _units(path, merges):
        units = [tokenize(line) for line in Path(path).read_text().splitlines()]
        if merges:
            table = learn_merges(TokenLines(units), merges)
            units = [table.apply(toks) for toks in units]
        return units

    @pytest.mark.parametrize("merges", [0, 20])
    def test_matches_the_two_vocabulary_corpus(self, tmp_path, merges):
        config = self._config(tmp_path, merges)
        out = tmp_path / "out"
        assert run_cli("embed", "--config", config, "--out", out) == 0
        assert run_cli("score", "--config", config, "--out", out) == 0
        src = self._units(tmp_path / "s.txt", merges)
        tgt = self._units(tmp_path / "t.txt", merges)
        src, tgt = TokenLines(src), TokenLines(tgt)
        vocab_src, vocab_tgt = build_vocab(src, 2), build_vocab(tgt, 2)
        corpus = load_parallel(src, tgt, vocab_src, vocab_tgt, 6)
        # the empty and the overlong target were dropped
        assert len(corpus) < len(self.SRC) - 1
        if not merges:  # the last target has exactly max_len tokens
            assert len(corpus) == len(self.SRC) - 2
            # rare1 and rare2 fall below min_count
            assert sum(p.tgt.count(UNK_ID) for p in pairs_of(corpus)) == 2
        table = EmbeddingTable.load_vectors(out / VECTORS_FILE)
        DifficultyProfile.build(corpus, "norm", table=table,
                                vocab=vocab_src).save(tmp_path / "want.tsv")
        assert (out / DIFFICULTY_FILE).read_bytes() == \
            (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("tgt", [TGT[:-1], ["", "a b c d e f g"] + [""] * 7],
                             ids=["line_counts_differ", "all_filtered"])
    def test_bad_target_exits_2_naming_both_files(self, tmp_path, capsys, tgt):
        config = self._config(tmp_path, 0, tgt=tgt)
        code = run_cli("score", "--config", config, "--out", tmp_path / "out",
                       "--set", "curriculum.criterion=length")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(tmp_path / "s.txt") in err and str(tmp_path / "t.txt") in err


class TestGoldenBytes:
    """``embed`` then ``score`` on a fixed corpus and seed write these exact
    bytes.  The digests were recorded with NumPy 2.4 and OpenBLAS 0.3.31
    on x86-64.  A change that alters the SGNS random stream or the update
    arithmetic changes them; a deliberate change updates the digests here
    and says so in CHANGES.md."""

    DIGESTS = {
        VECTORS_FILE:
            "3b986f9acf842801103929284088e98b37e1f2e50cef434acdc0e40e012e0745",
        DIFFICULTY_FILE:
            "c27a5ee27b73b5934fdb4d952c5396c347ac8bdb84874c8b9ac05262a18bd532",
    }

    def test_embed_score_digests(self, tmp_path):
        src, tgt = synthetic_pairs(seed=13, n_pairs=400, vocab_size=60,
                                   task="mapped", min_len=2, max_len=14)
        (tmp_path / "g.src").write_text("\n".join(src) + "\n")
        (tmp_path / "g.tgt").write_text("\n".join(tgt) + "\n")
        cfg = {"corpus": {"source": str(tmp_path / "g.src"),
                          "target": str(tmp_path / "g.tgt"),
                          "min_count": 2, "max_len": 12},
               "sgns": {"dim": 8, "epochs": 3, "window": 3, "negatives": 4,
                        "subsample_threshold": 1e-3, "seed": 5}}
        (tmp_path / "g.json").write_text(json.dumps(cfg))
        for command in ("embed", "score"):
            assert run_cli(command, "--config", tmp_path / "g.json",
                           "--out", tmp_path / "out") == 0
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
               .hexdigest() for name in self.DIGESTS}
        assert got == self.DIGESTS

    # the same corpus and seed with 30 learned merges on each side
    MERGE_DIGESTS = {
        VECTORS_FILE:
            "eddb46bb26a4b8cf4ae512bc9aa537b46a7bbba78569059f705902098101f767",
        DIFFICULTY_FILE:
            "95a5b99fb71b703754394ee8366bae7c6cd6351cc05fd2bc8ec3386f44b43e97",
        MERGES_SRC_FILE:
            "b6f0a71070fb3ac387391b369c2d7583fd7e4a8d8f5af4605743304c0409b6dd",
        VOCAB_SRC_FILE:
            "e994e3dc114839d965151536cc411e431c215ed79b061ea65edfc0d81b119262",
    }

    def test_embed_score_digests_with_merges(self, tmp_path):
        src, tgt = synthetic_pairs(seed=13, n_pairs=400, vocab_size=60,
                                   task="mapped", min_len=2, max_len=14)
        (tmp_path / "g.src").write_text("\n".join(src) + "\n")
        (tmp_path / "g.tgt").write_text("\n".join(tgt) + "\n")
        cfg = {"corpus": {"source": str(tmp_path / "g.src"),
                          "target": str(tmp_path / "g.tgt"),
                          "min_count": 2, "max_len": 12, "merges": 30},
               "sgns": {"dim": 8, "epochs": 3, "window": 3, "negatives": 4,
                        "subsample_threshold": 1e-3, "seed": 5}}
        (tmp_path / "g.json").write_text(json.dumps(cfg))
        for command in ("embed", "score"):
            assert run_cli(command, "--config", tmp_path / "g.json",
                           "--out", tmp_path / "out") == 0
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
               .hexdigest() for name in self.MERGE_DIGESTS}
        assert got == self.MERGE_DIGESTS


class TestLongSentences:
    """``embed``, ``score``, ``train`` and ``evaluate`` on 3-60-token
    training pairs and 30-60-token test sources.  The set-up artifacts
    keep these digests (recorded like ``TestGoldenBytes``'s), and a rerun
    repeats every output byte for byte."""

    DIGESTS = {
        VECTORS_FILE:
            "5b6112ba3e2600c7bbbf947ccd1f7a4efdf2398dc2e08e2ab1aed0579290aa67",
        DIFFICULTY_FILE:
            "90456e34277a64ac5fe9c15d3b583f27e6ed09ef30207e96ac12cfdcf2e4857f",
    }

    def test_pipeline_repeats_byte_for_byte(self, tmp_path):
        src, tgt = synthetic_pairs(seed=21, n_pairs=200, vocab_size=60,
                                   task="mapped", min_len=3, max_len=60)
        test_src, test_tgt = synthetic_pairs(seed=22, n_pairs=40, vocab_size=60,
                                             task="mapped", min_len=30, max_len=60)
        for name, lines in (("l.src", src), ("l.tgt", tgt),
                            ("test.src", test_src), ("test.tgt", test_tgt)):
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({
            "corpus": {"source": str(tmp_path / "l.src"),
                       "target": str(tmp_path / "l.tgt"), "max_len": 64},
            "sgns": {"dim": 8, "epochs": 2},
            "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32},
            "eval": {"beam_size": 2, "max_decode_len": 70},
            "total_steps": 12, "log_interval": 4, "eval_interval": 6}))

        def pipeline(out):
            for command in ("embed", "score", "train"):
                assert run_cli(command, "--config", cfg, "--out", out) == 0
            assert run_cli("evaluate", "--config", cfg, "--out", out,
                           "--test-source", tmp_path / "test.src",
                           "--test-target", tmp_path / "test.tgt") == 0
            return {name: (out / name).read_bytes() for name in (
                VECTORS_FILE, DIFFICULTY_FILE, TRACE_FILE, TRANSLATIONS_FILE,
                EVAL_REPORT)}

        first = pipeline(tmp_path / "a")
        assert {name: hashlib.sha256(first[name]).hexdigest()
                for name in self.DIGESTS} == self.DIGESTS
        assert first[TRANSLATIONS_FILE].count(b"\n") == len(test_src)
        assert pipeline(tmp_path / "b") == first


class TestTrace:
    def test_schedule_starts_at_c0(self, trained):
        cols = read_trace(trained / TRACE_FILE)
        assert cols["step"][0] == 1.0
        assert cols["competence"][0] == 0.01

    def test_norm_based_competence_non_decreasing(self, trained):
        cols = read_trace(trained / TRACE_FILE)
        c = cols["competence"]
        assert all(b >= a for a, b in zip(c, c[1:]))
        m = cols["m_t"]
        assert all(b >= a for a, b in zip(m, m[1:]))

    def test_norm_based_self_consistency_exact(self, trained):
        """The competence column is reproducible from the same row's m_t
        plus the anchor in the report. Exact equality, not tolerance."""
        report = json.loads((trained / TRAIN_REPORT).read_text())
        m0 = report["m0"]
        cols = read_trace(trained / TRACE_FILE)
        for m_t, c in zip(cols["m_t"], cols["competence"]):
            assert competence_norm(m_t, m0, 0.01, 2.5) == c

    def test_time_sqrt_self_consistency_exact(self, workdir):
        out = workdir / "tsqrt"
        code = run_cli("train", "--config", workdir / "run.json", "--out", out,
                       "--difficulty", workdir / "base" / DIFFICULTY_FILE,
                       "--set", "curriculum.kind=time_sqrt",
                       "--set", "curriculum.lambda_t=16")
        assert code == 0
        cols = read_trace(out / TRACE_FILE)
        assert cols["competence"][0] == 0.01
        for step, c in zip(cols["step"], cols["competence"]):
            # row for update t was sampled at t-1 completed steps
            assert competence_time(int(step) - 1, 0.01, 16) == c
        # the norm driver is tracked even though competence ignores it
        m = cols["m_t"]
        assert m[0] == json.loads((out / TRAIN_REPORT).read_text())["m0"]
        assert all(b >= a for a, b in zip(m, m[1:]))

    def test_vanilla_columns_are_flat_ones(self, workdir):
        out = workdir / "vanilla"
        code = run_cli("train", "--config", workdir / "run.json", "--out", out,
                       "--set", "curriculum.kind=none")
        assert code == 0
        cols = read_trace(out / TRACE_FILE)
        assert set(cols["competence"]) == {1.0}
        assert set(cols["eligible_fraction"]) == {1.0}
        assert set(cols["mean_weight"]) == {1.0}
        m = cols["m_t"]
        assert m[0] == json.loads((out / TRAIN_REPORT).read_text())["m0"]
        assert all(b >= a for a, b in zip(m, m[1:]))

    def test_eligible_fraction_grows_with_competence(self, trained):
        cols = read_trace(trained / TRACE_FILE)
        f = cols["eligible_fraction"]
        assert all(0.0 < x <= 1.0 for x in f)
        assert all(b >= a for a, b in zip(f, f[1:]))


class TestDeterminism:
    def test_rerun_is_byte_identical(self, workdir):
        """Same config, same out dir: every artifact byte-for-byte equal."""
        out = workdir / "det"
        cfg = workdir / "run.json"

        def pipeline():
            for cmd in ("embed", "score", "train"):
                assert run_cli(cmd, "--config", cfg, "--out", out) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        first = pipeline()
        for p in out.iterdir():
            p.unlink()
        second = pipeline()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


class TestResume:
    def test_resume_matches_unbroken_run(self, workdir, trained):
        """Checkpoint at step 16, resume to 24: the trace is byte-identical
        to the unbroken run's."""
        out = workdir / "resume"
        cfg = workdir / "run.json"
        assert run_cli("train", "--config", cfg, "--out", out,
                       "--difficulty", trained / DIFFICULTY_FILE,
                       "--set", "total_steps=16") == 0
        assert run_cli("train", "--config", cfg, "--out", out, "--resume",
                       "--difficulty", trained / DIFFICULTY_FILE) == 0

        # every row, the final loss included, so weight updates replayed too
        assert (out / TRACE_FILE).read_bytes() == (trained / TRACE_FILE).read_bytes()

    # ``train`` in a child process that dies the moment its step-16
    # checkpoint is in place, before any later row is logged
    KILLED_AFTER_CHECKPOINT = (
        "import os, sys\n"
        "import normcl.cli\n"
        "save = normcl.cli.save_checkpoint\n"
        "def save_then_die(state, *paths):\n"
        "    save(state, *paths)\n"
        "    if state.step == 16:\n"
        "        os._exit(137)\n"
        "normcl.cli.save_checkpoint = save_then_die\n"
        "sys.exit(normcl.cli.main(sys.argv[1:]))\n")

    # ``train`` in a child process that dies as it starts update 22:
    # row 20 is logged, checkpoint 24 is not written
    KILLED_BETWEEN_CHECKPOINTS = (
        "import os, sys\n"
        "import normcl.cli\n"
        "step = normcl.cli.train_step\n"
        "def die_at_update_22(state, *args):\n"
        "    if state.step == 21:\n"
        "        os._exit(137)\n"
        "    return step(state, *args)\n"
        "normcl.cli.train_step = die_at_update_22\n"
        "sys.exit(normcl.cli.main(sys.argv[1:]))\n")

    def _kill_then_resume(self, script, out, workdir, trained):
        """Run ``script``'s killed ``train`` into ``out``, check that it
        left the step-16 checkpoint and the rows up to it, resume, and
        require the unbroken run's trace."""
        cfg = workdir / "run.json"
        difficulty = ("--difficulty", trained / DIFFICULTY_FILE)
        src = Path(normcl.cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run(
            [sys.executable, "-c", script, "train",
             "--config", str(cfg), "--out", str(out), *map(str, difficulty)],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 137, child.stderr
        assert load_checkpoint(out / CKPT_LAST).step == 16
        steps = [row.split(",")[0] for row in
                 (out / TRACE_FILE).read_text().splitlines()[1:]]
        assert steps == ["1", "4", "8", "12", "16"]
        assert run_cli("train", "--config", cfg, "--out", out, "--resume",
                       *difficulty) == 0
        assert (out / TRACE_FILE).read_bytes() == (trained / TRACE_FILE).read_bytes()

    def test_resume_after_a_kill_matches_unbroken_run(self, workdir, trained):
        """A run killed right after a checkpoint has the trace rows up to
        it on disk, so the resumed trace is byte-identical to the
        unbroken run's."""
        self._kill_then_resume(self.KILLED_AFTER_CHECKPOINT,
                               workdir / "killed", workdir, trained)

    def test_resume_after_a_kill_between_checkpoints_matches_unbroken_run(
            self, workdir, trained):
        """A run killed after logging row 20 but before checkpoint 24
        resumes from checkpoint 16, whose rows replace the file's, so
        the resumed trace is byte-identical to the unbroken run's."""
        self._kill_then_resume(self.KILLED_BETWEEN_CHECKPOINTS,
                               workdir / "killed_between", workdir, trained)

    @pytest.mark.parametrize("damage", ["not_utf8", "garbage_row"])
    def test_resume_over_a_damaged_trace_matches_unbroken_run(
            self, workdir, trained, tmp_path, damage):
        """A resume takes its rows from the checkpoint and never reads
        trace.csv: over a trace with a non-UTF-8 byte or a ``4,garbage``
        row it exits 0 and writes the unbroken run's trace."""
        out = tmp_path / "run"
        cfg = workdir / "run.json"
        difficulty = ("--difficulty", trained / DIFFICULTY_FILE)
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--set", "total_steps=16") == 0
        trace = out / TRACE_FILE
        if damage == "not_utf8":
            _not_utf8(trace, trace)
        else:
            lines = trace.read_text().splitlines()
            assert lines[2].startswith("4,")
            lines[2] = "4,garbage"
            trace.write_text("\n".join(lines) + "\n")
        assert run_cli("train", "--config", cfg, "--out", out, "--resume",
                       *difficulty) == 0
        assert trace.read_bytes() == (trained / TRACE_FILE).read_bytes()

    def test_resume_from_earlier_checkpoint_truncates_trace(
            self, workdir, trained, tmp_path):
        """Train to 8, keep that checkpoint, train on to 16, then resume
        from the step-8 copy: rows 9..16 of the abandoned branch go, and
        the trace equals the unbroken run's."""
        out = workdir / "resume_earlier"
        cfg = workdir / "run.json"
        difficulty = ("--difficulty", trained / DIFFICULTY_FILE)
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--set", "total_steps=8") == 0
        early = tmp_path / "step8.ckpt"
        shutil.copyfile(out / CKPT_LAST, early)
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--resume", "--set", "total_steps=16") == 0
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--resume", "--checkpoint", early) == 0

        lines = (out / TRACE_FILE).read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == [1, 4, 8, 12, 16, 20, 24]
        assert (out / TRACE_FILE).read_bytes() == (trained / TRACE_FILE).read_bytes()

    def test_resume_refuses_changed_config(self, workdir, trained, capsys):
        out = workdir / "resume_refuse"
        cfg = workdir / "run.json"
        assert run_cli("train", "--config", cfg, "--out", out,
                       "--difficulty", trained / DIFFICULTY_FILE,
                       "--set", "total_steps=8") == 0
        code = run_cli("train", "--config", cfg, "--out", out, "--resume",
                       "--difficulty", trained / DIFFICULTY_FILE,
                       "--set", "curriculum.lambda_m=3.0")
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_refused_resume_leaves_the_run_directory_as_it_was(
            self, workdir, trained, capsys):
        """config.json and the vocabularies are written only once the
        resume checks pass: a refused resume, here under other merges and
        so other vocabularies, changes no file of the run directory."""
        out = workdir / "resume_untouched"
        cfg = workdir / "run.json"
        difficulty = ("--difficulty", trained / DIFFICULTY_FILE)
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--set", "total_steps=8") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"config.json", VOCAB_SRC_FILE, VOCAB_TGT_FILE} <= before.keys()
        code = run_cli("train", "--config", cfg, "--out", out, "--resume",
                       *difficulty, "--set", "corpus.merges=5")
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_save_keeps_the_previous_checkpoint(
            self, workdir, trained, monkeypatch):
        """A save that dies partway (the disk fills at the fifth write,
        after the header and three parameters) leaves the previous
        checkpoint-last byte-identical and loadable, leaves no temporary
        file, and the run still resumes."""
        out = workdir / "interrupted"
        cfg = workdir / "run.json"
        difficulty = ("--difficulty", trained / DIFFICULTY_FILE)
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--set", "total_steps=8") == 0
        before = (out / CKPT_LAST).read_bytes()

        atomic_write = normcl.trainer.atomic_write
        written = []

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                if len(written) == 4:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(self.fh.write(data))

        @contextlib.contextmanager
        def fill_disk(path, *args, **kwargs):
            with atomic_write(path, *args, **kwargs) as fh:
                yield FullDisk(fh)

        monkeypatch.setattr(normcl.trainer, "atomic_write", fill_disk)
        with pytest.raises(OSError):
            run_cli("train", "--config", cfg, "--out", out, *difficulty,
                    "--resume", "--set", "total_steps=16")
        monkeypatch.undo()
        assert len(written) == 4 and all(written)
        assert (out / CKPT_LAST).read_bytes() == before
        assert load_checkpoint(out / CKPT_LAST).step == 8
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--resume") == 0
        resumed = (out / TRACE_FILE).read_text().splitlines()
        assert resumed[-1] == (trained / TRACE_FILE).read_text().splitlines()[-1]

    def test_failed_trace_rewrite_keeps_the_previous_trace(
            self, workdir, trained, monkeypatch):
        """A resumed run whose trace write fails (the disk fills after the
        second row) leaves the previous trace.csv byte-identical, leaves
        no temporary file, and the run still resumes."""
        out = workdir / "interrupted_trace"
        cfg = workdir / "run.json"
        difficulty = ("--difficulty", trained / DIFFICULTY_FILE)
        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--set", "total_steps=8") == 0
        before = (out / TRACE_FILE).read_bytes()

        fmt = normcl.cli._fmt
        formatted = []

        def fill_disk(x):
            # six floats a row: the disk fills once two rows are written
            if len(formatted) == 12:
                raise OSError(errno.ENOSPC, "No space left on device")
            formatted.append(x)
            return fmt(x)

        monkeypatch.setattr(normcl.cli, "_fmt", fill_disk)
        with pytest.raises(OSError):
            run_cli("train", "--config", cfg, "--out", out, *difficulty,
                    "--resume")
        monkeypatch.undo()
        assert (out / TRACE_FILE).read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

        assert run_cli("train", "--config", cfg, "--out", out, *difficulty,
                       "--resume") == 0
        resumed = (out / TRACE_FILE).read_bytes()
        assert resumed.startswith(before)
        assert (resumed.splitlines()[-1]
                == (trained / TRACE_FILE).read_bytes().splitlines()[-1])

    def test_resume_refuses_other_vocabularies(self, workdir, tmp_path, capsys):
        """A corpus edited in place keeps the config hash; a resume whose
        rebuilt source vocabulary no longer fits the checkpoint is refused."""
        cfg = json.loads((workdir / "run.json").read_text())
        for side, suffix in (("source", "src"), ("target", "tgt")):
            path = tmp_path / f"train.{suffix}"
            shutil.copyfile(cfg["corpus"][side], path)
            cfg["corpus"][side] = str(path)
        cfg["curriculum"]["kind"] = "none"
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("train", "--config", tmp_path / "run.json",
                       "--out", out, "--set", "total_steps=8") == 0
        src = tmp_path / "train.src"
        lines = src.read_text().splitlines()
        lines[0] = "unseen1 unseen2 unseen3"
        src.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", tmp_path / "run.json",
                       "--out", out, "--resume")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocabularies in use" in err
        assert "Traceback" not in err
        assert load_checkpoint(out / CKPT_LAST).step == 8

    def test_resume_refuses_reordered_vocabulary(self, workdir, tmp_path,
                                                 capsys):
        """Swapping two source words of different counts throughout the
        corpus keeps the config hash and the vocabulary's size, but
        reorders its ids: the resume is refused."""
        cfg = json.loads((workdir / "run.json").read_text())
        src = tmp_path / "train.src"
        shutil.copyfile(cfg["corpus"]["source"], src)
        cfg["corpus"]["source"] = str(src)
        cfg["curriculum"]["kind"] = "none"
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("train", "--config", tmp_path / "run.json",
                       "--out", out, "--set", "total_steps=8") == 0
        lines = [tokenize(line) for line in src.read_text().splitlines()]
        ranked = build_vocab(TokenLines(lines), 1).tokens[4:]
        swap = {ranked[0]: ranked[-1], ranked[-1]: ranked[0]}
        lines = [[swap.get(tok, tok) for tok in toks] for toks in lines]
        src.write_text("".join(" ".join(toks) + "\n" for toks in lines))
        before = Vocabulary.load(out / VOCAB_SRC_FILE).tokens
        after = build_vocab(TokenLines(lines), 1).tokens
        assert sorted(after) == sorted(before) and after != before
        code = run_cli("train", "--config", tmp_path / "run.json",
                       "--out", out, "--resume")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocabularies in use" in err
        assert "Traceback" not in err

    def test_checkpoint_without_resume_refused(self, workdir, tmp_path, capsys):
        """``--checkpoint`` names a checkpoint to resume from: without
        ``--resume`` it is refused before the run directory is made."""
        out = tmp_path / "run"
        code = run_cli("train", "--config", workdir / "run.json", "--out", out,
                       "--set", "curriculum.kind=none",
                       "--checkpoint", tmp_path / "nonexistent.ckpt")
        _refused(capsys, code, "--checkpoint", "needs --resume")
        assert not out.exists()

    def test_resume_needs_a_checkpoint(self, workdir, capsys):
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", workdir / "resume_empty", "--resume",
                       "--set", "curriculum.kind=none")
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_message_names_step_and_batch_and_trace_keeps_its_rows(
            self, tmp_path, capsys, monkeypatch):
        """A run that diverges at update 2 exits 2 with the step and the
        batch's sentence ids in its message, and trace.csv keeps row 1."""
        src, tgt = synthetic_pairs(seed=0, n_pairs=300, task="mapped")
        (tmp_path / "d.src").write_text("\n".join(src) + "\n")
        (tmp_path / "d.tgt").write_text("\n".join(tgt) + "\n")
        step = normcl.cli.train_step
        batches = []

        def recording(state, batch, *args):
            batches.append(batch.ids.tolist())
            return step(state, batch, *args)

        monkeypatch.setattr(normcl.cli, "train_step", recording)
        out = tmp_path / "run"
        code = run_cli("train", "--out", out,
                       "--set", f"corpus.source={tmp_path / 'd.src'}",
                       "--set", f"corpus.target={tmp_path / 'd.tgt'}",
                       "--set", "model.d_model=16", "--set", "curriculum.kind=none",
                       "--set", "optimizer.peak_lr=1e30")
        assert len(batches) == 2
        _refused(capsys, code, "non-finite loss",
                 f"at step 2, batch sentence ids {batches[1]}")
        rows = (out / TRACE_FILE).read_text().splitlines()
        assert rows[0] == TRACE_HEADER
        assert [row.split(",")[0] for row in rows[1:]] == ["1"]


class TestRefusedCommandKeepsTheConfigEcho:
    """A refused ``embed``, ``score`` or ``evaluate`` leaves the run
    directory's config.json as it was: the echo is written only once
    the command's inputs pass their checks."""

    REFUSED = {
        "embed": ("--set", "sgns.dim=9", "--set", "corpus.source={nope}"),
        "score": ("--set", "curriculum.lambda_w=0.9", "--vectors", "{nope}"),
        "evaluate": ("--set", "eval.beam_size=1", "--test-source", "{nope}",
                     "--test-target", "{nope}", "--checkpoint", "{ckpt}"),
    }

    @pytest.mark.parametrize("command", REFUSED)
    def test_config_json_is_unchanged(self, workdir, trained, tmp_path,
                                      capsys, command):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("config.json", VOCAB_SRC_FILE, VOCAB_TGT_FILE):
            shutil.copyfile(trained / name, run / name)
        before = (run / "config.json").read_bytes()
        nope = tmp_path / "nope"
        args = [a.format(nope=nope, ckpt=trained / CKPT_LAST)
                for a in self.REFUSED[command]]
        _refused(capsys, run_cli(command, "--config", workdir / "run.json",
                                 "--out", run, *args),
                 f"not found: '{nope}'")
        assert (run / "config.json").read_bytes() == before


class TestComputeDtype:
    def test_float32_run_tracks_the_float64_run(self, workdir):
        """20 steps from one seed under each dtype.  The batches and the
        dropout masks are the same (kind none samples without the model;
        dropout draws its uniforms in float64), so the losses differ by
        rounding alone: measured at most 6e-8 relative on four corpora,
        bounded here by 100 float32 epsilons (1.2e-5)."""
        losses = {}
        for dtype in ("float32", "float64"):
            out = workdir / f"dtype_{dtype}"
            assert run_cli("train", "--config", workdir / "run.json",
                           "--out", out, "--set", "curriculum.kind=none",
                           "--set", "model.dropout=0.1",
                           "--set", f"model.dtype={dtype}",
                           "--set", "total_steps=20",
                           "--set", "log_interval=1") == 0
            losses[dtype] = np.array(read_trace(out / TRACE_FILE)["loss"])
        assert len(losses["float32"]) == 20
        rel = np.abs(losses["float32"] / losses["float64"] - 1.0)
        assert rel.max() <= 100 * np.finfo(np.float32).eps, rel


class TestValidation:
    def test_missing_corpus_rejected_before_compute(self, tmp_path, capsys):
        code = run_cli("train", "--out", tmp_path,
                       "--set", "corpus.source=/nonexistent/x.src",
                       "--set", "corpus.target=/nonexistent/x.tgt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / TRACE_FILE).exists()

    def test_misaligned_corpus_rejected(self, workdir, tmp_path, capsys):
        short = tmp_path / "short.tgt"
        short.write_text("".join(
            (workdir / "train.tgt").read_text().splitlines(True)[:-1]))
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", tmp_path / "out",
                       "--set", "curriculum.kind=none",
                       "--set", f"corpus.target={short}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(workdir / "train.src") in err and str(short) in err

    @pytest.mark.parametrize("override", [
        "model.d_model=abc", "curriculum.invert=no", "model.n_layers=1.5",
        "curriculum.lambda_m=null", "seed=true", "corpus.source=7",
    ])
    def test_value_of_the_wrong_type_rejected(self, workdir, tmp_path, capsys,
                                               override):
        """Each value is checked against its field's annotation: a bool is
        no int, a string no bool, and null only where the field allows it."""
        code = run_cli("score", "--config", workdir / "run.json",
                       "--out", tmp_path, "--set", override,
                       "--set", "curriculum.criterion=length")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{override.split('=')[0]} must be" in err
        assert not (tmp_path / DIFFICULTY_FILE).exists()

    @pytest.mark.parametrize("override", [
        "curriculum.c0=1", "curriculum.lambda_t=null", "model.dropout=0",
    ])
    def test_int_for_float_and_allowed_null_accepted(self, workdir, tmp_path,
                                                     override):
        assert run_cli("score", "--config", workdir / "run.json",
                       "--out", tmp_path, "--set", override,
                       "--set", "curriculum.criterion=length") == 0

    def test_unknown_config_key_rejected(self, workdir, capsys):
        code = run_cli("score", "--config", workdir / "run.json",
                       "--out", workdir / "never",
                       "--set", "curriculum.typo_field=3")
        assert code == 2
        assert "typo_field" in capsys.readouterr().err

    def test_bad_kind_rejected(self, workdir, capsys):
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", workdir / "never2",
                       "--set", "curriculum.kind=linear")
        assert code == 2
        assert "curriculum.kind" in capsys.readouterr().err

    def test_time_sqrt_needs_lambda_t(self, workdir, capsys):
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", workdir / "never3",
                       "--set", "curriculum.kind=time_sqrt")
        assert code == 2
        assert "lambda_t" in capsys.readouterr().err

    def test_mismatched_difficulty_criterion(self, workdir, trained, capsys):
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", workdir / "never4",
                       "--difficulty", trained / DIFFICULTY_FILE,
                       "--set", "curriculum.criterion=length")
        assert code == 2
        assert "criterion" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["workers=2", "deterministic=true",
                                         "sgns.min_count=1",
                                         "curriculum.matrix_norm=frobenius"])
    def test_removed_settings_rejected(self, workdir, capsys, setting):
        code = run_cli("embed", "--config", workdir / "run.json",
                       "--out", workdir / "never5", "--set", setting)
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "model.pre_norm=false", "model.tie_target_embeddings=false",
        "model.label_smoothing=0.1", "eval.smooth_bleu=true",
        "model.max_positions=64"])
    def test_removed_model_and_eval_settings_rejected(self, workdir, capsys,
                                                      setting):
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", workdir / "never8", "--set", setting)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert setting.split("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting", [
        "corpus.min_count=0", "sgns.dim=0", "curriculum.min_pool=0",
        "model.d_model=0", "optimizer.warmup=0", "eval.beam_size=0",
        "curriculum.c0=0", "curriculum.c0=1.5", "curriculum.lambda_w=-1",
        "curriculum.token_budget=0", "curriculum.lambda_m=0",
        "corpus.merges=-1", "model.dropout=1", "model.dropout=0.999999",
        "curriculum.lambda_t=0 curriculum.kind=time_sqrt",
        "optimizer.peak_lr=NaN", "curriculum.lambda_w=NaN",
        "curriculum.lambda_m=NaN", "curriculum.lambda_m=Infinity",
        "sgns.initial_lr=NaN", "eval.alpha=NaN"])
    def test_range_errors_name_their_block(self, workdir, capsys, setting):
        """The error names the first of the space-separated settings."""
        sets = [arg for s in setting.split() for arg in ("--set", s)]
        code = run_cli("embed", "--config", workdir / "run.json",
                       "--out", workdir / "never9", *sets)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + setting.split("=")[0] + " must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", _float_fields())
    def test_every_float_field_refuses_nan(self, workdir, capsys, name):
        code = run_cli("embed", "--config", workdir / "run.json",
                       "--out", workdir / "never10", "--set", f"{name}=NaN")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite, got nan")
        assert "Traceback" not in err

    def test_removed_deterministic_flag_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("embed", "--config", workdir / "run.json",
                    "--out", workdir / "never6", "--deterministic")
        assert exc.value.code == 2
        assert "--deterministic" in capsys.readouterr().err

    @pytest.mark.parametrize("c0", ["0", "1.01"])
    def test_c0_outside_half_open_unit_rejected(self, workdir, capsys, c0):
        code = run_cli("score", "--config", workdir / "run.json",
                       "--out", workdir / "never7",
                       "--set", f"curriculum.c0={c0}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "curriculum.c0" in err

    def test_c0_of_one_accepted(self):
        cur = run_config_from_dict({"curriculum": {"c0": 1.0}}).curriculum
        schedule = cur.schedule()
        schedule.set_anchor(10.0)
        assert schedule.competence(0) == 1.0

    @pytest.mark.parametrize("unset", ["dev_source", "dev_target"])
    def test_half_set_dev_pair_refused(self, workdir, tmp_path, capsys, unset):
        """The dev files are read as a pair: one without the other is
        refused, naming the empty one, before the run directory is made."""
        out = tmp_path / "run"
        code = run_cli("train", "--config", workdir / "run.json", "--out", out,
                       "--set", "curriculum.kind=none", "--set", f"corpus.{unset}=")
        _refused(capsys, code, f"error: corpus.{unset} is empty")
        assert not out.exists()

    def test_out_dir_env_fallback(self, workdir, monkeypatch):
        target = workdir / "env_out"
        monkeypatch.setenv("NORMCL_OUT", str(target))
        assert run_cli("schedule-dump", "--set", "curriculum.kind=time_sqrt",
                       "--set", "curriculum.lambda_t=10", "--t-max", "10") == 0
        assert (target / "schedule.csv").is_file()


class TestEvaluate:
    def test_report_and_translations(self, workdir, trained):
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", trained,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt")
        assert code == 0
        report = json.loads((trained / EVAL_REPORT).read_text())
        assert set(report) == {"bleu", "brevity_penalty", "precisions",
                               "n_sentences"}
        assert report["n_sentences"] == 30
        assert len(report["precisions"]) == 4
        assert all(0.0 <= p <= 1.0 for p in report["precisions"])
        assert 0.0 <= report["bleu"] <= 100.0
        lines = (trained / TRANSLATIONS_FILE).read_text().splitlines()
        assert len(lines) == 30

    def test_empty_test_file_rejected(self, workdir, trained, tmp_path, capsys):
        empty = tmp_path / "empty.src"
        empty.write_text("")
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", trained, "--test-source", empty,
                       "--test-target", workdir / "dev.tgt")
        assert code == 2
        assert "empty test file" in capsys.readouterr().err

    @pytest.mark.parametrize("side", [VOCAB_SRC_FILE, VOCAB_TGT_FILE])
    def test_checkpoint_of_other_vocabularies_rejected(
            self, workdir, trained, tmp_path, capsys, side):
        """A run directory whose source or target vocabulary is smaller
        than the checkpoint's is refused, not decoded with wrong ids."""
        run = tmp_path / "run"
        run.mkdir()
        for name in (VOCAB_SRC_FILE, VOCAB_TGT_FILE):
            lines = (trained / name).read_text().splitlines()
            if name == side:
                lines = lines[:20]
            (run / name).write_text("\n".join(lines) + "\n")
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", run, "--checkpoint", trained / CKPT_LAST,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocabularies in use" in err
        assert "Traceback" not in err
        assert not (run / TRANSLATIONS_FILE).exists()

    def test_reordered_target_vocabulary_rejected(self, workdir, trained,
                                                  tmp_path, capsys):
        """The same target tokens under other ids would decode to wrong
        words: the checkpoint's vocabulary digest refuses them."""
        run = tmp_path / "run"
        run.mkdir()
        shutil.copyfile(trained / VOCAB_SRC_FILE, run / VOCAB_SRC_FILE)
        vocab = Vocabulary.load(trained / VOCAB_TGT_FILE)
        Vocabulary(vocab.tokens[:4] + vocab.tokens[:3:-1],
                   vocab.counts[:4] + vocab.counts[:3:-1]).save(
                       run / VOCAB_TGT_FILE)
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", run, "--checkpoint", trained / CKPT_LAST,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocabularies in use" in err
        assert "Traceback" not in err
        assert not (run / TRANSLATIONS_FILE).exists()

    def test_evaluate_without_training_rejected(self, workdir, tmp_path, capsys):
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", tmp_path,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt")
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_memorized_corpus_decodes_back(self, tmp_path):
        """Quality gate for the whole pipeline: a 20-pair corpus a small
        model can memorize must decode back exactly.

        Greedy decode on purpose: teacher-forced accuracy 1.0 certifies
        every argmax along the true prefix, so beam_size=1 must emit the
        training targets verbatim. Wider beams may legitimately prefer a
        shorter path under the length penalty; that behaviour has its
        own tests and would only blur this gate.
        """
        src, tgt = synthetic_pairs(seed=3, n_pairs=20, vocab_size=24,
                                   task="copy", min_len=3, max_len=6)
        (tmp_path / "mem.src").write_text("\n".join(src) + "\n")
        (tmp_path / "mem.tgt").write_text("\n".join(tgt) + "\n")
        cfg = {
            "corpus": {"source": str(tmp_path / "mem.src"),
                       "target": str(tmp_path / "mem.tgt")},
            "model": {"d_model": 32, "n_heads": 2, "n_layers": 1,
                      "d_ff": 64, "dropout": 0.0},
            "curriculum": {"kind": "none", "token_budget": 256},
            "optimizer": {"warmup": 40, "peak_lr": 3e-3},
            "eval": {"beam_size": 1, "max_decode_len": 16},
            "total_steps": 500, "log_interval": 100, "eval_interval": 250,
        }
        (tmp_path / "mem.json").write_text(json.dumps(cfg))
        out = tmp_path / "mem_run"
        assert run_cli("train", "--config", tmp_path / "mem.json",
                       "--out", out) == 0
        assert run_cli("evaluate", "--config", tmp_path / "mem.json",
                       "--out", out, "--test-source", tmp_path / "mem.src",
                       "--test-target", tmp_path / "mem.tgt") == 0
        report = json.loads((out / EVAL_REPORT).read_text())
        assert report["bleu"] >= 99.0
        assert (out / TRANSLATIONS_FILE).read_text().splitlines() == src


class TestSubwords:
    def test_train_then_evaluate_with_merges(self, workdir, tmp_path,
                                             monkeypatch):
        out = tmp_path / "bpe"
        flags = ("--config", workdir / "run.json", "--out", out,
                 "--set", "corpus.merges=20")
        for command in ("embed", "score", "train"):
            assert run_cli(command, *flags) == 0
        decoded = []

        def recording(model, sources, config):
            decoded.extend(sources)
            return decode_corpus(model, sources, config)

        monkeypatch.setattr(normcl.cli, "decode_corpus", recording)
        assert run_cli("evaluate", *flags,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt") == 0
        for side in ("src", "tgt"):
            merges = MergeTable.load(out / f"merges.{side}.txt")
            assert len(merges) == 20
            vocab = Vocabulary.load(out / f"vocab.{side}.tsv")
            assert any(tok.endswith(EOW) for tok in vocab.tokens)
        # test sources are segmented with the training merges
        merges = MergeTable.load(out / "merges.src.txt")
        vocab = Vocabulary.load(out / VOCAB_SRC_FILE)
        assert decoded == [
            list(map(vocab.encode_token, merges.apply(tokenize(line))))
            for line in (workdir / "dev.src").read_text().splitlines()]
        assert json.loads((out / EVAL_REPORT).read_text())["n_sentences"] == 30
        lines = (out / TRANSLATIONS_FILE).read_text().splitlines()
        assert len(lines) == 30
        assert not any(EOW in line for line in lines)


def _mask_sgns_stream(path, min_count):
    """The ``(flat, offsets)`` that ``embed`` built with a ``known`` mask
    and its running count before it dropped unknowns by ``searchsorted``."""
    text = TokenLines(map(tokenize, read_lines(path)))
    ids = text.encode(build_vocab(text, min_count))
    known = ids != UNK_ID
    kept_before = np.concatenate(([0], np.cumsum(known)))
    return ids[known], kept_before[text.offsets]


class TestEmbedStream:
    """``embed`` trains on the source ids without unknown tokens, each
    line start moved back by the unknowns before it."""

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from("aabbcde"), max_size=6),
                          min_size=1, max_size=12),
           min_count=st.integers(1, 5))
    # unknowns end a line, and one line is only unknowns
    @example(lines=[["a", "b", "c"], ["a", "b"], ["d", "e"], ["a", "e", "b"]],
             min_count=2)
    # every token is unknown
    @example(lines=[["c"], ["d", "e"], []], min_count=2)
    def test_stream_matches_the_mask_construction(self, lines, min_count):
        seen = []

        def recording(flat, offsets, config, tokens):
            seen.append((flat, offsets))
            return train_sgns(flat, offsets, config, tokens)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(normcl.cli, "train_sgns", recording)
            root = Path(tmp)
            (root / "src").write_text("".join(" ".join(l) + "\n" for l in lines))
            (root / "run.json").write_text(json.dumps({
                "corpus": {"source": str(root / "src"),
                           "target": str(root / "src"), "min_count": min_count},
                "sgns": {"dim": 4, "epochs": 1, "negatives": 1}}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("embed", "--config", root / "run.json",
                               "--out", root / "out")
            want_flat, want_offsets = _mask_sgns_stream(root / "src", min_count)
        [(flat, offsets)] = seen
        for got, want in ((flat, want_flat), (offsets, want_offsets)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if want_flat.size:
            assert code == 0
        else:
            assert code == 2
            assert "cannot train embeddings on an empty corpus" in err.getvalue()


class TestReadOnce:
    """Each command tokenizes every line of every input file once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()

        def counting(line):
            seen[line] += 1
            return tokenize(line)

        monkeypatch.setattr(normcl.cli, "tokenize", counting)
        monkeypatch.setattr(normcl.corpus, "tokenize", counting)
        return seen

    @staticmethod
    def _lines(*paths):
        return Counter(line for path in paths
                       for line in Path(path).read_text().splitlines())

    @pytest.mark.parametrize("merges", [0, 20])
    def test_embed_reads_only_the_source(self, workdir, tmp_path, calls,
                                         monkeypatch, merges):
        opened = []

        def recording(path):
            opened.append(Path(path))
            return read_lines(path)

        monkeypatch.setattr(normcl.cli, "read_lines", recording)
        monkeypatch.setattr(normcl.corpus, "read_lines", recording)
        assert run_cli("embed", "--config", workdir / "run.json",
                       "--out", tmp_path / "out",
                       "--set", f"corpus.merges={merges}") == 0
        assert calls == self._lines(workdir / "train.src")
        assert opened == [workdir / "train.src"]

    @pytest.mark.parametrize("merges", [0, 20])
    def test_score_train_evaluate(self, workdir, tmp_path, calls, merges):
        out = tmp_path / "out"
        flags = ("--config", workdir / "run.json", "--out", out,
                 "--set", f"corpus.merges={merges}",
                 "--set", "curriculum.criterion=length",
                 "--set", "total_steps=8")
        assert run_cli("score", *flags) == 0
        assert calls == self._lines(workdir / "train.src", workdir / "train.tgt")
        calls.clear()
        assert run_cli("train", *flags) == 0
        assert calls == self._lines(workdir / "train.src", workdir / "train.tgt",
                                    workdir / "dev.src", workdir / "dev.tgt")
        calls.clear()
        assert run_cli("evaluate", *flags, "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt") == 0
        assert calls == self._lines(workdir / "dev.src", workdir / "dev.tgt")


# how -> (an edit of the checkpoint header, a fragment of the message)
_HEADER_EDITS = {
    "dtype_mismatch": (lambda meta: meta["model_config"].update(dtype="float64"),
                       "model_config.dtype float64 needs"),
    "unknown_dtype": (lambda meta: meta["model_config"].update(dtype="float16"),
                      "bad model_config in checkpoint header"),
    # a model setting this version no longer has
    "removed_field": (lambda meta: meta["model_config"].update(label_smoothing=0.1),
                      "unknown config fields: model_config.label_smoothing"),
    "float_d_model": (lambda meta: meta["model_config"].update(d_model=16.0),
                      "model_config.d_model must be int, got 16.0"),
    "float_n_heads": (lambda meta: meta["model_config"].update(n_heads=4.0),
                      "model_config.n_heads must be int, got 4.0"),
    "bool_dropout": (lambda meta: meta["model_config"].update(dropout=False),
                     "model_config.dropout must be float, got False"),
    "bool_c0": (lambda meta: meta["schedule"].update(c0=True),
                "schedule.c0 must be float, got True"),
    "schedule_unknown_key": (lambda meta: meta["schedule"].update(lambda_x=1),
                             "bad schedule in checkpoint header"),
    "schedule_string_driver": (lambda meta: meta["schedule"].update(driver="9"),
                               "bad schedule in checkpoint header"),
    "schedule_nan_anchor": (lambda meta: meta["schedule"].update(m0=float("nan")),
                            "schedule.m0 must be finite, got nan"),
    "model_rng_other_generator": (
        lambda meta: meta["model_rng"].update(bit_generator="MT19937"),
        "bad model_rng in checkpoint header"),
    "string_vocab_size": (lambda meta: meta.update(src_vocab_size="28"),
                          "bad src_vocab_size in checkpoint header"),
    "negative_step": (lambda meta: meta.update(step=-1),
                      "bad step in checkpoint header"),
    "sampler_rng_bad_state": (
        lambda meta: meta["sampler_rng"]["state"].update(inc="x"),
        "bad sampler_rng in checkpoint header"),
    "evals_bad_entry": (lambda meta: meta["evals"].append({"step": 1}),
                        "bad evals in checkpoint header"),
    "trace_string_field": (lambda meta: meta["trace"][1].__setitem__(3, "0.5"),
                           "bad trace in checkpoint header: row 2 is [4, "),
    "trace_six_fields": (lambda meta: meta["trace"][0].pop(),
                         "bad trace in checkpoint header: row 1 is [1, "),
    "config_hash_not_string": (lambda meta: meta.update(config_hash=7),
                               "bad config_hash in checkpoint header"),
    "vocab_digest_not_string": (lambda meta: meta.update(vocab_digest=None),
                                "bad vocab_digest in checkpoint header"),
    "params_dropped_name": (
        lambda meta: meta["params"].pop(3),
        "bad params in checkpoint header: entry 3 is 'enc0.self.wk.w', "
        "the model's is 'enc0.self.wq.b'"),
    "params_swapped_names": (
        lambda meta: meta["params"].insert(2, meta["params"].pop(3)),
        "bad params in checkpoint header: entry 2 is 'enc0.self.wq.b', "
        "the model's is 'enc0.self.wq.w'"),
    # a source embedding far larger than the body: refused before any
    # parameter is allocated
    "huge_vocab_size": (lambda meta: meta.update(src_vocab_size=10 ** 12),
                        "but model_config.dtype float32 needs at least"),
    "tiny_vocab_size": (lambda meta: meta.update(src_vocab_size=2),
                        "bad vocabulary sizes in checkpoint header: "
                        "vocabularies must include the four specials"),
}


def _corrupt_checkpoint(src: Path, dst: Path, how: str) -> str:
    """Write a damaged copy of checkpoint ``src``; returns a fragment the
    error message must contain."""
    if how == "garbled_header":
        raw = bytearray(src.read_bytes())
        (blob_len,) = struct.unpack_from("<Q", raw, 8)  # after magic, version
        raw[16:16 + blob_len] = b"\xff" * blob_len
        dst.write_bytes(bytes(raw))
        return "garbled checkpoint header"
    if how == "deep_header":
        # nested deeper than the JSON parser's recursion limit
        raw = src.read_bytes()
        (blob_len,) = struct.unpack_from("<Q", raw, 8)
        blob = b"[" * 100_000
        dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                        + raw[16 + blob_len:])
        return "garbled checkpoint header: maximum recursion depth exceeded"
    if how in ("format_1", "format_2", "format_3", "format_4", "format_5"):
        raw = bytearray(src.read_bytes())
        raw[4:8] = struct.pack("<I", int(how[-1]))
        dst.write_bytes(bytes(raw))
        return f"checkpoint format {how[-1]} unsupported"
    if how in _HEADER_EDITS:
        # a float32 checkpoint whose header holds one bad value
        raw = src.read_bytes()
        (blob_len,) = struct.unpack_from("<Q", raw, 8)
        meta = json.loads(raw[16:16 + blob_len])
        assert meta["model_config"]["dtype"] == "float32"
        edit, fragment = _HEADER_EDITS[how]
        edit(meta)
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                        + raw[16 + blob_len:])
        return fragment
    # a float32 checkpoint whose body is damaged
    raw = src.read_bytes()
    (blob_len,) = struct.unpack_from("<Q", raw, 8)
    need = len(raw) - 16 - blob_len
    state = load_checkpoint(src)
    if how == "body_one_byte_short":
        dst.write_bytes(raw[:-1])
        held = need - 1
    elif how == "body_trailing_byte":
        dst.write_bytes(raw + b"\0")
        held = need + 1
    elif how == "missing_adam_v":
        dst.write_bytes(raw[:-state.adam.flat_v.nbytes])
        held = need - state.adam.flat_v.nbytes
    else:  # short_adam_m: two moment values lost on save
        state.adam.flat_m = state.adam.flat_m[:-2]
        save_checkpoint(state, dst)
        held = need - 8
    return (f"checkpoint body holds {held} bytes, but model_config.dtype "
            f"float32 needs {need}\n")


class TestMalformedArtifact:
    """A malformed difficulty, vector or vocabulary line ends in exit 2
    and a message naming the file and the line, never a traceback."""

    @pytest.mark.parametrize("bad", ["2\t11.5", "2\tabc\t0.5\tnorm"],
                             ids=["two_fields", "non_float_raw"])
    def test_train_difficulty(self, workdir, trained, tmp_path, capsys, bad):
        lines = (trained / DIFFICULTY_FILE).read_text().splitlines()
        lines[2] = bad
        path = tmp_path / DIFFICULTY_FILE
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--difficulty", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line 3 in {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("how", ["unknown", "mixed"])
    def test_train_difficulty_criterion(self, workdir, trained, tmp_path,
                                        capsys, how):
        """Every line names one known criterion: a file that switches
        criteria, or names an unknown one, is refused at that line."""
        lines = (trained / DIFFICULTY_FILE).read_text().splitlines()
        first = lines[0].rsplit("\t", 1)[1]
        crit = "foo" if how == "unknown" else next(
            c for c in ("norm", "length") if c != first)
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\t" + crit
        path = tmp_path / DIFFICULTY_FILE
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--difficulty", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"criterion '{crit}' at line 3 in {path}" in err
        if how == "mixed":
            assert f"differs from line 1's '{first}'" in err

    def test_train_difficulty_one_line_short(self, workdir, trained, tmp_path,
                                             capsys):
        lines = (trained / DIFFICULTY_FILE).read_text().splitlines()
        path = tmp_path / DIFFICULTY_FILE
        path.write_text("\n".join(lines[:-1]) + "\n")
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--difficulty", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"covers {len(lines) - 1} sentences, corpus has {len(lines)}" in err

    def test_score_vectors(self, workdir, trained, tmp_path, capsys):
        lines = (trained / VECTORS_FILE).read_text().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0] + " abc"
        path = tmp_path / VECTORS_FILE
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("score", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--vectors", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line 3 in {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["2\tnan\t0.5\tnorm", "2\t11.5\t0.0\tnorm",
                                     "2\t11.5\t1.5\tnorm"],
                             ids=["nan_raw", "zero_cdf", "cdf_above_one"])
    def test_train_difficulty_out_of_range(self, workdir, trained, tmp_path,
                                           capsys, bad):
        lines = (trained / DIFFICULTY_FILE).read_text().splitlines()
        lines[2] = bad
        path = tmp_path / DIFFICULTY_FILE
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--difficulty", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"sentence 2 in {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_score_non_finite_vectors(self, workdir, trained, tmp_path, capsys,
                                      value):
        lines = (trained / VECTORS_FILE).read_text().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0] + " " + value
        path = tmp_path / VECTORS_FILE
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("score", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--vectors", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line 3 in {path}" in err
        assert "Traceback" not in err

    def test_evaluate_vocabulary(self, workdir, trained, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        shutil.copyfile(trained / VOCAB_SRC_FILE, run / VOCAB_SRC_FILE)
        lines = (trained / VOCAB_TGT_FILE).read_text().splitlines()
        lines[5] = lines[5].replace("\t", " ")
        (run / VOCAB_TGT_FILE).write_text("\n".join(lines) + "\n")
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", run, "--checkpoint", trained / CKPT_LAST,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line 6 in {run / VOCAB_TGT_FILE}" in err
        assert "Traceback" not in err


def _not_utf8(src: Path, dst: Path) -> Path:
    """A copy of ``src`` whose second line starts with a 0xff byte."""
    lines = src.read_bytes().splitlines(True)
    lines[1] = b"\xff" + lines[1]
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(b"".join(lines))
    return dst


def _refused(capsys, code: int, *fragments) -> None:
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for fragment in fragments:
        assert str(fragment) in err


class TestNotUtf8:
    """A corpus, vectors, difficulty, vocabulary or config file that is
    not UTF-8 ends in exit 2 and a message naming it."""

    def test_embed_corpus(self, workdir, tmp_path, capsys):
        bad = _not_utf8(workdir / "train.src", tmp_path / "train.src")
        _refused(capsys, run_cli("embed", "--config", workdir / "run.json",
                                 "--out", tmp_path / "run",
                                 "--set", f"corpus.source={bad}"),
                 f"{bad} is not UTF-8 text")

    def test_score_vectors(self, workdir, trained, tmp_path, capsys):
        bad = _not_utf8(trained / VECTORS_FILE, tmp_path / VECTORS_FILE)
        _refused(capsys, run_cli("score", "--config", workdir / "run.json",
                                 "--out", tmp_path / "run", "--vectors", bad),
                 f"{bad} is not UTF-8 text")

    def test_train_difficulty(self, workdir, trained, tmp_path, capsys):
        bad = _not_utf8(trained / DIFFICULTY_FILE, tmp_path / DIFFICULTY_FILE)
        _refused(capsys, run_cli("train", "--config", workdir / "run.json",
                                 "--out", tmp_path / "run", "--difficulty", bad),
                 f"{bad} is not UTF-8 text")

    def test_evaluate_vocabulary(self, workdir, trained, tmp_path, capsys):
        run = tmp_path / "run"
        bad = _not_utf8(trained / VOCAB_SRC_FILE, run / VOCAB_SRC_FILE)
        shutil.copyfile(trained / VOCAB_TGT_FILE, run / VOCAB_TGT_FILE)
        _refused(capsys, run_cli("evaluate", "--config", workdir / "run.json",
                                 "--out", run, "--checkpoint", trained / CKPT_LAST,
                                 "--test-source", workdir / "dev.src",
                                 "--test-target", workdir / "dev.tgt"),
                 f"{bad} is not UTF-8 text")

    def test_config(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"seed": "\xff"}\n')
        _refused(capsys, run_cli("schedule-dump", "--config", path,
                                 "--m0", "10", "--out", tmp_path / "out"),
                 f"config file {path} is not UTF-8 text")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("how", ["garbled_header", "deep_header", "missing_adam_v",
                                 "short_adam_m", "body_one_byte_short",
                                 "body_trailing_byte", "format_1", "format_2",
                                 "format_3", "format_4", "format_5",
                                 *_HEADER_EDITS])
class TestDamagedCheckpoint:
    """A damaged checkpoint ends in exit 2 and a message, never a
    traceback, whether ``evaluate`` or ``train --resume`` reads it."""

    def test_evaluate(self, workdir, trained, tmp_path, capsys, how):
        bad = tmp_path / "bad.ckpt"
        fragment = _corrupt_checkpoint(trained / CKPT_LAST, bad, how)
        code = run_cli("evaluate", "--config", workdir / "run.json",
                       "--out", trained, "--checkpoint", bad,
                       "--test-source", workdir / "dev.src",
                       "--test-target", workdir / "dev.tgt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert "Traceback" not in err

    def test_resume(self, workdir, trained, tmp_path, capsys, how):
        bad = tmp_path / "bad.ckpt"
        fragment = _corrupt_checkpoint(trained / CKPT_LAST, bad, how)
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", tmp_path / "run", "--resume",
                       "--checkpoint", bad,
                       "--difficulty", trained / DIFFICULTY_FILE)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert "Traceback" not in err


class TestDeeplyNestedJson:
    """JSON nested deeper than the parser's recursion limit, in a config
    file or a ``--set`` value, ends in exit 2 before anything is written;
    ``TestDamagedCheckpoint`` covers a checkpoint header."""
    DEEP = "[" * 100_000

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        _refused(capsys, run_cli("schedule-dump", "--config", path,
                                 "--m0", "10", "--out", tmp_path / "out"),
                 f"config file {path} nests JSON too deeply")
        assert not (tmp_path / "out").exists()

    def test_compare_config(self, workdir, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        _refused(capsys, run_cli("compare", "--config-a", workdir / "run.json",
                                 "--config-b", path, "--seeds", "0",
                                 "--out", tmp_path / "cmp"),
                 f"config file {path} nests JSON too deeply")
        assert not (tmp_path / "cmp").exists()

    def test_override(self, tmp_path, capsys):
        _refused(capsys, run_cli("schedule-dump", "--set", "seed=" + self.DEEP,
                                 "--m0", "10", "--out", tmp_path / "out"),
                 "override 'seed' nests JSON too deeply")
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_self_comparison_ratio_one(self, workdir):
        """Identical arms with one seed must tie exactly."""
        cfg = json.loads((workdir / "run.json").read_text())
        cfg["curriculum"] = dict(cfg["curriculum"], kind="none")
        cfg["total_steps"] = 16
        cfg["eval_interval"] = 4
        (workdir / "self.json").write_text(json.dumps(cfg))
        out = workdir / "selfcmp"
        code = run_cli("compare", "--config-a", workdir / "self.json",
                       "--config-b", workdir / "self.json",
                       "--seeds", "0", "--out", out)
        assert code == 0
        report = json.loads((out / COMPARE_REPORT).read_text())
        rows = report["rows"]
        assert [r["seed"] for r in rows] == [0, "median"]
        assert rows[0]["steps_a"] == rows[0]["steps_b"]
        assert rows[0]["ratio"] == 1.0
        assert rows[1]["ratio"] == 1.0

    def test_unreachable_target_reported(self, workdir):
        out = workdir / "unreach"
        code = run_cli("compare", "--config-a", workdir / "self.json",
                       "--config-b", workdir / "self.json",
                       "--seeds", "0", "--out", out,
                       "--target-accuracy", "0.999")
        assert code == 0
        rows = json.loads((out / COMPARE_REPORT).read_text())["rows"]
        assert rows[0]["steps_a"] == "not reached"
        assert rows[0]["steps_b"] == "not reached"
        assert "ratio" not in rows[0]
        assert rows[1]["steps_a"] == "not reached"

    @pytest.mark.parametrize("flag", ["--config", "--seed"])
    def test_single_run_flags_refused(self, workdir, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--config-a", workdir / "self.json",
                    "--config-b", workdir / "self.json", flag, "1",
                    "--out", tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--target-fraction", "nan"), ("--target-fraction", "inf"),
        ("--target-fraction", "-1"), ("--target-fraction", "0"),
        ("--target-accuracy", "nan"), ("--target-accuracy", "0"),
        ("--target-accuracy", "1.5"),
    ])
    def test_bad_target_refused_before_training(self, workdir, tmp_path, capsys,
                                                flag, value):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--config-a", workdir / "run.json",
                       "--config-b", workdir / "run.json",
                       "--seeds", "0", "--out", out, flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and "Traceback" not in err
        assert not out.exists()

    def test_seeds_not_integers_refused(self, workdir, tmp_path, capsys):
        _refused(capsys, run_cli("compare", "--config-a", workdir / "run.json",
                                 "--config-b", workdir / "run.json",
                                 "--seeds", "0,a", "--out", tmp_path / "cmp"),
                 "--seeds must list integers, got '0,a'")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
    def test_out_naming_a_file_refused(self, workdir, tmp_path, capsys, sub):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        code = run_cli("compare", "--config-a", workdir / "run.json",
                       "--config-b", workdir / "run.json",
                       "--seeds", "0", "--out", afile / sub)
        _refused(capsys, code, f"cannot use {afile / sub} as the output directory")
        assert afile.read_text() == "kept\n"

    def test_mismatched_corpora_rejected(self, workdir, tmp_path, capsys):
        other = json.loads((workdir / "self.json").read_text())
        other["corpus"] = dict(other["corpus"], source=str(tmp_path / "o.src"))
        (tmp_path / "other.json").write_text(json.dumps(other))
        code = run_cli("compare", "--config-a", workdir / "self.json",
                       "--config-b", tmp_path / "other.json",
                       "--seeds", "0", "--out", tmp_path / "never")
        assert code == 2
        assert "share the corpus" in capsys.readouterr().err


class TestScheduleDump:
    TIME_SQRT = ("--set", "curriculum.kind=time_sqrt",
                 "--set", "curriculum.lambda_t=100")

    def test_time_curve_endpoints(self, tmp_path, capsys):
        code = run_cli("schedule-dump", *self.TIME_SQRT,
                       "--t-max", "100", "--t-step", "50", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[0] == "step,competence"
        assert lines[1] == "0,0.01"
        assert lines[-1] == "100,1.0"
        assert float(lines[2].split(",")[1]) == competence_time(50, 0.01, 100)
        assert capsys.readouterr().out.splitlines()[0] == "step,competence"

    def test_norm_curve(self, tmp_path):
        code = run_cli("schedule-dump", "--m0", "10",
                       "--m-max", "35", "--m-step", "12.5", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[0] == "m_t,competence"
        assert float(lines[1].split(",")[1]) == 0.01
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_norm_curve_needs_m0(self, tmp_path, capsys):
        code = run_cli("schedule-dump", "--out", tmp_path)
        assert code == 2
        assert "--m0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, first_row", [
        (TIME_SQRT, "0,0.5"), (("--m0", "10"), "10.0,0.5")],
        ids=["time_sqrt", "norm_based"])
    def test_reads_config_and_overrides(self, tmp_path, flags, first_row):
        (tmp_path / "run.json").write_text(
            json.dumps({"curriculum": {"c0": 0.2, "lambda_m": 0.3}}))
        code = run_cli("schedule-dump", "--config", tmp_path / "run.json",
                       *flags, "--set", "curriculum.c0=0.5", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[1] == first_row
        if flags[0] == "--m0":
            # lambda_m 0.3 from the file sets where the curve ends
            assert lines[-1] == "13.0,1.0"

    def test_time_curve_is_the_trace_competence(self, workdir, trained,
                                                tmp_path):
        """schedule-dump and train read one schedule: each trace row's
        competence is the curve's at the steps completed before it."""
        flags = ("--config", workdir / "run.json",
                 "--set", "curriculum.kind=time_sqrt",
                 "--set", "curriculum.lambda_t=16")
        assert run_cli("train", *flags, "--out", tmp_path / "run",
                       "--difficulty", trained / DIFFICULTY_FILE,
                       "--set", "log_interval=1") == 0
        assert run_cli("schedule-dump", *flags, "--out", tmp_path,
                       "--t-max", "24", "--t-step", "1") == 0
        curve = dict(line.split(",") for line in
                     (tmp_path / "schedule.csv").read_text().splitlines()[1:])
        rows = (tmp_path / "run" / TRACE_FILE).read_text().splitlines()[1:]
        assert len(rows) == 24
        for row in rows:
            step, _, competence = row.split(",")[:3]
            assert curve[str(int(step) - 1)] == competence

    @pytest.mark.parametrize("flags, fragment", [
        (("--set", "curriculum.bogus=1"), "curriculum.bogus"),
        (("--config", "no/such/run.json"), "config file not found"),
        (("--config", "."), "cannot read config file ."),
        (("--set", "curriculum.kind=none"), "time_sqrt or norm_based"),
        (TIME_SQRT + ("--t-step", "0"), "--t-step must be positive"),
        (("--m0", "10", "--m-step", "0"), "--m-step must be positive"),
        (("--m0", "10", "--m-step", "-1"), "--m-step must be positive"),
        (("--m0", "10", "--m-max", "5"), "at least --m0"),
        (("--m0", "10", "--m-max", "inf"), "must be finite"),
        # m + 1e-20 == m for every m from 10 up: m would stay at m0
        (("--m0", "10", "--m-step", "1e-20"), "too small to advance"),
        # half the spacing in [8, 16) moves the odd 9 + 2**-49 by rounding
        # up, but leaves the even 8 where it is
        (("--m0", "8", "--m-max", "9.000000000000002",
          "--m-step", "8.881784197001252e-16"), "too small to advance"),
        # row counts past MAX_CURVE_ROWS, which once ran without end
        (("--m0", "10", "--m-step", "1e-9"),
         "25000000001 rows; schedule-dump writes at most 1000000"),
        (("--m0", "10", "--m-max", "1000010", "--m-step", "1"),
         "1000001 rows; schedule-dump writes at most 1000000"),
        (TIME_SQRT + ("--t-max", "1000000000000"),
         "100000000001 rows; schedule-dump writes at most 1000000"),
    ], ids=["unknown_key", "missing_config", "config_directory", "kind_none",
            "t_step_0", "m_step_0", "m_step_negative", "m_max_below_m0",
            "m_max_inf", "m_step_no_advance", "m_step_half_spacing",
            "m_rows_over_limit", "m_rows_one_over_limit", "t_rows_over_limit"])
    def test_refused_before_any_curve(self, tmp_path, capsys, flags, fragment):
        code = run_cli("schedule-dump", *flags, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
    def test_out_naming_a_file_refused(self, tmp_path, capsys, sub):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        code = run_cli("schedule-dump", "--m0", "10", "--out", afile / sub)
        _refused(capsys, code, f"cannot use {afile / sub} as the output directory")
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("flag, value", [
        ("--kind", "time_sqrt"), ("--c0", "0.5"), ("--lambda-t", "10"),
        ("--lambda-m", "0.3")])
    def test_schedule_flags_removed(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("schedule-dump", "--m0", "10", flag, value,
                    "--out", tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class Effect(typing.NamedTuple):
    """``overrides`` set a config field away from the effect base, and
    the artifact ``command`` leaves in its run directory must then differ
    from the base run's.  ``base`` holds overrides both runs share, for a
    field that acts only beside another value.  In a string value,
    ``{w}`` is the fixture directory and ``{tmp}`` the test's own."""
    command: str
    overrides: dict
    artifact: str
    base: dict = {}


def _embeds(key, value):
    return [Effect("embed", {key: value}, VECTORS_FILE)]


def _trains(key, value, artifact=TRACE_FILE):
    return [Effect("train", {key: value}, artifact)]


def _evaluates(key, value):
    return [Effect("evaluate", {key: value}, TRANSLATIONS_FILE)]


# one entry per config field: a new field fails the coverage test until
# it is added here with the artifact it changes
FIELD_EFFECTS = {
    "corpus.source": _embeds("corpus.source", "{w}/dev.src"),
    "corpus.target": _trains("corpus.target", "{w}/mapped.tgt"),
    # the dev files are read only as a pair, so each is set against a base
    # that pairs the other with the dev lines in reverse order
    "corpus.dev_source": [Effect("train", {"corpus.dev_source": "{w}/dev.src"},
                                 TRAIN_REPORT,
                                 base={"corpus.dev_source": "{w}/dev.reversed"})],
    "corpus.dev_target": [Effect("train", {"corpus.dev_target": "{w}/dev.tgt"},
                                 TRAIN_REPORT,
                                 base={"corpus.dev_target": "{w}/dev.reversed"})],
    "corpus.min_count": [Effect("embed", {"corpus.min_count": 3}, VOCAB_SRC_FILE)],
    "corpus.max_len": [Effect("score", {"corpus.max_len": 5}, DIFFICULTY_FILE)],
    "corpus.merges": _embeds("corpus.merges", 20),
    "sgns.dim": _embeds("sgns.dim", 8),
    "sgns.window": _embeds("sgns.window", 2),
    "sgns.negatives": _embeds("sgns.negatives", 2),
    "sgns.epochs": _embeds("sgns.epochs", 1),
    "sgns.initial_lr": _embeds("sgns.initial_lr", 0.01),
    "sgns.subsample_threshold": _embeds("sgns.subsample_threshold", 0.01),
    "sgns.seed": _embeds("sgns.seed", 8),
    "curriculum.criterion": [
        Effect("score", {"curriculum.criterion": criterion}, DIFFICULTY_FILE)
        for criterion in ("length", "rarity")],
    "curriculum.kind": [
        Effect("train", {"curriculum.kind": "none"}, TRACE_FILE),
        Effect("train", {"curriculum.kind": "time_sqrt",
                         "curriculum.lambda_t": 4}, TRACE_FILE)],
    "curriculum.c0": _trains("curriculum.c0", 0.5),
    "curriculum.lambda_t": [Effect(
        "train", {"curriculum.lambda_t": 2}, TRACE_FILE,
        base={"curriculum.kind": "time_sqrt", "curriculum.lambda_t": 4})],
    "curriculum.lambda_m": _trains("curriculum.lambda_m", 0.01),
    "curriculum.lambda_w": _trains("curriculum.lambda_w", 2.0),
    "curriculum.min_pool": _trains("curriculum.min_pool", 40),
    "curriculum.token_budget": _trains("curriculum.token_budget", 32),
    "curriculum.invert": [Effect("score", {"curriculum.invert": True},
                                 DIFFICULTY_FILE)],
    "model.d_model": _trains("model.d_model", 8),
    "model.n_heads": _trains("model.n_heads", 8),
    "model.n_layers": _trains("model.n_layers", 3),
    "model.d_ff": _trains("model.d_ff", 16),
    "model.dropout": _trains("model.dropout", 0.2),
    "model.seed": _trains("model.seed", 8),
    "model.dtype": _trains("model.dtype", "float64"),
    "optimizer.warmup": _trains("optimizer.warmup", 3),
    "optimizer.peak_lr": _trains("optimizer.peak_lr", 5e-3),
    "eval.beam_size": _evaluates("eval.beam_size", 1),
    "eval.alpha": _evaluates("eval.alpha", 3.0),
    "eval.max_decode_len": _evaluates("eval.max_decode_len", 1),
    # the block seeds are pinned, so the run seed reaches only the sampler
    "seed": _trains("seed", 1),
    "total_steps": _trains("total_steps", 5),
    "log_interval": _trains("log_interval", 2),
    "eval_interval": _trains("eval_interval", 2, TRAIN_REPORT),
    # the artifacts move out of the run directory
    "out_dir": _embeds("out_dir", "{tmp}/moved"),
}


def _config_fields() -> set[str]:
    """``block.field`` for every block field, and every top-level field."""
    names = set()
    for f in dataclasses.fields(RunConfig):
        if f.name in _BLOCKS:
            names.update(f"{f.name}.{g.name}"
                         for g in dataclasses.fields(_BLOCKS[f.name]))
        else:
            names.add(f.name)
    return names


@pytest.fixture(scope="module")
def effect_base(workdir):
    """The effect tests' run configuration, a target side that differs
    from the copy task's, and a cache of base runs."""
    cfg = json.loads((workdir / "run.json").read_text())
    cfg["sgns"]["seed"] = cfg["model"]["seed"] = 7
    cfg["sgns"]["subsample_threshold"] = 1.0
    # a learning rate at which the norm, and so competence, moves by step 5
    cfg["optimizer"] = {"warmup": 1, "peak_lr": 0.01}
    cfg.update(total_steps=6, log_interval=1, eval_interval=3)
    (workdir / "effect.json").write_text(json.dumps(cfg))
    src, tgt = synthetic_pairs(seed=11, n_pairs=200, vocab_size=50,
                               task="mapped", min_len=3, max_len=9)
    assert (workdir / "train.src").read_text() == "\n".join(src) + "\n"
    (workdir / "mapped.tgt").write_text("\n".join(tgt) + "\n")
    lines = (workdir / "dev.src").read_text().splitlines()
    (workdir / "dev.reversed").write_text("\n".join(reversed(lines)) + "\n")
    return {}


class TestEveryConfigField:
    """Each config field changes an artifact of the command that reads
    it, at smoke sizes on the shared fixture run."""

    def test_the_table_holds_every_field_at_a_non_default_value(self):
        assert set(FIELD_EFFECTS) == _config_fields()
        defaults = run_config_to_dict(RunConfig())
        for key, effects in FIELD_EFFECTS.items():
            *block, name = key.split(".")
            default = (defaults[block[0]] if block else defaults)[name]
            for effect in effects:
                assert effect.overrides[key] != default, key

    @staticmethod
    def _run(workdir, trained, run_dir, command, overrides, artifact, tmp):
        """``command`` under the effect config plus ``overrides``; the
        content of ``artifact`` in ``run_dir``, or None when it is absent.
        The content leaves out what names the configuration rather than
        results from it.  Inputs a command needs from earlier steps come
        from ``trained``."""
        run_dir.mkdir(parents=True)
        args = [command, "--config", workdir / "effect.json",
                "--set", f"out_dir={run_dir}"]
        for key, value in overrides.items():
            value = value.format(w=workdir, tmp=tmp) if isinstance(value, str) \
                else json.dumps(value)
            args += ["--set", f"{key}={value}"]
        if command == "score":
            args += ["--vectors", trained / VECTORS_FILE]
        elif command == "train":
            args += ["--difficulty", trained / DIFFICULTY_FILE]
        elif command == "evaluate":
            for name in (VOCAB_SRC_FILE, VOCAB_TGT_FILE):
                shutil.copyfile(trained / name, run_dir / name)
            args += ["--checkpoint", trained / CKPT_LAST,
                     "--test-source", workdir / "dev.src",
                     "--test-target", workdir / "dev.tgt"]
        assert run_cli(*args) == 0
        path = run_dir / artifact
        if not path.exists():
            return None
        if artifact == TRAIN_REPORT:  # its config hash follows every field
            return json.loads(path.read_text())["evals"]
        if artifact == DIFFICULTY_FILE:  # each row names the criterion
            return [row.rsplit("\t", 1)[0] for row in path.read_text().splitlines()]
        return path.read_bytes()

    @pytest.mark.parametrize("key, effect", [
        (key, effect) for key, effects in FIELD_EFFECTS.items()
        for effect in effects],
        ids=[f"{key}={effect.overrides[key]}"
             for key, effects in FIELD_EFFECTS.items() for effect in effects])
    def test_field_changes_its_artifact(self, workdir, trained, effect_base,
                                        tmp_path_factory, tmp_path, key, effect):
        base_key = (effect.command, effect.artifact,
                    tuple(sorted(effect.base.items())))
        if base_key not in effect_base:
            effect_base[base_key] = self._run(
                workdir, trained, tmp_path_factory.mktemp("effect") / "base",
                effect.command, effect.base, effect.artifact, tmp_path)
        got = self._run(workdir, trained, tmp_path / "run", effect.command,
                        {**effect.base, **effect.overrides}, effect.artifact,
                        tmp_path)
        assert effect_base[base_key] is not None
        assert got != effect_base[base_key]
