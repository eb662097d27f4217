"""End-to-end command tests: every artifact a run directory promises,
the trace conventions, resume, and the comparison harness."""

import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from normcl.cli import (
    CKPT_BEST, CKPT_LAST, COMPARE_REPORT, DIFFICULTY_FILE, EVAL_REPORT,
    NORMS_FILE, TRACE_FILE, TRACE_HEADER, TRAIN_REPORT, TRANSLATIONS_FILE,
    VECTORS_FILE, VOCAB_SRC_FILE, VOCAB_TGT_FILE, main,
)
from normcl.config import run_config_from_dict
from normcl.corpus import UNK_ID, Vocabulary, tokenize
from normcl.curriculum import competence_norm, competence_time
from normcl.embedding import EmbeddingTable
from normcl.synth import synthetic_pairs
from normcl.trainer import load_checkpoint, save_checkpoint


def run_cli(*argv):
    return main([str(a) for a in argv])


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
        "sgns": {"dim": 16, "epochs": 2, "min_count": 1},
        "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
                  "dropout": 0.0, "max_positions": 64},
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
            ids = vocab.encode(tokenize(line))
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
        """Checkpoint at step 16, resume to 24: trace continues at 17 and
        every shared row is bit-identical to the unbroken run."""
        out = workdir / "resume"
        cfg = workdir / "run.json"
        assert run_cli("train", "--config", cfg, "--out", out,
                       "--difficulty", trained / DIFFICULTY_FILE,
                       "--set", "total_steps=16") == 0
        assert run_cli("train", "--config", cfg, "--out", out, "--resume",
                       "--difficulty", trained / DIFFICULTY_FILE) == 0

        broken = (out / TRACE_FILE).read_text().splitlines()
        unbroken = (trained / TRACE_FILE).read_text().splitlines()
        steps = [int(line.split(",")[0]) for line in broken[1:]]
        assert 17 in steps  # first row after the checkpoint
        by_step = {line.split(",")[0]: line for line in unbroken[1:]}
        for line in broken[1:]:
            step = line.split(",")[0]
            if step in by_step:
                assert line == by_step[step]
        # the final losses agree exactly, so weight updates replayed too
        assert broken[-1] == unbroken[-1]

    def test_resume_from_earlier_checkpoint_truncates_trace(
            self, workdir, trained, tmp_path):
        """Train to 8, keep that checkpoint, train on to 16, then resume
        from the step-8 copy: rows 9..16 of the abandoned branch go, so
        steps strictly increase and shared rows equal the unbroken run."""
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
        assert steps == [1, 4, 8, 9, 12, 16, 20, 24]
        by_step = {line.split(",")[0]: line
                   for line in (trained / TRACE_FILE).read_text().splitlines()[1:]}
        shared = [line for line in lines[1:] if line.split(",")[0] in by_step]
        assert len(shared) == 7
        for line in shared:
            assert line == by_step[line.split(",")[0]]

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

    def test_resume_needs_a_checkpoint(self, workdir, capsys):
        code = run_cli("train", "--config", workdir / "run.json",
                       "--out", workdir / "resume_empty", "--resume",
                       "--set", "curriculum.kind=none")
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


class TestValidation:
    def test_missing_corpus_rejected_before_compute(self, tmp_path, capsys):
        code = run_cli("train", "--out", tmp_path,
                       "--set", "corpus.source=/nonexistent/x.src",
                       "--set", "corpus.target=/nonexistent/x.tgt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / TRACE_FILE).exists()

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

    @pytest.mark.parametrize("setting", ["workers=2", "deterministic=true"])
    def test_removed_settings_rejected(self, workdir, capsys, setting):
        code = run_cli("embed", "--config", workdir / "run.json",
                       "--out", workdir / "never5", "--set", setting)
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err

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

    def test_out_dir_env_fallback(self, workdir, monkeypatch):
        target = workdir / "env_out"
        monkeypatch.setenv("NORMCL_OUT", str(target))
        assert run_cli("schedule-dump", "--kind", "time_sqrt",
                       "--lambda-t", "10", "--t-max", "10") == 0
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
                      "d_ff": 64, "dropout": 0.0, "max_positions": 32},
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


def _corrupt_checkpoint(src: Path, dst: Path, how: str) -> str:
    """Write a damaged copy of checkpoint ``src``; returns a fragment the
    error message must contain."""
    if how == "garbled_header":
        raw = bytearray(src.read_bytes())
        (blob_len,) = struct.unpack_from("<Q", raw, 8)  # after magic, version
        raw[16:16 + blob_len] = b"\xff" * blob_len
        dst.write_bytes(bytes(raw))
        return "garbled checkpoint header"
    state = load_checkpoint(src)
    name = next(iter(state.model.params))
    if how == "missing_adam_v":
        del state.adam.v[name]
        save_checkpoint(state, dst)
        return f"missing tensor adam_v/{name}"
    state.adam.m[name] = state.adam.m[name][:2]
    save_checkpoint(state, dst)
    return f"adam_m/{name} has shape"


class TestMalformedArtifact:
    """A malformed difficulty or vocabulary line ends in exit 2 and a
    message naming the file and the line, never a traceback."""

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


@pytest.mark.parametrize("how", ["garbled_header", "missing_adam_v",
                                 "short_adam_m"])
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
    def test_time_curve_endpoints(self, tmp_path, capsys):
        code = run_cli("schedule-dump", "--kind", "time_sqrt",
                       "--lambda-t", "100", "--t-max", "100", "--t-step", "50",
                       "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[0] == "step,competence"
        assert lines[1] == "0,0.01"
        assert lines[-1] == "100,1.0"
        assert float(lines[2].split(",")[1]) == competence_time(50, 0.01, 100)
        assert capsys.readouterr().out.splitlines()[0] == "step,competence"

    def test_norm_curve(self, tmp_path):
        code = run_cli("schedule-dump", "--kind", "norm_based", "--m0", "10",
                       "--m-max", "35", "--m-step", "12.5", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[0] == "m_t,competence"
        assert float(lines[1].split(",")[1]) == 0.01
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_norm_curve_needs_m0(self, tmp_path, capsys):
        code = run_cli("schedule-dump", "--kind", "norm_based",
                       "--out", tmp_path)
        assert code == 2
        assert "--m0" in capsys.readouterr().err
