"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs drive every workload, untraced and traced, through the
same code as a measured run at toy sizes, and check that every metric
appears with the unit BENCHMARK.json gives it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module")
def smoke():
    proc = run_bench("--smoke", "--seed", "3")
    assert proc.returncode == 0, proc.stderr[-4000:]
    details, result = proc.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(result)


def test_smoke_passes_every_check(smoke):
    details, result = smoke
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    runs = details["details"]
    assert sorted(runs) == sorted(
        f"{w}/trace{t}" for w in ("train-norm", "decode-beam", "embed-score")
        for t in (0, 1))
    assert all(r["correct"] for r in runs.values())


def test_smoke_reports_every_metric_with_its_unit(smoke):
    runs = smoke[0]["details"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, run in runs.items():
        want = layer if key.endswith("trace1") else e2e
        assert {k: m["unit"] for k, m in run["metrics"].items()} == want, key
        named = run["details"]["named"]
        assert all("unit" in m and "value" in m for m in named.values())
        assert run["details"]["failed_ops"]["failed"] == 0


def test_smoke_records_the_environment(smoke):
    env = smoke[0]["env"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc",
                "loadavg_at_start"):
        assert key in env
    assert env["blas_threads"] == env["blas_threads_requested"]


def test_same_seed_gives_identical_outputs(smoke):
    again = run_bench("--smoke", "--seed", "3")
    assert again.returncode == 0, again.stderr[-4000:]
    first = {k: r["details"]["digests"] for k, r in smoke[0]["details"].items()}
    second = json.loads(again.stdout.splitlines()[-2])["details"]
    assert first == {k: r["details"]["digests"] for k, r in second.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "train-norm", "--seconds", "1",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_hooks_wrap_and_restore():
    owner = types.SimpleNamespace(__name__="owner")

    def double(x):
        return 2 * x

    class Box:
        @classmethod
        def make(cls, x):
            return (cls, x)

    owner.double = double
    rec = spans.Recorder()
    hooks = [spans.Hook(owner, "double", rec.span("owner.double")),
             spans.Hook(Box, "make", rec.span("box.make"))]
    with spans.installed(hooks):
        assert owner.double(3) == 6
        assert Box.make(1) == (Box, 1)
    assert owner.double is double
    assert Box.make(2) == (Box, 2)
    assert rec.calls["owner.double"] == 1 and rec.calls["box.make"] == 1


def test_missing_hook_fails_loudly():
    owner = types.SimpleNamespace(__name__="owner")
    rec = spans.Recorder()
    with pytest.raises(spans.MissingHook):
        with spans.installed([spans.Hook(owner, "gone", rec.span("x"))]):
            pass


def test_self_time_and_tallies_follow_nesting():
    rec = spans.Recorder()
    inner = rec.span("inner")(lambda: rec.tally("work", 2))
    outer = rec.span("outer")(lambda: [inner(), inner()])
    outer()
    assert rec.child_calls[("outer", "inner")] == 2
    assert rec.tallies[("outer", "work")] == 4
    assert rec.tallies[("inner", "work")] == 4
    assert 0 <= rec.self_seconds("outer") <= rec.seconds["outer"]


def test_spearman_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    import harness

    x = [1, 2, 2, 3, 5, 5, 5, 8]
    y = [0.3, 0.1, 0.4, 0.4, 0.9, 0.2, 0.7, 1.0]
    assert harness.spearman(x, y) == pytest.approx(stats.spearmanr(x, y)[0])
