"""Run one workload of the normcl benchmark and print its metrics.

    python3 perfbench/run.py --workload train-norm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from a checkout of the repository: it imports ``normcl`` from the
checkout's ``src/`` and nothing else.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the environment and the
details behind those numbers.  The exit code is 0 only when every
command and every correctness check passed.

``--smoke`` runs every workload, untraced and traced, at toy sizes and
checks that each metric appears with the unit ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"

# One BLAS thread.  On a 2-core VM, units alternating between 1 and 2
# threads ran at the same median speed, and the thread count changed
# the training outputs in their last digits (see README.md).
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Fix the BLAS pool size; must run before numpy is imported."""
    n = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _openblas() -> tuple[str, int | None]:
    """Configuration string and live thread count of the loaded OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""),
                               ("openblas", "64_")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return get_config().decode(), int(get_threads())
    return "unknown", None


def environment(load_at_start) -> dict:
    import numpy

    blas, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
    }


def import_program():
    """Import normcl from this checkout's src/, or exit with status 1."""
    if not (SRC / "normcl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no normcl package under {SRC}; "
                 "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import normcl

    if not Path(normcl.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported normcl from {normcl.__file__}, "
                 f"not from {SRC}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# metrics the details line must carry per workload
NAMED = {
    "train-norm": ("train.steps_per_s", "train.tgt_tokens_per_s",
                   "train.final_loss", "train.dev_token_accuracy"),
    "decode-beam": ("evaluate.sent_per_s", "evaluate.gen_tokens_per_s",
                    "evaluate.bleu"),
    "embed-score": ("embed.src_tokens_per_s", "embed.norm_freq_rho"),
}


def smoke(harness, seed: int, scratch: Path) -> dict:
    """Every workload, untraced and traced, at toy sizes."""
    declared = declared_metrics()
    attempted = failed = 0
    details = {}
    for name in harness.WORKLOADS:
        for trace in (False, True):
            work = scratch / f"{name}-trace{int(trace)}"
            work.mkdir()
            result = harness.run_workload(name, seed, 0.0, trace,
                                          harness.SMOKE, work)
            want = declared["per_layer" if trace else "end_to_end"]
            got = {k: m["unit"] for k, m in result.metrics.items()}
            missing = sorted(k for k in NAMED[name]
                             if k not in result.details["named"])
            names_ok = got == want and not missing
            if got != want:
                print(f"perfbench: {name} trace={int(trace)} metrics "
                      f"{got} differ from BENCHMARK.json {want}",
                      file=sys.stderr)
            if missing:
                print(f"perfbench: {name} lacks {missing}", file=sys.stderr)
            attempted += result.attempted + 1
            failed += result.failed + (not names_ok)
            details[f"{name}/trace{int(trace)}"] = {
                "correct": result.correct and names_ok,
                "metrics": result.metrics,
                "details": result.details}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {}, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train-norm", "decode-beam",
                                               "embed-score"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy sizes and check "
                             "the metric names and units")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    load_at_start = os.getloadavg()
    threads = pin_blas_threads()
    import_program()
    import harness

    env = environment(load_at_start)
    env["blas_threads_requested"] = threads
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.smoke:
            out = smoke(harness, args.seed, scratch)
        else:
            try:
                r = harness.run_workload(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         harness.FULL, scratch)
                out = {"correct": r.correct, "attempted": r.attempted,
                       "failed": r.failed, "metrics": r.metrics,
                       "details": r.details}
            except Exception as exc:
                # a command's outputs were missing or a hook could not be
                # installed: report the run as failed, loudly
                traceback.print_exc()
                out = {"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {}, "details": {"error": repr(exc)}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    details = out.pop("details")
    print(json.dumps({"workload": args.workload or "smoke", "seed": args.seed,
                      "trace": args.trace, "env": env, "details": details}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
