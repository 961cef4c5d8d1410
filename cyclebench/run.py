#!/usr/bin/env python3
"""Cycle benchmark: one real-time DA cycle workload per invocation.

    python3 cyclebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (and the turbda library from this checkout's sources)
into .bench_build/cyclebench, runs the workload on inputs generated from the
seed, checks the outputs, and prints every metric. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. The full record (metadata, exact counters, hashes, checks) goes
to .bench_out/results/, the traced run's Chrome trace to .bench_out/traces/.
Exits non-zero when a check fails or the build or run cannot complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("ref-serial-4t", "sparse-6h-1t", "live-letkf-4t", "live-ensf-4t")
BUILD_DIR = ROOT / ".bench_build" / "cyclebench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build (a no-op when up to date)."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    exe = BUILD_DIR / "cyclebench"
    return exe if r.returncode == 0 and exe.exists() else None


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_harness(exe, args, record_path, workdir):
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={record_path}", f"--workdir={workdir}"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"cyclebench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grid and ensemble, for the benchmark's own test")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        log("cyclebench: build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    for sub in ("records", "results", "traces", "work"):
        (OUT_DIR / sub).mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / "records" / f"{tag}.json"
    workdir = OUT_DIR / "work" / f"{tag}-{os.getpid()}"
    try:
        rc = run_harness(exe, args, record_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0:
        log(f"cyclebench: harness exited with {rc}")
        return 1

    record = json.loads(record_path.read_text())
    e2e, samples = metrics.end_to_end(record)
    layers = metrics.per_layer(record) if args.trace else {}
    failed, attempted, problems = metrics.output_checks(record)
    correct = not problems

    meta = dict(record["meta"], git_commit=git_commit())
    result = {
        "meta": meta,
        "config": record["config"],
        "samples": samples,
        "end_to_end": e2e,
        "per_layer": layers,
        "layer_shares": metrics.layer_shares(record) if args.trace else {},
        "exact_counters": metrics.exact_counters(record),
        "final_hash": record["reps"][0]["hook_hash"][-1],
        "checks": problems,
        "ledger_problems": metrics.ledger_problems(record) if args.trace else [],
    }
    (OUT_DIR / "results" / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        (OUT_DIR / "traces" / f"{tag}.json").write_text(json.dumps(metrics.chrome_trace(record)))

    print(f"# {args.workload} seed={args.seed} threads={meta['threads']} simd={meta['simd_level']} "
          f"nproc={meta['nproc']} cpu={meta['cpu_model']!r} build={meta['build_type']} "
          f"commit={meta['git_commit']}")
    print(f"# samples: {samples}  final posterior hash {result['final_hash']}")
    for name, v in e2e.items():
        print(f"{name:28s} {v:14.6g} {metrics.END_TO_END[name]}")
    for name, v in layers.items():
        print(f"{name:36s} {v:14.6g} {metrics.PER_LAYER[name]}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    chosen = layers if args.trace else e2e
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
