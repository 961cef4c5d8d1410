#!/usr/bin/env python3
"""The cycle benchmark's own test.

    python3 cyclebench/test_cyclebench.py

Builds the harness once, then runs every workload twice at smoke size
(traced, same seed) through cyclebench/run.py and checks:
  * the workloads BENCHMARK.json registers pass the output check (bitwise
    hashes across repetitions and against the 1-thread smoke run; posterior
    RMSE below the prior);
  * the exact work counters and the final posterior hash repeat exactly;
  * the timing ledger of the traced run is sane (metrics.ledger_problems);
  * every per-layer metric is reported, every *_efficiency is <= 1, and LETKF
    phase times appear only as *_worker_ms;
  * the workloads exercise the layers they are meant to;
and that the command fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.

live-ensf-4t is not registered in BENCHMARK.json: at full size its
posterior diverges from the truth (see README.md, "Open defect"). An
expected-failure test runs it at full size and turns into an unexpected
success once the defect is fixed.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import run as bench_run  # noqa: E402

REGISTERED = tuple(w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
WORKLOADS = REGISTERED + ("live-ensf-4t",)
SEED = 7


def run(workload, seed=SEED, seconds=1, trace=1, cwd=ROOT, smoke=True):
    """One run of the command (the harness is already built)."""
    cmd = [sys.executable, str(Path(cwd) / "cyclebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd + (["--smoke"] if smoke else []),
                       cwd=cwd, capture_output=True, text=True, timeout=300)
    print(f"--- {workload} seed={seed} trace={trace} smoke={smoke}: exit {p.returncode}\n"
          f"{p.stdout}{p.stderr[-3000:]}", file=sys.stderr, flush=True)
    return p


def last_line(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def smoke_result(workload, seed=SEED):
    p = run(workload, seed)
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}")
    full = json.loads((ROOT / ".bench_out" / "results" /
                       f"{workload}-seed{seed}-trace1-smoke.json").read_text())
    return last_line(p), full


class CycleBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # The first build compiles the whole library; it runs here, outside
        # every per-run timeout.
        if bench_run.build() is None:
            raise RuntimeError("cyclebench build failed")
        cls.runs = {w: (smoke_result(w), smoke_result(w)) for w in WORKLOADS}

    def test_output_checks_pass(self):
        for w in REGISTERED:
            for last, full in self.runs[w]:
                self.assertTrue(last["correct"], f"{w}: {full['checks']}")
                self.assertEqual(last["failed"], 0, w)
                self.assertGreaterEqual(last["attempted"], 1, w)

    def test_exact_counters_and_hash_repeat(self):
        for w, ((_, a), (_, b)) in self.runs.items():
            self.assertEqual(a["exact_counters"], b["exact_counters"], w)
            self.assertEqual(a["final_hash"], b["final_hash"], w)
            self.assertGreater(a["exact_counters"]["member_steps"], 0, w)
            self.assertGreater(a["exact_counters"]["analyze_calls"], 0, w)

    def test_ledger_sanity(self):
        for w, runs in self.runs.items():
            for _, full in runs:
                self.assertEqual(full["ledger_problems"], [], w)

    def test_per_layer_metrics_complete(self):
        for w, runs in self.runs.items():
            last, full = runs[0]
            self.assertEqual(set(last["metrics"]), set(metrics.PER_LAYER), w)
            for name, m in last["metrics"].items():
                if name.endswith("_efficiency"):
                    self.assertLessEqual(m["value"], 1.0 + 1e-9, f"{w} {name}")
            phase_names = [n for n in last["metrics"] if n.startswith("da.letkf.")
                           and n.split(".")[-1].endswith("_ms")]
            for n in phase_names:
                self.assertTrue(n.endswith("_worker_ms") or n in (
                    "da.letkf.prepare_ms", "da.letkf.analysis_wall_ms"), n)
            for key in ("cpu_model", "nproc", "simd_level", "threads", "git_commit", "seed",
                        "build_type"):
                self.assertIn(key, full["meta"], w)

    def test_workloads_exercise_their_layers(self):
        layers = {w: runs[0][0]["metrics"] for w, runs in self.runs.items()}
        for w in ("ref-serial-4t", "sparse-6h-1t"):
            self.assertGreater(layers[w]["da.letkf.analysis_wall_ms"]["value"], 0, w)
            self.assertEqual(layers[w]["da.ensf.score_evals"]["value"], 0, w)
        for w in ("live-letkf-4t", "live-ensf-4t"):
            live = layers[w]
            self.assertGreater(live["stream.ingest.frames_corrupt"]["value"], 0, w)
            self.assertGreater(live["da.qc.reject_frac"]["value"], 0, w)
            self.assertGreater(live["stream.checkpoint.bytes"]["value"], 0, w)
            self.assertGreater(live["stream.checkpoint.ms_per_write"]["value"], 0, w)
        self.assertGreater(layers["live-letkf-4t"]["da.letkf.analysis_wall_ms"]["value"], 0)
        ensf = layers["live-ensf-4t"]
        self.assertEqual(ensf["da.letkf.analysis_wall_ms"]["value"], 0)
        self.assertEqual(ensf["da.letkf.columns"]["value"], 0)
        self.assertGreater(ensf["da.ensf.score_evals"]["value"], 0)

    def test_checkpoint_wait_is_split_from_the_write(self):
        for w in ("live-letkf-4t", "live-ensf-4t"):
            for _, full in self.runs[w]:
                record = json.loads((ROOT / ".bench_out" / "records" /
                                     f"{w}-seed{SEED}-trace1-smoke.json").read_text())
                for rep in record["reps"]:
                    if not rep["traced"]:
                        continue
                    for x in metrics.checkpoint_writes(rep):
                        self.assertGreaterEqual(x["wait_ms"], 0.0, w)
                        self.assertGreater(x["write_ms"], 0.0, w)
                        self.assertLessEqual(x["wait_ms"], x["total_ms"], w)

    @unittest.expectedFailure
    def test_live_ensf_full_size_beats_the_prior(self):
        # Open defect: under Overlapped the EnSF posterior diverges on the
        # 1/16 network (Serial converges). Fixing it makes this pass.
        p = run("live-ensf-4t", seed=3, trace=0, smoke=False)
        self.assertTrue(last_line(p)["correct"])
        self.assertEqual(p.returncode, 0)

    def test_output_check_catches_broken_records(self):
        record = json.loads((ROOT / ".bench_out" / "records" /
                             f"ref-serial-4t-seed{SEED}-trace1-smoke.json").read_text())
        self.assertEqual(metrics.output_checks(record)[2], [])

        bad_hash = json.loads(json.dumps(record))
        h = bad_hash["smoke"]["hook_hash"]
        h[0] = "0" * 16 if h[0] != "0" * 16 else "1" * 16
        failed, attempted, problems = metrics.output_checks(bad_hash)
        self.assertTrue(problems)
        self.assertGreater(failed, 0)

        bad_rep = json.loads(json.dumps(record))
        bad_rep["reps"].append(json.loads(json.dumps(bad_rep["reps"][0])))
        bad_rep["reps"][-1]["hook_hash"][-1] = "f" * 16
        self.assertTrue(metrics.output_checks(bad_rep)[2])

        bad_rmse = json.loads(json.dumps(record))
        for row in bad_rmse["reps"][0]["cycles"]:
            row["rmse_post"] = row["rmse_prior"] + 1.0
        failed, attempted, problems = metrics.output_checks(bad_rmse)
        self.assertTrue(problems)
        self.assertEqual(failed, attempted)

    def test_untraced_run_reports_end_to_end_metrics(self):
        p = run("sparse-6h-1t", trace=0)
        self.assertEqual(p.returncode, 0)
        last = last_line(p)
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(last["metrics"]), set(metrics.END_TO_END))
        for name, m in last["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / "cyclebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run("ref-serial-4t", trace=0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
