#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root:

    python3 perfbench/test_bench.py

Each test drives perfbench/run.py with --tiny (small inputs, one
repetition), so the whole file takes about a minute once the driver
is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = ROOT / ".bench_build" / "perfbench" / "out"


def bench(workload, seed=3, trace=0, extra=(), cwd=ROOT, cpus=None):
    """Run the benchmark tiny, on @p cpus when given; return (exit
    code, stdout lines)."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        preexec_fn=pin)
    return proc.returncode, proc.stdout.splitlines()


def result(workload, **kw):
    code, lines = bench(workload, **kw)
    assert code == 0, "run.py exited with %d" % code
    return json.loads(lines[-1])


def recorded(workload, seed, trace):
    """The fuller record run.py keeps beside each result line."""
    path = OUT / ("%s-seed%d-trace%d.result.json" % (workload, seed, trace))
    return json.loads(path.read_text())


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            got = result(w)["metrics"]
            self.assertEqual(set(got), set(want), w)
            for name, m in got.items():
                self.assertEqual(m["unit"], want[name])
                self.assertGreater(m["value"], 0, "%s %s" % (w, name))

    def test_per_layer_names_match_benchmark_json(self):
        want = {m["name"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            self.assertEqual(set(result(w, trace=1)["metrics"]), want, w)

    def test_driver_reports_every_applicable_per_layer_metric(self):
        # Checked on the driver's own output, before run.py fills the
        # metrics a workload does not exercise with 0.
        for w in WORKLOADS:
            result(w, trace=1)
            raw = json.loads((OUT / ("%s-seed3-trace1.raw.json" % w))
                             .read_text())["layers"]
            for name in sorted(run.applicable(w)):
                self.assertIn(name, raw, w)
                # One tiny pass can make tracing look cheaper than not
                # tracing, so the overhead may read below 0.
                if name != "bench.trace_overhead_pct":
                    self.assertGreater(raw[name], 0, "%s %s" % (w, name))


class TinyRuns(unittest.TestCase):
    def test_each_workload_passes_untraced_and_traced(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                r = result(w, trace=trace)
                self.assertTrue(r["correct"], "%s trace %d" % (w, trace))
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)

    def test_traced_run_writes_chrome_trace(self):
        result("vmmc_stores", trace=1)
        doc = json.loads(
            (OUT / "vmmc_stores-seed3-trace1.trace.json").read_text())
        events = doc["traceEvents"]
        self.assertTrue(events)
        ids = {e["args"]["id"] for e in events}
        for e in events:
            self.assertEqual(e["ph"], "X")
            if e["args"]["parent"]:
                self.assertIn(e["args"]["parent"], ids)

    def test_digest_repeats_and_tracing_does_not_move_it(self):
        for w in ("sweep_cold", "replay_warm", "vmmc_stores"):
            result(w, seed=5)
            first = recorded(w, 5, 0)["digest"]
            result(w, seed=5)
            self.assertEqual(recorded(w, 5, 0)["digest"], first, w)
            result(w, seed=5, trace=1)
            self.assertEqual(recorded(w, 5, 1)["digest"], first, w)

    def test_fft_1k_cell_matches_tlbsim_reference(self):
        # tlbsim's default seed: fft --entries 1024 gives 8.93 us and a
        # 0.4829 probe miss rate.
        self.assertTrue(result("sweep_cold", seed=12345)["correct"])
        info = recorded("sweep_cold", 12345, 0)["info"]
        self.assertEqual("%.2f" % float(info["fft_1k_utlb_us"]), "8.93")
        self.assertEqual("%.4f" % float(info["fft_1k_probe_miss_rate"]),
                         "0.4829")


class PlantedFaults(unittest.TestCase):
    def test_corrupted_payload_byte_is_caught(self):
        r = result("vmmc_stores", extra=("--plant", "payload"))
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)

    def test_flipped_modeled_digest_is_caught(self):
        for w in ("sweep_cold", "replay_warm", "vmmc_stores"):
            r = result(w, trace=1, extra=("--plant", "digest"))
            self.assertFalse(r["correct"], w)
            self.assertGreaterEqual(r["failed"], 1)

    def test_more_workers_than_cores_fails_without_a_result(self):
        code, lines = bench("mt_shared", cpus={min(os.sched_getaffinity(0))})
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))

    def test_run_without_sources_fails_without_a_result(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.rglob("*"):
            if f.is_file() and "__pycache__" not in f.parts:
                dst = bare / "perfbench" / f.relative_to(HERE)
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(f, dst)
        code, lines = bench("sweep_cold", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
