#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench/ (the utlb_bench driver plus the repository's src/
libraries) in Release mode under .bench_build/, runs one workload,
checks its outputs, and prints every metric with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the
run also writes its spans as Chrome trace-event JSON.

Usage:
    python3 perfbench/run.py --workload sweep_cold --seed 1 \\
        --seconds 10 --trace 0

See perfbench/README.md for the workloads, metrics and baselines.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"

WORKLOADS = ("sweep_cold", "replay_warm", "vmmc_stores", "mt_shared")
# mt_shared's worker threads (perfbench/driver/mt_shared.cpp); fewer
# cores than this is a failed run.
MT_WORKERS = 2
# Workloads whose modeled output repeats exactly, so they get a digest.
DETERMINISTIC = ("sweep_cold", "replay_warm", "vmmc_stores")
# Seed reserved for checking a later performance claim; never used
# while tuning the benchmark or a change.
HELD_OUT_SEED = 7919
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
DRIVER_TIMEOUT_S = 170


# The per-layer metrics each workload exercises; a traced run that
# does not report one of them fails. Every other per-layer metric reads
# 0 on that workload unless the driver reports it anyway.
# core.prefetch_installs_per_miss is exercised by none: prefetching is
# off in every workload's configuration.
_PIN_COUNTS = ("core.pin.check_miss_ratio", "core.driver.ioctls_per_lookup",
               "core.driver.pages_pinned_per_lookup")
_UNPIN_COUNTS = ("core.driver.pages_unpinned_per_lookup",
                 "core.cache.invalidations_per_probe")
_FRAMES = ("mem.frames_allocated_per_lookup", "mem.bytes_zeroed_per_lookup")
_NIC_PROBE = ("core.prepare_check_ns.p50", "core.prepare_check_ns.p99",
              "core.nic_hit_ns.p50", "core.nic_miss_ns.p50",
              "core.nic_miss_ns.p99")
APPLIES = {
    "sweep_cold": _PIN_COUNTS + _UNPIN_COUNTS + _FRAMES + _NIC_PROBE + (
        "tlbsim.replay_ns_per_probe", "tlbsim.classify_ns_per_probe",
        "core.prepare_pin_ns_per_page", "core.peek_ns.p50",
        "core.intr_translate_ns.p50", "core.intr_translate_ns.p99",
        "core.cache.evictions_per_probe",
        "core.cache.cross_evictions_per_probe"),
    "replay_warm": _NIC_PROBE + (
        "core.translate_range_ns_per_page.p50",
        "core.translate_range_ns_per_page.p99",
        "core.cache.evictions_per_probe",
        "core.cache.cross_evictions_per_probe"),
    "vmmc_stores": _PIN_COUNTS + _FRAMES + (
        "vmmc.send_post_ns.p50", "vmmc.deliver_ns.p50",
        "vmmc.deliver_ns.p99", "sim.events_per_op", "sim.ns_per_event",
        "nic.dma_bytes_per_lookup", "vmmc.fragments_per_send"),
    "mt_shared": _PIN_COUNTS + _UNPIN_COUNTS + (
        "mt.window_ns.p50", "mt.window_ns.p99", "mt.window_ns_1w.p50",
        "mt.window_ns_1w.p99", "mt.contention_ratio",
        "core.cache.evictions_per_probe"),
}


def applicable(workload):
    """The per-layer metrics a traced run of @p workload must report."""
    return set(APPLIES[workload]) | {
        "trace.generate_ms", "bench.trace_overhead_pct",
        "core.cache.hit_ratio"}


class RunFailed(Exception):
    """The run cannot report numbers (build, host or driver failure)."""


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build the driver; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RunFailed("no repository sources next to perfbench/")
    if shutil.which("cmake") is None:
        raise RunFailed("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise RunFailed("cmake configure failed")
    jobs = str(min(4, cores()))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RunFailed("build failed")
    return BUILD / "utlb_bench"


def build_type():
    cache = (BUILD / "CMakeCache.txt").read_text()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    return m.group(1).strip() if m else ""


def strip_wall(doc):
    """Drop wall-clock fields (and the audit count, which depends on
    how often a replay was checked) so only modeled output is hashed."""
    if isinstance(doc, dict):
        return {k: strip_wall(v) for k, v in doc.items()
                if "wall" not in k and k != "audits"}
    if isinstance(doc, list):
        return [strip_wall(v) for v in doc]
    return doc


def digest_of(docs):
    h = hashlib.sha256()
    for d in docs:
        h.update(json.dumps(strip_wall(d), sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()[:16]


def modeled_digest(raw, plant):
    """Digest of the modeled output; None if groups disagree."""
    base = raw["modeled_base"]
    groups = {g: digest_of(base + docs) for g, docs in raw["modeled"].items()}
    if plant == "digest" and groups:
        first = sorted(groups)[0]
        flipped = "0" if groups[first][-1] != "0" else "1"
        groups[first] = groups[first][:-1] + flipped
    values = set(groups.values())
    return (values.pop() if len(values) == 1 else None), groups


def tlbsim_check(raw, seed):
    """sweep_cold's fft 1K cell must match the tlbsim CLI's output."""
    binary = BUILD / "utlb-src" / "tlbsim" / "tlbsim"
    out = subprocess.run([str(binary), "fft", "--entries", "1024",
                          "--mode", "utlb", "--seed", str(seed)],
                         capture_output=True, text=True, timeout=60).stdout
    cost = re.search(r"avg lookup cost \(us\)\s+(\S+)", out)
    rate = re.search(r"probe miss rate\s+(\S+)", out)
    if not cost or not rate:
        return False, "tlbsim output not understood"
    ours_cost = "%.2f" % float(raw["info"]["fft_1k_utlb_us"])
    ours_rate = "%.4f" % float(raw["info"]["fft_1k_probe_miss_rate"])
    ok = ours_cost == cost.group(1) and ours_rate == rate.group(1)
    return ok, ("fft --entries 1024: tlbsim %s us / %s, benchmark %s us / %s"
                % (cost.group(1), rate.group(1), ours_cost, ours_rate))


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    n = cores()
    if args.workload == "mt_shared" and MT_WORKERS > n:
        raise RunFailed("%d workers on %d cores would oversubscribe"
                        % (MT_WORKERS, n))
    driver = build()
    if build_type() not in OPTIMIZED_BUILD_TYPES:
        raise RunFailed("build type %r is not optimized" % build_type())

    OUT.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = OUT / (stem + ".raw.json")
    chrome = OUT / (stem + ".trace.json")
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(raw_path)]
    if args.trace:
        cmd += ["--chrome", str(chrome)]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant == "payload":
        cmd += ["--plant", "payload"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RunFailed("utlb_bench exited with %d" % proc.returncode)
    raw = json.loads(raw_path.read_text())
    info = raw["info"]
    if info["optimized"] != "1":
        raise RunFailed("utlb_bench was compiled without optimization")

    # Correctness: failed operations, the driver's own checks, pin
    # failures the library warned about, the digest, the tlbsim match.
    # `failed` counts each failed operation and each failed check.
    failures = []
    failed = raw["ops_failed"]
    for name, c in sorted(raw["checks"].items()):
        if c["failed"]:
            failed += c["failed"]
            failures.append("%s: %d of %d failed (%s)" % (
                name, c["failed"], c["attempted"], "; ".join(c["details"])))
    warned = sum("pin failed" in line for line in proc.stderr.splitlines())
    if warned:
        failed += warned
        failures.append("%d pin failures reported by the library" % warned)
    digest = None
    if args.workload in DETERMINISTIC:
        digest, groups = modeled_digest(raw, args.plant)
        if digest is None:
            failed += 1
            failures.append("modeled digest differs between passes: %s"
                            % groups)
    if args.workload == "sweep_cold":
        ok, detail = tlbsim_check(raw, args.seed)
        if not ok:
            failed += 1
            failures.append(detail)
    attempted = max(1, raw["ops_attempted"])

    section = "per_layer" if args.trace else "end_to_end"
    source = raw["layers"] if args.trace else raw["e2e"]
    declared = {m["name"]: m for m in spec[section]}
    unknown = sorted(set(source) - set(declared))
    if unknown:
        raise RunFailed("metrics missing from BENCHMARK.json: %s" % unknown)
    required = applicable(args.workload) if args.trace else set(declared)
    missing = sorted(required - set(source))
    if missing:
        raise RunFailed("driver did not report %s" % missing)
    metrics = {}
    for name, m in declared.items():
        # A per-layer metric the workload does not exercise reads 0.
        metrics[name] = {"value": float(source.get(name, 0.0)),
                         "unit": m["unit"]}

    print("perfbench: workload=%s seed=%d held_out_seed=%d trace=%d "
          "seconds=%s" % (args.workload, args.seed, HELD_OUT_SEED,
                          args.trace, args.seconds))
    print("host: cores=%d simd=%s build=%s workers=%s" % (
        n, info["simd"], build_type(),
        MT_WORKERS if args.workload == "mt_shared" else "-"))
    for name, m in metrics.items():
        print("  %-42s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, c in sorted(raw["checks"].items()):
        print("  check %-36s %d/%d passed" % (
            name, c["attempted"] - c["failed"], c["attempted"]))
    print("modeled digest: %s" % (
        digest if args.workload in DETERMINISTIC
        else "n/a (multi-threaded)"))
    print("fail_ratio: %.6g (%d failed of %d attempted)" % (
        failed / attempted, failed, attempted))
    for f in failures:
        print("FAILED: " + f)
    if args.trace:
        print("chrome trace: %s (%s spans recorded)" % (
            chrome.relative_to(ROOT), info.get("spans_recorded", "?")))
    result = {"correct": not failures and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / (stem + ".result.json")).write_text(json.dumps(
        dict(result, host={"cores": n, "simd": info["simd"],
                           "build_type": build_type(),
                           "workers": info.get("workers")},
             seed=args.seed, held_out_seed=HELD_OUT_SEED, digest=digest,
             info=info), indent=1) + "\n")
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, one repetition (self-tests)")
    ap.add_argument("--plant", choices=("payload", "digest"),
                    help="plant a fault the checks must catch")
    args = ap.parse_args()
    try:
        run(args)
    except (RunFailed, subprocess.TimeoutExpired) as e:
        print("perfbench: run failed: %s" % e, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
