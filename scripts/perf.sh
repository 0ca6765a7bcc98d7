#!/bin/sh
# Wall-clock performance run: Release build, then the hot-path
# harness (translate() vs translateRange() translations/sec), the
# multi-thread sweep, and a batched tlbsim replay. Copies
# BENCH_hotpath.json and BENCH_mt.json to the repo root so the
# checked-in baselines can be refreshed in place.
# Usage: scripts/perf.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-perf}"
OUT="${UTLB_PERF_OUT:-$BUILD/perf}"

step() { printf '\n=== %s ===\n' "$*"; }

step "Release build ($BUILD)"
cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" --target bench_hotpath bench_mt tlbsim

mkdir -p "$OUT"

step "bench_hotpath (UTLB_HOTPATH_MS=${UTLB_HOTPATH_MS:-300} ms/cell)"
UTLB_BENCH_JSON_DIR="$OUT" "$BUILD"/bench/bench_hotpath

# bench_mt fatals unless a threads=1 concurrent-mode stack replays
# bit-identically to the sequential path (results, modeled costs,
# stats tree), so this run doubles as the golden-equivalence gate.
step "bench_mt (UTLB_MT_MS=${UTLB_MT_MS:-300} ms/cell, \
UTLB_MT_THREADS=${UTLB_MT_THREADS:-4})"
UTLB_BENCH_JSON_DIR="$OUT" "$BUILD"/bench/bench_mt

# Oversubscription is recorded in-band (host_info.cores vs
# worker_threads, a warning cell, and per-cell
# oversubscribed flags); repeat it on the console so a 1-core
# container run is never mistaken for a scaling measurement.
python3 - "$OUT/BENCH_mt.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
hi = doc["host_info"]
print("host: %d core(s), %d worker thread(s)"
      % (hi["cores"], hi["worker_threads"]))
warn = [p for p in doc["points"]
        if p["labels"].get("mode") == "oversubscribed_warning"]
over = [p["labels"] for p in doc["points"]
        if p["metrics"].get("oversubscribed") == 1.0
        and p["labels"].get("mode") != "oversubscribed_warning"]
if warn:
    print("WARNING: oversubscribed run (threads exceed cores); "
          "wall-clock cells measure time-slicing, not scaling:")
    for lb in over:
        print("  - %s/%s threads=%s" % (lb.get("scenario"),
                                        lb.get("mode"),
                                        lb.get("threads")))
EOF

step "tlbsim --batch replay (radix)"
"$BUILD"/src/tlbsim/tlbsim radix --mode utlb --prefetch 8 --batch \
    --stats-json "$OUT/tlbsim_batch_radix.json"

cp "$OUT/BENCH_hotpath.json" BENCH_hotpath.json
cp "$OUT/BENCH_mt.json" BENCH_mt.json
step "done"
echo "results in $OUT; baselines refreshed at BENCH_hotpath.json and BENCH_mt.json"
