#!/bin/sh
# Full correctness sweep: sanitizer build + tests, a self-checking
# simulator run, clang-tidy, the concurrency-discipline lint, the
# clang thread-safety build, and a format lint of changed files.
# Stages whose tools are missing are skipped with a notice; every
# stage that runs must pass. Usage: scripts/check.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-check}"

step() { printf '\n=== %s ===\n' "$*"; }
skip() { printf 'SKIP: %s\n' "$*"; }

# --- Stage 1: build under ASan+UBSan at full check level ------------
step "sanitizer build (address,undefined; UTLB_CHECK_LEVEL=full)"
cmake -B "$BUILD" -G Ninja \
    -DUTLB_SANITIZE=address,undefined \
    -DUTLB_CHECK_LEVEL=full \
    -DUTLB_WERROR=ON > /dev/null
cmake --build "$BUILD"

# --- Stage 2: the whole test suite under the sanitizers -------------
step "ctest under sanitizers"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# --- Stage 3: a self-auditing simulator run -------------------------
# Periodic invariant sweeps over the live translation stack; any
# violation aborts (and the sanitizers watch the whole replay).
step "tlbsim --audit-every sweep"
"$BUILD"/src/tlbsim/tlbsim water --entries 1024 --memlimit 512 \
    --audit-every 500 > /dev/null
"$BUILD"/src/tlbsim/tlbsim --synthetic hotcold --entries 256 \
    --memlimit 128 --audit-every 250 > /dev/null
# The interrupt baseline under a 4 MB pin budget sheds on most misses.
"$BUILD"/src/tlbsim/tlbsim lu --mode intr --entries 4096 --assoc 4 \
    --memlimit 1024 --audit-every 500 > /dev/null
# fft spans ~85 K vpns: many page-table leaves, unpin churn under the
# budget, and pre-pin rollback.
"$BUILD"/src/tlbsim/tlbsim fft --entries 1024 --memlimit 1024 \
    --prepin 8 --audit-every 500 > /dev/null
echo "audit sweeps clean"

# --- Stage 4: clang-tidy --------------------------------------------
# Covers everything with compile commands: src, the test suite, and
# the benchmarks. (tests/lint and tests/negative are never built, so
# they have no compile commands and stay out of scope by design.)
step "clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
    if command -v run-clang-tidy > /dev/null 2>&1; then
        run-clang-tidy -p "$BUILD" -quiet "(src|tests|bench)/.*\.cpp$"
    else
        find src tests bench -name '*.cpp' \
            -not -path 'tests/lint/*' \
            -not -path 'tests/negative/*' -print0 \
            | xargs -0 clang-tidy -p "$BUILD" --quiet
    fi
else
    skip "clang-tidy not installed"
fi

# --- Stage 5: concurrency-discipline lint ---------------------------
# Seqlock read-section purity, *MT shard discipline, memory-order
# allowlist, scoped guards (docs/checking.md). Fixtures first (the
# lint must still catch every known-bad snippet), then the tree.
step "concurrency lint"
if command -v python3 > /dev/null 2>&1; then
    python3 scripts/concurrency_lint.py --self-test tests/lint
    python3 scripts/concurrency_lint.py \
        --compdb "$BUILD/compile_commands.json"
else
    skip "python3 not installed"
fi

# --- Stage 6: clang thread-safety analysis --------------------------
# A clang build with -Werror=thread-safety-analysis over the whole
# tree, plus the negative-compile suite (annotated cases that MUST
# fail, and a positive control that must pass).
step "clang thread-safety analysis"
CLANGXX=""
for c in clang++ clang++-20 clang++-19 clang++-18 clang++-17 \
         clang++-16 clang++-15 clang++-14; do
    if command -v "$c" > /dev/null 2>&1; then
        CLANGXX="$c"
        break
    fi
done
if [ -n "$CLANGXX" ]; then
    cmake -B "$BUILD-tsa" -G Ninja \
        -DCMAKE_CXX_COMPILER="$CLANGXX" \
        -DUTLB_THREAD_SAFETY=ON > /dev/null
    cmake --build "$BUILD-tsa"
    if CLANG="$CLANGXX" scripts/negative_compile.sh; then
        :
    else
        rc=$?
        if [ "$rc" -eq 77 ]; then
            skip "negative-compile suite skipped itself"
        else
            exit "$rc"
        fi
    fi
else
    skip "no clang++ (the analysis only exists in clang;" \
         "CI's static-analysis job runs it)"
fi

# --- Stage 7: format lint of changed files --------------------------
# Only files touched relative to HEAD (plus untracked sources) are
# checked; the tree is never mass-reformatted.
step "clang-format lint (changed files only)"
if command -v clang-format > /dev/null 2>&1; then
    CHANGED=$( { git diff --name-only HEAD; \
                 git ls-files --others --exclude-standard; } \
               | grep -E '\.(cpp|hpp)$' | sort -u || true)
    if [ -z "$CHANGED" ]; then
        echo "no changed C++ files"
    else
        echo "$CHANGED" | xargs clang-format --dry-run -Werror
    fi
else
    skip "clang-format not installed"
fi

printf '\nAll checks passed.\n'
