/**
 * @file
 * Multi-core throughput harness: aggregate translations per second
 * with 1..N worker threads driving the concurrent UTLB stack.
 *
 * Like bench_hotpath this measures the simulator's wall clock, not
 * the modeled machine: concurrency never changes results, modeled
 * costs, or stats (asserted below and by tests/test_spec.cpp)
 * — only how fast the host chews through them.
 *
 * Scenarios (bench_mt_common.hpp):
 *   mt_warm          disjoint per-worker ranges, all NIC-cache hits:
 *                    workers share no lock stripe, the shard-local
 *                    scaling ceiling;
 *   mt_miss_prefetch all workers sweep the same sets under their own
 *                    pids: stripe locks, miss DMAs, and evictions
 *                    stay contended;
 *   mt_pin_churn     disjoint sweeps under a per-process pin limit
 *                    half the working set: every window sheds and
 *                    repins pages, so the PinManager mutex and the
 *                    coherence-invalidate path carry the load;
 *   mt_warm_assoc4   the warm disjoint sweep at 4-way associativity:
 *                    page-at-a-time lookup() through the per-set
 *                    seqlock way search;
 *   mt_miss_overlap  capacity-miss streams with asynchronous fills:
 *                    misses post modeled outstanding fills and the
 *                    walk keeps serving the window while their DMAs
 *                    run on the modeled fill engines. Timed with
 *                    fills on and off; async_speedup is the wall-clock
 *                    ratio, modeled_us_per_page the modeled overlap;
 *   mt_zipf_mix      Zipf(1.1) window choice over a working set
 *                    larger than the cache: hot all-hit windows mixed
 *                    with a cold miss tail, fills overlapping hits.
 *
 * Before timing anything, a fixed-iteration golden check replays an
 * identical workload through a sequential-mode and a concurrent-mode
 * single-worker stack and dies unless every per-call field and the
 * full stats tree match bit-for-bit. Async scenarios additionally
 * gate on mtAsyncReplay: asynchronous fills may reorder miss service
 * but must return identical translations, and the replay's modeled
 * cost per page must repeat exactly on fresh stacks.
 *
 * UTLB_MT_MS bounds the per-cell budget (default 300 ms);
 * UTLB_MT_THREADS caps the sweep (default 4). BENCH_mt.json records
 * threads, aggregate pages/sec, scaling_efficiency (pages/sec at
 * N threads over N x the 1-thread rate, the best of three 1-thread
 * runs), and the driver mutex's
 * contended and parked lock() calls per page over the timed region
 * (sim::Mutex counters, wall-clock only). Every MT cell also records
 * host_cores and an oversubscribed flag; when worker threads exceed
 * the host's cores the efficiency figure would only measure the
 * scheduler's time-slicing, so it is omitted entirely (the flag tells
 * readers why).
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_mt_common.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"

namespace {

using namespace utlb;
using bench::MtCell;
using bench::MtScenario;
using bench::MtStack;

double
budgetMs()
{
    if (const char *e = std::getenv("UTLB_MT_MS")) {
        double v = std::atof(e);
        if (v > 0)
            return v;
    }
    return 300.0;
}

unsigned
maxThreads()
{
    if (const char *e = std::getenv("UTLB_MT_THREADS")) {
        int v = std::atoi(e);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 4;
}

unsigned
hostCores()
{
    unsigned c = std::thread::hardware_concurrency();
    return c ? c : 1;
}

/**
 * Fresh stacks a 1-thread cell is timed on. Every efficiency of a
 * scenario divides by its 1-thread rate, so that rate is the best of
 * these runs: one slow sample would read as super-linear scaling.
 */
constexpr int kBaseRuns = 3;

/**
 * Time @p sc on @p t workers over a fresh stack, kept in @p stack
 * for its counters. At one worker, the best of kBaseRuns stacks.
 */
MtCell
timeCell(const MtScenario &sc, unsigned t, double ms, bool async,
         std::unique_ptr<MtStack> &stack)
{
    MtCell best;
    for (int run = 0; run < (t == 1 ? kBaseRuns : 1); ++run) {
        auto s = std::make_unique<MtStack>(sc, t, true, async);
        MtCell cell = runMtCell(sc, *s, t, ms);
        if (run == 0 || cell.pagesPerSec() > best.pagesPerSec()) {
            best = cell;
            stack = std::move(s);
        }
    }
    return best;
}

/**
 * Emit one timed MT cell. scaling_efficiency is only meaningful when
 * every worker thread can run on its own core: oversubscribed cells
 * (threads > cores) omit it and set the flag instead, so downstream
 * readers never mistake time-slicing arithmetic for scaling.
 */
void
emitCell(bench::JsonReporter &json, sim::TextTable &table,
         const std::string &scenario, const char *mode, unsigned t,
         const MtCell &cell, double base, unsigned cores,
         const std::vector<std::pair<const char *, double>> &extra = {})
{
    bool oversub = t > cores;
    double pps = cell.pagesPerSec();
    double eff = (!oversub && base > 0)
        ? pps / (static_cast<double>(t) * base)
        : 0.0;
    table.addRow({scenario, std::to_string(t),
                  sim::TextTable::num(pps, 0),
                  sim::TextTable::num(cell.nsPerPage(), 1),
                  sim::TextTable::num(cell.modeledUsPerPage(), 3),
                  oversub ? std::string("n/a")
                          : sim::TextTable::num(eff, 2)});
    std::vector<std::pair<const char *, double>> metrics = {
        {"threads", static_cast<double>(t)},
        {"pages_per_sec", pps},
        {"wall_ns", cell.wallNs},
        {"ns_per_page", cell.nsPerPage()},
        {"modeled_us_per_page", cell.modeledUsPerPage()},
        {"host_cores", static_cast<double>(cores)},
        {"oversubscribed", oversub ? 1.0 : 0.0},
        {"driver_lock_contended_per_page",
         cell.perPage(cell.driverContended)},
        {"driver_lock_parks_per_page", cell.perPage(cell.driverParks)}};
    if (!oversub && base > 0)
        metrics.emplace_back("scaling_efficiency", eff);
    for (const auto &m : extra)
        metrics.push_back(m);
    json.add({{"scenario", scenario},
              {"mode", mode},
              {"threads", std::to_string(t)}},
             metrics);
}

} // namespace

int
main()
{
    const MtScenario scenarios[] = {bench::kMtWarm,
                                    bench::kMtMissPrefetch,
                                    bench::kMtPinChurn,
                                    bench::kMtWarmAssoc4};
    const MtScenario asyncScenarios[] = {bench::kMtMissOverlap,
                                         bench::kMtZipfMix};
    double ms = budgetMs();
    unsigned nmax = maxThreads();
    unsigned cores = hostCores();

    bench::JsonReporter json("mt");
    json.setWorkerThreads(nmax);
    json.setCommand("UTLB_MT_MS=" + sim::TextTable::num(ms, 0)
                    + " UTLB_MT_THREADS=" + std::to_string(nmax)
                    + " bench/bench_mt");
    sim::TextTable table("multi-thread wall clock ("
                         + sim::TextTable::num(ms, 0) + " ms/cell, "
                         + std::to_string(nmax) + " threads max, "
                         + std::to_string(cores) + " cores)");
    table.setHeader({"scenario", "threads", "agg pages/sec",
                     "ns/page", "modeled us/page", "efficiency"});

    for (const MtScenario &sc : scenarios) {
        std::string divergence = bench::mtGoldenDivergence(sc);
        if (!divergence.empty())
            sim::fatal("%s", divergence.c_str());
        json.add({{"scenario", sc.name}, {"mode", "golden"}},
                 {{"golden_equivalence", 1.0}});

        double base = 0.0;
        for (unsigned t = 1; t <= nmax; t *= 2) {
            std::unique_ptr<MtStack> stack;
            MtCell cell = timeCell(sc, t, ms, false, stack);
            if (t == 1)
                base = cell.pagesPerSec();
            emitCell(json, table, sc.name, "mt", t, cell, base, cores);
        }
    }

    for (const MtScenario &sc : asyncScenarios) {
        // Gate 1: threads=1 concurrent (fills off) is still
        // bit-identical to sequential for this workload shape.
        MtScenario syncShape = sc;
        syncShape.asyncFill = false;
        std::string divergence = bench::mtGoldenDivergence(syncShape);
        if (!divergence.empty())
            sim::fatal("%s", divergence.c_str());
        json.add({{"scenario", sc.name}, {"mode", "golden"}},
                 {{"golden_equivalence", 1.0}});

        // Gate 2: fills change miss timing, never translations, and
        // the async modeled cost is a pure function of the window
        // sequence (it repeats exactly on fresh stacks).
        bench::MtAsyncReplay replay = bench::mtAsyncReplay(sc);
        if (!replay.divergence.empty())
            sim::fatal("%s", replay.divergence.c_str());
        bench::MtAsyncReplay repeat = bench::mtAsyncReplay(sc);
        if (repeat.modeledUsPerPage != replay.modeledUsPerPage)
            sim::fatal("%s: async modeled us/page did not repeat "
                       "(%.17g vs %.17g)",
                       sc.name, replay.modeledUsPerPage,
                       repeat.modeledUsPerPage);
        json.add({{"scenario", sc.name}, {"mode", "async_golden"}},
                 {{"async_consistency", 1.0},
                  {"modeled_us_per_page", replay.modeledUsPerPage},
                  {"modeled_us_per_page_repeat",
                   repeat.modeledUsPerPage}});

        // Scaling efficiency is measured within each mode (sync
        // cells against the sync 1-thread rate, async against async):
        // the cross-mode comparison is async_speedup.
        double baseSync = 0.0;
        double baseAsync = 0.0;
        for (unsigned t = 1; t <= nmax; t *= 2) {
            // Serialized baseline: same shape, every miss serviced
            // in place by the walk.
            std::unique_ptr<MtStack> syncStack;
            MtCell syncCell = timeCell(syncShape, t, ms, false, syncStack);
            if (t == 1)
                baseSync = syncCell.pagesPerSec();
            emitCell(json, table, std::string(sc.name) + "(sync)",
                     "mt_sync", t, syncCell, baseSync, cores);

            std::unique_ptr<MtStack> stack;
            MtCell cell = timeCell(sc, t, ms, true, stack);
            if (t == 1)
                baseAsync = cell.pagesPerSec();
            double speedup = syncCell.pagesPerSec() > 0
                ? cell.pagesPerSec() / syncCell.pagesPerSec()
                : 0.0;
            double hiddenUs = sim::ticksToUs(static_cast<sim::Tick>(
                stack->viewCounter("async_hidden_ticks")));
            emitCell(json, table, sc.name, "mt", t, cell, baseAsync,
                     cores,
                     {{"async_speedup", speedup},
                      {"hidden_modeled_us", hiddenUs},
                      {"async_fills",
                       static_cast<double>(
                           stack->viewCounter("async_fills"))}});
        }
    }

    table.print(std::cout);
    return 0;
}
