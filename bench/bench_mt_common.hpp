/**
 * @file
 * Shared machinery for the multi-threaded wall-clock harnesses
 * (bench_hotpath's mt_warm cell and bench_mt's thread sweep).
 *
 * An MtStack is one NIC shared by N worker processes, each driven by
 * its own thread through a concurrent-mode UserUtlb. Two workload
 * shapes:
 *
 *   disjoint  every worker sweeps its own vpn range. With index
 *             offsetting off, disjoint ranges land in disjoint cache
 *             sets, so workers share no lock stripe and no cache
 *             line on the hot path — the shard-local scaling case;
 *   shared    every worker sweeps the same vpn range under its own
 *             pid. Same sets, different tags: a direct-mapped set
 *             ping-pongs between processes, keeping the stripe
 *             locks, miss DMAs, and concurrent evictions contended —
 *             the worst-case coherence cell.
 *
 * Timing protocol: workers warm their buffers, park on a start flag,
 * then translate windows until the main thread calls time. Pages and
 * modeled ticks are counted exactly; the wall clock spans go->stop,
 * so aggregate pages/sec divides total work by shared elapsed time.
 */

#ifndef UTLB_BENCH_MT_COMMON_HPP
#define UTLB_BENCH_MT_COMMON_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/zipf.hpp"

namespace bench {

namespace mem = utlb::mem;
namespace core = utlb::core;

/** Shape of one multi-threaded scenario. */
struct MtScenario {
    const char *name;
    std::size_t perWorkerPages;  //!< pages each worker sweeps
    std::size_t windowPages;     //!< pages per translateRange call
    std::size_t entries;         //!< total NIC cache entries
    std::size_t prefetch;        //!< entries fetched per miss
    bool sharedRange;            //!< all workers sweep the same vpns
    unsigned assoc = 1;          //!< cache ways (1 = direct-mapped)
    std::size_t memLimitPages = 0;  //!< per-process pin cap (0 = off)
    bool asyncFill = false;      //!< UtlbConfig::asyncFills views
    double zipfAlpha = 0.0;      //!< >0: Zipf(alpha) window choice
};

/** Warm, all-hits scaling cell (the acceptance scenario). */
inline constexpr MtScenario kMtWarm{"mt_warm", 1024, 64, 8192, 1,
                                    false};

/** Contended miss + prefetch-refill cell. */
inline constexpr MtScenario kMtMissPrefetch{"mt_miss_prefetch", 4096,
                                            64, 1024, 32, true};

/**
 * Pin-churn cell: each worker sweeps twice as many pages as its pin
 * limit admits, so every window unpins LRU pages (shed + NIC-cache
 * coherence drop) and repins the incoming ones — the contended
 * PinManager-mutex / invalidate-path scenario.
 */
inline constexpr MtScenario kMtPinChurn{"mt_pin_churn", 512, 64, 8192,
                                        8, false, 1, 256};

/**
 * Warm 4-way associative cell: the disjoint all-hits sweep through
 * the seqlock way-search path (translateRange goes page-at-a-time
 * through lookup() when assoc > 1).
 */
inline constexpr MtScenario kMtWarmAssoc4{"mt_warm_assoc4", 512, 64,
                                          8192, 1, false, 4};

/**
 * Miss-overlap cell: each worker streams 8x the cache's capacity, so
 * every window is a stretch of capacity misses. With asyncFill the
 * misses post modeled outstanding fills and the walk keeps serving
 * the window while their DMAs run on the modeled fill engines — the
 * outstanding-DMA overlap. Run with asyncFill both on and off to
 * measure the modeled overlap win.
 */
inline constexpr MtScenario kMtMissOverlap{"mt_miss_overlap", 8192, 64,
                                           1024, 8, false, 1, 0, true};

/**
 * Miss-heavy Zipf mix: workers pick windows Zipf(1.1)-distributed
 * over a working set larger than the cache, mixing hot always-hit
 * windows with a long cold-miss tail — hits keep flowing while the
 * tail's fills are in flight.
 */
inline constexpr MtScenario kMtZipfMix{"mt_zipf_mix", 4096, 64, 1024,
                                       8, false, 1, 0, true, 1.1};

/** One NIC, N worker processes, each with a concurrent UserUtlb. */
struct MtStack {
    mem::PhysMemory phys;
    mem::PinFacility pins;
    utlb::nic::Sram sram;
    utlb::nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;
    std::vector<std::unique_ptr<mem::AddressSpace>> spaces;
    std::vector<std::unique_ptr<core::UserUtlb>> views;

    MtStack(const MtScenario &sc, unsigned nworkers, bool concurrent,
            bool async = false)
        : phys(sc.perWorkerPages * nworkers + 2048),
          sram(4u << 20),
          costs(core::HostProfile::PentiumIINT),
          // Index offsetting off: worker vpn ranges map to cache
          // sets verbatim, so the disjoint/shared scenario shapes
          // control set overlap directly.
          cache(core::CacheConfig{sc.entries, sc.assoc, false},
                timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {
        for (unsigned w = 0; w < nworkers; ++w) {
            auto pid = static_cast<mem::ProcId>(w + 1);
            spaces.push_back(
                std::make_unique<mem::AddressSpace>(pid, phys));
            driver.registerProcess(*spaces.back());
            core::UtlbConfig ucfg;
            ucfg.prefetchEntries = sc.prefetch;
            ucfg.concurrent = concurrent;
            ucfg.asyncFills = async;
            ucfg.pin.memLimitPages = sc.memLimitPages;
            views.push_back(std::make_unique<core::UserUtlb>(
                driver, cache, timings, pid, ucfg));
        }
    }

    /** Sum of a counter over every view's stats subtree. */
    std::uint64_t
    viewCounter(const char *name) const
    {
        std::uint64_t sum = 0;
        for (const auto &v : views) {
            const auto *stat = v->stats().find(name);
            if (!stat)
                utlb::sim::fatal("no view stat named %s", name);
            sum += static_cast<const utlb::sim::Counter *>(stat)
                       ->value();
        }
        return sum;
    }

    /** The vpn a worker's buffer starts at. */
    mem::Vpn
    baseOf(const MtScenario &sc, unsigned worker) const
    {
        return sc.sharedRange ? 0 : worker * sc.perWorkerPages;
    }
};

/** Aggregate outcome of one (scenario, threads) cell. */
struct MtCell {
    double wallNs = 0;
    std::uint64_t pages = 0;
    utlb::sim::Tick modeled = 0;
    /** Driver lock() calls in the timed region (the registry lock
     *  plus every process' session lock) that found the lock held,
     *  and those that then parked (sim::Mutex counters). */
    std::uint64_t driverContended = 0;
    std::uint64_t driverParks = 0;

    double pagesPerSec() const
    {
        return wallNs > 0
            ? static_cast<double>(pages) * 1e9 / wallNs
            : 0.0;
    }
    double nsPerPage() const
    {
        return pages > 0 ? wallNs / static_cast<double>(pages) : 0.0;
    }
    double modeledUsPerPage() const
    {
        return pages > 0
            ? utlb::sim::ticksToUs(modeled)
                / static_cast<double>(pages)
            : 0.0;
    }
    /** @p count per translated page of the timed region. */
    double perPage(std::uint64_t count) const
    {
        return pages > 0
            ? static_cast<double>(count) / static_cast<double>(pages)
            : 0.0;
    }
};

/** Serialize a 1-worker stack's full stats tree. */
inline std::string
mtStatsDump(MtStack &stack)
{
    stack.views[0]->flushShardStats();
    utlb::sim::StatGroup root{"stack"};
    root.adopt(stack.cache.stats());
    root.adopt(stack.driver.stats());
    root.adopt(stack.pins.stats());
    root.adopt(stack.sram.stats());
    root.adopt(stack.views[0]->stats());
    std::ostringstream os;
    root.dumpJson(os);
    return os.str();
}

/**
 * Zipf(alpha) window picker — now the shared sim::ZipfPicker
 * (src/sim/zipf.hpp), kept under its old name here so the bench
 * cells' (n, alpha, seed) call sites read unchanged. Same seed
 * contract: paired runs replay identical window sequences.
 */
using ZipfPicker = utlb::sim::ZipfPicker;

/**
 * Threads=1 golden equivalence: a concurrent-mode stack driven by
 * one thread must be indistinguishable — results, modeled costs,
 * stats tree — from the sequential path over the same workload.
 * Returns a description of the first divergence, or "" if the
 * scenario holds. Shared between bench_mt (which fatals on a
 * non-empty result before timing anything) and the regression tests.
 */
inline std::string
mtGoldenDivergence(const MtScenario &sc)
{
    MtStack seq(sc, 1, false);
    MtStack mt(sc, 1, true);
    std::size_t nbytes = sc.windowPages * mem::kPageSize;
    std::size_t nwindows = sc.perWorkerPages / sc.windowPages;
    // Two full passes: cold misses + pins, then steady state (with a
    // pin limit, the second pass keeps shedding and repinning).
    for (std::size_t w = 0; w < 2 * nwindows; ++w) {
        mem::VirtAddr va =
            ((w % nwindows) * sc.windowPages) * mem::kPageSize;
        core::Translation a = seq.views[0]->translateRange(va, nbytes);
        core::Translation b = mt.views[0]->translateRange(va, nbytes);
        if (a.hostCost != b.hostCost || a.nicCost != b.nicCost
            || a.niMisses != b.niMisses
            || a.pageAddrs != b.pageAddrs
            || a.missPages != b.missPages)
            return std::string(sc.name)
                + ": concurrent mode diverged from sequential at "
                  "window "
                + std::to_string(w);
    }
    if (mtStatsDump(seq) != mtStatsDump(mt))
        return std::string(sc.name)
            + ": concurrent-mode stats tree diverged from sequential";
    return "";
}

/** Outcome of mtAsyncReplay: a divergence, or the async cost. */
struct MtAsyncReplay {
    std::string divergence;        //!< "" when results matched
    double modeledUsPerPage = 0.0; //!< async stack, second pass
};

/**
 * Async-fill consistency: asynchronous fills must change *when* a
 * miss is serviced, never *what* a translation returns. Replays the
 * same (possibly Zipf-shuffled) window sequence through a synchronous
 * and an async-fill concurrent stack and compares every call's
 * results. Modeled costs legitimately differ (the fill engines hide
 * DMA time), so — unlike mtGoldenDivergence — only ok and the
 * translated addresses are compared. The async stack's modeled cost
 * per page over the second (steady-state) pass is reported
 * alongside: posted fills are serviced by the walking thread, so it
 * is a pure function of the sequence and repeats exactly run to run.
 */
inline MtAsyncReplay
mtAsyncReplay(const MtScenario &sc)
{
    MtStack sync(sc, 1, true, false);
    MtStack async(sc, 1, true, true);
    std::size_t nbytes = sc.windowPages * mem::kPageSize;
    std::size_t nwindows = sc.perWorkerPages / sc.windowPages;

    std::vector<std::size_t> order;
    order.reserve(2 * nwindows);
    for (std::size_t w = 0; w < 2 * nwindows; ++w)
        order.push_back(w % nwindows);
    if (sc.zipfAlpha > 0) {
        // Keep the first full pass linear (pins every page), then
        // replay the Zipf mix both stacks will see.
        ZipfPicker zipf(nwindows, sc.zipfAlpha, 0x5eedull);
        for (std::size_t w = nwindows; w < 2 * nwindows; ++w)
            order[w] = zipf.next();
    }

    MtAsyncReplay out;
    std::uint64_t pages = 0;
    utlb::sim::Tick modeled = 0;
    for (std::size_t w = 0; w < order.size(); ++w) {
        mem::VirtAddr va =
            (order[w] * sc.windowPages) * mem::kPageSize;
        core::Translation a = sync.views[0]->translateRange(va, nbytes);
        core::Translation b =
            async.views[0]->translateRange(va, nbytes);
        if (a.ok != b.ok || a.pageAddrs != b.pageAddrs) {
            out.divergence = std::string(sc.name)
                + ": async fill changed translation results at window "
                + std::to_string(w);
            return out;
        }
        if (w >= nwindows) {
            modeled += b.hostCost + b.nicCost;
            pages += b.pageAddrs.size();
        }
    }
    out.modeledUsPerPage =
        utlb::sim::ticksToUs(modeled) / static_cast<double>(pages);
    return out;
}

/**
 * Run @p nworkers threads over @p stack for ~@p budget_ms of wall
 * time. Each worker warms its buffer first (pins + cache fill),
 * so the timed region measures the steady state.
 */
inline MtCell
runMtCell(const MtScenario &sc, MtStack &stack, unsigned nworkers,
          double budget_ms)
{
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> totalPages{0};
    std::atomic<std::uint64_t> totalModeled{0};

    std::vector<std::thread> workers;
    for (unsigned w = 0; w < nworkers; ++w) {
        workers.emplace_back([&, w] {
            core::UserUtlb &u = *stack.views[w];
            const mem::Vpn base = stack.baseOf(sc, w);
            const std::size_t nbytes =
                sc.windowPages * mem::kPageSize;
            const std::size_t nwindows =
                sc.perWorkerPages / sc.windowPages;

            for (std::size_t p = 0; p < sc.perWorkerPages;
                 p += sc.windowPages) {
                core::Translation t = u.translateRange(
                    (base + p) * mem::kPageSize, nbytes);
                if (!t.ok)
                    utlb::sim::fatal("%s: warm-up pin failed",
                                     sc.name);
            }

            ready.fetch_add(1, std::memory_order_release);
            while (!go.load(std::memory_order_acquire)) {
            }

            std::uint64_t pages = 0;
            utlb::sim::Tick modeled = 0;
            std::size_t window = 0;
            // Zipf scenarios mix hot and cold windows; per-worker
            // seeds keep the sequence deterministic per (worker, run).
            ZipfPicker zipf(nwindows, sc.zipfAlpha > 0 ? sc.zipfAlpha
                                                       : 1.0,
                            0x5eedull + w);
            while (!stop.load(std::memory_order_relaxed)) {
                if (sc.zipfAlpha > 0)
                    window = zipf.next();
                mem::VirtAddr va =
                    (base + window * sc.windowPages)
                    * mem::kPageSize;
                core::Translation t = u.translateRange(va, nbytes);
                modeled += t.hostCost + t.nicCost;
                pages += t.pageAddrs.size();
                if (sc.zipfAlpha <= 0 && ++window == nwindows)
                    window = 0;
            }
            totalPages.fetch_add(pages, std::memory_order_relaxed);
            totalModeled.fetch_add(
                static_cast<std::uint64_t>(modeled),
                std::memory_order_relaxed);
        });
    }

    while (ready.load(std::memory_order_acquire) < nworkers) {
    }
    const std::uint64_t contended0 = stack.driver.lockContended();
    const std::uint64_t parks0 = stack.driver.lockParks();
    auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(budget_ms));
    stop.store(true, std::memory_order_relaxed);
    for (auto &w : workers)
        w.join();
    double wall = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    MtCell cell;
    cell.wallNs = wall;
    cell.pages = totalPages.load();
    cell.modeled =
        static_cast<utlb::sim::Tick>(totalModeled.load());
    cell.driverContended = stack.driver.lockContended() - contended0;
    cell.driverParks = stack.driver.lockParks() - parks0;
    return cell;
}

} // namespace bench

#endif // UTLB_BENCH_MT_COMMON_HPP
