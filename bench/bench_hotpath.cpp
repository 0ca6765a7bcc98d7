/**
 * @file
 * Wall-clock hot-path harness: translations per second through the
 * real UTLB stack, per-page translate() vs batched translateRange().
 *
 * Unlike the table/figure harnesses this one measures the simulator
 * itself, not the modeled machine: both modes accrue identical
 * modeled costs by construction (asserted here and by the
 * executable spec, tests/test_spec.cpp), so any wall-clock difference
 * is pure data-structure and batching win.
 *
 * Scenarios:
 *   seq64      4096-page warm buffer swept in 64-page windows, all
 *              NIC-cache hits — the acceptance cell (batched must be
 *              >= 3x pages/sec in a Release build);
 *   miss_sweep 16K-page buffer over a 1K-entry cache with prefetch
 *              32 — steady-state miss + prefetch-refill pattern;
 *   same_page  one page translated over and over — the MRU "L0"
 *              slot path;
 *   mt_warm    the warm sweep again, but with 1/2/4 worker threads
 *              driving disjoint per-process ranges through the
 *              concurrent-mode stack (bench_mt_common.hpp) — the
 *              aggregate-throughput scaling cell. Real speedup needs
 *              real cores; host_info records both the machine's core
 *              count and the worker count so the JSON is honest
 *              about oversubscription.
 *
 * UTLB_HOTPATH_MS bounds the per-cell budget (default 300 ms);
 * BENCH_hotpath.json records pages/sec, ns/page and the speedup per
 * scenario.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "bench_mt_common.hpp"
#include "core/driver.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/log.hpp"
#include "sim/table.hpp"

namespace {

using namespace utlb;

/** One freshly built single-process UTLB stack. */
struct Stack {
    mem::PhysMemory phys;
    mem::PinFacility pins;
    nic::Sram sram;
    nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;
    std::unique_ptr<mem::AddressSpace> space;
    std::unique_ptr<core::UserUtlb> utlb;

    Stack(std::size_t frames, std::size_t entries,
          std::size_t prefetch)
        : phys(frames), sram(4u << 20),
          costs(core::HostProfile::PentiumIINT),
          cache(core::CacheConfig{entries, 1, true}, timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {
        space = std::make_unique<mem::AddressSpace>(1, phys);
        driver.registerProcess(*space);
        core::UtlbConfig ucfg;
        ucfg.prefetchEntries = prefetch;
        utlb = std::make_unique<core::UserUtlb>(driver, cache,
                                                timings, 1, ucfg);
    }
};

/** Shape of one scenario's replayed workload. */
struct Scenario {
    const char *name;
    std::size_t bufPages;    //!< total pages in the buffer
    std::size_t windowPages; //!< pages per translate call
    std::size_t entries;     //!< NIC cache entries (direct-mapped)
    std::size_t prefetch;    //!< entries fetched per miss
};

struct Cell {
    double wallNs = 0;
    std::uint64_t pages = 0;
    sim::Tick modeled = 0;   //!< summed hostCost + nicCost

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
            ? sim::ticksToUs(modeled) / static_cast<double>(pages)
            : 0.0;
    }
};

double
budgetMs()
{
    if (const char *e = std::getenv("UTLB_HOTPATH_MS")) {
        double v = std::atof(e);
        if (v > 0)
            return v;
    }
    return 300.0;
}

/**
 * Replay windows over the buffer until the budget expires, through
 * either translate() (batched = false) or translateRange().
 */
Cell
runCell(const Scenario &sc, bool batched, double budget_ms)
{
    Stack st(sc.bufPages + 64, sc.entries, sc.prefetch);
    std::size_t nbytes = sc.windowPages * mem::kPageSize;

    // Warm pass: pin the whole buffer and fill the cache so the
    // timed region measures the steady state, not the cold start.
    for (std::size_t p = 0; p < sc.bufPages; p += sc.windowPages) {
        core::Translation t =
            st.utlb->translate(p * mem::kPageSize, nbytes);
        if (!t.ok)
            sim::fatal("hotpath %s: warm-up pin failed", sc.name);
    }

    Cell cell;
    std::size_t window = 0;
    std::size_t nwindows = sc.bufPages / sc.windowPages;
    auto t0 = std::chrono::steady_clock::now();
    double budget_ns = budget_ms * 1e6;
    for (;;) {
        // Check the clock once per 64 windows so it stays off the
        // hot path.
        for (int rep = 0; rep < 64; ++rep) {
            mem::VirtAddr va = (window * sc.windowPages)
                * mem::kPageSize;
            core::Translation t = batched
                ? st.utlb->translateRange(va, nbytes)
                : st.utlb->translate(va, nbytes);
            cell.modeled += t.hostCost + t.nicCost;
            cell.pages += t.pageAddrs.size();
            if (++window == nwindows)
                window = 0;
        }
        double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (ns >= budget_ns) {
            cell.wallNs = ns;
            break;
        }
    }
    return cell;
}

/**
 * Fixed-iteration equivalence check: the two modes over identical
 * fresh stacks must accrue bit-identical modeled cost and results.
 */
void
checkEquivalence(const Scenario &sc)
{
    Stack a(sc.bufPages + 64, sc.entries, sc.prefetch);
    Stack b(sc.bufPages + 64, sc.entries, sc.prefetch);
    std::size_t nbytes = sc.windowPages * mem::kPageSize;
    std::size_t nwindows = sc.bufPages / sc.windowPages;
    // Two full passes: cold misses, then steady state.
    for (std::size_t w = 0; w < 2 * nwindows; ++w) {
        mem::VirtAddr va =
            ((w % nwindows) * sc.windowPages) * mem::kPageSize;
        core::Translation ta = a.utlb->translate(va, nbytes);
        core::Translation tb = b.utlb->translateRange(va, nbytes);
        if (ta.hostCost != tb.hostCost || ta.nicCost != tb.nicCost
            || ta.niMisses != tb.niMisses
            || ta.pageAddrs != tb.pageAddrs
            || ta.missPages != tb.missPages)
            sim::fatal("hotpath %s: translateRange diverged from "
                       "translate at window %zu",
                       sc.name, w);
    }
}

/**
 * Direct probe-cost microcell: ns per SharedUtlbCache::lookup() on a
 * warm cache at the given associativity — the packed tag-compare
 * loop with as little else as a call can carry. Reported per assoc
 * {1, 2, 4}; perf-smoke gates each cell against the same run's
 * same_page ns/page (the probe is a strict subset of that path, so
 * the comparison holds on arbitrarily slow shared runners where an
 * absolute threshold would not).
 */
double
runProbeCell(unsigned assoc, double budget_ms)
{
    nic::NicTimings timings;
    core::SharedUtlbCache cache(core::CacheConfig{1024, assoc, true},
                                timings);
    constexpr std::uint64_t kSpan = 768;
    for (mem::Vpn v = 0; v < kSpan; ++v)
        cache.insert(1, v, v + 100, core::InsertMode::Demand);

    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    mem::Vpn vpn = 0;
    auto t0 = std::chrono::steady_clock::now();
    double budget_ns = budget_ms * 1e6;
    double ns = 0;
    for (;;) {
        for (int rep = 0; rep < 1024; ++rep) {
            hits += cache.lookup(1, vpn).hit ? 1 : 0;
            if (++vpn == kSpan)
                vpn = 0;
        }
        probes += 1024;
        ns = std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
        if (ns >= budget_ns)
            break;
    }
    if (hits == 0)
        sim::fatal("probe_cost assoc %u: warm cache never hit",
                   assoc);
    return ns / static_cast<double>(probes);
}

} // namespace

int
main()
{
    const Scenario scenarios[] = {
        {"seq64", 4096, 64, 8192, 1},
        {"miss_sweep", 16384, 64, 1024, 32},
        {"same_page", 1, 1, 8192, 1},
    };
    double ms = budgetMs();

    bench::JsonReporter json("hotpath");
    sim::TextTable table("hot-path wall clock (" +
                         sim::TextTable::num(ms, 0) + " ms/cell)");
    table.setHeader({"scenario", "mode", "pages/sec", "ns/page",
                     "modeled us/page"});

    for (const Scenario &sc : scenarios) {
        checkEquivalence(sc);
        Cell perpage = runCell(sc, false, ms);
        Cell batched = runCell(sc, true, ms);
        auto emit = [&](const char *mode, const Cell &cell) {
            table.addRow({sc.name, mode,
                          sim::TextTable::num(cell.pagesPerSec(), 0),
                          sim::TextTable::num(cell.nsPerPage(), 1),
                          sim::TextTable::num(cell.modeledUsPerPage(),
                                              3)});
            json.add({{"scenario", sc.name}, {"mode", mode}},
                     {{"pages_per_sec", cell.pagesPerSec()},
                      {"wall_ns", cell.wallNs},
                      {"ns_per_page", cell.nsPerPage()},
                      {"modeled_us_per_page",
                       cell.modeledUsPerPage()}});
        };
        emit("perpage", perpage);
        emit("batched", batched);
        double speedup = perpage.pagesPerSec() > 0
            ? batched.pagesPerSec() / perpage.pagesPerSec()
            : 0.0;
        table.addRow({sc.name, "speedup",
                      sim::TextTable::num(speedup, 2) + "x", "", ""});
        json.add({{"scenario", sc.name}, {"mode", "speedup"}},
                 {{"speedup", speedup}});
    }

    // Probe-cost microcells: the packed set probe in isolation.
    for (unsigned assoc : {1u, 2u, 4u}) {
        double nsProbe = runProbeCell(assoc, ms);
        std::string mode = "assoc" + std::to_string(assoc);
        table.addRow({"probe_cost", mode, "",
                      sim::TextTable::num(nsProbe, 1), ""});
        json.add({{"scenario", "probe_cost"}, {"mode", mode}},
                 {{"assoc", static_cast<double>(assoc)},
                  {"ns_per_probe", nsProbe}});
    }

    // Multi-thread scaling cell: the warm sweep with 1/2/4 workers
    // on disjoint ranges through the concurrent-mode stack.
    const bench::MtScenario &mt = bench::kMtWarm;
    json.setWorkerThreads(4);
    unsigned cores = std::thread::hardware_concurrency();
    if (cores == 0)
        cores = 1;
    double base = 0.0;
    double widest = 0.0;
    bool widestOversub = false;
    for (unsigned t = 1; t <= 4; t *= 2) {
        bench::MtStack stack(mt, t, true);
        bench::MtCell cell = bench::runMtCell(mt, stack, t, ms);
        double pps = cell.pagesPerSec();
        if (t == 1)
            base = pps;
        widest = pps;
        widestOversub = t > cores;
        std::string mode = "threads" + std::to_string(t);
        table.addRow({mt.name, mode,
                      sim::TextTable::num(pps, 0),
                      sim::TextTable::num(cell.nsPerPage(), 1),
                      sim::TextTable::num(cell.modeledUsPerPage(),
                                          3)});
        json.add({{"scenario", mt.name}, {"mode", mode}},
                 {{"threads", static_cast<double>(t)},
                  {"pages_per_sec", pps},
                  {"wall_ns", cell.wallNs},
                  {"ns_per_page", cell.nsPerPage()},
                  {"modeled_us_per_page", cell.modeledUsPerPage()},
                  {"host_cores", static_cast<double>(cores)},
                  {"oversubscribed", t > cores ? 1.0 : 0.0}});
    }
    // Speedup of the widest cell over 1 thread, recorded like the
    // per-scenario speedup rows. Meaningless when the widest cell
    // time-sliced more workers than the host has cores: flag it and
    // skip the figure rather than report scheduler arithmetic.
    double mtSpeedup = base > 0 ? widest / base : 0.0;
    table.addRow({mt.name, "speedup",
                  widestOversub
                      ? std::string("n/a")
                      : sim::TextTable::num(mtSpeedup, 2) + "x",
                  "", ""});
    if (widestOversub)
        json.add({{"scenario", mt.name}, {"mode", "speedup"}},
                 {{"host_cores", static_cast<double>(cores)},
                  {"oversubscribed", 1.0}});
    else
        json.add({{"scenario", mt.name}, {"mode", "speedup"}},
                 {{"speedup", mtSpeedup},
                  {"host_cores", static_cast<double>(cores)},
                  {"oversubscribed", 0.0}});

    table.print(std::cout);
    return 0;
}
