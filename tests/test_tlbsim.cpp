/**
 * @file
 * Tests for the trace-driven simulator: UTLB vs interrupt-baseline
 * invariants, miss classification, memory limits, prefetching, and
 * the cost equations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
#include "core/pin_manager.hpp"
#include "core/registration_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace utlb::tlbsim;
using utlb::mem::addrOf;
using utlb::mem::kPageSize;
using utlb::trace::Trace;
using utlb::trace::TraceOp;
using utlb::trace::TraceRecord;

Trace
simpleTrace(std::initializer_list<std::pair<int, int>> pid_page,
            std::uint32_t nbytes = kPageSize)
{
    Trace t;
    std::uint64_t seq = 0;
    for (auto [pid, page] : pid_page) {
        t.push_back(TraceRecord{
            seq++, static_cast<utlb::mem::ProcId>(pid), TraceOp::Send,
            addrOf(static_cast<utlb::mem::Vpn>(page)), nbytes});
    }
    return t;
}

TEST(TlbSim, EmptyTraceYieldsZeroResult)
{
    SimConfig cfg;
    auto r = simulateUtlb({}, cfg);
    EXPECT_EQ(r.lookups, 0u);
    EXPECT_EQ(r.probes, 0u);
    EXPECT_DOUBLE_EQ(r.avgLookupCostUs(), 0.0);
}

TEST(TlbSim, ColdPagesAreCompulsoryMisses)
{
    SimConfig cfg;
    cfg.cache = {64, 1, true};
    auto r = simulateUtlb(simpleTrace({{1, 10}, {1, 11}, {1, 12}}),
                          cfg);
    EXPECT_EQ(r.lookups, 3u);
    EXPECT_EQ(r.probes, 3u);
    EXPECT_EQ(r.checkMissLookups, 3u);
    EXPECT_EQ(r.niMissProbes, 3u);
    EXPECT_EQ(r.compulsoryMisses, 3u);
    EXPECT_EQ(r.capacityMisses, 0u);
    EXPECT_EQ(r.conflictMisses, 0u);
    EXPECT_EQ(r.pagesPinned, 3u);
    EXPECT_EQ(r.pagesUnpinned, 0u);
}

TEST(TlbSim, RepeatedPageHitsEverything)
{
    SimConfig cfg;
    auto r = simulateUtlb(
        simpleTrace({{1, 10}, {1, 10}, {1, 10}, {1, 10}}), cfg);
    EXPECT_EQ(r.checkMissLookups, 1u);
    EXPECT_EQ(r.niMissProbes, 1u);
    EXPECT_EQ(r.pagesPinned, 1u);
}

TEST(TlbSim, ClassificationSumsToMisses)
{
    SimConfig cfg;
    cfg.cache = {1024, 1, true};
    auto trace = utlb::trace::generateTrace("water");
    auto r = simulateUtlb(trace, cfg);
    EXPECT_EQ(r.compulsoryMisses + r.capacityMisses + r.conflictMisses,
              r.niMissProbes);
    EXPECT_GT(r.compulsoryMisses, 0u);
}

TEST(TlbSim, ConflictMissesVanishWithFullAssociativityEquivalent)
{
    // A cache as large as the footprint with offsetting has (almost)
    // no capacity misses; conflicts may remain by definition.
    SimConfig cfg;
    cfg.cache = {65536, 1, true};
    auto trace = utlb::trace::generateTrace("water");
    auto r = simulateUtlb(trace, cfg);
    EXPECT_EQ(r.capacityMisses, 0u);
}

TEST(TlbSim, UtlbNeverUnpinsWithInfiniteMemory)
{
    SimConfig cfg;
    cfg.cache = {256, 1, true};
    for (const char *app : {"water", "volrend"}) {
        auto r = simulateUtlb(utlb::trace::generateTrace(app), cfg);
        EXPECT_EQ(r.pagesUnpinned, 0u) << app;
    }
}

TEST(TlbSim, IntrUnpinsOnEvictions)
{
    SimConfig cfg;
    cfg.cache = {256, 1, true};
    auto trace = utlb::trace::generateTrace("water");
    auto r = simulateIntr(trace, cfg);
    EXPECT_GT(r.pagesUnpinned, 0u);
    EXPECT_EQ(r.interrupts, r.niMissProbes);
    EXPECT_EQ(r.checkMissLookups, 0u);  // no user-level check
}

TEST(TlbSim, UtlbAndIntrSeeTheSameCacheBehaviour)
{
    // With infinite memory both mechanisms drive identical probe
    // streams into identically-configured caches (Table 4's NI-miss
    // rows are equal for UTLB and Intr).
    SimConfig cfg;
    cfg.cache = {512, 1, true};
    auto trace = utlb::trace::generateTrace("volrend");
    auto u = simulateUtlb(trace, cfg);
    auto i = simulateIntr(trace, cfg);
    EXPECT_EQ(u.niMissProbes, i.niMissProbes);
    EXPECT_EQ(u.probes, i.probes);
}

TEST(TlbSim, MemoryLimitForcesUtlbUnpins)
{
    SimConfig cfg;
    cfg.cache = {8192, 1, true};
    cfg.memLimitPages = 64;
    auto trace = utlb::trace::generateTrace("water");
    auto r = simulateUtlb(trace, cfg);
    EXPECT_GT(r.pagesUnpinned, 0u);
    // Re-pinning raises the check-miss rate versus unlimited memory.
    SimConfig unlimited = cfg;
    unlimited.memLimitPages = 0;
    auto r0 = simulateUtlb(trace, unlimited);
    EXPECT_GT(r.checkMissLookups, r0.checkMissLookups);
}

TEST(TlbSim, BiggerCacheNeverIncreasesMissesMuch)
{
    // Not strictly monotone (offset hashing), but a 16x larger cache
    // must not be worse.
    SimConfig small, big;
    small.cache = {1024, 1, true};
    big.cache = {16384, 1, true};
    for (const char *app : {"fft", "radix", "water"}) {
        auto trace = utlb::trace::generateTrace(app);
        auto s = simulateUtlb(trace, small);
        auto b = simulateUtlb(trace, big);
        EXPECT_LE(b.niMissProbes, s.niMissProbes) << app;
    }
}

TEST(TlbSim, PrefetchReducesMissesAndNeverBreaksCorrectness)
{
    auto trace = utlb::trace::generateTrace("radix");
    SimConfig none, aggressive;
    none.cache = aggressive.cache = {1024, 1, true};
    none.prefetchEntries = 1;
    aggressive.prefetchEntries = 16;
    aggressive.prepinPages = 16;
    auto r1 = simulateUtlb(trace, none);
    auto r16 = simulateUtlb(trace, aggressive);
    EXPECT_LT(r16.niMissProbes, r1.niMissProbes);
    EXPECT_EQ(r16.probes, r1.probes);
}

TEST(TlbSim, CostEquationComponentsArePositiveAndOrdered)
{
    SimConfig cfg;
    cfg.cache = {1024, 1, true};
    auto trace = utlb::trace::generateTrace("fft");
    auto u = simulateUtlb(trace, cfg);
    auto i = simulateIntr(trace, cfg);
    EXPECT_GT(u.avgLookupCostUs(), 0.0);
    // §6: UTLB beats the interrupt approach at small cache sizes for
    // FFT (Table 6's headline comparison).
    EXPECT_LT(u.avgLookupCostUs(), i.avgLookupCostUs());
    // Host-side: pin time is included in host time.
    EXPECT_GE(u.hostTime, u.pinTime + u.unpinTime);
}

TEST(TlbSim, MultiPageLookupsCountOncePerLookup)
{
    // Two-page lookups: check misses and NI-miss lookups are
    // per-operation, probes are per-page.
    SimConfig cfg;
    auto r = simulateUtlb(
        simpleTrace({{1, 10}, {1, 20}}, 2 * kPageSize), cfg);
    EXPECT_EQ(r.lookups, 2u);
    EXPECT_EQ(r.probes, 4u);
    EXPECT_EQ(r.checkMissLookups, 2u);
    EXPECT_EQ(r.niMissLookups, 2u);
    EXPECT_EQ(r.niMissProbes, 4u);
}

TEST(TlbSim, ProcessesShareOneCacheButNotPins)
{
    SimConfig cfg;
    cfg.cache = {8, 1, false};  // tiny, no offsetting: collisions
    // Two processes hammer the same page number; without offsetting
    // they collide in the same set and evict each other.
    Trace t;
    std::uint64_t seq = 0;
    for (int i = 0; i < 20; ++i) {
        t.push_back({seq++, 1, TraceOp::Send, addrOf(8), kPageSize});
        t.push_back({seq++, 2, TraceOp::Send, addrOf(8), kPageSize});
    }
    auto collide = simulateUtlb(t, cfg);
    SimConfig hashed = cfg;
    hashed.cache.indexOffsetting = true;
    auto spread = simulateUtlb(t, hashed);
    EXPECT_GT(collide.niMissProbes, spread.niMissProbes);
    // Pinning is per-process either way: exactly 2 pages pinned.
    EXPECT_EQ(collide.pagesPinned, 2u);
    EXPECT_EQ(spread.pagesPinned, 2u);
}

TEST(TlbSim, DeterministicAcrossRuns)
{
    SimConfig cfg;
    cfg.cache = {2048, 2, true};
    cfg.memLimitPages = 256;
    auto trace = utlb::trace::generateTrace("volrend");
    auto a = simulateUtlb(trace, cfg);
    auto b = simulateUtlb(trace, cfg);
    EXPECT_EQ(a.niMissProbes, b.niMissProbes);
    EXPECT_EQ(a.pagesUnpinned, b.pagesUnpinned);
    EXPECT_EQ(a.hostTime, b.hostTime);
    EXPECT_EQ(a.nicTime, b.nicTime);
}

/** Parameterized policy sweep under a tight memory limit. */
class PolicySweep
    : public ::testing::TestWithParam<utlb::core::PolicyKind>
{};

TEST_P(PolicySweep, AllPoliciesCompleteAndBalanceBudget)
{
    SimConfig cfg;
    cfg.cache = {1024, 1, true};
    cfg.memLimitPages = 128;
    cfg.policy = GetParam();
    auto trace = utlb::trace::generateTrace("water");
    auto r = simulateUtlb(trace, cfg);
    EXPECT_EQ(r.lookups, trace.size());
    // Conservation: pages pinned - unpinned fits within the budget
    // (per process; 5 processes).
    EXPECT_LE(r.pagesPinned - r.pagesUnpinned, 5u * 128u);
    EXPECT_GT(r.pagesPinned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(utlb::core::PolicyKind::Lru,
                      utlb::core::PolicyKind::Mru,
                      utlb::core::PolicyKind::Lfu,
                      utlb::core::PolicyKind::Mfu,
                      utlb::core::PolicyKind::Fifo,
                      utlb::core::PolicyKind::Random),
    [](const ::testing::TestParamInfo<utlb::core::PolicyKind> &info) {
        return utlb::core::toString(info.param);
    });

} // namespace

// Warm-up window: steady-state analysis.
namespace {

TEST(TlbSimWarmup, WarmupExcludesColdStartStats)
{
    auto trace = utlb::trace::generateTrace("water");
    SimConfig cold, warm;
    cold.cache = warm.cache = {16384, 1, true};
    warm.warmupLookups = trace.size() / 2;

    auto c = simulateUtlb(trace, cold);
    auto w = simulateUtlb(trace, warm);
    // Only the post-warmup half is counted.
    EXPECT_EQ(w.lookups, trace.size() - warm.warmupLookups);
    // Water's footprint is fully pinned by halfway: steady state has
    // (almost) no check misses or compulsory misses.
    EXPECT_LT(w.checkMissPerLookup(), 0.02);
    EXPECT_LT(w.probeMissRate(), 0.02);
    EXPECT_GT(c.checkMissPerLookup(), 0.08);
    EXPECT_EQ(w.pagesUnpinned, 0u);
}

TEST(TlbSimWarmup, WarmupBeyondTraceYieldsNothing)
{
    auto trace = utlb::trace::generateTrace("water");
    SimConfig cfg;
    cfg.warmupLookups = trace.size() + 10;
    auto r = simulateUtlb(trace, cfg);
    EXPECT_EQ(r.lookups, 0u);
    EXPECT_EQ(r.probes, 0u);
}

TEST(PinningDifferential, BitmapAndRcacheConvergeToSamePinnedSet)
{
    // With no budget, the UTLB bitmap manager and the registration
    // cache must end up pinning exactly the same set of pages for
    // the same access stream (they only differ under eviction).
    auto trace = utlb::trace::generateTrace("volrend");

    auto run = [&](bool use_rcache) {
        auto shape = utlb::trace::measure(trace);
        auto pm = std::make_unique<utlb::mem::PhysMemory>(
            shape.distinctPages * 3 + 1024);
        utlb::mem::PinFacility pins;
        utlb::nic::Sram sram(4u << 20);
        utlb::nic::NicTimings timings;
        utlb::core::HostCosts costs;
        utlb::core::SharedUtlbCache cache({64, 1, true}, timings);
        utlb::core::UtlbDriver driver(*pm, pins, sram, cache, costs);
        std::map<utlb::mem::ProcId,
                 std::unique_ptr<utlb::mem::AddressSpace>> spaces;
        std::map<utlb::mem::ProcId,
                 std::unique_ptr<utlb::core::PinManager>> mgrs;
        std::map<utlb::mem::ProcId,
                 std::unique_ptr<utlb::core::RegistrationCache>> rcs;

        for (const auto &rec : trace) {
            if (!spaces.count(rec.pid)) {
                auto sp = std::make_unique<utlb::mem::AddressSpace>(
                    rec.pid, *pm);
                driver.registerProcess(*sp);
                spaces.emplace(rec.pid, std::move(sp));
            }
            if (use_rcache) {
                auto it = rcs.find(rec.pid);
                if (it == rcs.end()) {
                    it = rcs.emplace(
                                rec.pid,
                                std::make_unique<
                                    utlb::core::RegistrationCache>(
                                    driver, rec.pid,
                                    utlb::core::RegCacheConfig{}))
                             .first;
                }
                it->second->acquire(rec.va, rec.nbytes);
            } else {
                auto it = mgrs.find(rec.pid);
                if (it == mgrs.end()) {
                    it = mgrs.emplace(
                                rec.pid,
                                std::make_unique<
                                    utlb::core::PinManager>(
                                    driver, rec.pid,
                                    utlb::core::PinManagerConfig{}))
                             .first;
                }
                it->second->ensurePinned(
                    utlb::mem::pageOf(rec.va),
                    utlb::mem::pagesSpanned(rec.va, rec.nbytes));
            }
        }
        // Snapshot: per-process pinned-page counts plus a pinned
        // check over every page the trace touched (scanning the
        // whole VA space would be too slow; the trace's own pages
        // are the complete universe of candidates here).
        std::set<std::pair<utlb::mem::ProcId, utlb::mem::Vpn>> pinned;
        for (const auto &rec : trace) {
            utlb::mem::Vpn start = utlb::mem::pageOf(rec.va);
            std::size_t n =
                utlb::mem::pagesSpanned(rec.va, rec.nbytes);
            for (std::size_t i = 0; i < n; ++i) {
                if (pins.isPinned(rec.pid, start + i))
                    pinned.insert({rec.pid, start + i});
            }
        }
        for (const auto &[pid, sp] : spaces) {
            // Counts must agree with the set (no pins outside it).
            std::size_t in_set = 0;
            for (const auto &[p, v] : pinned)
                in_set += (p == pid);
            EXPECT_EQ(pins.pinnedPages(pid), in_set);
        }
        return pinned;
    };

    auto bitmap_set = run(false);
    auto rcache_set = run(true);
    EXPECT_EQ(bitmap_set, rcache_set);
}

/** The value of the first counter named @p name in a stats dump. */
std::uint64_t
counterIn(const std::string &json, const std::string &name)
{
    std::size_t at = json.find("\"" + name + "\"");
    at = json.find("\"value\":", at);
    return at == std::string::npos ? ~std::uint64_t{0}
                                   : std::stoull(json.substr(at + 8));
}

// Exact goldens recorded from the scan-based shed and the node-based
// classifier these replays used before they went flat: the bookkeeping
// may change, the modeled numbers may not.
TEST(TlbSimGolden, IntrSheddingUnderPinBudget)
{
    SimConfig cfg;
    cfg.cache = {4096, 4, true};
    cfg.memLimitPages = 1024;
    auto r = simulateIntr(utlb::trace::generateTrace("lu"), cfg);
    EXPECT_EQ(r.pagesUnpinned, 8411u);
    EXPECT_EQ(r.interrupts, 12507u);
    EXPECT_EQ(r.nicTime, 490417800000);
    EXPECT_EQ(counterIn(r.statsJson, "sheds"), 4670u);
}

TEST(TlbSimGolden, UtlbThreeCSplit)
{
    SimConfig cfg;
    cfg.cache = {1024, 1, true};
    auto r = simulateUtlb(utlb::trace::generateTrace("fft"), cfg);
    EXPECT_EQ(r.niMissProbes, 20824u);
    EXPECT_EQ(r.compulsoryMisses, 10802u);
    EXPECT_EQ(r.capacityMisses, 9986u);
    EXPECT_EQ(r.conflictMisses, 36u);
}

TEST(TlbSimGolden, IntrThreeCSplit)
{
    SimConfig cfg;
    cfg.cache = {4096, 4, true};
    cfg.memLimitPages = 1024;
    auto r = simulateIntr(utlb::trace::generateTrace("lu"), cfg);
    EXPECT_EQ(r.niMissProbes, 12507u);
    EXPECT_EQ(r.compulsoryMisses, 12507u);
    EXPECT_EQ(r.capacityMisses, 0u);
    EXPECT_EQ(r.conflictMisses, 0u);

    // Every lu miss is a first touch, so also pin a cell whose misses
    // split three ways.
    cfg.cache = {1024, 1, true};
    r = simulateIntr(utlb::trace::generateTrace("fft"), cfg);
    EXPECT_EQ(r.niMissProbes, 20824u);
    EXPECT_EQ(r.compulsoryMisses, 10802u);
    EXPECT_EQ(r.capacityMisses, 9986u);
    EXPECT_EQ(r.conflictMisses, 36u);
}

// The three-C split against a brute-force reference, fed the miss
// bits of a replay through the same public calls as tlbsim's loops.

using utlb::mem::pageOf;
using utlb::mem::pagesSpanned;
using utlb::mem::ProcId;
using utlb::mem::Vpn;

/** Seeded records of 0 to 5 pages over a small range, so pages
 *  recur; about one in eight is zero-length. */
Trace
randomTrace(std::uint64_t seed, std::size_t n)
{
    utlb::sim::Rng rng(seed);
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        auto pid = static_cast<ProcId>(rng.below(3));
        utlb::mem::VirtAddr va = addrOf(100 + rng.below(96))
            + rng.below(kPageSize);
        auto nbytes = rng.below(8) == 0
            ? 0u
            : static_cast<std::uint32_t>(rng.range(1, 4 * kPageSize));
        t.push_back(TraceRecord{i, pid, TraceOp::Send, va, nbytes});
    }
    return t;
}

/** A seen-set and a fully-associative LRU list of (pid, vpn) keys,
 *  searched linearly. */
class ThreeCReference
{
  public:
    explicit ThreeCReference(std::size_t capacity) : cap(capacity) {}

    void
    probe(ProcId pid, Vpn vpn, bool missed)
    {
        std::pair<ProcId, Vpn> key{pid, vpn};
        bool first = seen.insert(key).second;
        auto it = std::find(lru.begin(), lru.end(), key);
        bool resident = it != lru.end();
        if (resident)
            lru.erase(it);
        lru.push_front(key);
        if (lru.size() > cap)
            lru.pop_back();
        if (missed)
            ++(first ? compulsory : resident ? conflict : capacity);
    }

    std::uint64_t compulsory = 0, capacity = 0, conflict = 0;

  private:
    std::size_t cap;
    std::set<std::pair<ProcId, Vpn>> seen;
    std::list<std::pair<ProcId, Vpn>> lru;  //!< MRU first
};

std::size_t
framesFor(const Trace &tr)
{
    return utlb::trace::measure(tr).distinctPages * 10 + 2048;
}

/** simulateUtlb's per-page replay; counts records whose pin failed. */
ThreeCReference
utlbReference(const Trace &tr, const SimConfig &cfg, std::size_t &failed)
{
    utlb::mem::PhysMemory phys(framesFor(tr));
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram(4u << 20);
    utlb::nic::NicTimings timings;
    utlb::core::HostCosts costs(cfg.hostProfile);
    utlb::core::SharedUtlbCache cache(cfg.cache, timings, &sram);
    utlb::core::UtlbDriver driver(phys, pins, sram, cache, costs);
    struct Proc {
        std::unique_ptr<utlb::mem::AddressSpace> space;
        std::unique_ptr<utlb::core::UserUtlb> utlb;
    };
    std::map<ProcId, Proc> procs;
    ThreeCReference ref(cfg.cache.entries);
    std::size_t seen = 0;
    for (const TraceRecord &rec : tr) {
        Proc &p = procs[rec.pid];
        if (!p.utlb) {
            p.space = std::make_unique<utlb::mem::AddressSpace>(rec.pid,
                                                                phys);
            driver.registerProcess(*p.space);
            utlb::core::UtlbConfig ucfg;
            ucfg.prefetchEntries = cfg.prefetchEntries;
            ucfg.pin.memLimitPages = cfg.memLimitPages;
            ucfg.pin.policy = cfg.policy;
            ucfg.pin.prepinPages = cfg.prepinPages;
            ucfg.pin.seed = cfg.seed + rec.pid;
            p.utlb = std::make_unique<utlb::core::UserUtlb>(
                driver, cache, timings, rec.pid, ucfg);
        }
        std::size_t n = pagesSpanned(rec.va, rec.nbytes);
        if (n == 0)
            continue;
        bool warm = seen++ >= cfg.warmupLookups;
        if (!p.utlb->prepare(rec.va, rec.nbytes).ok) {
            ++failed;
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            bool miss = p.utlb->nicTranslate(pageOf(rec.va) + i).miss;
            if (warm)
                ref.probe(rec.pid, pageOf(rec.va) + i, miss);
        }
    }
    return ref;
}

/** simulateIntr's replay. */
ThreeCReference
intrReference(const Trace &tr, const SimConfig &cfg)
{
    utlb::mem::PhysMemory phys(framesFor(tr));
    utlb::mem::PinFacility pins;
    utlb::nic::NicTimings timings;
    utlb::core::HostCosts costs(cfg.hostProfile);
    utlb::core::SharedUtlbCache cache(cfg.cache, timings);
    utlb::core::InterruptTlb intr(pins, cache, costs, timings);
    std::map<ProcId, std::unique_ptr<utlb::mem::AddressSpace>> spaces;
    ThreeCReference ref(cfg.cache.entries);
    std::size_t seen = 0;
    for (const TraceRecord &rec : tr) {
        auto &space = spaces[rec.pid];
        if (!space) {
            space = std::make_unique<utlb::mem::AddressSpace>(rec.pid,
                                                              phys);
            pins.registerSpace(*space);
            if (cfg.memLimitPages != 0)
                pins.setPinLimit(rec.pid, cfg.memLimitPages);
        }
        std::size_t n = pagesSpanned(rec.va, rec.nbytes);
        if (n == 0)
            continue;
        bool warm = seen++ >= cfg.warmupLookups;
        for (std::size_t i = 0; i < n; ++i) {
            bool miss = intr.translate(rec.pid, pageOf(rec.va) + i).miss;
            if (warm)
                ref.probe(rec.pid, pageOf(rec.va) + i, miss);
        }
    }
    return ref;
}

TEST(TlbSimThreeC, SplitMatchesBruteForceReference)
{
    // A 3-page budget cannot pin a 4- or 5-page record, so those
    // lookups fail; their pages must still advance the page ids.
    utlb::sim::LogLevel level = utlb::sim::logLevel();
    utlb::sim::setLogLevel(utlb::sim::LogLevel::Quiet);
    std::size_t failed = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Trace tr = randomTrace(seed, 600);
        SimConfig cfg;
        cfg.cache = {seed % 2 ? 32u : 64u, seed % 4 < 2 ? 1u : 4u, true};
        cfg.memLimitPages = seed % 3 == 0 ? 0 : 3;
        cfg.warmupLookups = 40 * seed;
        for (bool batched : {false, true}) {
            cfg.batchedRange = batched;
            SimResult u = simulateUtlb(tr, cfg);
            std::size_t f = 0;
            ThreeCReference ur = utlbReference(tr, cfg, f);
            failed += f;
            EXPECT_EQ(u.compulsoryMisses, ur.compulsory) << seed;
            EXPECT_EQ(u.capacityMisses, ur.capacity) << seed;
            EXPECT_EQ(u.conflictMisses, ur.conflict) << seed;
        }
        SimResult r = simulateIntr(tr, cfg);
        ThreeCReference ir = intrReference(tr, cfg);
        EXPECT_EQ(r.compulsoryMisses, ir.compulsory) << seed;
        EXPECT_EQ(r.capacityMisses, ir.capacity) << seed;
        EXPECT_EQ(r.conflictMisses, ir.conflict) << seed;
        EXPECT_GT(ir.capacity + ir.conflict, 0u) << seed;
    }
    utlb::sim::setLogLevel(level);
    EXPECT_GT(failed, 0u);
}

TEST(TlbSimThreeC, PageIdsMatchEveryPaperTrace)
{
    for (const auto &w : utlb::trace::allWorkloads()) {
        Trace tr = utlb::trace::generateTrace(w.name);
        utlb::trace::PageIds ids = utlb::trace::indexPages(tr);
        std::set<std::pair<ProcId, Vpn>> pages;
        std::size_t touches = 0;
        std::uint32_t next = 0;
        bool dense = true;
        for (const TraceRecord &rec : tr) {
            for (std::size_t i = 0; i < pagesSpanned(rec.va, rec.nbytes);
                 ++i) {
                // A page first touched here gets the next id.
                if (pages.insert({rec.pid, pageOf(rec.va) + i}).second)
                    dense &= touches < ids.touches.size()
                        && ids.touches[touches] == next++;
                ++touches;
            }
        }
        EXPECT_EQ(ids.distinct, pages.size()) << w.name;
        EXPECT_EQ(utlb::trace::measure(tr).distinctPages, ids.distinct)
            << w.name;
        EXPECT_EQ(ids.touches.size(), touches) << w.name;
        EXPECT_TRUE(dense) << w.name;
    }
}

} // namespace
