/**
 * @file
 * Concurrency suite: golden equivalence and race hammering.
 *
 * Concurrent mode (UtlbConfig::concurrent) promises two things:
 *
 *  1. With a single worker it is *bit-identical* to the sequential
 *     path — same results, same modeled costs, same serialized stats
 *     tree. Threading may only change wall-clock. The golden tests
 *     here replay randomized workloads through a sequential and a
 *     concurrent-mode stack and compare everything, in the style of
 *     test_batched_range.cpp.
 *
 *  2. With many workers it is *safe*: overlapping pins, unpins,
 *     send-locks, probes, and miss-fill installs from concurrent
 *     threads leave every structure coherent. The hammer tests run
 *     real threads over shared PinManagers, the shared cache, and
 *     full multi-process stacks, then re-derive the invariants with
 *     the auditors. Run them under UTLB_SANITIZE=thread to turn the
 *     suite into a race detector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/pin_manager.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace {

using namespace utlb::core;
using utlb::check::AuditReport;
using utlb::mem::Vpn;
using utlb::sim::Rng;

// ---------------------------------------------------------------------
// Golden equivalence: concurrent mode at one worker vs sequential
// ---------------------------------------------------------------------

/** A full single-NIC stack with the simulator's stats tree shape. */
struct Harness {
    utlb::mem::PhysMemory phys;
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram;
    utlb::nic::NicTimings timings;
    HostCosts costs;
    SharedUtlbCache cache;
    UtlbDriver driver;
    std::unique_ptr<utlb::mem::AddressSpace> space;
    std::unique_ptr<UserUtlb> utlb;
    utlb::sim::StatGroup root{"stack"};

    Harness(std::size_t entries, const UtlbConfig &ucfg)
        : phys(4096), sram(1u << 20),
          costs(HostProfile::PentiumIINT),
          cache(CacheConfig{entries, 1, true}, timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {
        space = std::make_unique<utlb::mem::AddressSpace>(1, phys);
        driver.registerProcess(*space);
        utlb = std::make_unique<UserUtlb>(driver, cache, timings, 1,
                                          ucfg);
        root.adopt(cache.stats());
        root.adopt(driver.stats());
        root.adopt(pins.stats());
        root.adopt(sram.stats());
        root.adopt(utlb->stats());
    }

    std::string
    statsDump()
    {
        // In concurrent mode, buffered shard deltas must be folded
        // in before the tree is serialized.
        utlb->flushShardStats();
        std::ostringstream os;
        root.dumpJson(os);
        return os.str();
    }
};

void
expectSameTranslation(const Translation &a, const Translation &b,
                      const std::string &where)
{
    EXPECT_EQ(a.ok, b.ok) << where;
    EXPECT_EQ(a.pageAddrs, b.pageAddrs) << where;
    EXPECT_EQ(a.hostCost, b.hostCost) << where;
    EXPECT_EQ(a.nicCost, b.nicCost) << where;
    EXPECT_EQ(a.pinCost, b.pinCost) << where;
    EXPECT_EQ(a.unpinCost, b.unpinCost) << where;
    EXPECT_EQ(a.checkMiss, b.checkMiss) << where;
    EXPECT_EQ(a.niMisses, b.niMisses) << where;
    EXPECT_EQ(a.pagesPinned, b.pagesPinned) << where;
    EXPECT_EQ(a.pagesUnpinned, b.pagesUnpinned) << where;
    EXPECT_EQ(a.pinIoctls, b.pinIoctls) << where;
    EXPECT_EQ(a.unpinIoctls, b.unpinIoctls) << where;
    EXPECT_EQ(a.faults, b.faults) << where;
    EXPECT_EQ(a.missPages, b.missPages) << where;
}

/**
 * Replay the same randomized workload through a sequential-mode and
 * a concurrent-mode stack (both single-threaded); every call and the
 * final stats tree must match exactly. @p batched selects
 * translateRange() (the lookupRun/hitViaRef MT twins) vs
 * translate() (the lookup/insert MT twins).
 */
void
runGolden(std::size_t entries, std::size_t prefetch,
          std::size_t memlimit, bool batched, std::uint64_t seed)
{
    UtlbConfig seqCfg;
    seqCfg.prefetchEntries = prefetch;
    seqCfg.pin.memLimitPages = memlimit;
    seqCfg.pin.seed = seed;
    UtlbConfig mtCfg = seqCfg;
    mtCfg.concurrent = true;

    Harness seq(entries, seqCfg);
    Harness mt(entries, mtCfg);
    ASSERT_TRUE(mt.utlb->concurrent());
    ASSERT_TRUE(mt.cache.concurrent());

    Rng rng(seed ^ 0xc0ffeeULL);
    constexpr std::size_t kBufPages = 512;
    for (int call = 0; call < 300; ++call) {
        Vpn startPage;
        std::size_t npages;
        switch (rng.below(4)) {
        case 0:
            startPage = rng.below(8);
            npages = 1;
            break;
        case 1:
            startPage = rng.below(kBufPages);
            npages = 1 + rng.below(8);
            break;
        default:
            startPage = rng.below(kBufPages);
            npages = 1 + rng.below(96);
            break;
        }
        std::uint64_t offset = rng.below(utlb::mem::kPageSize);
        utlb::mem::VirtAddr va =
            startPage * utlb::mem::kPageSize + offset;
        std::size_t nbytes = npages * utlb::mem::kPageSize
            - offset - rng.below(utlb::mem::kPageSize - offset + 1);
        if (nbytes == 0)
            nbytes = 1;

        Translation a = batched ? seq.utlb->translateRange(va, nbytes)
                                : seq.utlb->translate(va, nbytes);
        Translation b = batched ? mt.utlb->translateRange(va, nbytes)
                                : mt.utlb->translate(va, nbytes);
        expectSameTranslation(a, b, "call " + std::to_string(call));
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_EQ(seq.statsDump(), mt.statsDump());

    // Both stacks must also still satisfy every invariant.
    AuditReport report;
    mt.cache.audit(report);
    mt.driver.audit(report);
    mt.utlb->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ConcurrentGolden, PerPageNoLimit)
{
    runGolden(1024, 1, 0, false, 11);
}

TEST(ConcurrentGolden, PerPagePrefetchWide)
{
    runGolden(256, 8, 0, false, 12);
}

TEST(ConcurrentGolden, PerPageMemLimit)
{
    // The pin budget forces unpins, exercising the concurrent-mode
    // invalidate() (stripe-locked coherence drop) against the
    // sequential one.
    runGolden(1024, 4, 64, false, 13);
}

TEST(ConcurrentGolden, BatchedNoLimit)
{
    runGolden(1024, 1, 0, true, 14);
}

TEST(ConcurrentGolden, BatchedPrefetchWide)
{
    runGolden(256, 8, 0, true, 15);
}

TEST(ConcurrentGolden, BatchedMemLimit)
{
    runGolden(1024, 4, 64, true, 16);
}

TEST(ConcurrentGolden, BatchedSmallCacheEvictions)
{
    // A 64-entry cache under a 512-page working set keeps the
    // insertMT eviction path busy.
    runGolden(64, 4, 0, true, 17);
}

// ---------------------------------------------------------------------
// PinManager: concurrent pin/unpin/lock hammering over one manager
// ---------------------------------------------------------------------

/** Stack pieces for driving PinManagers without a UserUtlb. */
struct PinStack {
    utlb::mem::PhysMemory phys;
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram;
    utlb::nic::NicTimings timings;
    HostCosts costs;
    SharedUtlbCache cache;
    UtlbDriver driver;
    std::unique_ptr<utlb::mem::AddressSpace> space;

    explicit PinStack(std::size_t frames = 8192)
        : phys(frames), sram(1u << 20),
          costs(HostProfile::PentiumIINT),
          cache(CacheConfig{1024, 1, true}, timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {
        cache.enableConcurrent();
        space = std::make_unique<utlb::mem::AddressSpace>(1, phys);
        driver.registerProcess(*space);
    }
};

TEST(ConcurrentPinManager, OverlappingEnsureReleaseAndLocks)
{
    PinStack stack;
    PinManagerConfig cfg;
    cfg.memLimitPages = 256;  // forces evictions under contention
    PinManager mgr(stack.driver, 1, cfg);
    mgr.enableConcurrent();

    constexpr unsigned kThreads = 4;
    constexpr int kOpsPerThread = 400;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&mgr, t] {
            // Overlapping 128-page windows: thread t works
            // [t*64, t*64 + 128), so each window is shared with its
            // neighbours and pages are pinned, released, and
            // send-locked by competing threads.
            Rng rng(0xabc0 + t);
            const Vpn base = t * 64;
            for (int op = 0; op < kOpsPerThread; ++op) {
                Vpn start = base + rng.below(96);
                std::size_t n = 1 + rng.below(32);
                switch (rng.below(4)) {
                case 0: {
                    EnsureResult r = mgr.ensurePinned(start, n);
                    // Under a shared budget a request can fail when
                    // competitors hold everything locked; it must
                    // never misreport success.
                    if (r.ok) {
                        EXPECT_GE(r.cost, r.pinCost + r.unpinCost);
                    }
                    break;
                }
                case 1:
                    mgr.releasePage(start);
                    break;
                case 2:
                    mgr.lockRange(start, n);
                    mgr.isLocked(start + n / 2);
                    mgr.unlockRange(start, n);
                    break;
                default:
                    mgr.isPinned(start);
                    mgr.pinnedPages();
                    break;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    // Quiescent: the bit vector, policy, kernel facility, and
    // outstanding-lock table must all agree.
    AuditReport report;
    mgr.audit(report);
    stack.driver.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    // All send-locks were released.
    EXPECT_FALSE(mgr.isLocked(0));
    if (cfg.memLimitPages != 0) {
        EXPECT_LE(mgr.pinnedPages(), cfg.memLimitPages);
    }
}

TEST(ConcurrentPinManager, PinPathVsCacheLookups)
{
    // One thread drives the pin/unpin slow path (whose unpins issue
    // stripe-locked cache invalidates) while others hammer lookups
    // and installs on the same cache sets: the §4 coherence rule —
    // an unpinned page's translation must not survive anywhere —
    // races directly against probes here.
    PinStack stack;
    PinManagerConfig cfg;
    cfg.memLimitPages = 64;
    PinManager mgr(stack.driver, 1, cfg);
    mgr.enableConcurrent();

    std::atomic<bool> stop{false};
    std::atomic<unsigned> ready{0};
    std::atomic<std::uint64_t> probes{0};

    std::vector<std::thread> lookers;
    for (unsigned t = 0; t < 3; ++t) {
        lookers.emplace_back([&stack, &stop, &ready, &probes, t] {
            SharedUtlbCache::Shard sh = stack.cache.makeShard();
            Rng rng(0x10c + t);
            std::uint64_t n = 0;
            do {
                Vpn vpn = rng.below(256);
                CacheProbe p = stack.cache.lookupMT(1, vpn, sh);
                if (!p.hit && rng.below(4) == 0) {
                    stack.cache.insertMT(1, vpn, 0x1000 + vpn,
                                         InsertMode::Demand, sh);
                }
                if (++n == 1)
                    ready.fetch_add(1, std::memory_order_release);
            } while (!stop.load(std::memory_order_relaxed));
            probes.fetch_add(n, std::memory_order_relaxed);
            stack.cache.absorbShard(sh);
        });
    }

    // On a loaded (or single-core) host the pin rounds below could
    // otherwise finish before the lookers ever get scheduled.
    while (ready.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();

    for (int round = 0; round < 200; ++round) {
        Vpn start = static_cast<Vpn>((round * 7) % 192);
        mgr.ensurePinned(start, 1 + (round % 16));
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &w : lookers)
        w.join();

    EXPECT_GT(probes.load(), 0u);
    AuditReport report;
    stack.cache.audit(report);
    mgr.audit(report);
    stack.driver.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------
// SharedUtlbCache: cross-thread probe/install/invalidate stress
// ---------------------------------------------------------------------

TEST(ConcurrentCache, SharedSetsStressAuditsClean)
{
    utlb::nic::NicTimings timings;
    SharedUtlbCache cache(CacheConfig{512, 1, true}, timings);
    cache.enableConcurrent();

    constexpr unsigned kThreads = 4;
    constexpr int kOps = 20000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            SharedUtlbCache::Shard sh = cache.makeShard();
            Rng rng(0x5ca1ab1e + t);
            std::vector<utlb::mem::Pfn> pfns(64);
            for (int op = 0; op < kOps; ++op) {
                // Two pids over one vpn window: with index
                // offsetting their sets interleave, so every stripe
                // sees cross-pid contention.
                utlb::mem::ProcId pid = 1 + rng.below(2);
                Vpn vpn = rng.below(1024);
                switch (rng.below(4)) {
                case 0:
                    cache.lookupMT(pid, vpn, sh);
                    break;
                case 1:
                    cache.insertMT(pid, vpn, 0x2000 + vpn,
                                   rng.below(4) == 0
                                       ? InsertMode::Prefetch
                                       : InsertMode::Demand,
                                   sh);
                    break;
                case 2:
                    cache.lookupRunMT(pid, vpn, 1 + rng.below(64),
                                      pfns.data(), nullptr, sh);
                    break;
                default:
                    cache.invalidate(pid, vpn);
                    break;
                }
            }
            cache.absorbShard(sh);
        });
    }
    for (auto &w : workers)
        w.join();

    // With every shard folded in, the audit's removal-taxonomy
    // conservation must balance exactly: each insertMT outcome was
    // classified under its stripe lock.
    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(cache.hits() + cache.misses(), 0u);
    EXPECT_GT(cache.insertions(), 0u);
}

TEST(ConcurrentCache, StampBlocksStayMonotonicPerWorker)
{
    // A worker's LRU stamps must be strictly increasing even across
    // stamp-block refills, or LRU decisions within one thread would
    // reorder. Driven via insertMT into distinct sets, then audited
    // (the audit checks every stamp against the use clock).
    utlb::nic::NicTimings timings;
    SharedUtlbCache cache(CacheConfig{4096, 1, true}, timings);
    cache.enableConcurrent();
    SharedUtlbCache::Shard sh = cache.makeShard();
    // More inserts than one 1024-stamp block to force refills.
    for (Vpn v = 0; v < 3000; ++v)
        cache.insertMT(1, v, 0x3000 + v, InsertMode::Demand, sh);
    cache.absorbShard(sh);
    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(cache.insertions(), 3000u);
}

// ---------------------------------------------------------------------
// Full stack: N processes translating in parallel
// ---------------------------------------------------------------------

TEST(ConcurrentStack, ParallelProcessesTranslateCoherently)
{
    constexpr unsigned kWorkers = 4;
    constexpr std::size_t kPagesPerWorker = 256;

    utlb::mem::PhysMemory phys(16384);
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram(4u << 20);
    utlb::nic::NicTimings timings;
    HostCosts costs(HostProfile::PentiumIINT);
    SharedUtlbCache cache(CacheConfig{8192, 1, true}, timings, &sram);
    UtlbDriver driver(phys, pins, sram, cache, costs);

    // Registration happens before any worker starts (quiescence rule).
    std::vector<std::unique_ptr<utlb::mem::AddressSpace>> spaces;
    std::vector<std::unique_ptr<UserUtlb>> views;
    for (unsigned t = 0; t < kWorkers; ++t) {
        auto pid = static_cast<utlb::mem::ProcId>(t + 1);
        spaces.push_back(
            std::make_unique<utlb::mem::AddressSpace>(pid, phys));
        driver.registerProcess(*spaces.back());
        UtlbConfig ucfg;
        ucfg.concurrent = true;
        ucfg.prefetchEntries = 8;
        ucfg.pin.memLimitPages = 128;  // forces unpin/invalidate races
        views.push_back(std::make_unique<UserUtlb>(
            driver, cache, timings, pid, ucfg));
    }

    std::vector<std::thread> workers;
    std::vector<std::size_t> pagesDone(kWorkers, 0);
    for (unsigned t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&views, &pagesDone, t] {
            UserUtlb &u = *views[t];
            Rng rng(0xdead + t);
            std::size_t done = 0;
            for (int call = 0; call < 200; ++call) {
                Vpn start = rng.below(kPagesPerWorker);
                std::size_t n = 1 + rng.below(32);
                Translation tr = u.translateRange(
                    start * utlb::mem::kPageSize,
                    n * utlb::mem::kPageSize);
                ASSERT_TRUE(tr.ok) << "worker " << t;
                ASSERT_EQ(tr.pageAddrs.size(), n);
                done += n;
            }
            pagesDone[t] = done;
        });
    }
    for (auto &w : workers)
        w.join();

    for (unsigned t = 0; t < kWorkers; ++t) {
        EXPECT_GT(pagesDone[t], 0u) << "worker " << t;
        views[t]->flushShardStats();
    }

    AuditReport report;
    cache.audit(report);
    driver.audit(report);
    for (auto &v : views)
        v->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();

    // Spot-check coherence after quiescing: every page a worker
    // still holds pinned translates to the same frame the kernel
    // facility recorded.
    for (unsigned t = 0; t < kWorkers; ++t) {
        auto pid = static_cast<utlb::mem::ProcId>(t + 1);
        const PinManager &mgr = views[t]->pinManager();
        for (Vpn v = 0; v < 8; ++v) {
            if (!mgr.isPinned(v))
                continue;
            EXPECT_TRUE(pins.isPinned(pid, v));
        }
    }
}

// ---------------------------------------------------------------------
// Driver sessions: evict-then-pin under one driver-mutex hold, racing
// tenant churn
// ---------------------------------------------------------------------

TEST(ConcurrentStack, EvictThenPinSessionsRaceTenantChurn)
{
    // Two views under a 64-page pin budget sweep 512 pages each, so
    // almost every lookup evicts and then pins inside one driver
    // session while the other view does the same. A third thread
    // registers, translates through and unregisters short-lived
    // tenants, rehashing the driver directory the views' miss path
    // no longer locks. Every translation must name the frame its
    // page is mapped to, and the stack must audit clean afterwards.
    constexpr unsigned kViews = 2;
    constexpr std::size_t kPages = 512;
    constexpr int kCalls = 1500;
    constexpr int kChurnCycles = 150;

    utlb::mem::PhysMemory phys(8192);
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram(4u << 20);
    utlb::nic::NicTimings timings;
    HostCosts costs(HostProfile::PentiumIINT);
    SharedUtlbCache cache(CacheConfig{1024, 4, true}, timings, &sram);
    UtlbDriver driver(phys, pins, sram, cache, costs);

    std::vector<std::unique_ptr<utlb::mem::AddressSpace>> spaces;
    std::vector<std::unique_ptr<UserUtlb>> views;
    for (unsigned t = 0; t < kViews; ++t) {
        auto pid = static_cast<utlb::mem::ProcId>(t + 1);
        spaces.push_back(
            std::make_unique<utlb::mem::AddressSpace>(pid, phys));
        driver.registerProcess(*spaces.back());
        UtlbConfig ucfg;
        ucfg.concurrent = true;
        ucfg.prefetchEntries = 4;
        ucfg.pin.memLimitPages = 64;
        views.push_back(std::make_unique<UserUtlb>(
            driver, cache, timings, pid, ucfg));
    }

    std::atomic<bool> stop{false};
    std::thread churn([&] {
        UtlbConfig ucfg;
        ucfg.concurrent = true;
        ucfg.prefetchEntries = 4;
        for (int i = 0; i < kChurnCycles
                        && !stop.load(std::memory_order_acquire);
             ++i) {
            auto pid = static_cast<utlb::mem::ProcId>(100 + i % 8);
            utlb::mem::AddressSpace space(pid, phys);
            driver.registerProcess(space);
            {
                UserUtlb view(driver, cache, timings, pid, ucfg);
                Translation tr =
                    view.translateRange(0, 4 * utlb::mem::kPageSize);
                EXPECT_TRUE(tr.ok) << "churn tenant " << pid;
            }
            driver.unregisterProcess(pid);
        }
    });

    std::vector<std::thread> workers;
    std::vector<std::size_t> unpins(kViews, 0);
    for (unsigned t = 0; t < kViews; ++t) {
        workers.emplace_back([&, t] {
            UserUtlb &u = *views[t];
            const utlb::mem::AddressSpace &space = *spaces[t];
            Rng rng(0x5e55 + t);
            for (int call = 0; call < kCalls; ++call) {
                Vpn start = rng.below(kPages);
                std::size_t n = 1 + rng.below(8);
                Translation tr = u.translateRange(
                    start * utlb::mem::kPageSize,
                    n * utlb::mem::kPageSize);
                ASSERT_TRUE(tr.ok) << "view " << t << " call " << call;
                ASSERT_EQ(tr.pageAddrs.size(), n);
                unpins[t] += tr.pagesUnpinned;
                // Only this thread maps pages into its own space, so
                // reading it here races nothing.
                for (std::size_t i = 0; i < n; ++i) {
                    auto pfn = space.lookup(start + i);
                    ASSERT_TRUE(pfn.has_value());
                    ASSERT_EQ(tr.pageAddrs[i],
                              utlb::mem::frameAddr(*pfn))
                        << "view " << t << " vpn " << start + i;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    stop.store(true, std::memory_order_release);
    churn.join();

    for (unsigned t = 0; t < kViews; ++t) {
        // The budget really forced evict-then-pin sessions.
        EXPECT_GT(unpins[t], static_cast<std::size_t>(kCalls))
            << "view " << t;
        views[t]->flushShardStats();
    }
    AuditReport report;
    cache.audit(report);
    driver.audit(report);
    for (auto &v : views)
        v->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

} // namespace
