/**
 * @file
 * Concurrency suite: race hammering.
 *
 * Concurrent mode (UtlbConfig::concurrent) promises two things:
 *
 *  1. With a single worker it runs the same cache operation bodies
 *     as the sequential path, so results, modeled costs and the
 *     stats tree are bit-identical; the executable spec
 *     (test_spec.cpp) holds its Striped configurations to that.
 *
 *  2. With many workers it is *safe*: overlapping pins, unpins,
 *     send-locks, probes, and miss-fill installs from concurrent
 *     threads leave every structure coherent. The hammer tests here
 *     run real threads over shared PinManagers, the shared cache,
 *     and full multi-process stacks, then re-derive the invariants
 *     with the auditors. Run them under UTLB_SANITIZE=thread to turn
 *     the suite into a race detector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/pin_manager.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace {

using namespace utlb::core;
using utlb::check::AuditReport;
using utlb::mem::Vpn;
using utlb::sim::Rng;

// ---------------------------------------------------------------------
// PinManager: concurrent pin/unpin/lock hammering over one manager
// ---------------------------------------------------------------------

/** Stack pieces for driving PinManagers without a UserUtlb. */
struct PinStack : utlb::NodeStack {
    std::unique_ptr<utlb::mem::AddressSpace> space;

    explicit PinStack(std::size_t frames = 8192)
        : NodeStack({1024, 1, true}, frames)
    {
        cache.enableConcurrent();
        space = std::make_unique<utlb::mem::AddressSpace>(1, physMem);
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
                CacheProbe p = stack.cache.lookup(1, vpn, &sh);
                if (!p.hit && rng.below(4) == 0) {
                    stack.cache.insert(1, vpn, 0x1000 + vpn,
                                       InsertMode::Demand, &sh);
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
                    cache.lookup(pid, vpn, &sh);
                    break;
                case 1:
                    cache.insert(pid, vpn, 0x2000 + vpn,
                                 rng.below(4) == 0
                                     ? InsertMode::Prefetch
                                     : InsertMode::Demand,
                                 &sh);
                    break;
                case 2:
                    cache.lookupRun(pid, vpn, 1 + rng.below(64),
                                    pfns.data(), &sh);
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
    // conservation must balance exactly: each insert's outcome was
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
    // reorder. Driven via concurrent inserts into a 4-way cache (a
    // direct-mapped one draws no stamps at all), then audited (the
    // audit checks every stamp against the use clock).
    utlb::nic::NicTimings timings;
    SharedUtlbCache cache(CacheConfig{4096, 4, true}, timings);
    cache.enableConcurrent();
    SharedUtlbCache::Shard sh = cache.makeShard();
    // More inserts than one 1024-stamp block to force refills.
    for (Vpn v = 0; v < 3000; ++v)
        cache.insert(1, v, 0x3000 + v, InsertMode::Demand, &sh);
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

    utlb::NodeStack node({8192, 1, true}, 16384, 4u << 20);
    auto &[costs, timings, phys, pins, sram, cache, driver] = node;

    // Registration happens before any worker starts (quiescence rule).
    UtlbConfig ucfg;
    ucfg.concurrent = true;
    ucfg.prefetchEntries = 8;
    ucfg.pin.memLimitPages = 128;  // forces unpin/invalidate races
    std::vector<utlb::NodeStack::Tenant> views;
    for (unsigned t = 0; t < kWorkers; ++t)
        views.push_back(node.attach(t + 1, ucfg));

    std::vector<std::thread> workers;
    std::vector<std::size_t> pagesDone(kWorkers, 0);
    for (unsigned t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&views, &pagesDone, t] {
            UserUtlb &u = *views[t].utlb;
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

    for (unsigned t = 0; t < kWorkers; ++t)
        EXPECT_GT(pagesDone[t], 0u) << "worker " << t;
    EXPECT_EQ(node.audit(views), "");

    // Spot-check coherence after quiescing: every page a worker
    // still holds pinned translates to the same frame the kernel
    // facility recorded.
    for (unsigned t = 0; t < kWorkers; ++t) {
        auto pid = static_cast<utlb::mem::ProcId>(t + 1);
        const PinManager &mgr = views[t].utlb->pinManager();
        for (Vpn v = 0; v < 8; ++v) {
            if (!mgr.isPinned(v))
                continue;
            EXPECT_TRUE(pins.isPinned(pid, v));
        }
    }
}

// ---------------------------------------------------------------------
// Driver sessions: one process' evict-then-pin under its own session
// lock, independent of other processes' sessions and of tenant churn
// ---------------------------------------------------------------------

TEST(ConcurrentStack, EvictThenPinSessionsRaceTenantChurn)
{
    // Three views under a 64-page pin budget sweep 512 pages each, so
    // almost every lookup evicts and then pins inside one driver
    // session while the other views do the same. A fourth thread
    // registers, translates through and unregisters short-lived
    // tenants for as long as the views run, rehashing the driver
    // directory the views' sessions and miss path no longer probe.
    // Every translation must name the frame its page is mapped to,
    // and the stack must audit clean afterwards.
    constexpr unsigned kViews = 3;
    constexpr std::size_t kPages = 512;
    constexpr int kCalls = 1500;
    // Each view also keeps going until this many tenants have
    // unregistered since it started.
    constexpr int kChurnDuring = 4;

    utlb::NodeStack node({1024, 4, true}, 8192, 4u << 20);
    auto &[costs, timings, phys, pins, sram, cache, driver] = node;

    UtlbConfig ucfg;
    ucfg.concurrent = true;
    ucfg.prefetchEntries = 4;
    ucfg.pin.memLimitPages = 64;
    std::vector<utlb::NodeStack::Tenant> views;
    for (unsigned t = 0; t < kViews; ++t)
        views.push_back(node.attach(t + 1, ucfg));

    std::atomic<bool> stop{false};
    std::atomic<int> unregistered{0};
    std::thread churn([&] {
        UtlbConfig churnCfg = ucfg;
        churnCfg.pin.memLimitPages = 0;
        for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
            auto pid = static_cast<utlb::mem::ProcId>(100 + i % 8);
            auto t = node.attach(pid, churnCfg);
            Translation tr =
                t.utlb->translateRange(0, 4 * utlb::mem::kPageSize);
            EXPECT_TRUE(tr.ok) << "churn tenant " << pid;
            t.utlb.reset();
            driver.unregisterProcess(pid);
            unregistered.fetch_add(1, std::memory_order_release);
        }
    });

    std::vector<std::thread> workers;
    std::vector<std::size_t> unpins(kViews, 0);
    for (unsigned t = 0; t < kViews; ++t) {
        workers.emplace_back([&, t] {
            UserUtlb &u = *views[t].utlb;
            const utlb::mem::AddressSpace &space = *views[t].space;
            Rng rng(0x5e55 + t);
            const int churnedBefore =
                unregistered.load(std::memory_order_acquire);
            for (int call = 0;
                 call < kCalls
                 || unregistered.load(std::memory_order_acquire)
                        < churnedBefore + kChurnDuring;
                 ++call) {
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

    // The budget really forced evict-then-pin sessions.
    for (unsigned t = 0; t < kViews; ++t)
        EXPECT_GT(unpins[t], static_cast<std::size_t>(kCalls)) << t;
    EXPECT_EQ(node.audit(views), "");
}

TEST(ConcurrentStack, OpenSessionDoesNotBlockAnotherProcess)
{
    // Thread A holds pid 1's driver session open; pid 2's lookup on
    // thread B must still evict and pin through its own session. A
    // session on one process locks that process alone, whether it
    // counts into a shard (a concurrent view's) or not (which holds
    // the registry lock as well).
    using namespace std::chrono_literals;
    for (bool sharded : {true, false}) {
        SCOPED_TRACE(sharded ? "holder with a shard" : "holder without");
        utlb::NodeStack node({256, 1, true}, 4096);
        UtlbConfig ucfg;
        ucfg.concurrent = true;
        ucfg.pin.memLimitPages = 4;
        std::vector<utlb::NodeStack::Tenant> views;
        views.push_back(node.attach(1, ucfg));
        views.push_back(node.attach(2, ucfg));
        UserUtlb &b = *views[1].utlb;
        // Fill pid 2's budget: its next miss must evict, then pin.
        ASSERT_TRUE(b.translateRange(0, 4 * utlb::mem::kPageSize).ok);

        UtlbDriver::Process *p1 = node.driver.processShared(1);
        ASSERT_NE(p1, nullptr);
        std::promise<void> held, release;
        std::thread holder([&] {
            UtlbDriver::Shard shard = node.driver.makeShard();
            {
                UtlbDriver::Session s(*p1, sharded ? &shard : nullptr);
                held.set_value();
                release.get_future().wait();
            }
            node.driver.absorbShard(shard);
        });
        held.get_future().wait();

        auto lookup = std::async(std::launch::async, [&b] {
            return b.translateRange(16 * utlb::mem::kPageSize,
                                    2 * utlb::mem::kPageSize);
        });
        std::future_status st = lookup.wait_for(10s);
        release.set_value();
        holder.join();
        ASSERT_EQ(st, std::future_status::ready)
            << "pid 2's session waited on pid 1's";
        Translation tr = lookup.get();
        EXPECT_TRUE(tr.ok);
        EXPECT_EQ(tr.pagesUnpinned, 2u);
        EXPECT_EQ(tr.pagesPinned, 2u);
        EXPECT_EQ(node.audit(views), "");
    }
}

} // namespace
