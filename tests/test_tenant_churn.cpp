/**
 * @file
 * Many tenants on one NIC: the regression suite for the tenant-churn
 * resource lifecycles, and the index-offsetting fairness gate.
 *
 * A storm of short-lived tenants registers, translates, and tears
 * down through the driver while stable tenants keep translating
 * concurrently. The churn tests assert:
 *
 *  - NIC SRAM is fully recycled: every departed tenant's directory
 *    region is freed and reused (the SRAM allocator is sized so a
 *    leak of a handful of regions aborts the test);
 *  - the driver's stat tree drops departed tenants' host_table
 *    groups (no stat-tree leak);
 *  - the pin facility conserves: departed tenants hold no pins, and
 *    the post-storm audits (cache, pins, live pin managers) are
 *    clean;
 *  - at 64 tenants on four threads, per-tenant tallies add up to the
 *    cache's and the driver's totals, and no pin fails.
 *
 * The fairness gate: index offsetting strictly reduces cross-tenant
 * conflict evictions on a crafted workload of 2 and of 64 tenants,
 * at associativities 1, 2, and 4, sequentially and concurrently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"

namespace {

using utlb::NodeStack;
using namespace utlb::core;
using utlb::mem::kPageSize;
using utlb::mem::Pfn;
using utlb::mem::ProcId;
using utlb::mem::VirtAddr;
using utlb::mem::Vpn;
using utlb::nic::NicTimings;
using utlb::nic::Sram;
using utlb::sim::Rng;

/** Live "host_table<pid>" groups in @p driver's stat tree. */
std::size_t
statTreeTables(UtlbDriver &driver)
{
    std::ostringstream os;
    driver.stats().dumpJson(os);
    const std::string dump = os.str();
    std::size_t n = 0;
    for (std::size_t pos = dump.find("\"host_table");
         pos != std::string::npos;
         pos = dump.find("\"host_table", pos + 1))
        ++n;
    return n;
}

/**
 * Concurrent fleet stack with a deliberately tight SRAM: the cache
 * claims 4 KB and each registered tenant's directory claims 4 KB, so
 * 32 KB holds the cache, two stable tenants, and a few in-flight
 * churn tenants — but not a leak. Before Sram::free existed, ~5
 * churn cycles exhausted this and the register fataled.
 */
class ChurnStack : public ::testing::Test, protected NodeStack
{
  protected:
    static constexpr unsigned kStableTenants = 2;

    ChurnStack() : NodeStack({1024, 1, true}, 8192, 32u << 10)
    {
        ucfg.prefetchEntries = 8;
        ucfg.concurrent = true;
        for (unsigned i = 0; i < kStableTenants; ++i)
            views.push_back(attach(i + 1, ucfg));
    }

    /** One short-lived tenant: register, translate, tear down. */
    void
    churnCycle(ProcId pid)
    {
        Tenant churn = attach(pid, ucfg);
        for (int w = 0; w < 4; ++w) {
            auto t = churn.utlb->translateRange(
                static_cast<VirtAddr>(w) * 4 * kPageSize, 4 * kPageSize);
            ASSERT_TRUE(t.ok);
        }
        churn.utlb.reset();
        driver.unregisterProcess(pid);
        ASSERT_EQ(pins.pinnedPages(pid), 0u)
            << "departed tenant still holds pins";
    }

    UtlbConfig ucfg;
    std::vector<Tenant> views;
};

TEST_F(ChurnStack, SequentialChurnRecyclesSramExactly)
{
    const std::size_t baseline = sram.used();
    for (int i = 0; i < 200; ++i) {
        churnCycle(static_cast<ProcId>(100 + i));
        ASSERT_EQ(sram.used(), baseline)
            << "SRAM leak after churn cycle " << i;
    }
    EXPECT_EQ(statTreeTables(driver), kStableTenants);
    // The allocator's observability: 200 frees of 4 KB regions.
    std::ostringstream os;
    sram.stats().dumpJson(os);
    EXPECT_NE(os.str().find("region_frees"), std::string::npos);
    EXPECT_NE(os.str().find("freed_bytes"), std::string::npos);
}

TEST_F(ChurnStack, TeardownStormUnderConcurrentLoad)
{
    const std::size_t baseline = sram.used();
    std::atomic<bool> stop{false};

    // Stable tenants hammer the shared cache and their pin managers
    // while the storm churns; their lines are invalidated under them
    // whenever a churn tenant collides in the cache.
    std::vector<std::thread> stable;
    for (unsigned i = 0; i < kStableTenants; ++i) {
        stable.emplace_back([this, i, &stop] {
            UserUtlb &view = *views[i].utlb;
            while (!stop.load(std::memory_order_acquire)) {
                for (int w = 0; w < 8; ++w) {
                    auto t = view.translateRange(
                        static_cast<VirtAddr>(w) * 8 * kPageSize,
                        8 * kPageSize);
                    if (!t.ok)
                        return; // surfaces as a failed audit below
                }
            }
        });
    }

    constexpr int kCycles = 1000;
    std::thread storm([this] {
        for (int i = 0; i < kCycles; ++i)
            churnCycle(static_cast<ProcId>(1000 + i));
    });
    storm.join();
    stop.store(true, std::memory_order_release);
    for (auto &t : stable)
        t.join();

    // Quiesce and check every conservation property.
    EXPECT_EQ(audit(views), "");
    EXPECT_EQ(sram.used(), baseline) << "SRAM leaked across "
                                     << kCycles << " churn cycles";
    EXPECT_EQ(statTreeTables(driver), kStableTenants)
        << "driver stat tree leaked host_table groups";

    // Spot-check departed tenants left nothing pinned.
    for (int i = 0; i < kCycles; i += 97)
        EXPECT_EQ(pins.pinnedPages(static_cast<ProcId>(1000 + i)),
                  0u);
}

TEST_F(ChurnStack, ReRegisterAfterTeardownKeepsWorking)
{
    // The erase-and-reinsert path: a pid that detaches and re-attaches gets a
    // fresh table, fresh SRAM directory, and a clean stat subtree.
    for (int round = 0; round < 3; ++round) {
        Tenant t = attach(777, ucfg);
        ASSERT_TRUE(t.utlb->translateRange(0, 4 * kPageSize).ok);
        t.utlb.reset();
        driver.unregisterProcess(777);
    }
    EXPECT_EQ(statTreeTables(driver), kStableTenants);
}

TEST_F(ChurnStack, IsRegisteredIsSafeDuringChurn)
{
    // isRegistered() probes the driver directory, which every
    // register/unregister may rehash. A reader thread queries it
    // throughout a churn storm: the stable tenants must always read
    // registered, and the query must not race the rehash (the test
    // runs under TSan in CI).
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> wrong{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (unsigned i = 0; i < kStableTenants; ++i)
                if (!driver.isRegistered(static_cast<ProcId>(i + 1)))
                    wrong.fetch_add(1, std::memory_order_relaxed);
            for (ProcId pid = 2000; pid < 2004; ++pid)
                (void)driver.isRegistered(pid);
        }
    });

    for (int i = 0; i < 300; ++i)
        churnCycle(static_cast<ProcId>(2000 + i % 4));
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(wrong.load(std::memory_order_relaxed), 0u);
    for (ProcId pid = 2000; pid < 2004; ++pid)
        EXPECT_FALSE(driver.isRegistered(pid));
}

/**
 * A fleet-shaped storm: 64 tenants on four threads, each thread
 * owning 16, over one 4096-entry direct-mapped cache with index
 * offsetting. Every tenant has four 32-page buffers under its own
 * 48-page pin budget, so switching buffers evicts before it pins. On
 * about 5% of its ops a worker toggles one of its tenants: a live one
 * is torn down through the driver, a departed one registers again.
 * Every other op translates a random buffer of one of the worker's
 * tenants, registering the tenant first if it had left.
 */
TEST(TenantChurn, SixtyFourTenantStormConserves)
{
    constexpr std::size_t kTenants = 64;
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kPerThread = kTenants / kThreads;
    constexpr std::size_t kBuffers = 4;
    constexpr std::size_t kBufferPages = 32;
    constexpr int kOps = 1500;
    constexpr double kChurn = 0.05;

    // Frames for every tenant's whole working set plus its page-table
    // leaf; a 4 KB SRAM directory per tenant beside the cache.
    NodeStack stack({4096, 1, true},
                    kTenants * (kBuffers * kBufferPages + 2) + 4096,
                    kTenants * 4096 + (1u << 20));
    const std::size_t sramBaseline = stack.sram.used();
    UtlbConfig ucfg;
    ucfg.prefetchEntries = 8;
    ucfg.concurrent = true;
    ucfg.pin.memLimitPages = 48;

    struct Tally {
        std::uint64_t pages = 0;
        std::uint64_t niMisses = 0;
        std::uint64_t pagesPinned = 0;
        std::uint64_t failures = 0;
        std::uint64_t attaches = 0;
        std::uint64_t detaches = 0;
    };
    std::vector<NodeStack::Tenant> tenants(kTenants);
    std::vector<Tally> tally(kTenants);
    auto attach = [&](std::size_t t) {
        tenants[t] = stack.attach(static_cast<ProcId>(t + 1), ucfg);
        ++tally[t].attaches;
    };
    auto detach = [&](std::size_t t) {
        tenants[t].utlb.reset();
        stack.driver.unregisterProcess(static_cast<ProcId>(t + 1));
        tenants[t].space.reset();
        ++tally[t].detaches;
    };

    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
            Rng rng(42 + w);
            const std::size_t first = w * kPerThread;
            for (std::size_t t = first; t < first + kPerThread; ++t)
                attach(t);
            for (int op = 0; op < kOps; ++op) {
                std::size_t t = first + rng.below(kPerThread);
                if (rng.chance(kChurn)) {
                    if (tenants[t].utlb)
                        detach(t);
                    else
                        attach(t);
                    continue;
                }
                if (!tenants[t].utlb)
                    attach(t);
                VirtAddr va = static_cast<VirtAddr>(rng.below(kBuffers))
                    * kBufferPages * kPageSize;
                Translation tr = tenants[t].utlb->translateRange(
                    va, kBufferPages * kPageSize);
                tally[t].pages += tr.pageAddrs.size();
                tally[t].niMisses += tr.niMisses;
                tally[t].pagesPinned += tr.pagesPinned;
                tally[t].failures += tr.ok ? 0 : 1;
            }
        });
    }
    for (auto &w : workers)
        w.join();

    std::size_t live = 0;
    Tally sum;
    for (std::size_t t = 0; t < kTenants; ++t) {
        live += tenants[t].utlb ? 1 : 0;
        sum.pages += tally[t].pages;
        sum.niMisses += tally[t].niMisses;
        sum.pagesPinned += tally[t].pagesPinned;
        sum.failures += tally[t].failures;
        sum.attaches += tally[t].attaches;
        sum.detaches += tally[t].detaches;
    }
    // The storm really churned and really translated.
    ASSERT_GT(sum.detaches, 50u);
    ASSERT_EQ(sum.attaches - sum.detaches, live);
    ASSERT_GT(sum.pages, 100000u);

    // Quiescent: the audit flushes every live view's shards, and the
    // departed views flushed theirs when they were destroyed.
    EXPECT_EQ(stack.audit(tenants), "");
    EXPECT_EQ(sum.failures, 0u) << "translations failed to pin";
    EXPECT_EQ(stack.pins.totalFailedPins(), 0u);
    EXPECT_EQ(statTreeTables(stack.driver), live)
        << "stat tree holds a host_table group per departed tenant";

    // Per-tenant tallies add up to the shared totals.
    EXPECT_EQ(sum.pages, stack.cache.hits() + stack.cache.misses());
    EXPECT_EQ(sum.niMisses, stack.cache.misses());
    EXPECT_EQ(sum.pagesPinned, stack.driver.pagesPinned());

    // Everyone leaves through the path churn used.
    for (std::size_t t = 0; t < kTenants; ++t)
        if (tenants[t].utlb)
            detach(t);
    EXPECT_EQ(stack.audit(), "");
    EXPECT_EQ(statTreeTables(stack.driver), 0u);
    EXPECT_EQ(stack.sram.used(), sramBaseline);
}

// ---------------------------------------------------------------------
// Index offsetting against cross-tenant conflict
// ---------------------------------------------------------------------

/**
 * Crafted conflict workload: every tenant sweeps `assoc` vpn ranges
 * that alias into the same window of sets, in turn, whole sweeps at a
 * time (tenant 1 fills the window's ways, then tenant 2 sweeps it,
 * and so on, then tenant 1 again). Each tenant's assoc aliases
 * exactly fill an assoc-way set, so without offsetting every sweep
 * after the first must evict another tenant's resident lines: a pure
 * cross-tenant conflict storm. Offsetting shifts the tenants' windows
 * apart, so each tenant's lines mostly survive the others' sweeps and
 * cross-tenant evictions collapse. The phase order matters:
 * interleaving the tenants per-vpn instead would make the LRU victim
 * the *same* tenant's older alias and hide the pollution this test
 * pins.
 */
constexpr int kConflictRounds = 4;

/**
 * The storm above for @p tenants tenants on a cache of 128 entries
 * per tenant, each sweeping a window of sets/(2 * tenants) sets: with
 * two tenants, a 256-entry cache and a quarter of its sets. With
 * @p threads the tenants run on up to four threads through the
 * concurrent probe and insert paths, one shard per tenant, handing
 * the window on along a phase counter so the sweep order (and hence
 * the victim pattern) is the sequential one.
 */
std::uint64_t
crossEvictions(unsigned tenants, unsigned assoc, bool offsetting,
               bool threads)
{
    NicTimings timings;
    const std::size_t entries = std::size_t{128} * tenants;
    SharedUtlbCache cache(CacheConfig{entries, assoc, offsetting},
                          timings, nullptr);
    if (threads)
        cache.enableConcurrent();
    const std::size_t sets = entries / assoc;
    const std::size_t window = sets / (2 * tenants);
    auto sweep = [&](ProcId pid, SharedUtlbCache::Shard *sh) {
        for (std::size_t v = 0; v < window; ++v) {
            for (unsigned r = 0; r < assoc; ++r) {
                Vpn vpn = static_cast<Vpn>(r * sets + v);
                if (!cache.lookup(pid, vpn, sh).hit)
                    cache.insert(pid, vpn,
                                 static_cast<Pfn>(vpn + pid * 4096),
                                 InsertMode::Demand, sh);
            }
        }
    };
    if (!threads) {
        for (int round = 0; round < kConflictRounds; ++round)
            for (unsigned t = 0; t < tenants; ++t)
                sweep(t + 1, nullptr);
        return cache.crossTenantEvictions();
    }
    const unsigned nthreads = std::min(tenants, 4u);
    std::atomic<unsigned> phase{0};
    auto worker = [&](unsigned w) {
        std::vector<SharedUtlbCache::Shard> shards;
        for (unsigned t = w; t < tenants; t += nthreads)
            shards.push_back(cache.makeShard());
        for (int round = 0; round < kConflictRounds; ++round) {
            for (unsigned t = w, i = 0; t < tenants; t += nthreads, ++i) {
                unsigned myPhase = round * tenants + t;
                while (phase.load(std::memory_order_acquire) != myPhase)
                    std::this_thread::yield();
                sweep(t + 1, &shards[i]);
                phase.fetch_add(1, std::memory_order_acq_rel);
            }
        }
        for (SharedUtlbCache::Shard &sh : shards)
            cache.absorbShard(sh);
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < nthreads; ++w)
        pool.emplace_back(worker, w);
    for (std::thread &th : pool)
        th.join();
    return cache.crossTenantEvictions();
}

/** Offsetting on beats off at every associativity, and off really
 *  conflicts: the contested-window shape guarantees heavy conflict
 *  when the tenants share sets. */
void
expectOffsettingCutsCrossEvictions(unsigned tenants, bool threads)
{
    for (unsigned assoc : {1u, 2u, 4u}) {
        std::uint64_t off = crossEvictions(tenants, assoc, false, threads);
        std::uint64_t on = crossEvictions(tenants, assoc, true, threads);
        EXPECT_LT(on, off) << "assoc " << assoc;
        EXPECT_GT(off, 50u * tenants) << "assoc " << assoc;
    }
}

TEST(IndexOffsetting, StrictlyReducesCrossTenantEvictionsSequential)
{
    expectOffsettingCutsCrossEvictions(2, false);
}

TEST(IndexOffsetting, StrictlyReducesCrossTenantEvictionsConcurrent)
{
    expectOffsettingCutsCrossEvictions(2, true);
}

TEST(IndexOffsetting, SixtyFourTenantsSequential)
{
    expectOffsettingCutsCrossEvictions(64, false);
}

TEST(IndexOffsetting, SixtyFourTenantsConcurrent)
{
    expectOffsettingCutsCrossEvictions(64, true);
}

} // namespace
