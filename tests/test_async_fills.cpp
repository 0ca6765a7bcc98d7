/**
 * @file
 * Asynchronous miss service suite: UtlbConfig::asyncFills, the
 * cross-window outstanding-fill model, and the miss-service
 * bookkeeping shared with the synchronous path.
 *
 * Consistency — translateRange() with asyncFills returns the same
 * ok/pageAddrs and host-half accounting as without — is held by the
 * executable spec (test_spec.cpp); modeled NIC costs differ by design:
 * DMA ticks run on the modeled fill engines and only stalls on a busy
 * engine are charged. The promises under test here:
 *
 *  1. Determinism — posted fills are serviced by the walking thread
 *     at the end of the walk, in post order, so the hit/miss split,
 *     the coalescing counts, and the modeled costs are a pure
 *     function of the window sequence.
 *  2. Carry — a fill's modeled DMA outlives its window, and a later
 *     window that needs the engine early pays the residual.
 *  3. Safety — async windows racing another worker's pin churn and
 *     stripe invalidates leave every structure coherent (run under
 *     UTLB_SANITIZE=thread).
 *
 * The serviceMiss tests pin the fault-repair splice: a wide fetch
 * whose neighbours are valid around an invalid first entry installs
 * and counts each transferred entry exactly once.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "spec/spec_runner.hpp"

namespace {

using namespace utlb::core;
using utlb::check::AuditReport;
using utlb::mem::Vpn;
using utlb::sim::Rng;

/** One NIC stack with @p nprocs registered processes. */
struct Stack : utlb::NodeStack {
    std::vector<std::unique_ptr<utlb::mem::AddressSpace>> spaces;

    explicit Stack(std::size_t entries = 1024,
                   std::size_t nprocs = 1)
        : NodeStack({entries, 1, true}, 16384, 4u << 20)
    {
        for (std::size_t p = 1; p <= nprocs; ++p) {
            spaces.push_back(
                std::make_unique<utlb::mem::AddressSpace>(p, physMem));
            driver.registerProcess(*spaces.back());
        }
    }

    std::unique_ptr<UserUtlb>
    makeView(utlb::mem::ProcId pid, const UtlbConfig &cfg)
    {
        return std::make_unique<UserUtlb>(driver, cache, timings,
                                          pid, cfg);
    }
};

/** A concurrent-mode config with asynchronous fills. */
UtlbConfig
asyncConfig(std::size_t prefetch)
{
    UtlbConfig cfg;
    cfg.concurrent = true;
    cfg.asyncFills = true;
    cfg.prefetchEntries = prefetch;
    return cfg;
}

/** Counter value by name from a UserUtlb's stats subtree. */
std::uint64_t
counterValue(UserUtlb &u, const char *name)
{
    const auto *stat = u.stats().find(name);
    EXPECT_NE(stat, nullptr) << name;
    return stat ? static_cast<const utlb::sim::Counter *>(stat)
                      ->value()
                : 0;
}

/** A window of @p npages pages starting at page @p base. */
Translation
window(UserUtlb &v, Vpn base, std::size_t npages)
{
    return v.translateRange(base * utlb::mem::kPageSize,
                            npages * utlb::mem::kPageSize);
}

// ---------------------------------------------------------------------
// UserUtlb asynchronous miss path
// ---------------------------------------------------------------------

TEST(AsyncMissPath, ColdWindowPostsCoalescesAndCounts)
{
    // A cold 64-page window with prefetch 8 posts exactly one fill
    // per 8-page stride: each stride's first page misses and posts,
    // and its other 7 pages miss inside the posted fill's width, so
    // they coalesce (8 x 7 = 56) and re-probe once the fills land.
    // The outstanding window (8 fills) is never exhausted.
    Stack st;
    auto view = st.makeView(1, asyncConfig(8));

    Translation t = window(*view, 0, 64);
    ASSERT_TRUE(t.ok);
    EXPECT_EQ(t.pageAddrs.size(), 64u);
    EXPECT_EQ(t.niMisses, 64u);
    EXPECT_EQ(counterValue(*view, "async_fills"), 8u);
    EXPECT_EQ(counterValue(*view, "async_coalesced"), 56u);
    EXPECT_EQ(counterValue(*view, "async_sync_fallbacks"), 0u);
    EXPECT_GT(counterValue(*view, "async_hidden_ticks"), 0u);

    // The fills' installs are visible: every page of the window now
    // hits, and the structures agree.
    for (Vpn v = 0; v < 64; ++v)
        EXPECT_TRUE(st.cache.lookup(1, v).hit) << "vpn " << v;
    view->flushShardStats();
    EXPECT_EQ(st.audit(), "");
}

TEST(AsyncMissPath, OutstandingWindowExhaustionFallsBackSync)
{
    // prefetch 1 means no coalescing: a cold 64-page window has 64
    // misses but only 8 outstanding-fill slots, so the rest must be
    // serviced synchronously in place.
    Stack st;
    auto view = st.makeView(1, asyncConfig(1));

    Translation t = window(*view, 0, 64);
    ASSERT_TRUE(t.ok);
    EXPECT_EQ(counterValue(*view, "async_fills"), 8u);
    EXPECT_EQ(counterValue(*view, "async_coalesced"), 0u);
    EXPECT_EQ(counterValue(*view, "async_sync_fallbacks"), 56u);
}

/** Serialize a stack's cache, driver, and pin stats plus a view's. */
std::string
statsDump(Stack &st, UserUtlb &view)
{
    view.flushShardStats();
    utlb::sim::StatGroup root{"stack"};
    root.adopt(st.cache.stats());
    root.adopt(st.driver.stats());
    root.adopt(st.pins.stats());
    root.adopt(view.stats());
    std::ostringstream os;
    root.dumpJson(os);
    return os.str();
}

TEST(AsyncMissPath, DeterministicAcrossFreshStacks)
{
    // The same async window sequence on two fresh stacks: every
    // call's result, and the final stats dumps, must be identical. The sequence mixes a cold window, capacity
    // misses (the working set is twice the 256-entry cache), and
    // repeats, so coalescing, fallbacks, and carried fills all fire.
    auto run = [](Stack &st, std::vector<Translation> &out,
                  std::uint64_t &coldCoalesced) {
        auto view = st.makeView(1, asyncConfig(8));
        out.push_back(window(*view, 0, 64));
        coldCoalesced = counterValue(*view, "async_coalesced");
        Rng rng(0xde7e);
        for (int call = 0; call < 200; ++call) {
            Vpn start = rng.below(512);
            std::size_t n = 1 + rng.below(96);
            out.push_back(window(*view, start, n));
        }
        return statsDump(st, *view);
    };

    Stack a(256), b(256);
    std::vector<Translation> ra, rb;
    std::uint64_t coldA = 0, coldB = 0;
    std::string dumpA = run(a, ra, coldA);
    std::string dumpB = run(b, rb, coldB);

    // The cold first window coalesces by hand count: 64 missing
    // pages in 8-page strides, 8 posted fills, 7 covered pages each.
    ASSERT_TRUE(ra[0].ok);
    EXPECT_EQ(ra[0].niMisses, 64u);
    EXPECT_EQ(coldA, 56u);
    EXPECT_EQ(coldB, 56u);

    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        ASSERT_EQ(utlb::spec::diff(ra[i], rb[i]), "") << "call " << i;
    EXPECT_EQ(dumpA, dumpB);
}

TEST(AsyncMissPath, FillsVsPinChurnStressAuditsClean)
{
    // Two workers (own pids, own pin managers under a tight pin
    // budget) drive async translateRange loops: each worker's fill
    // installs race the other's budget-forced unpins' stripe
    // invalidates, and each pid's ioctls run under its own driver
    // session lock. Run
    // under UTLB_SANITIZE=thread to make this a race detector.
    UtlbConfig cfg = asyncConfig(8);
    cfg.pin.memLimitPages = 96;

    Stack st(512, 2);
    auto v1 = st.makeView(1, cfg);
    auto v2 = st.makeView(2, cfg);

    auto work = [](UserUtlb &view, std::uint64_t seed) {
        Rng rng(seed);
        for (int it = 0; it < 200; ++it)
            window(view, rng.below(512), 1 + rng.below(32));
    };
    std::thread w1([&] { work(*v1, 0x111); });
    std::thread w2([&] { work(*v2, 0x222); });
    w1.join();
    w2.join();

    v1->flushShardStats();
    v2->flushShardStats();
    AuditReport report;
    st.cache.audit(report);
    st.driver.audit(report);
    v1->pinManager().audit(report);
    v2->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------
// Cross-window outstanding fills
// ---------------------------------------------------------------------

/**
 * The all-miss shape the carry tests share: prefetch 1 (a fill
 * covers only its own page, so nothing coalesces) and 8-page windows
 * (exactly the 8 outstanding-fill slots, so nothing falls back). The
 * hit/probe cost is shrunk so a window's modeled service (8 x
 * 0.01 us of probes) ends long before its fills' DMAs (~1.8 us
 * each) — the carried-residue regime.
 */
Stack &
carryShape(Stack &st)
{
    st.timings.cacheHitCost = utlb::sim::usToTicks(0.01);
    return st;
}

TEST(CrossWindowFills, CarryChangesAccountingNotResults)
{
    // A capacity-miss stream (working set twice the cache) replayed
    // through a synchronous and an async stack: every call's
    // ok/pageAddrs must be identical — carrying fills across windows
    // moves modeled cost between windows, never changes what a
    // window returns — and the async run actually carries.
    Stack syncSt(256), asyncSt(256);
    carryShape(syncSt);
    carryShape(asyncSt);
    UtlbConfig syncCfg;
    syncCfg.concurrent = true;
    auto syncView = syncSt.makeView(1, syncCfg);
    auto asyncView = asyncSt.makeView(1, asyncConfig(1));

    // Two passes over 512 pages through a 256-entry direct-mapped
    // cache: every window of every pass is all-miss.
    for (int pass = 0; pass < 2; ++pass) {
        for (Vpn w = 0; w < 512; w += 8) {
            Translation a = window(*syncView, w, 8);
            Translation b = window(*asyncView, w, 8);
            ASSERT_EQ(a.ok, b.ok) << "window " << w;
            ASSERT_EQ(a.pageAddrs, b.pageAddrs) << "window " << w;
            ASSERT_EQ(a.missPages, b.missPages) << "window " << w;
            ASSERT_LT(b.nicCost, a.nicCost) << "window " << w;
        }
    }
    EXPECT_GT(counterValue(*asyncView, "async_carried_fills"), 0u);
    EXPECT_EQ(counterValue(*asyncView, "async_sync_fallbacks"), 0u);
}

TEST(CrossWindowFills, LaterWindowPaysCarriedResidual)
{
    // Each view starts with idle modeled engines. Two identical
    // stacks run the same two cold windows; stack A keeps one view
    // (window 1 inherits window 0's busy engines and pays their
    // residuals), stack B runs window 1 on a fresh view. Results must
    // agree either way; A's second window must be strictly costlier.
    Stack a(256), b(256);
    carryShape(a);
    carryShape(b);
    UtlbConfig cfg = asyncConfig(1);

    auto va = a.makeView(1, cfg);
    ASSERT_TRUE(window(*va, 0, 8).ok);
    Translation contin = window(*va, 8, 8);

    auto vb = b.makeView(1, cfg);
    ASSERT_TRUE(window(*vb, 0, 8).ok);
    vb.reset();
    vb = b.makeView(1, cfg);
    Translation fresh = window(*vb, 8, 8);

    ASSERT_TRUE(contin.ok);
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(contin.pageAddrs, fresh.pageAddrs);
    // Window 0's modeled DMAs outlive it, so the continuing view's
    // window 1 posts onto busy engines and pays carried stalls the
    // fresh view never sees.
    EXPECT_GT(contin.nicCost, fresh.nicCost);
}

// ---------------------------------------------------------------------
// serviceMiss fault repair: each transferred entry counted once
// ---------------------------------------------------------------------

TEST(ServiceMissRepair, SpliceKeepsNeighboursAndCountsOnce)
{
    // Wide fetch around an invalid first entry: vpns 101..107 are
    // pinned, 100 is not. The repair must splice the single repaired
    // entry into the already-transferred run — installing all 8
    // entries, counting 7 prefetch installs, and charging one 1-wide
    // re-fetch on top of the original 8-wide DMA. The old fallback
    // re-issued the full fetch and double-counted the neighbours.
    Stack st, twin;
    ASSERT_EQ(st.driver.ioctlPinAndInstall(1, 101, 7).status,
              utlb::mem::PinStatus::Ok);
    ASSERT_EQ(twin.driver.ioctlPinAndInstall(1, 101, 7).status,
              utlb::mem::PinStatus::Ok);
    // The twin measures what the in-service repair ioctl will cost.
    IoctlResult repairIo = twin.driver.ioctlPinAndInstall(1, 100, 1);
    ASSERT_EQ(repairIo.status, utlb::mem::PinStatus::Ok);

    std::vector<std::optional<utlb::mem::Pfn>> runBuf, repairBuf;
    MissOutcome mo =
        serviceMiss(st.driver, st.driver.pageTable(1), st.cache,
                    st.timings, 1, 100, 8, runBuf, repairBuf, nullptr,
                    nullptr);

    EXPECT_TRUE(mo.fault);
    EXPECT_TRUE(mo.ok);
    EXPECT_EQ(mo.fetched, 8u);
    EXPECT_EQ(mo.prefetchInstalls, 7u);
    EXPECT_EQ(mo.cost,
              st.timings.interruptCost + repairIo.cost
                  + st.timings.entryFetchCost(1)
                  + st.timings.missHandleCost(8));
    // The repaired demand entry matches the host table.
    auto entry = st.driver.pageTable(1).readRun(100, 1);
    ASSERT_FALSE(entry.empty());
    ASSERT_TRUE(entry[0].has_value());
    EXPECT_EQ(mo.pfn, *entry[0]);
    // Conservation: every entry of the run is installed exactly once
    // and the structures still agree.
    for (Vpn v = 100; v < 108; ++v)
        EXPECT_TRUE(st.cache.lookup(1, v).hit) << "vpn " << v;
    EXPECT_EQ(st.audit(), "");
}

TEST(ServiceMissRepair, EmptyRunStillChargesSingleFetch)
{
    // No leaf table at all: the repair provides the only entry, so
    // the service fetches exactly one entry and installs exactly one.
    Stack st, twin;
    IoctlResult repairIo =
        twin.driver.ioctlPinAndInstall(1, 5000, 1);
    ASSERT_EQ(repairIo.status, utlb::mem::PinStatus::Ok);

    std::vector<std::optional<utlb::mem::Pfn>> runBuf, repairBuf;
    MissOutcome mo =
        serviceMiss(st.driver, st.driver.pageTable(1), st.cache,
                    st.timings, 1, 5000, 8, runBuf, repairBuf, nullptr,
                    nullptr);

    EXPECT_TRUE(mo.fault);
    EXPECT_TRUE(mo.ok);
    EXPECT_EQ(mo.fetched, 1u);
    EXPECT_EQ(mo.prefetchInstalls, 0u);
    EXPECT_EQ(mo.cost,
              st.timings.interruptCost + repairIo.cost
                  + st.timings.missHandleCost(1));
}

} // namespace
