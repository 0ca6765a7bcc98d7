/**
 * @file
 * Tests for the assembled UTLB mechanisms: driver ioctls, the pin
 * manager, the Hierarchical-UTLB facade (UserUtlb), the per-process
 * UTLB, and the interrupt-based baseline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
#include "core/per_process_utlb.hpp"
#include "core/pin_manager.hpp"
#include "core/table_pager.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "node_stack.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/workloads.hpp"

namespace {

using utlb::NodeStack;
using namespace utlb::core;
using utlb::mem::addrOf;
using utlb::mem::AddressSpace;
using utlb::mem::kPageSize;
using utlb::mem::PhysMemory;
using utlb::mem::PinStatus;
using utlb::mem::Vpn;
using utlb::sim::Tick;
using utlb::sim::ticksToUs;
using utlb::sim::usToTicks;

/** A full single-node UTLB stack. */
class UtlbStack : public ::testing::Test, protected NodeStack
{
  protected:
    UtlbStack() : space(1, physMem)
    {
        driver.registerProcess(space);
    }

    UserUtlb
    makeUtlb(const UtlbConfig &cfg = {})
    {
        return UserUtlb(driver, cache, timings, 1, cfg);
    }

    AddressSpace space;
};

// ---------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------

TEST(HostCostModel, Table1PinUnpinRowsAreExact)
{
    HostCosts c;
    EXPECT_EQ(c.pinCost(1), usToTicks(27.0));
    EXPECT_EQ(c.pinCost(2), usToTicks(30.0));
    EXPECT_EQ(c.pinCost(4), usToTicks(36.0));
    EXPECT_EQ(c.pinCost(8), usToTicks(47.0));
    EXPECT_EQ(c.pinCost(16), usToTicks(70.0));
    EXPECT_EQ(c.pinCost(32), usToTicks(115.0));
    EXPECT_EQ(c.unpinCost(1), usToTicks(25.0));
    EXPECT_EQ(c.unpinCost(16), usToTicks(80.0));
    EXPECT_EQ(c.unpinCost(32), usToTicks(139.0));
}

TEST(HostCostModel, BatchPinningIsCheaperPerPage)
{
    HostCosts c;
    double one = ticksToUs(c.pinCost(1));
    double sixteen = ticksToUs(c.pinCost(16)) / 16.0;
    EXPECT_LT(sixteen, one);
}

TEST(HostCostModel, DerivedKernelCostsMatchDocumentation)
{
    HostCosts c;
    EXPECT_EQ(c.kernelPinCost(), usToTicks(16.0));
    EXPECT_EQ(c.kernelUnpinCost(), usToTicks(16.0));
    EXPECT_EQ(c.interruptCost(), usToTicks(10.0));
    EXPECT_EQ(c.userCheck(), usToTicks(0.5));
}

TEST(HostCostModel, TabulatedTicksMatchTheCurves)
{
    // CalCurve serves small operands from a table built at
    // construction; every entry, and every operand past the table,
    // must equal the direct conversion of the interpolated value.
    using utlb::sim::CalCurve;
    for (HostProfile profile :
         {HostProfile::PentiumIINT, HostProfile::PentiumIILinux,
          HostProfile::ModernX86}) {
        const CalCurve curves[] = {HostCosts::makeCheckMin(profile),
                                   HostCosts::makeCheckMax(profile),
                                   HostCosts::makePin(profile),
                                   HostCosts::makeUnpin(profile)};
        for (std::size_t k = 0; k < 4; ++k) {
            for (std::size_t n = 0; n <= 2 * CalCurve::kTabulated; ++n) {
                ASSERT_EQ(curves[k].ticksAt(n),
                          usToTicks(curves[k].at(n)))
                    << "profile " << static_cast<int>(profile)
                    << " curve " << k << " n " << n;
            }
        }
        HostCosts c(profile);
        for (std::size_t n = 1; n <= 2 * CalCurve::kTabulated; ++n) {
            EXPECT_EQ(c.checkCostMin(n), curves[0].ticksAt(n));
            EXPECT_EQ(c.checkCostMax(n), curves[1].ticksAt(n));
            EXPECT_EQ(c.pinCost(n), curves[2].ticksAt(n));
            EXPECT_EQ(c.unpinCost(n), curves[3].ticksAt(n));
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

TEST_F(UtlbStack, PinAndInstallPopulatesHostTable)
{
    auto res = driver.ioctlPinAndInstall(1, 10, 3);
    EXPECT_EQ(res.status, PinStatus::Ok);
    EXPECT_EQ(res.pagesDone, 3u);
    EXPECT_EQ(res.cost, costs.pinCost(3));
    auto &table = driver.pageTable(1);
    for (Vpn v = 10; v < 13; ++v) {
        ASSERT_TRUE(table.get(v).has_value());
        EXPECT_EQ(table.get(v), pins.pinnedFrame(1, v));
    }
}

TEST_F(UtlbStack, UnpinInvalidatesTableAndCache)
{
    driver.ioctlPinAndInstall(1, 10, 1);
    auto pfn = *driver.pageTable(1).get(10);
    cache.insert(1, 10, pfn);
    auto res = driver.ioctlUnpinAndInvalidate(1, 10, 1);
    EXPECT_EQ(res.status, PinStatus::Ok);
    EXPECT_FALSE(driver.pageTable(1).get(10).has_value());
    EXPECT_FALSE(cache.peek(1, 10).has_value());
    EXPECT_FALSE(pins.isPinned(1, 10));
}

TEST_F(UtlbStack, UnpinKeepsTranslationWhileRefsRemain)
{
    driver.ioctlPinAndInstall(1, 10, 1);
    driver.ioctlPinAndInstall(1, 10, 1);  // second reference
    driver.ioctlUnpinAndInvalidate(1, 10, 1);
    // Still pinned once: translation must survive.
    EXPECT_TRUE(driver.pageTable(1).get(10).has_value());
    EXPECT_TRUE(pins.isPinned(1, 10));
}

TEST_F(UtlbStack, PinLimitSurfacesWithoutPartialPin)
{
    pins.setPinLimit(1, 2);
    auto res = driver.ioctlPinAndInstall(1, 0, 5);
    EXPECT_EQ(res.status, PinStatus::LimitExceeded);
    EXPECT_EQ(res.pagesDone, 0u);
    EXPECT_EQ(pins.pinnedPages(1), 0u);
    EXPECT_FALSE(driver.pageTable(1).get(0).has_value());
}

TEST(DriverRollback, LeafOomUndoesOnlyThisIoctl)
{
    NodeStack node({256, 1, true}, 515);
    auto &[costs, timings, physMem, pins, sram, cache, driver] = node;
    AddressSpace space(1, physMem);
    driver.registerProcess(space);

    // Page 0 and its leaf: 512 of the 515 frames stay free.
    ASSERT_EQ(driver.ioctlPinAndInstall(1, 0, 1).status, PinStatus::Ok);
    auto pfn0 = driver.pageTable(1).get(0);
    ASSERT_TRUE(pfn0.has_value());
    ASSERT_EQ(physMem.freeFrames(), 512u);

    // Pages 1..512 take the last 512 frames, so the leaf for page 512
    // cannot be allocated and the ioctl fails after pinning.
    auto res = driver.ioctlPinAndInstall(1, 0, 513);
    EXPECT_EQ(res.status, PinStatus::OutOfMemory);

    // Only this call is undone: the earlier pin keeps its reference
    // and its translation, and the pages this call mapped go back.
    EXPECT_EQ(pins.pinRefs(1, 0), 1u);
    EXPECT_EQ(driver.pageTable(1).get(0), pfn0);
    EXPECT_EQ(driver.pageTable(1).validEntries(), 1u);
    EXPECT_EQ(pins.pinnedPages(1), 1u);
    EXPECT_EQ(space.mappedPages(), 1u);
    EXPECT_EQ(physMem.freeFrames(), 512u);

    utlb::check::AuditReport report;
    driver.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(UtlbStack, GarbageFrameIsAllocatedAndStable)
{
    auto g = driver.garbageFrame();
    EXPECT_TRUE(physMem.isAllocated(g));
    EXPECT_EQ(physMem.ownerOf(g), kKernelPid);
}

TEST_F(UtlbStack, UnregisterDropsEverything)
{
    driver.ioctlPinAndInstall(1, 0, 4);
    cache.insert(1, 0, *driver.pageTable(1).get(0));
    driver.unregisterProcess(1);
    EXPECT_FALSE(driver.isRegistered(1));
    EXPECT_FALSE(cache.peek(1, 0).has_value());
    // The exiting process' frames go back to host memory inside
    // unregisterProcess, not later in the space's destructor: only
    // the garbage page stays allocated.
    EXPECT_EQ(space.mappedPages(), 0u);
    EXPECT_EQ(physMem.allocatedFrames(), 1u);
}

// ---------------------------------------------------------------------
// PinManager
// ---------------------------------------------------------------------

TEST_F(UtlbStack, EnsurePinnedPinsOnDemandOnce)
{
    PinManager mgr(driver, 1, {});
    auto r1 = mgr.ensurePinned(100, 4);
    EXPECT_TRUE(r1.ok);
    EXPECT_TRUE(r1.checkMiss);
    EXPECT_EQ(r1.pagesPinned, 4u);
    EXPECT_EQ(r1.pinIoctls, 1u);

    auto r2 = mgr.ensurePinned(100, 4);
    EXPECT_TRUE(r2.ok);
    EXPECT_FALSE(r2.checkMiss);
    EXPECT_EQ(r2.pagesPinned, 0u);
    // Second call is cheap: just the bitmap check.
    EXPECT_LT(r2.cost, usToTicks(1.0));
    EXPECT_GT(r1.cost, usToTicks(27.0));
}

TEST_F(UtlbStack, PartialOverlapPinsOnlyMissingPages)
{
    PinManager mgr(driver, 1, {});
    mgr.ensurePinned(100, 4);
    auto r = mgr.ensurePinned(102, 4);  // 102,103 pinned; 104,105 not
    EXPECT_TRUE(r.checkMiss);
    EXPECT_EQ(r.pagesPinned, 2u);
}

TEST_F(UtlbStack, MemoryLimitTriggersEvictionWithLru)
{
    PinManagerConfig cfg;
    cfg.memLimitPages = 4;
    cfg.policy = PolicyKind::Lru;
    PinManager mgr(driver, 1, cfg);
    mgr.ensurePinned(0, 4);
    mgr.ensurePinned(0, 1);  // touch page 0: page 1 is now LRU
    auto r = mgr.ensurePinned(50, 1);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pagesUnpinned, 1u);
    EXPECT_FALSE(mgr.isPinned(1));  // LRU victim
    EXPECT_TRUE(mgr.isPinned(0));
    EXPECT_TRUE(mgr.isPinned(50));
    EXPECT_EQ(mgr.pinnedPages(), 4u);
}

TEST_F(UtlbStack, KernelLimitTighterThanLibraryBudgetStillWorks)
{
    pins.setPinLimit(1, 3);
    PinManagerConfig cfg;
    cfg.memLimitPages = 0;  // library thinks it is unlimited
    PinManager mgr(driver, 1, cfg);
    mgr.ensurePinned(0, 3);
    auto r = mgr.ensurePinned(10, 1);
    EXPECT_TRUE(r.ok);
    EXPECT_GE(r.pagesUnpinned, 1u);
    EXPECT_EQ(pins.pinnedPages(1), 3u);
}

TEST_F(UtlbStack, LockedPagesAreNotEvicted)
{
    PinManagerConfig cfg;
    cfg.memLimitPages = 2;
    PinManager mgr(driver, 1, cfg);
    mgr.ensurePinned(0, 2);
    mgr.lockRange(0, 1);  // page 0 in an outstanding send
    auto r = mgr.ensurePinned(10, 1);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(mgr.isPinned(0));    // locked survived
    EXPECT_FALSE(mgr.isPinned(1));   // the other page went
    mgr.unlockRange(0, 1);
    EXPECT_FALSE(mgr.isLocked(0));
}

TEST_F(UtlbStack, FullyLockedSetFailsGracefully)
{
    PinManagerConfig cfg;
    cfg.memLimitPages = 2;
    PinManager mgr(driver, 1, cfg);
    mgr.ensurePinned(0, 2);
    mgr.lockRange(0, 2);
    auto r = mgr.ensurePinned(10, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(mgr.isPinned(0));
    EXPECT_TRUE(mgr.isPinned(1));
}

TEST_F(UtlbStack, PrepinExtendsRunAndUsesBatchIoctl)
{
    PinManagerConfig cfg;
    cfg.prepinPages = 16;
    PinManager mgr(driver, 1, cfg);
    auto r = mgr.ensurePinned(100, 1);
    EXPECT_EQ(r.pagesPinned, 16u);
    EXPECT_EQ(r.pinIoctls, 1u);
    EXPECT_EQ(r.cost,
              costs.checkCostMin(1) + costs.pinCost(16));
    for (Vpn v = 100; v < 116; ++v)
        EXPECT_TRUE(mgr.isPinned(v));
}

TEST_F(UtlbStack, PrepinStopsAtAlreadyPinnedPage)
{
    PinManagerConfig cfg;
    cfg.prepinPages = 16;
    PinManager mgr(driver, 1, cfg);
    mgr.ensurePinned(104, 1);  // pins 104..119
    auto r = mgr.ensurePinned(100, 1);
    // Run from 100 stops at 104 (already pinned).
    EXPECT_EQ(r.pagesPinned, 4u);
}

TEST_F(UtlbStack, StateAgreesAcrossLibraryKernelAndPolicy)
{
    PinManagerConfig cfg;
    cfg.memLimitPages = 8;
    PinManager mgr(driver, 1, cfg);
    utlb::sim::Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        Vpn v = rng.below(64);
        std::size_t n = 1 + rng.below(4);
        mgr.ensurePinned(v, n);
        // Invariants: library bitmap == kernel pin set == policy set.
        ASSERT_EQ(mgr.pinnedPages(), pins.pinnedPages(1));
        ASSERT_EQ(mgr.pinnedPages(), mgr.policy().size());
        ASSERT_LE(mgr.pinnedPages(), 8u);
    }
    for (Vpn v = 0; v < 70; ++v) {
        ASSERT_EQ(mgr.isPinned(v), pins.isPinned(1, v)) << v;
        if (mgr.isPinned(v))
            ASSERT_TRUE(driver.pageTable(1).get(v).has_value());
        else
            ASSERT_FALSE(driver.pageTable(1).get(v).has_value());
    }
}

TEST_F(UtlbStack, ReleasePageUnpinsVoluntarily)
{
    PinManager mgr(driver, 1, {});
    mgr.ensurePinned(5, 1);
    EXPECT_TRUE(mgr.releasePage(5));
    EXPECT_FALSE(mgr.isPinned(5));
    EXPECT_FALSE(pins.isPinned(1, 5));
    EXPECT_FALSE(mgr.releasePage(5));
}

// ---------------------------------------------------------------------
// UserUtlb (Hierarchical-UTLB facade)
// ---------------------------------------------------------------------

TEST_F(UtlbStack, TranslateProducesCorrectPhysicalAddresses)
{
    auto utlb = makeUtlb();
    auto tr = utlb.translate(addrOf(100), 3 * kPageSize);
    ASSERT_TRUE(tr.ok);
    ASSERT_EQ(tr.pageAddrs.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        auto pfn = pins.pinnedFrame(1, 100 + i);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(tr.pageAddrs[i], utlb::mem::frameAddr(*pfn));
    }
    EXPECT_TRUE(tr.checkMiss);
    EXPECT_EQ(tr.niMisses, 3u);  // cold cache
}

TEST_F(UtlbStack, SecondTranslateIsAllHits)
{
    auto utlb = makeUtlb();
    utlb.translate(addrOf(100), 2 * kPageSize);
    auto tr = utlb.translate(addrOf(100), 2 * kPageSize);
    EXPECT_FALSE(tr.checkMiss);
    EXPECT_EQ(tr.niMisses, 0u);
    EXPECT_EQ(tr.pagesPinned, 0u);
    // Fast path: 0.8 us per page on the NIC (Table 2 hit cost).
    EXPECT_EQ(tr.nicCost, 2 * usToTicks(0.8));
}

TEST_F(UtlbStack, HitPathTotalMatchesPaperHeadline)
{
    // §5: "The total overhead for this path is only 0.9 us (0.4 us on
    // the host and 0.5 us on the network interface)" — our model uses
    // the §6.2 steady-state constants (check ~0.2-0.4 us host, 0.8 us
    // NIC); assert the all-hit path stays within 2x of the headline.
    auto utlb = makeUtlb();
    utlb.translate(addrOf(7), 8);
    auto tr = utlb.translate(addrOf(7), 8);
    Tick total = tr.hostCost + tr.nicCost;
    EXPECT_LE(total, usToTicks(1.8));
    EXPECT_GE(total, usToTicks(0.9));
}

TEST_F(UtlbStack, NicMissFetchesFromHostTable)
{
    auto utlb = makeUtlb();
    utlb.prepare(addrOf(50), kPageSize);
    auto nl = utlb.nicTranslate(50);
    EXPECT_TRUE(nl.miss);
    EXPECT_FALSE(nl.fault);
    EXPECT_EQ(nl.fetched, 1u);
    EXPECT_EQ(nl.cost, usToTicks(0.8) + timings.missHandleCost(1));
    // Entry now cached.
    auto nl2 = utlb.nicTranslate(50);
    EXPECT_FALSE(nl2.miss);
    EXPECT_EQ(nl2.pfn, nl.pfn);
}

TEST_F(UtlbStack, PrefetchInstallsNeighbours)
{
    UtlbConfig cfg;
    cfg.prefetchEntries = 8;
    auto utlb = makeUtlb(cfg);
    utlb.prepare(addrOf(200), 8 * kPageSize);
    auto nl = utlb.nicTranslate(200);
    EXPECT_TRUE(nl.miss);
    EXPECT_EQ(nl.fetched, 8u);
    // Neighbours are now hits without further misses.
    for (Vpn v = 201; v < 208; ++v) {
        auto n = utlb.nicTranslate(v);
        EXPECT_FALSE(n.miss) << v;
    }
}

TEST_F(UtlbStack, PrefetchSkipsUnpinnedNeighbours)
{
    UtlbConfig cfg;
    cfg.prefetchEntries = 4;
    auto utlb = makeUtlb(cfg);
    utlb.prepare(addrOf(300), kPageSize);  // only page 300 pinned
    auto nl = utlb.nicTranslate(300);
    EXPECT_TRUE(nl.miss);
    // Unpinned neighbours must not be cached.
    EXPECT_FALSE(cache.peek(1, 301).has_value());
    EXPECT_FALSE(cache.peek(1, 302).has_value());
}

TEST_F(UtlbStack, UnpreparedNicLookupFaultsAndRecovers)
{
    auto utlb = makeUtlb();
    auto nl = utlb.nicTranslate(400);  // never prepared
    EXPECT_TRUE(nl.fault);
    EXPECT_EQ(utlb.nicFaults(), 1u);
    // The fault path pinned the page on the NIC's behalf.
    EXPECT_TRUE(pins.isPinned(1, 400));
    EXPECT_NE(nl.pfn, driver.garbageFrame());
    // Fault cost includes the interrupt.
    EXPECT_GE(nl.cost, timings.interruptCost);
}

TEST_F(UtlbStack, EvictionFromNicCacheDoesNotUnpin)
{
    // The defining UTLB property: NIC cache eviction leaves the page
    // pinned and its host-table translation alive.
    auto utlb = makeUtlb();
    utlb.translate(addrOf(0), kPageSize);
    // Force eviction of (1, 0) by filling its set.
    for (int i = 1; i <= 400; ++i) {
        Vpn v = static_cast<Vpn>(i) * cache.sets();
        utlb.translate(addrOf(v), kPageSize);
    }
    EXPECT_FALSE(cache.peek(1, 0).has_value());
    EXPECT_TRUE(pins.isPinned(1, 0));
    EXPECT_TRUE(driver.pageTable(1).get(0).has_value());
    // Re-translate: a NIC miss but NO pin activity.
    auto tr = utlb.translate(addrOf(0), kPageSize);
    EXPECT_FALSE(tr.checkMiss);
    EXPECT_EQ(tr.pagesPinned, 0u);
    EXPECT_EQ(tr.niMisses, 1u);
}

// ---------------------------------------------------------------------
// serviceMiss fault repair: each transferred entry counted once
// ---------------------------------------------------------------------

/** A stack with process 1 registered, for driving serviceMiss. */
struct Stack : NodeStack {
    AddressSpace space;

    Stack()
        : NodeStack({1024, 1, true}, 16384, 4u << 20), space(1, physMem)
    {
        driver.registerProcess(space);
    }
};

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

// ---------------------------------------------------------------------
// translateRange serves the miss its run probe stopped on
// ---------------------------------------------------------------------

/** The stats subtree @p g as its JSON document. */
std::string
statsJson(const utlb::sim::StatGroup &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

TEST(TranslateRangeMiss, HitsMissHitsWindowMatchesPerPageStats)
{
    // A window of hits, one NIC miss, then hits: translateRange's run
    // probe stops on the miss and serves it without probing again,
    // and must leave every counter and histogram of the cache and the
    // view exactly as translate()'s page-at-a-time walk does.
    constexpr std::size_t kPages = 10;
    constexpr Vpn kDropped = 4;
    for (bool concurrent : {false, true}) {
        SCOPED_TRACE(concurrent ? "striped" : "unlocked");
        Stack range, perPage;
        UtlbConfig cfg;
        cfg.concurrent = concurrent;
        UserUtlb r(range.driver, range.cache, range.timings, 1, cfg);
        UserUtlb p(perPage.driver, perPage.cache, perPage.timings, 1,
                   cfg);
        // Warm the window, then drop one page from the NIC cache only:
        // it stays pinned, so only the NIC walk misses.
        const std::pair<UserUtlb *, Stack *> sides[] = {
            {&r, &range}, {&p, &perPage}};
        for (auto [u, st] : sides) {
            ASSERT_TRUE(u->translate(0, kPages * kPageSize).ok);
            ASSERT_TRUE(st->cache.invalidate(1, kDropped));
            u->flushShardStats();
        }
        const std::uint64_t missesBefore = range.cache.misses();

        Translation a = r.translateRange(0, kPages * kPageSize);
        Translation b = p.translate(0, kPages * kPageSize);
        r.flushShardStats();
        p.flushShardStats();

        ASSERT_TRUE(a.ok);
        EXPECT_EQ(a.niMisses, 1u);
        ASSERT_EQ(a.missPages.size(), 1u);
        EXPECT_EQ(a.missPages[0], kDropped);
        EXPECT_EQ(range.cache.misses(), missesBefore + 1);
        EXPECT_EQ(a.nicCost, b.nicCost);
        EXPECT_EQ(a.hostCost, b.hostCost);
        ASSERT_EQ(a.pageAddrs.size(), b.pageAddrs.size());
        for (std::size_t i = 0; i < kPages; ++i)
            EXPECT_EQ(a.pageAddrs[i], b.pageAddrs[i]) << i;
        EXPECT_EQ(statsJson(range.cache.stats()),
                  statsJson(perPage.cache.stats()));
        EXPECT_EQ(statsJson(r.stats()), statsJson(p.stats()));
        EXPECT_EQ(range.audit(), "");
    }
}

// ---------------------------------------------------------------------
// InterruptTlb baseline
// ---------------------------------------------------------------------

TEST_F(UtlbStack, IntrMissInterruptsPinsAndInstalls)
{
    InterruptTlb intr(pins, cache, costs, timings);
    auto r = intr.translate(1, 10);
    EXPECT_TRUE(r.miss);
    EXPECT_TRUE(pins.isPinned(1, 10));
    EXPECT_EQ(r.cost, usToTicks(0.8) + usToTicks(10.0)
                          + usToTicks(16.0));
    auto r2 = intr.translate(1, 10);
    EXPECT_FALSE(r2.miss);
    EXPECT_EQ(r2.pfn, r.pfn);
    EXPECT_EQ(r2.cost, usToTicks(0.8));
}

TEST_F(UtlbStack, IntrEvictionUnpinsThePage)
{
    SharedUtlbCache small({4, 1, false}, timings);
    InterruptTlb intr(pins, small, costs, timings);
    intr.translate(1, 0);
    EXPECT_TRUE(pins.isPinned(1, 0));
    auto r = intr.translate(1, 4);  // collides with vpn 0 in 4 sets
    EXPECT_EQ(r.unpins, 1u);
    EXPECT_FALSE(pins.isPinned(1, 0));
    EXPECT_TRUE(pins.isPinned(1, 4));
    EXPECT_GE(r.cost, usToTicks(0.8 + 10.0 + 16.0 + 16.0));
}

TEST_F(UtlbStack, IntrPinLimitForcesCacheShedding)
{
    pins.setPinLimit(1, 2);
    InterruptTlb intr(pins, cache, costs, timings);
    intr.translate(1, 0);
    intr.translate(1, 1);
    auto r = intr.translate(1, 2);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.unpins, 1u);
    EXPECT_EQ(pins.pinnedPages(1), 2u);
    EXPECT_TRUE(pins.isPinned(1, 2));
    // The shed page's cache entry is gone too.
    EXPECT_FALSE(cache.peek(1, 0).has_value());
}

TEST_F(UtlbStack, IntrKeepsPinsEqualToCachedEntries)
{
    // Pinning is tied to cache residency: at any quiescent point,
    // this process' pinned pages == its valid cache entries.
    SharedUtlbCache small({8, 2, true}, timings);
    InterruptTlb intr(pins, small, costs, timings);
    utlb::sim::Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        intr.translate(1, rng.below(64));
        ASSERT_EQ(pins.pinnedPages(1), small.validEntries());
    }
}

TEST_F(UtlbStack, IntrShedFollowsRecencyAcrossProcesses)
{
    // Two processes under a 3-page budget sharing a cache: a hit
    // refreshes a page, so the shed takes the least recently used
    // page of the process that needs the pin, never another's.
    AddressSpace space2(2, physMem);
    pins.registerSpace(space2);
    pins.setPinLimit(1, 3);
    pins.setPinLimit(2, 3);
    InterruptTlb intr(pins, cache, costs, timings);
    for (Vpn v : {0, 1, 2})
        intr.translate(1, v);
    intr.translate(2, 0);
    EXPECT_FALSE(intr.translate(1, 0).miss);  // 1 is now the LRU
    auto r = intr.translate(1, 3);
    EXPECT_EQ(r.unpins, 1u);
    EXPECT_FALSE(cache.peek(1, 1).has_value());
    EXPECT_FALSE(pins.isPinned(1, 1));
    for (Vpn v : {0, 2, 3})
        EXPECT_TRUE(cache.peek(1, v).has_value()) << v;
    EXPECT_TRUE(cache.peek(2, 0).has_value());
    EXPECT_EQ(cache.sheds(), 1u);

    r = intr.translate(1, 4);  // next LRU: page 2
    EXPECT_FALSE(cache.peek(1, 2).has_value());
    utlb::check::AuditReport report;
    intr.audit(report);
    cache.audit(report);
    pins.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------
// PerProcessUtlb
// ---------------------------------------------------------------------

TEST_F(UtlbStack, PerProcessLookupReturnsUsableIndices)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 64;
    PerProcessUtlb pp(driver, 1, cfg);
    auto r = pp.lookup(addrOf(10), 2 * kPageSize);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.indices.size(), 2u);
    EXPECT_TRUE(r.checkMiss);
    EXPECT_EQ(r.pagesPinned, 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        auto pfn = pp.nicRead(r.indices[i]);
        EXPECT_EQ(pfn, pins.pinnedFrame(1, 10 + i));
    }
}

TEST_F(UtlbStack, PerProcessSecondLookupHits)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 64;
    PerProcessUtlb pp(driver, 1, cfg);
    auto r1 = pp.lookup(addrOf(10), kPageSize);
    auto r2 = pp.lookup(addrOf(10), kPageSize);
    EXPECT_FALSE(r2.checkMiss);
    EXPECT_EQ(r2.pagesPinned, 0u);
    EXPECT_EQ(r2.indices, r1.indices);
    EXPECT_LT(r2.hostCost, r1.hostCost);
}

TEST_F(UtlbStack, PerProcessTableFullEvicts)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 4;
    PerProcessUtlb pp(driver, 1, cfg);
    for (Vpn v = 0; v < 4; ++v)
        pp.lookup(addrOf(v), kPageSize);
    EXPECT_EQ(pp.liveEntries(), 4u);
    auto r = pp.lookup(addrOf(100), kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pagesUnpinned, 1u);
    EXPECT_EQ(pp.liveEntries(), 4u);
    // LRU victim was page 0; its pin is gone.
    EXPECT_FALSE(pins.isPinned(1, 0));
    EXPECT_FALSE(pp.indexOf(0).has_value());
}

TEST_F(UtlbStack, PerProcessNeverEvictsCurrentRequest)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 4;
    PerProcessUtlb pp(driver, 1, cfg);
    // A 4-page request into a 4-entry table must succeed with all
    // four indices distinct and live.
    pp.lookup(addrOf(0), kPageSize);
    auto r = pp.lookup(addrOf(10), 4 * kPageSize);
    ASSERT_TRUE(r.ok);
    std::set<UtlbIndex> uniq(r.indices.begin(), r.indices.end());
    EXPECT_EQ(uniq.size(), 4u);
    for (Vpn v = 10; v < 14; ++v)
        EXPECT_TRUE(pins.isPinned(1, v));
}

TEST_F(UtlbStack, PerProcessRequestLargerThanTableFails)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 2;
    PerProcessUtlb pp(driver, 1, cfg);
    auto r = pp.lookup(addrOf(0), 3 * kPageSize);
    EXPECT_FALSE(r.ok);
}

TEST_F(UtlbStack, PerProcessBogusNicIndexYieldsGarbage)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 8;
    PerProcessUtlb pp(driver, 1, cfg);
    EXPECT_EQ(pp.nicRead(12345), driver.garbageFrame());
}

} // namespace

// Fragmentation (§3.3) and cost-equation validation (§6.2).
namespace {

using utlb::sim::Rng;
using utlb::sim::ticksToUs;

TEST_F(UtlbStack, FreshTableMapsContiguousBufferToOneRun)
{
    PerProcessConfig cfg;
    cfg.tableEntries = 64;
    PerProcessUtlb pp(driver, 1, cfg);
    auto lk = pp.lookup(addrOf(10), 8 * kPageSize);
    ASSERT_TRUE(lk.ok);
    EXPECT_EQ(pp.bufferIndexRuns(addrOf(10), 8 * kPageSize), 1u);
}

TEST_F(UtlbStack, ChurnFragmentsPerProcessIndices)
{
    // §3.3's motivation: interleave two buffers' growth with
    // evictions; the surviving translations of buffer A end up
    // scattered across the table.
    PerProcessConfig cfg;
    cfg.tableEntries = 32;
    PerProcessUtlb pp(driver, 1, cfg);
    Rng rng(3);
    for (int step = 0; step < 400; ++step) {
        if (rng.chance(0.5))
            pp.lookup(addrOf(10 + rng.below(16)), kPageSize);
        else
            pp.lookup(addrOf(100 + rng.below(40)), kPageSize);
    }
    // Buffer A's pages hold valid indices but in multiple runs.
    pp.lookup(addrOf(10), 16 * kPageSize);  // ensure all installed
    std::size_t runs = pp.bufferIndexRuns(addrOf(10),
                                          16 * kPageSize);
    EXPECT_GT(runs, 1u);
    EXPECT_LE(runs, 16u);
    EXPECT_EQ(pp.bufferIndexRuns(addrOf(5000), kPageSize), 0u);
}

TEST(CostEquation, SimulatedCostMatchesSection62ClosedForm)
{
    // Replay a workload, then recompute the paper's §6.2 per-lookup
    // cost equation from the measured rates; the simulator's
    // accumulated time must match the closed form.
    auto trace = utlb::trace::generateTrace("volrend");
    utlb::tlbsim::SimConfig cfg;
    cfg.cache = {2048, 1, true};
    auto r = utlb::tlbsim::simulateUtlb(trace, cfg);

    double lookups = static_cast<double>(r.lookups);
    double user_check = 0.5;
    double ni_check = 0.8 * static_cast<double>(r.probes) / lookups;
    double pin = ticksToUs(r.pinTime) / lookups;
    double unpin = ticksToUs(r.unpinTime) / lookups;
    double miss = 1.8 * static_cast<double>(r.niMissProbes) / lookups;
    double closed_form = user_check + ni_check + pin + unpin + miss;
    EXPECT_NEAR(r.avgLookupCostUs(), closed_form,
                0.02 * closed_form);

    // And the interrupt equation: ni_check + (intr + kernel_pin) *
    // miss + kernel_unpin * unpins.
    auto ri = utlb::tlbsim::simulateIntr(trace, cfg);
    double i_probes = static_cast<double>(ri.probes) / lookups;
    double i_miss = static_cast<double>(ri.niMissProbes) / lookups;
    double i_unpin = static_cast<double>(ri.pagesUnpinned) / lookups;
    double i_closed = 0.8 * i_probes + (10.0 + 16.0) * i_miss
        + 16.0 * i_unpin;
    EXPECT_NEAR(ri.avgLookupCostUs(), i_closed, 0.02 * i_closed);
}

} // namespace

// Second-level table paging (§3.3 extension): the TablePager.
namespace {

using utlb::core::TablePager;
using utlb::core::TablePagerConfig;

TEST(TablePager, SwapsColdLeavesUnderPressureOnly)
{
    PhysMemory pm(64);
    HostPageTable t(pm, 1);
    TablePagerConfig cfg;
    cfg.lowWaterFrames = 16;
    cfg.batchLeaves = 2;
    TablePager pager(pm, cfg);
    pager.registerTable(t);

    // Three leaves, plenty of memory: no swapping.
    for (int leaf = 0; leaf < 3; ++leaf) {
        Vpn v = static_cast<Vpn>(leaf) * HostPageTable::kLeafEntries;
        t.set(v, 100 + leaf);
        pager.touch(1, v);
    }
    EXPECT_EQ(pager.balance(), 0u);
    EXPECT_EQ(t.swapOuts(), 0u);

    // Create pressure: allocate frames until below the low-water
    // mark, then balance reclaims the two coldest leaves.
    while (pm.freeFrames() >= cfg.lowWaterFrames)
        ASSERT_TRUE(pm.allocFrame(9).has_value());
    EXPECT_EQ(pager.balance(), 2u);
    EXPECT_TRUE(t.leafSwappedOut(0));
    EXPECT_TRUE(t.leafSwappedOut(HostPageTable::kLeafEntries));
    EXPECT_FALSE(t.leafSwappedOut(2 * HostPageTable::kLeafEntries));
    EXPECT_EQ(pager.totalSwapOuts(), 2u);
}

TEST(TablePager, TouchRefreshesRecency)
{
    PhysMemory pm(64);
    HostPageTable t(pm, 1);
    TablePagerConfig cfg;
    cfg.lowWaterFrames = 64;  // permanent pressure
    cfg.batchLeaves = 1;
    TablePager pager(pm, cfg);
    pager.registerTable(t);
    t.set(0, 1);
    t.set(HostPageTable::kLeafEntries, 2);
    pager.touch(1, 0);
    pager.touch(1, HostPageTable::kLeafEntries);
    pager.touch(1, 0);  // leaf 0 is now hot; leaf 1 is cold
    EXPECT_EQ(pager.balance(), 1u);
    EXPECT_FALSE(t.leafSwappedOut(0));
    EXPECT_TRUE(t.leafSwappedOut(HostPageTable::kLeafEntries));
}

TEST_F(UtlbStack, PagedOutLeafRecoversThroughNicFaultPath)
{
    // Full circle: pager swaps a leaf out; the NIC's next miss on a
    // page of that leaf faults, the host re-pins, and the leaf is
    // resident again — translations intact.
    auto utlb = makeUtlb();
    utlb.translate(addrOf(3), 2 * kPageSize);
    cache.invalidateProcess(1);

    TablePagerConfig cfg;
    cfg.lowWaterFrames = physMem.totalFrames();  // force pressure
    cfg.batchLeaves = 1;
    TablePager pager(physMem, cfg);
    pager.registerTable(driver.pageTable(1));
    pager.touch(1, 3);
    ASSERT_EQ(pager.balance(), 1u);
    ASSERT_TRUE(driver.pageTable(1).leafSwappedOut(3));

    auto nl = utlb.nicTranslate(3);
    EXPECT_TRUE(nl.fault);
    EXPECT_EQ(nl.pfn, *pins.pinnedFrame(1, 3));
    EXPECT_FALSE(driver.pageTable(1).leafSwappedOut(3));
    EXPECT_EQ(driver.pageTable(1).get(4), pins.pinnedFrame(1, 4));
}

} // namespace

// Host cost profiles (1998 testbed vs modern what-if).
namespace {

using utlb::core::HostProfile;

TEST(HostProfiles, DefaultAndLinuxMatchThePaper)
{
    HostCosts nt(HostProfile::PentiumIINT);
    HostCosts linux_host(HostProfile::PentiumIILinux);
    // §6.2: "On Linux, the pinning and unpinning costs are similar
    // to those on NT" — modeled as identical.
    for (std::size_t n : {1u, 4u, 32u}) {
        EXPECT_EQ(nt.pinCost(n), linux_host.pinCost(n));
        EXPECT_EQ(nt.unpinCost(n), linux_host.unpinCost(n));
    }
    EXPECT_EQ(nt.interruptCost(), linux_host.interruptCost());
}

TEST(HostProfiles, ModernHostIsUniformlyCheaper)
{
    HostCosts old_host(HostProfile::PentiumIINT);
    HostCosts modern(HostProfile::ModernX86);
    EXPECT_LT(modern.userCheck(), old_host.userCheck());
    EXPECT_LT(modern.interruptCost(), old_host.interruptCost());
    EXPECT_LT(modern.kernelPinCost(), old_host.kernelPinCost());
    for (std::size_t n : {1u, 4u, 32u}) {
        EXPECT_LT(modern.pinCost(n), old_host.pinCost(n));
        EXPECT_LT(modern.unpinCost(n), old_host.unpinCost(n));
    }
    // Batching still pays on modern hosts.
    EXPECT_LT(utlb::sim::ticksToUs(modern.pinCost(32)) / 32.0,
              utlb::sim::ticksToUs(modern.pinCost(1)));
}

TEST(HostProfiles, ModernProfileShrinksTheUtlbAdvantage)
{
    auto trace = utlb::trace::generateTrace("barnes");
    utlb::tlbsim::SimConfig cfg;
    cfg.cache = {1024, 1, true};
    cfg.hostProfile = HostProfile::PentiumIINT;
    auto u98 = utlb::tlbsim::simulateUtlb(trace, cfg);
    auto i98 = utlb::tlbsim::simulateIntr(trace, cfg);
    cfg.hostProfile = HostProfile::ModernX86;
    auto u20 = utlb::tlbsim::simulateUtlb(trace, cfg);
    auto i20 = utlb::tlbsim::simulateIntr(trace, cfg);
    double gain98 = i98.avgLookupCostUs() / u98.avgLookupCostUs();
    double gain20 = i20.avgLookupCostUs() / u20.avgLookupCostUs();
    EXPECT_GT(gain98, 2.0);
    EXPECT_LT(gain20, 1.3);
    EXPECT_GT(gain20, 0.8);
}

} // namespace
