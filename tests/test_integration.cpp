/**
 * @file
 * Cross-module integration and property tests: coherence invariants
 * across the user library / kernel / NIC layers under randomized
 * multi-process load, translation correctness against a reference
 * model, the §3.3 second-level-table paging extension end to end,
 * and SRAM budget exhaustion behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>

#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
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
using utlb::mem::addrOf;
using utlb::mem::AddressSpace;
using utlb::mem::kPageSize;
using utlb::mem::ProcId;
using utlb::mem::Vpn;
using utlb::nic::NicTimings;
using utlb::nic::Sram;

/** A multi-process UTLB node for stress testing. */
class MultiProcStack : public ::testing::Test, protected NodeStack
{
  protected:
    MultiProcStack() : NodeStack({512, 2, true}, 16384) {}

    UserUtlb &
    addProcess(ProcId pid, std::size_t mem_limit = 0)
    {
        UtlbConfig cfg;
        cfg.pin.memLimitPages = mem_limit;
        cfg.pin.seed = 100 + pid;
        return *(tenants[pid] = attach(pid, cfg)).utlb;
    }

    /**
     * The central coherence invariant of the design: every cached
     * NIC translation is backed by a valid host-table entry for a
     * page that the kernel holds pinned — i.e. the NIC can never
     * DMA through a stale mapping.
     */
    void
    checkCoherence(ProcId pid, Vpn lo, Vpn hi)
    {
        HostPageTable &table = driver.pageTable(pid);
        for (Vpn v = lo; v < hi; ++v) {
            auto cached = cache.peek(pid, v);
            auto host = table.get(v);
            bool pinned = pins.isPinned(pid, v);
            if (cached) {
                ASSERT_TRUE(host.has_value()) << "pid " << pid
                                              << " vpn " << v;
                ASSERT_EQ(*cached, *host);
                ASSERT_TRUE(pinned);
            }
            if (host) {
                ASSERT_TRUE(pinned);
                ASSERT_EQ(tenants.at(pid).space->lookup(v), host);
            }
        }
    }

    std::map<ProcId, Tenant> tenants;
};

TEST_F(MultiProcStack, RandomizedCoherenceUnderMemoryPressure)
{
    constexpr int kProcs = 4;
    constexpr Vpn kRange = 256;
    for (ProcId p = 1; p <= kProcs; ++p)
        addProcess(p, /*mem limit*/ 96);

    utlb::sim::Rng rng(42);
    for (int step = 0; step < 4000; ++step) {
        ProcId pid = 1 + static_cast<ProcId>(rng.below(kProcs));
        Vpn vpn = rng.below(kRange);
        std::size_t npages = 1 + rng.below(3);
        auto tr = tenants.at(pid).utlb->translate(
            addrOf(vpn), npages * kPageSize);
        ASSERT_TRUE(tr.ok);
        ASSERT_EQ(tr.pageAddrs.size(), npages);
        // Returned addresses match the kernel's pinned frames.
        for (std::size_t i = 0; i < npages; ++i) {
            auto pfn = pins.pinnedFrame(pid, vpn + i);
            ASSERT_TRUE(pfn.has_value());
            ASSERT_EQ(tr.pageAddrs[i], utlb::mem::frameAddr(*pfn));
        }
        ASSERT_LE(pins.pinnedPages(pid), 96u);
        if (step % 500 == 0)
            checkCoherence(pid, 0, kRange);
    }
    for (ProcId p = 1; p <= kProcs; ++p)
        checkCoherence(p, 0, kRange);
}

TEST_F(MultiProcStack, TranslationsMatchReferenceModelExactly)
{
    // Reference: a plain map of what the kernel pinned. Every
    // translate() result must agree with it, across eviction churn.
    auto &utlb = addProcess(1, 32);
    utlb::sim::Rng rng(7);
    for (int step = 0; step < 3000; ++step) {
        Vpn vpn = rng.below(128);
        auto tr = utlb.translate(addrOf(vpn), kPageSize);
        ASSERT_TRUE(tr.ok);
        auto pfn = tenants.at(1).space->lookup(vpn);
        ASSERT_TRUE(pfn.has_value());
        ASSERT_EQ(tr.pageAddrs[0], utlb::mem::frameAddr(*pfn));
    }
}

TEST_F(MultiProcStack, UnregisterOneProcessLeavesOthersIntact)
{
    auto &u1 = addProcess(1);
    auto &u2 = addProcess(2);
    u1.translate(addrOf(10), 4 * kPageSize);
    u2.translate(addrOf(10), 4 * kPageSize);
    driver.unregisterProcess(1);
    tenants.erase(1);
    // Process 2 still fully works and its cache entries survive.
    auto tr = u2.translate(addrOf(10), 4 * kPageSize);
    EXPECT_EQ(tr.niMisses, 0u);
    checkCoherence(2, 0, 64);
}

TEST_F(MultiProcStack, LeafSwappingRoundTripsThroughTheFaultPath)
{
    // §3.3's paging extension: a second-level table is swapped out
    // to disk; the NIC detects the missing leaf on a miss and
    // interrupts the host, which brings the leaf back in.
    auto &utlb = addProcess(1);
    utlb.translate(addrOf(5), 2 * kPageSize);
    HostPageTable &table = driver.pageTable(1);

    // Evict the cached copies, then swap the leaf out.
    cache.invalidateProcess(1);
    ASSERT_TRUE(table.swapOutLeaf(5));
    ASSERT_TRUE(table.leafSwappedOut(5));

    // NIC translation: leaf absent -> fault -> host re-installs.
    auto nl = utlb.nicTranslate(5);
    EXPECT_TRUE(nl.fault);
    EXPECT_FALSE(table.leafSwappedOut(5));
    EXPECT_EQ(nl.pfn, pins.pinnedFrame(1, 5));
    EXPECT_EQ(table.swapIns(), 1u);
    // The neighbouring entry survived the round trip.
    EXPECT_EQ(table.get(6), pins.pinnedFrame(1, 6));
}

TEST_F(MultiProcStack, GarbageFrameNeverEscapesIntoUserTranslations)
{
    auto &utlb = addProcess(1, 16);
    utlb::sim::Rng rng(13);
    for (int step = 0; step < 2000; ++step) {
        Vpn vpn = rng.below(64);
        auto tr = utlb.translate(addrOf(vpn), kPageSize);
        ASSERT_TRUE(tr.ok);
        ASSERT_NE(tr.pageAddrs[0],
                  utlb::mem::frameAddr(driver.garbageFrame()));
    }
}

TEST_F(MultiProcStack, UtlbAndIntrCoexistOnOneCacheSafely)
{
    // A UTLB-managed process and an interrupt-managed process share
    // the NIC cache; their entries never cross-contaminate.
    auto &utlb = addProcess(1);
    auto intr_space = std::make_unique<AddressSpace>(9, physMem);
    pins.registerSpace(*intr_space);
    InterruptTlb intr(pins, cache, costs, timings);

    utlb::sim::Rng rng(5);
    for (int step = 0; step < 2000; ++step) {
        Vpn vpn = rng.below(200);
        if (rng.chance(0.5)) {
            auto tr = utlb.translate(addrOf(vpn), kPageSize);
            ASSERT_TRUE(tr.ok);
            ASSERT_EQ(tr.pageAddrs[0],
                      utlb::mem::frameAddr(
                          *pins.pinnedFrame(1, vpn)));
        } else {
            auto lk = intr.translate(9, vpn);
            ASSERT_FALSE(lk.failed);
            ASSERT_EQ(lk.pfn, *pins.pinnedFrame(9, vpn));
        }
    }
}

TEST(SramBudget, SixteenKCacheLeavesRoomForDirectoriesIn1MB)
{
    // The largest swept configuration must coexist with per-process
    // directories and command rings inside the board's 1 MB.
    Sram sram(1 << 20);
    NicTimings timings;
    SharedUtlbCache cache({16384, 1, true}, timings, &sram);
    EXPECT_EQ(sram.regionSize("utlb-cache"), 64u * 1024);
    // 5 processes x (4 KB directory + ring) fit comfortably.
    EXPECT_GT(sram.available(), 100u * 1024);
}

TEST(SramBudgetDeath, OversizedCacheDiesFatally)
{
    EXPECT_DEATH(
        {
            Sram sram(16 * 1024);
            NicTimings timings;
            SharedUtlbCache cache({16384, 1, true}, timings, &sram);
        },
        "SRAM");
}

} // namespace
