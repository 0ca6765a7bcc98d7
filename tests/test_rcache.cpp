/**
 * @file
 * Tests for the registration cache (the RDMA-era descendant of the
 * UTLB idea): interval coverage, coalescing, region-LRU eviction,
 * budget conservation, and randomized consistency against the
 * kernel pin facility.
 */

#include <gtest/gtest.h>

#include "core/registration_cache.hpp"
#include "mem/address_space.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"

namespace {

using utlb::NodeStack;
using namespace utlb::core;
using utlb::mem::addrOf;
using utlb::mem::AddressSpace;
using utlb::mem::kPageSize;
using utlb::mem::Vpn;

class RcacheStack : public ::testing::Test, protected NodeStack
{
  protected:
    RcacheStack() : space(1, physMem)
    {
        driver.registerProcess(space);
    }

    RegistrationCache
    makeCache(std::size_t max_bytes = 0)
    {
        RegCacheConfig cfg;
        cfg.maxBytes = max_bytes;
        return RegistrationCache(driver, 1, cfg);
    }

    AddressSpace space;
};

TEST_F(RcacheStack, FirstAcquireRegistersSecondHits)
{
    auto rc = makeCache();
    auto r1 = rc.acquire(addrOf(10), 4 * kPageSize);
    EXPECT_TRUE(r1.ok);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.pagesPinned, 4u);
    EXPECT_EQ(rc.regions(), 1u);
    EXPECT_EQ(rc.registeredBytes(), 4u * kPageSize);

    auto r2 = rc.acquire(addrOf(10), 4 * kPageSize);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.pagesPinned, 0u);
    // Hit cost is far below a pin ioctl.
    EXPECT_LT(r2.cost, utlb::sim::usToTicks(1.0));
}

TEST_F(RcacheStack, SubRangeOfRegistrationHits)
{
    auto rc = makeCache();
    rc.acquire(addrOf(10), 8 * kPageSize);
    auto r = rc.acquire(addrOf(12) + 100, 2 * kPageSize);
    EXPECT_TRUE(r.hit);
}

TEST_F(RcacheStack, OverlappingAcquiresCoalesce)
{
    auto rc = makeCache();
    rc.acquire(addrOf(10), 4 * kPageSize);  // [10,14)
    auto r = rc.acquire(addrOf(12), 4 * kPageSize);  // [12,16)
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.pagesPinned, 2u);  // only 14,15 are new
    EXPECT_EQ(rc.regions(), 1u);   // merged
    EXPECT_TRUE(rc.covered(addrOf(10), 6 * kPageSize));
    EXPECT_EQ(rc.registeredBytes(), 6u * kPageSize);
}

TEST_F(RcacheStack, AbuttingRegionsMerge)
{
    auto rc = makeCache();
    rc.acquire(addrOf(10), 2 * kPageSize);  // [10,12)
    rc.acquire(addrOf(12), 2 * kPageSize);  // [12,14) abuts
    EXPECT_EQ(rc.regions(), 1u);
    EXPECT_TRUE(rc.covered(addrOf(10), 4 * kPageSize));
}

TEST_F(RcacheStack, BridgingAcquireAbsorbsBothNeighbours)
{
    auto rc = makeCache();
    rc.acquire(addrOf(10), 2 * kPageSize);  // [10,12)
    rc.acquire(addrOf(20), 2 * kPageSize);  // [20,22)
    auto r = rc.acquire(addrOf(11), 10 * kPageSize);  // [11,21)
    EXPECT_EQ(rc.regions(), 1u);
    EXPECT_EQ(r.pagesPinned, 8u);  // 12..19
    EXPECT_TRUE(rc.covered(addrOf(10), 12 * kPageSize));
    EXPECT_EQ(rc.registeredBytes(), 12u * kPageSize);
}

TEST_F(RcacheStack, BudgetEvictsWholeColdRegions)
{
    auto rc = makeCache(8 * kPageSize);
    rc.acquire(addrOf(10), 4 * kPageSize);   // region A
    rc.acquire(addrOf(100), 4 * kPageSize);  // region B (A is LRU)
    auto r = rc.acquire(addrOf(200), 4 * kPageSize);  // evicts A
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.regionsEvicted, 1u);
    EXPECT_EQ(r.pagesUnpinned, 4u);
    EXPECT_FALSE(rc.covered(addrOf(10), kPageSize));
    EXPECT_TRUE(rc.covered(addrOf(100), 4 * kPageSize));
    EXPECT_LE(rc.registeredBytes(), 8u * kPageSize);
    // The kernel agrees: region A's pages are unpinned.
    EXPECT_FALSE(pins.isPinned(1, 10));
    EXPECT_TRUE(pins.isPinned(1, 100));
}

TEST_F(RcacheStack, HitRefreshesLru)
{
    auto rc = makeCache(8 * kPageSize);
    rc.acquire(addrOf(10), 4 * kPageSize);   // A
    rc.acquire(addrOf(100), 4 * kPageSize);  // B
    rc.acquire(addrOf(10), kPageSize);       // touch A: B is LRU
    rc.acquire(addrOf(200), 4 * kPageSize);  // evicts B
    EXPECT_TRUE(rc.covered(addrOf(10), 4 * kPageSize));
    EXPECT_FALSE(rc.covered(addrOf(100), kPageSize));
}

TEST_F(RcacheStack, RequestLargerThanBudgetFails)
{
    auto rc = makeCache(4 * kPageSize);
    auto r = rc.acquire(addrOf(10), 8 * kPageSize);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(rc.registeredBytes(), 0u);
    EXPECT_EQ(pins.pinnedPages(1), 0u);
}

TEST_F(RcacheStack, DestructorDeregistersEverything)
{
    {
        auto rc = makeCache();
        rc.acquire(addrOf(10), 4 * kPageSize);
        rc.acquire(addrOf(100), 4 * kPageSize);
        EXPECT_EQ(pins.pinnedPages(1), 8u);
    }
    EXPECT_EQ(pins.pinnedPages(1), 0u);
}

TEST_F(RcacheStack, RandomizedConsistencyWithKernelPins)
{
    auto rc = makeCache(64 * kPageSize);
    utlb::sim::Rng rng(21);
    for (int step = 0; step < 3000; ++step) {
        Vpn vpn = rng.below(256);
        std::size_t pages = 1 + rng.below(8);
        auto r = rc.acquire(addrOf(vpn), pages * kPageSize);
        ASSERT_TRUE(r.ok);
        // Everything the cache claims covered is really pinned.
        for (std::size_t i = 0; i < pages; ++i)
            ASSERT_TRUE(pins.isPinned(1, vpn + i));
        ASSERT_LE(rc.registeredBytes(), 64u * kPageSize);
        // Kernel pin count equals registered pages exactly (each
        // page pinned once by the cache).
        ASSERT_EQ(pins.pinnedPages(1) * kPageSize,
                  rc.registeredBytes());
    }
}

TEST_F(RcacheStack, RegionGranularityTradeoffIsVisible)
{
    // The rcache's defining behaviour vs the UTLB bitmap: evicting
    // makes a *whole region* cold, so a later touch of any page of
    // it re-registers the full extent.
    auto rc = makeCache(8 * kPageSize);
    rc.acquire(addrOf(0), 8 * kPageSize);    // one big region
    auto r = rc.acquire(addrOf(100), kPageSize);  // forces eviction
    EXPECT_EQ(r.pagesUnpinned, 8u);  // all 8 pages went at once
    auto r2 = rc.acquire(addrOf(0), kPageSize);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(r2.pagesPinned, 1u);
}

} // namespace
