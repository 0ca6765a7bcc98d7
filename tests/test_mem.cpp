/**
 * @file
 * Unit tests for the host memory substrate: physical memory,
 * address spaces, and the pinning facility.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "check/check.hpp"
#include "mem/address_space.hpp"
#include "mem/page.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"

namespace {

using namespace utlb::mem;

TEST(Page, Helpers)
{
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(pageOf(0x12345), 0x12u);
    EXPECT_EQ(offsetOf(0x12345), 0x345u);
    EXPECT_EQ(addrOf(3), 3u * 4096u);
    EXPECT_EQ(frameAddr(2), 8192u);
}

TEST(Page, PagesSpanned)
{
    EXPECT_EQ(pagesSpanned(0, 0), 0u);
    EXPECT_EQ(pagesSpanned(0, 1), 1u);
    EXPECT_EQ(pagesSpanned(0, 4096), 1u);
    EXPECT_EQ(pagesSpanned(0, 4097), 2u);
    EXPECT_EQ(pagesSpanned(4095, 2), 2u);
    EXPECT_EQ(pagesSpanned(4096, 4096), 1u);
    EXPECT_EQ(pagesSpanned(100, 3 * 4096), 4u);
}

TEST(PhysMemory, AllocatesLowestFrameFirst)
{
    PhysMemory pm(4);
    EXPECT_EQ(*pm.allocFrame(1), 0u);
    EXPECT_EQ(*pm.allocFrame(1), 1u);
    EXPECT_EQ(*pm.allocFrame(2), 2u);
    EXPECT_EQ(pm.allocatedFrames(), 3u);
    EXPECT_EQ(pm.freeFrames(), 1u);
}

TEST(PhysMemory, TracksOwners)
{
    PhysMemory pm(2);
    auto f = *pm.allocFrame(7);
    EXPECT_EQ(pm.ownerOf(f), 7u);
    EXPECT_TRUE(pm.isAllocated(f));
    pm.freeFrame(f);
    EXPECT_EQ(pm.ownerOf(f), kNoOwner);
    EXPECT_FALSE(pm.isAllocated(f));
}

TEST(PhysMemory, ExhaustionReturnsNullopt)
{
    PhysMemory pm(1);
    EXPECT_TRUE(pm.allocFrame(1).has_value());
    EXPECT_FALSE(pm.allocFrame(1).has_value());
}

TEST(PhysMemory, FreedFramesAreReused)
{
    PhysMemory pm(1);
    auto f = *pm.allocFrame(1);
    pm.freeFrame(f);
    EXPECT_EQ(*pm.allocFrame(2), f);
}

TEST(PhysMemory, FreshFramesAscendAndFreedFramesReuseLifo)
{
    PhysMemory pm(6);
    for (Pfn want = 0; want < 4; ++want)
        EXPECT_EQ(*pm.allocFrame(1), want);
    pm.freeFrame(1);
    pm.freeFrame(3);
    pm.freeFrame(0);
    // Freed frames come back last-freed first, before any fresh one;
    // each of them, and only them, is zero-filled.
    EXPECT_EQ(*pm.allocFrame(2), 0u);
    EXPECT_EQ(*pm.allocFrame(2), 3u);
    EXPECT_EQ(*pm.allocFrame(2), 1u);
    EXPECT_EQ(pm.totalZeroFills(), 3u);
    EXPECT_EQ(*pm.allocFrame(2), 4u);
    EXPECT_EQ(*pm.allocFrame(2), 5u);
    EXPECT_EQ(pm.totalZeroFills(), 3u);
    EXPECT_FALSE(pm.allocFrame(2).has_value());
    EXPECT_EQ(pm.freeFrames(), 0u);
    EXPECT_EQ(pm.ownerOf(5), 2u);
    EXPECT_EQ(pm.ownerOf(3), 2u);
}

TEST(PhysMemory, ReadWriteRoundTrips)
{
    PhysMemory pm(2);
    auto f = *pm.allocFrame(1);
    std::array<std::uint8_t, 8> in{1, 2, 3, 4, 5, 6, 7, 8};
    pm.write(frameAddr(f) + 100, in);
    std::array<std::uint8_t, 8> out{};
    pm.read(frameAddr(f) + 100, out);
    EXPECT_EQ(in, out);
}

TEST(PhysMemory, FirstAllocationsReadAsZeroWithoutZeroFill)
{
    PhysMemory pm(3);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(pm.allocFrame(1).has_value());
    std::vector<std::uint8_t> out(3 * kPageSize, 0xAB);
    pm.read(0, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(3 * kPageSize, 0));
    EXPECT_EQ(pm.totalAllocs(), 3u);
    EXPECT_EQ(pm.totalZeroFills(), 0u);
}

TEST(PhysMemory, ReusedFrameIsZeroFilledOnce)
{
    PhysMemory pm(2);
    auto f = *pm.allocFrame(1);
    std::vector<std::uint8_t> dirty(kPageSize, 9);
    pm.write(frameAddr(f), dirty);
    pm.freeFrame(f);
    ASSERT_EQ(*pm.allocFrame(2), f);
    EXPECT_EQ(pm.totalZeroFills(), 1u);
    std::vector<std::uint8_t> out(kPageSize, 1);
    pm.read(frameAddr(f), out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
    // The other frame has never been handed out: no fill.
    ASSERT_TRUE(pm.allocFrame(3).has_value());
    EXPECT_EQ(pm.totalZeroFills(), 1u);
}

TEST(PhysMemory, PopulateKeepsContents)
{
    PhysMemory pm(2);
    auto f = *pm.allocFrame(1);
    std::vector<std::uint8_t> pattern(kPageSize);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
    pm.write(frameAddr(f), pattern);
    pm.populate(f);
    std::vector<std::uint8_t> out(kPageSize);
    pm.read(frameAddr(f), out);
    EXPECT_EQ(out, pattern);

    auto g = *pm.allocFrame(1);
    pm.populate(g);
    pm.read(frameAddr(g), out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
}

/** Minor plus major page faults this process has taken so far. */
long
pageFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt + ru.ru_majflt;
}

TEST(PhysMemory, NeverWrittenFrameReadsAsZerosWithoutFaulting)
{
    constexpr std::size_t kFrames = 512;
    PhysMemory pm(kFrames);
    for (std::size_t i = 0; i < kFrames; ++i)
        ASSERT_TRUE(pm.allocFrame(1).has_value());
    std::vector<std::uint8_t> out(kPageSize, 0xAB);  // resident now
    std::size_t nonzero = 0;
    long before = pageFaults();
    for (Pfn f = 0; f < kFrames; ++f) {
        pm.read(frameAddr(f), out);
        nonzero += static_cast<std::size_t>(
            std::count_if(out.begin(), out.end(),
                          [](std::uint8_t b) { return b != 0; }));
        out[0] = 0xAB;
    }
    [[maybe_unused]] long faults = pageFaults() - before;
    EXPECT_EQ(nonzero, 0u);
#ifndef __SANITIZE_THREAD__
    // Reading the store would fault in up to one page per frame; the
    // clean frames are never touched. (ThreadSanitizer's memset
    // resets and refaults its own shadow pages, so its count says
    // nothing about the store.)
    EXPECT_LT(faults, static_cast<long>(kFrames / 8));
#endif
}

TEST(PhysMemory, StoreBuiltAfterAWrittenOneReadsZeros)
{
    // Small enough that a heap allocator would reuse the first
    // store's block for the second. Reads of kStoreReadBytes go to
    // the store itself, not the written-frame bitmap.
    constexpr std::size_t kFrames = 16;
    for (int round = 0; round < 2; ++round) {
        PhysMemory pm(kFrames);
        std::size_t nonzero = 0;
        std::array<std::uint8_t, PhysMemory::kStoreReadBytes> chunk{};
        for (PhysAddr pa = 0; pa < kFrames * kPageSize;
             pa += chunk.size()) {
            pm.read(pa, chunk);
            nonzero += static_cast<std::size_t>(
                std::count_if(chunk.begin(), chunk.end(),
                              [](std::uint8_t b) { return b != 0; }));
        }
        EXPECT_EQ(nonzero, 0u) << round;
        std::vector<std::uint8_t> ones(kPageSize, 0xA5);
        for (std::size_t i = 0; i < kFrames; ++i)
            pm.write(frameAddr(*pm.allocFrame(1)), ones);
    }
}

TEST(PhysMemory, ReadStraddlingWrittenAndCleanFrames)
{
    PhysMemory pm(3);
    Pfn a = *pm.allocFrame(1);
    Pfn b = *pm.allocFrame(1);
    Pfn c = *pm.allocFrame(1);
    ASSERT_EQ(b, a + 1);
    ASSERT_EQ(c, b + 1);
    std::vector<std::uint8_t> tail(100), head(50);
    std::iota(tail.begin(), tail.end(), std::uint8_t{1});
    std::iota(head.begin(), head.end(), std::uint8_t{150});
    pm.write(frameAddr(b) - tail.size(), tail);  // end of a
    pm.write(frameAddr(c), head);                // start of c

    // [a's last 200 bytes: 100 zeros, then tail][b: clean][c: head...]
    std::vector<std::uint8_t> out(200 + kPageSize + 80, 0xEE);
    pm.read(frameAddr(b) - 200, out);
    std::vector<std::uint8_t> want(out.size(), 0);
    std::copy(tail.begin(), tail.end(), want.begin() + 100);
    std::copy(head.begin(), head.end(), want.begin() + 200 + kPageSize);
    EXPECT_EQ(out, want);
}

TEST(PhysMemory, WrittenFreedAndReallocatedFrameReadsAsZeros)
{
    PhysMemory pm(2);
    Pfn f = *pm.allocFrame(1);
    pm.write(frameAddr(f), std::vector<std::uint8_t>(kPageSize, 0x77));
    pm.freeFrame(f);
    ASSERT_EQ(*pm.allocFrame(2), f);
    std::vector<std::uint8_t> out(kPageSize, 1);
    pm.read(frameAddr(f), out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));

    // A later partial write shows through; the rest stays zero.
    std::array<std::uint8_t, 4> bytes{5, 6, 7, 8};
    pm.write(frameAddr(f) + 50, bytes);
    pm.read(frameAddr(f), out);
    std::vector<std::uint8_t> want(kPageSize, 0);
    std::copy(bytes.begin(), bytes.end(), want.begin() + 50);
    EXPECT_EQ(out, want);
}

TEST(PhysMemory, CleanReadsKeepZeroFillAndPopulateMeanings)
{
    PhysMemory pm(3);
    Pfn f = *pm.allocFrame(1);
    Pfn g = *pm.allocFrame(1);
    std::vector<std::uint8_t> out(kPageSize);
    // Reading clean frames is not a zero fill.
    pm.read(frameAddr(f), out);
    EXPECT_EQ(pm.totalZeroFills(), 0u);
    // populate() changes no bytes and is not a write: a clean frame
    // still reads as zeros, a written one keeps its contents.
    std::vector<std::uint8_t> pattern(kPageSize);
    std::iota(pattern.begin(), pattern.end(), std::uint8_t{3});
    pm.write(frameAddr(g), pattern);
    pm.populate(f);
    pm.populate(g);
    pm.read(frameAddr(f), out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
    pm.read(frameAddr(g), out);
    EXPECT_EQ(out, pattern);
    // Every reuse of a freed frame is one zero fill, written or not.
    pm.freeFrame(f);
    pm.freeFrame(g);
    ASSERT_EQ(*pm.allocFrame(2), g);
    ASSERT_EQ(*pm.allocFrame(2), f);
    EXPECT_EQ(pm.totalZeroFills(), 2u);
    pm.read(frameAddr(g), out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
}

TEST(AddressSpace, DemandMapsOnTouch)
{
    PhysMemory pm(4);
    AddressSpace as(1, pm);
    EXPECT_FALSE(as.lookup(5).has_value());
    auto f = as.touch(5);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(as.lookup(5), f);
    EXPECT_EQ(as.mappedPages(), 1u);
    // Touch again: same frame, no new allocation.
    EXPECT_EQ(as.touch(5), f);
    EXPECT_EQ(pm.allocatedFrames(), 1u);
}

TEST(AddressSpace, UnwrittenPageReadsAsZero)
{
    PhysMemory pm(4);
    AddressSpace as(1, pm);
    std::vector<std::uint8_t> out(kPageSize + 100, 0xCD);
    as.readBytes(addrOf(2) + 50, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize + 100, 0));
    EXPECT_EQ(as.mappedPages(), 2u);
    EXPECT_EQ(pm.totalZeroFills(), 0u);
}

TEST(AddressSpace, TranslateComposesFrameAndOffset)
{
    PhysMemory pm(4);
    AddressSpace as(1, pm);
    auto pa = as.translate(addrOf(3) + 123);
    ASSERT_TRUE(pa.has_value());
    auto f = *as.lookup(3);
    EXPECT_EQ(*pa, frameAddr(f) + 123);
}

TEST(AddressSpace, UnmapFreesFrame)
{
    PhysMemory pm(1);
    AddressSpace as(1, pm);
    as.touch(0);
    EXPECT_EQ(pm.allocatedFrames(), 1u);
    as.unmap(0);
    EXPECT_EQ(pm.allocatedFrames(), 0u);
    EXPECT_FALSE(as.lookup(0).has_value());
}

TEST(AddressSpace, DestructorReleasesEverything)
{
    PhysMemory pm(8);
    {
        AddressSpace as(1, pm);
        for (Vpn v = 0; v < 5; ++v)
            as.touch(v);
        EXPECT_EQ(pm.allocatedFrames(), 5u);
    }
    EXPECT_EQ(pm.allocatedFrames(), 0u);
}

TEST(AddressSpace, UnmapAllFreesInAscendingVpnOrder)
{
    PhysMemory pm(8);
    AddressSpace as(1, pm);
    // Touch out of order: vpn 9 -> frame 0, 1 -> 1, 5 -> 2, 3 -> 3.
    for (Vpn v : {9, 1, 5, 3})
        as.touch(v);
    as.unmapAll();
    EXPECT_EQ(as.mappedPages(), 0u);
    // Freed in vpn order 1, 3, 5, 9, so reuse (LIFO) starts with the
    // frame of vpn 9, whatever the map's internal order.
    EXPECT_EQ(*pm.allocFrame(2), 0u);
    EXPECT_EQ(*pm.allocFrame(2), 2u);
    EXPECT_EQ(*pm.allocFrame(2), 3u);
    EXPECT_EQ(*pm.allocFrame(2), 1u);

    // The same across many page-table leaves: vpns on both sides of
    // 64-, 512- and 1024-page boundaries, and far above 2^20, touched
    // out of order. Frames recorded from the hash-map page table.
    PhysMemory pm2(32);
    AddressSpace wide(1, pm2);
    const Vpn vpns[] = {(Vpn{1} << 20) + 512, 1023, 64, Vpn{1} << 36,
                        0, (Vpn{1} << 20) - 1, 511, 1024,
                        (Vpn{1} << 20) + 511, 63, 512, Vpn{1} << 20,
                        (Vpn{1} << 36) - 1, 2047, 2048};
    for (Vpn v : vpns)
        wide.touch(v);
    wide.unmapAll();
    EXPECT_EQ(wide.mappedPages(), 0u);
    std::vector<Pfn> reuse;
    for (std::size_t i = 0; i < std::size(vpns); ++i)
        reuse.push_back(*pm2.allocFrame(2));
    EXPECT_EQ(reuse, (std::vector<Pfn>{3, 12, 0, 8, 11, 5, 14, 13, 7,
                                       1, 10, 6, 2, 9, 4}));
}

TEST(AddressSpace, ByteAccessStraddlesPages)
{
    PhysMemory pm(8);
    AddressSpace as(1, pm);
    std::vector<std::uint8_t> in(3 * kPageSize);
    std::iota(in.begin(), in.end(), 0);
    VirtAddr va = addrOf(10) + 1000;  // straddles pages 10..13
    as.writeBytes(va, in);
    std::vector<std::uint8_t> out(in.size());
    as.readBytes(va, out);
    EXPECT_EQ(in, out);
    EXPECT_EQ(as.mappedPages(), 4u);
}

TEST(AddressSpace, SpacesAreIsolated)
{
    PhysMemory pm(4);
    AddressSpace a(1, pm), b(2, pm);
    std::array<std::uint8_t, 4> ain{1, 1, 1, 1}, bin{2, 2, 2, 2};
    a.writeBytes(0, ain);
    b.writeBytes(0, bin);
    std::array<std::uint8_t, 4> out{};
    a.readBytes(0, out);
    EXPECT_EQ(out, ain);
    b.readBytes(0, out);
    EXPECT_EQ(out, bin);
    EXPECT_NE(*a.lookup(0), *b.lookup(0));
}

class PinFacilityTest : public ::testing::Test
{
  protected:
    PinFacilityTest() : pm(64), as(1, pm), proc(&pf.registerSpace(as))
    {
    }

    PhysMemory pm;
    AddressSpace as;
    PinFacility pf;
    PinFacility::Proc *proc;  //!< pid 1
};

TEST_F(PinFacilityTest, PinDemandMapsAndReturnsFrame)
{
    auto f = pf.pinPage(1, 10);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(as.lookup(10), f);
    EXPECT_TRUE(pf.isPinned(1, 10));
    EXPECT_EQ(pf.pinnedPages(1), 1u);
}

TEST_F(PinFacilityTest, PinsAreRefcounted)
{
    pf.pinPage(1, 3);
    pf.pinPage(1, 3);
    EXPECT_EQ(pf.pinRefs(1, 3), 2u);
    EXPECT_EQ(pf.pinnedPages(1), 1u);
    EXPECT_EQ(pf.unpinPage(1, 3), PinStatus::Ok);
    EXPECT_TRUE(pf.isPinned(1, 3));
    EXPECT_EQ(pf.unpinPage(1, 3), PinStatus::Ok);
    EXPECT_FALSE(pf.isPinned(1, 3));
}

TEST_F(PinFacilityTest, UnpinOfUnpinnedReportsNotPinned)
{
    EXPECT_EQ(pf.unpinPage(1, 99), PinStatus::NotPinned);
}

TEST_F(PinFacilityTest, UnknownProcessRejected)
{
    PinStatus st;
    EXPECT_FALSE(pf.pinPage(42, 0, &st).has_value());
    EXPECT_EQ(st, PinStatus::UnknownProcess);
}

TEST_F(PinFacilityTest, LimitCountsDistinctPages)
{
    pf.setPinLimit(1, 2);
    EXPECT_TRUE(pf.pinPage(1, 0).has_value());
    EXPECT_TRUE(pf.pinPage(1, 1).has_value());
    PinStatus st;
    EXPECT_FALSE(pf.pinPage(1, 2, &st).has_value());
    EXPECT_EQ(st, PinStatus::LimitExceeded);
    // Re-pinning an already-pinned page is not limited.
    EXPECT_TRUE(pf.pinPage(1, 0).has_value());
    // Unpinning frees budget.
    pf.unpinPage(1, 0);
    pf.unpinPage(1, 0);
    EXPECT_TRUE(pf.pinPage(1, 2).has_value());
}

TEST_F(PinFacilityTest, PinRangeIsAllOrNothing)
{
    pf.setPinLimit(1, 3);
    PageBuf frames, mapped;
    EXPECT_EQ(pf.pinRange(*proc, 0, 5, frames, mapped),
              PinStatus::LimitExceeded);
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(pf.pinnedPages(1), 0u);  // rollback happened

    EXPECT_EQ(pf.pinRange(*proc, 0, 3, frames, mapped), PinStatus::Ok);
    EXPECT_EQ(frames.size(), 3u);
    EXPECT_EQ(pf.pinnedPages(1), 3u);
}

TEST_F(PinFacilityTest, PinRangeReportsAndRollsBackDemandMaps)
{
    as.touch(1);           // mapped, not pinned
    pf.pinPage(1, 2);      // mapped and pinned
    PageBuf frames, mapped;
    ASSERT_EQ(pf.pinRange(*proc, 0, 4, frames, mapped), PinStatus::Ok);
    EXPECT_EQ(frames.size(), 4u);
    for (Vpn v = 0; v < 4; ++v)
        EXPECT_EQ(frames[v], *as.lookup(v));
    // Only the pages this call mapped are reported.
    EXPECT_EQ(std::vector<Vpn>(mapped.begin(), mapped.end()),
              (std::vector<Vpn>{0, 3}));

    // A failing run unmaps what it mapped and nothing else.
    pf.setPinLimit(1, 6);
    std::size_t mappedBefore = as.mappedPages();
    EXPECT_EQ(pf.pinRange(*proc, 3, 5, frames, mapped),
              PinStatus::LimitExceeded);
    EXPECT_TRUE(frames.empty());
    EXPECT_TRUE(mapped.empty());
    EXPECT_EQ(as.mappedPages(), mappedBefore);
    EXPECT_EQ(pf.pinnedPages(1), 4u);
    EXPECT_EQ(pf.pinRefs(1, 3), 1u);
}

TEST_F(PinFacilityTest, OutOfMemorySurfaces)
{
    PhysMemory tiny(1);
    AddressSpace space(9, tiny);
    PinFacility facility;
    facility.registerSpace(space);
    EXPECT_TRUE(facility.pinPage(9, 0).has_value());
    PinStatus st;
    EXPECT_FALSE(facility.pinPage(9, 1, &st).has_value());
    EXPECT_EQ(st, PinStatus::OutOfMemory);
}

TEST_F(PinFacilityTest, PinnedFrameIsStableAcrossOtherActivity)
{
    auto f = *pf.pinPage(1, 7);
    // Other pages come and go.
    for (Vpn v = 20; v < 30; ++v) {
        pf.pinPage(1, v);
        pf.unpinPage(1, v);
        as.unmap(v);
    }
    EXPECT_EQ(pf.pinnedFrame(1, 7), f);
    EXPECT_EQ(as.lookup(7), f);
}

TEST_F(PinFacilityTest, CountersTrackOps)
{
    pf.pinPage(1, 0);
    pf.pinPage(1, 0);
    pf.unpinPage(1, 0);
    pf.unpinPage(1, 0);
    pf.setPinLimit(1, 1);
    pf.pinPage(1, 1);
    PinStatus st;
    pf.pinPage(1, 2, &st);  // fails
    EXPECT_EQ(pf.totalPinOps(), 4u);
    EXPECT_EQ(pf.totalUnpinOps(), 2u);
    EXPECT_EQ(pf.totalPagesPinned(), 2u);
    EXPECT_EQ(pf.totalPagesUnpinned(), 1u);
    EXPECT_EQ(pf.totalFailedPins(), 1u);
}

TEST_F(PinFacilityTest, MultiProcessAccountingIsIndependent)
{
    AddressSpace as2(2, pm);
    pf.registerSpace(as2);
    pf.setPinLimit(1, 1);
    pf.pinPage(1, 0);
    EXPECT_TRUE(pf.pinPage(2, 0).has_value());  // separate budget
    EXPECT_EQ(pf.pinnedPages(1), 1u);
    EXPECT_EQ(pf.pinnedPages(2), 1u);
}

} // namespace

namespace {

TEST(PhysMemory, CapacityBytesMatchesFrames)
{
    PhysMemory pm(7);
    EXPECT_EQ(pm.capacityBytes(), 7u * kPageSize);
}

TEST(PhysMemory, ReallocatedFrameReadsAsZero)
{
    // Frames are zeroed on allocation: data never leaks between
    // owners through frame reuse.
    PhysMemory pm(1);
    auto f = *pm.allocFrame(1);
    std::array<std::uint8_t, 8> dirty{9, 9, 9, 9, 9, 9, 9, 9};
    pm.write(frameAddr(f), dirty);
    pm.freeFrame(f);
    auto f2 = *pm.allocFrame(2);
    ASSERT_EQ(f, f2);
    std::array<std::uint8_t, 8> out{1, 1, 1, 1, 1, 1, 1, 1};
    pm.read(frameAddr(f2), out);
    EXPECT_EQ(out, (std::array<std::uint8_t, 8>{}));
}

TEST_F(PinFacilityTest, UnregisterProcessDropsItsState)
{
    pf.pinPage(1, 5);
    pf.unregisterProcess(1);
    EXPECT_FALSE(pf.isPinned(1, 5));
    EXPECT_EQ(pf.pinnedPages(1), 0u);
    // Pins from an unregistered process are rejected again.
    PinStatus st;
    EXPECT_FALSE(pf.pinPage(1, 6, &st).has_value());
    EXPECT_EQ(st, PinStatus::UnknownProcess);
}

TEST_F(PinFacilityTest, ReregisteringAfterUnregisterLeavesNoPins)
{
    pf.pinPage(1, 5);
    pf.pinPage(1, 5);
    pf.pinPage(1, 700);
    pf.unregisterProcess(1);
    pf.registerSpace(as);
    EXPECT_EQ(pf.pinnedPages(1), 0u);
    EXPECT_FALSE(pf.isPinned(1, 5));
    EXPECT_EQ(pf.pinRefs(1, 5), 0u);
    EXPECT_FALSE(pf.pinnedFrame(1, 700).has_value());
    EXPECT_EQ(pf.unpinPage(1, 700), PinStatus::NotPinned);
    // The mappings survive; only the pins went.
    EXPECT_EQ(as.mappedPages(), 2u);
    ASSERT_TRUE(pf.pinPage(1, 5).has_value());
    EXPECT_EQ(pf.pinRefs(1, 5), 1u);
    EXPECT_EQ(pf.pinnedPages(1), 1u);
    EXPECT_EQ(pf.unpinPage(1, 5), PinStatus::Ok);
    as.unmapAll();  // nothing is pinned, so nothing trips the check
    EXPECT_EQ(as.mappedPages(), 0u);
}

// Unmapping a page the facility still holds pinned is a checked
// error; the check only exists where UTLB_ASSERT is live.
#if UTLB_CHECK_LEVEL >= 1
TEST_F(PinFacilityTest, UnmappingPinnedPageTripsCheck)
{
    ASSERT_TRUE(pf.pinPage(1, 9).has_value());
    EXPECT_DEATH(as.unmap(9), "pinned");
    EXPECT_DEATH(as.unmapAll(), "pinned");
    ASSERT_EQ(pf.unpinPage(1, 9), PinStatus::Ok);
    as.unmap(9);
    EXPECT_FALSE(as.lookup(9).has_value());
}
#endif

} // namespace
