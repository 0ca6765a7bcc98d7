/**
 * @file
 * Unit tests for the NIC model: SRAM, timing curves (anchored to
 * the paper's Table 2), DMA engine, and command posts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "mem/phys_memory.hpp"
#include "nic/command_post.hpp"
#include "nic/dma.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"

namespace {

using namespace utlb::nic;
using utlb::mem::frameAddr;
using utlb::mem::PhysMemory;
using utlb::sim::ticksToUs;
using utlb::sim::usToTicks;

TEST(Sram, AllocatesAlignedNamedRegions)
{
    Sram s(1024);
    auto a = s.alloc("a", 10);
    ASSERT_TRUE(a.has_value());
    auto b = s.alloc("b", 10);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b % 8, 0u);
    EXPECT_GT(*b, *a);
    EXPECT_EQ(s.regionBase("a"), a);
    EXPECT_EQ(s.regionSize("b"), 10u);
    EXPECT_FALSE(s.regionBase("missing").has_value());
}

TEST(Sram, ExhaustionReturnsNullopt)
{
    Sram s(64);
    EXPECT_TRUE(s.alloc("a", 60).has_value());
    EXPECT_FALSE(s.alloc("b", 8).has_value());
}

TEST(Sram, WordAndByteAccessAgree)
{
    Sram s(64);
    s.writeWord(8, 0xdeadbeef);
    EXPECT_EQ(s.readWord(8), 0xdeadbeefu);
    std::array<std::uint8_t, 4> bytes{};
    s.read(8, bytes);
    EXPECT_EQ(bytes[0], 0xef);
    EXPECT_EQ(bytes[3], 0xde);
}

TEST(Sram, ResetWipesContentsAndRegions)
{
    Sram s(64);
    s.alloc("a", 8);
    s.writeWord(0, 42);
    s.reset();
    EXPECT_EQ(s.readWord(0), 0u);
    EXPECT_EQ(s.used(), 0u);
    EXPECT_FALSE(s.regionBase("a").has_value());
}

/** Bytes of @p s that are not zero. */
std::size_t
nonzeroBytes(const Sram &s)
{
    std::vector<std::uint8_t> all(s.capacity());
    s.read(0, all);
    return all.size()
        - static_cast<std::size_t>(std::count(all.begin(), all.end(), 0));
}

TEST(Sram, StoreBuiltAfterAWrittenOneReadsZeros)
{
    // The second board may reuse the first one's host memory.
    for (int round = 0; round < 2; ++round) {
        Sram s(4u << 20);
        EXPECT_EQ(nonzeroBytes(s), 0u) << round;
        std::vector<std::uint8_t> ones(s.capacity(), 0xA5);
        s.write(0, ones);
        EXPECT_EQ(nonzeroBytes(s), s.capacity()) << round;
    }
}

TEST(Sram, FreedRegionReadsZerosWhenReallocated)
{
    Sram s(1u << 16);
    auto a = s.alloc("a", 5000);
    ASSERT_TRUE(a.has_value());
    std::vector<std::uint8_t> ones(5000, 0xA5);
    s.write(*a, ones);
    ASSERT_TRUE(s.free("a"));
    auto b = s.alloc("b", 5000);
    ASSERT_EQ(b, a);
    std::vector<std::uint8_t> out(5000, 0xFF);
    s.read(*b, out);
    EXPECT_EQ(std::count(out.begin(), out.end(), 0), 5000);
}

TEST(Sram, ResetLeavesEveryByteZero)
{
    Sram s(1u << 16);
    std::vector<std::uint8_t> ones(s.capacity(), 0xA5);
    s.write(0, ones);
    s.reset();
    EXPECT_EQ(nonzeroBytes(s), 0u);
    s.write(0, ones);
    EXPECT_EQ(nonzeroBytes(s), s.capacity());
}

TEST(Sram, DefaultCapacityIsOneMegabyte)
{
    Sram s;
    EXPECT_EQ(s.capacity(), 1u << 20);
}

TEST(NicTimings, Table2DmaCostRowIsExact)
{
    NicTimings t;
    EXPECT_EQ(t.entryFetchCost(1), usToTicks(1.5));
    EXPECT_EQ(t.entryFetchCost(2), usToTicks(1.6));
    EXPECT_EQ(t.entryFetchCost(4), usToTicks(1.6));
    EXPECT_EQ(t.entryFetchCost(8), usToTicks(1.9));
    EXPECT_EQ(t.entryFetchCost(16), usToTicks(2.1));
    EXPECT_EQ(t.entryFetchCost(32), usToTicks(2.5));
}

TEST(NicTimings, Table2MissCostRowIsExact)
{
    NicTimings t;
    EXPECT_EQ(t.missHandleCost(1), usToTicks(1.8));
    EXPECT_EQ(t.missHandleCost(2), usToTicks(1.9));
    EXPECT_EQ(t.missHandleCost(4), usToTicks(1.9));
    EXPECT_EQ(t.missHandleCost(8), usToTicks(2.3));
    EXPECT_EQ(t.missHandleCost(16), usToTicks(2.8));
    EXPECT_EQ(t.missHandleCost(32), usToTicks(3.2));
}

TEST(NicTimings, CurvesInterpolateMonotonically)
{
    NicTimings t;
    auto prev = t.entryFetchCost(1);
    for (std::size_t n = 2; n <= 64; ++n) {
        auto cur = t.entryFetchCost(n);
        EXPECT_GE(cur, prev) << "at n=" << n;
        prev = cur;
    }
}

TEST(NicTimings, HitCostIsPaperConstant)
{
    NicTimings t;
    EXPECT_EQ(t.cacheHitCost, usToTicks(0.8));
    EXPECT_EQ(t.interruptCost, usToTicks(10.0));
}

TEST(NicTimings, PayloadDmaScalesWithSize)
{
    NicTimings t;
    auto small = t.payloadDmaCost(64);
    auto page = t.payloadDmaCost(4096);
    EXPECT_GT(page, small);
    // 4 KB at ~133 MB/s is ~30.8 us plus setup.
    EXPECT_NEAR(ticksToUs(page), 1.0 + 4096.0 / 133.0, 1.0);
}

TEST(NicTimings, LinkBandwidthIs160MBps)
{
    NicTimings t;
    // 160 bytes at 160 MB/s = 1 us.
    EXPECT_NEAR(ticksToUs(t.linkTransferCost(160)), 1.0, 1e-6);
    EXPECT_NEAR(ticksToUs(t.linkTransferCost(160'000'000)), 1e6, 1.0);
}

TEST(DmaEngine, MovesBytesHostToNicAndBack)
{
    PhysMemory pm(4);
    Sram sram(65536);
    NicTimings t;
    DmaEngine dma(pm, sram, t);

    auto f = *pm.allocFrame(1);
    std::vector<std::uint8_t> data(256);
    std::iota(data.begin(), data.end(), 0);
    pm.write(frameAddr(f), data);

    auto base = *sram.alloc("stage", 256);
    auto cost1 = dma.hostToNic(frameAddr(f), base, 256);
    EXPECT_GT(cost1, 0u);

    auto f2 = *pm.allocFrame(1);
    dma.nicToHost(base, frameAddr(f2), 256);

    std::vector<std::uint8_t> out(256);
    pm.read(frameAddr(f2), out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(dma.bytesToNic(), 256u);
    EXPECT_EQ(dma.bytesToHost(), 256u);
    EXPECT_EQ(dma.transfers(), 2u);
}

TEST(DmaEngine, HostToHostPreservesData)
{
    PhysMemory pm(4);
    Sram sram(4096);
    NicTimings t;
    DmaEngine dma(pm, sram, t);
    auto a = *pm.allocFrame(1);
    auto b = *pm.allocFrame(2);
    std::vector<std::uint8_t> data(4096, 0x5a);
    pm.write(frameAddr(a), data);
    dma.hostToHost(frameAddr(a), frameAddr(b), 4096);
    std::vector<std::uint8_t> out(4096);
    pm.read(frameAddr(b), out);
    EXPECT_EQ(out, data);
}

TEST(CommandPost, PostAndPollFifoOrder)
{
    Sram sram(4096);
    CommandPost post(sram, 1, 4);
    for (std::uint32_t i = 0; i < 3; ++i) {
        Command cmd;
        cmd.op = CommandOp::SendVirt;
        cmd.seq = i;
        cmd.localVa = 0x1000 * i;
        cmd.nbytes = 100 + i;
        EXPECT_TRUE(post.post(cmd));
    }
    EXPECT_EQ(post.depth(), 3u);
    for (std::uint32_t i = 0; i < 3; ++i) {
        auto cmd = post.poll();
        ASSERT_TRUE(cmd.has_value());
        EXPECT_EQ(cmd->seq, i);
        EXPECT_EQ(cmd->localVa, 0x1000ull * i);
        EXPECT_EQ(cmd->nbytes, 100u + i);
        EXPECT_EQ(cmd->op, CommandOp::SendVirt);
    }
    EXPECT_FALSE(post.poll().has_value());
}

TEST(CommandPost, FullRingRejectsPosts)
{
    Sram sram(4096);
    CommandPost post(sram, 1, 2);
    Command cmd;
    EXPECT_TRUE(post.post(cmd));
    EXPECT_TRUE(post.post(cmd));
    EXPECT_TRUE(post.full());
    EXPECT_FALSE(post.post(cmd));
    EXPECT_EQ(post.totalRejected(), 1u);
    post.poll();
    EXPECT_TRUE(post.post(cmd));
    EXPECT_EQ(post.totalPosted(), 3u);
}

TEST(CommandPost, WrapsAroundManyTimes)
{
    Sram sram(4096);
    CommandPost post(sram, 1, 3);
    for (std::uint32_t i = 0; i < 100; ++i) {
        Command cmd;
        cmd.seq = i;
        ASSERT_TRUE(post.post(cmd));
        auto got = post.poll();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->seq, i);
    }
}

TEST(CommandPost, AllFieldsRoundTrip)
{
    Sram sram(4096);
    CommandPost post(sram, 5, 2);
    Command cmd;
    cmd.op = CommandOp::FetchVirt;
    cmd.seq = 0xabcd;
    cmd.localVa = 0x123456789abcull;
    cmd.nbytes = 0xffffffff;
    cmd.importSlot = 17;
    cmd.remoteOffset = 0xfedcba9876ull;
    cmd.utlbIndex = 4242;
    post.post(cmd);
    auto got = *post.poll();
    EXPECT_EQ(got.op, cmd.op);
    EXPECT_EQ(got.seq, cmd.seq);
    EXPECT_EQ(got.localVa, cmd.localVa);
    EXPECT_EQ(got.nbytes, cmd.nbytes);
    EXPECT_EQ(got.importSlot, cmd.importSlot);
    EXPECT_EQ(got.remoteOffset, cmd.remoteOffset);
    EXPECT_EQ(got.utlbIndex, cmd.utlbIndex);
}

TEST(CommandPost, TwoPostsShareSramIndependently)
{
    Sram sram(4096);
    CommandPost a(sram, 1, 2), b(sram, 2, 2);
    Command cmd;
    cmd.seq = 11;
    a.post(cmd);
    cmd.seq = 22;
    b.post(cmd);
    EXPECT_EQ(a.poll()->seq, 11u);
    EXPECT_EQ(b.poll()->seq, 22u);
}

} // namespace

namespace {

TEST(DmaEngine, ReturnedCostsMatchTheTimingModel)
{
    PhysMemory pm(4);
    Sram sram(65536);
    NicTimings t;
    DmaEngine dma(pm, sram, t);
    auto f = *pm.allocFrame(1);
    auto base = *sram.alloc("x", 4096);
    EXPECT_EQ(dma.hostToNic(frameAddr(f), base, 4096),
              t.payloadDmaCost(4096));
    EXPECT_EQ(dma.nicToHost(base, frameAddr(f), 100),
              t.payloadDmaCost(100));
}

TEST(NicTimings, MissCostExceedsDmaCostByHandlingOverhead)
{
    // Table 2's structure: total miss cost > pure DMA cost at every
    // batch size (directory reference + install work).
    NicTimings t;
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u})
        EXPECT_GT(t.missHandleCost(n), t.entryFetchCost(n)) << n;
}

} // namespace
