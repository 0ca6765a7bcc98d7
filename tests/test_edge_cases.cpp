/**
 * @file
 * Edge-case suite: boundary conditions and error paths that the
 * per-module suites do not reach — zero-length operations, leaf
 * boundaries, dead exports, batch unpins over partially-pinned
 * ranges, and defensive death checks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/driver.hpp"
#include "core/translation_table.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "net/network.hpp"
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/event_queue.hpp"
#include "vmmc/system.hpp"

namespace {

using namespace utlb;
using core::HostPageTable;
using core::UserUtlb;
using core::UtlbConfig;
using mem::addrOf;
using mem::AddressSpace;
using mem::kPageSize;
using mem::PinStatus;
using mem::Vpn;
using nic::NicTimings;

class EdgeStack : public ::testing::Test, protected NodeStack
{
  protected:
    EdgeStack() : NodeStack({256, 1, true}, 4096), space(1, physMem)
    {
        driver.registerProcess(space);
    }

    AddressSpace space;
};

TEST_F(EdgeStack, ZeroLengthTranslateIsANoop)
{
    UserUtlb utlb(driver, cache, timings, 1, {});
    auto tr = utlb.translate(addrOf(10), 0);
    EXPECT_TRUE(tr.ok);
    EXPECT_TRUE(tr.pageAddrs.empty());
    EXPECT_EQ(tr.hostCost, 0u);
    EXPECT_EQ(pins.pinnedPages(1), 0u);
}

TEST_F(EdgeStack, ZeroPageIoctlsAreFreeAndSucceed)
{
    auto pin = driver.ioctlPinAndInstall(1, 10, 0);
    EXPECT_EQ(pin.status, PinStatus::Ok);
    EXPECT_EQ(pin.cost, 0u);
    EXPECT_EQ(pin.pagesDone, 0u);
}

TEST_F(EdgeStack, BatchUnpinSkipsUnpinnedHoles)
{
    // Pin pages 10 and 12 but not 11; a batch unpin of [10,13)
    // unpins exactly the two pinned pages.
    driver.ioctlPinAndInstall(1, 10, 1);
    driver.ioctlPinAndInstall(1, 12, 1);
    auto res = driver.ioctlUnpinAndInvalidate(1, 10, 3);
    EXPECT_EQ(res.status, PinStatus::Ok);
    EXPECT_EQ(res.pagesDone, 2u);
    EXPECT_FALSE(pins.isPinned(1, 10));
    EXPECT_FALSE(pins.isPinned(1, 12));
}

TEST_F(EdgeStack, PrefetchRequestLargerThanLeafTruncates)
{
    // Pin a run straddling a leaf boundary; a miss just before the
    // boundary fetches only up to the leaf's end (one DMA reads one
    // physically contiguous table).
    const Vpn boundary = HostPageTable::kLeafEntries;
    UtlbConfig cfg;
    cfg.prefetchEntries = 32;
    UserUtlb utlb(driver, cache, timings, 1, cfg);
    utlb.prepare(addrOf(boundary - 4), 8 * kPageSize);
    auto nl = utlb.nicTranslate(boundary - 4);
    EXPECT_TRUE(nl.miss);
    EXPECT_EQ(nl.fetched, 4u);  // truncated at the leaf edge
    // Pages past the boundary were not installed by this miss.
    EXPECT_FALSE(cache.peek(1, boundary).has_value());
    // ...but translate fine on their own (next leaf).
    auto nl2 = utlb.nicTranslate(boundary);
    EXPECT_TRUE(nl2.miss);
    EXPECT_FALSE(nl2.fault);
}

TEST_F(EdgeStack, LookupSpanningLeafBoundaryWorks)
{
    const Vpn boundary = HostPageTable::kLeafEntries;
    UserUtlb utlb(driver, cache, timings, 1, {});
    auto tr = utlb.translate(addrOf(boundary - 1), 2 * kPageSize);
    ASSERT_TRUE(tr.ok);
    ASSERT_EQ(tr.pageAddrs.size(), 2u);
    EXPECT_EQ(driver.pageTable(1).leafTables(), 2u);
    EXPECT_EQ(tr.faults, 0u);
}

TEST_F(EdgeStack, RepinningBumpsRefcountNotBudget)
{
    pins.setPinLimit(1, 4);
    driver.ioctlPinAndInstall(1, 0, 4);
    // Pin the same range again: refcounts go to 2, the limit is not
    // exceeded, and a single unpin leaves everything resident.
    auto res = driver.ioctlPinAndInstall(1, 0, 4);
    EXPECT_EQ(res.status, PinStatus::Ok);
    driver.ioctlUnpinAndInvalidate(1, 0, 4);
    for (Vpn v = 0; v < 4; ++v) {
        EXPECT_TRUE(pins.isPinned(1, v));
        EXPECT_TRUE(driver.pageTable(1).get(v).has_value());
    }
}

TEST(NetworkEdge, IsNodeDownReflectsState)
{
    sim::EventQueue eq;
    NicTimings t;
    net::Network net(eq, t, {2, 0.0, true, 1});
    EXPECT_FALSE(net.isNodeDown(0));
    net.setNodeDown(0, true);
    EXPECT_TRUE(net.isNodeDown(0));
    net.setNodeDown(0, false);
    EXPECT_FALSE(net.isNodeDown(0));
    // Unknown node queries are safe (false), setting them panics.
    EXPECT_FALSE(net.isNodeDown(99));
}

TEST(NetworkEdgeDeath, PacketToNonexistentNodePanics)
{
    EXPECT_DEATH(
        {
            sim::EventQueue eq;
            NicTimings t;
            net::Network net(eq, t, {2, 0.0, true, 1});
            net::Packet p;
            p.hdr.src = 0;
            p.hdr.dst = 7;
            net.send(std::move(p));
        },
        "nonexistent");
}

TEST(VmmcEdge, DepositToUnexportedBufferIsDroppedSafely)
{
    vmmc::ClusterConfig cfg;
    cfg.nodes = 2;
    vmmc::Cluster cluster(cfg);
    auto &a = cluster.node(0);
    auto &b = cluster.node(1);
    a.createProcess(1);
    b.createProcess(2);
    auto exp = b.exportBuffer(2, addrOf(20), kPageSize);
    auto slot = a.importBuffer(1, 1, *exp);

    std::vector<std::uint8_t> data(64, 7);
    a.space(1).writeBytes(addrOf(5), data);
    // Unexport *before* the transfer lands: the stale deposit is
    // dropped with a warning, not written through a dead handle.
    ASSERT_TRUE(a.send(1, addrOf(5), 64, slot, 0));
    b.unexportBuffer(*exp);
    cluster.run();
    EXPECT_EQ(b.bytesDeposited(), 0u);
    std::vector<std::uint8_t> got(64);
    b.space(2).readBytes(addrOf(20), got);
    EXPECT_EQ(std::count(got.begin(), got.end(), 0), 64);
}

TEST(VmmcEdge, RedirectOnDeadOrBogusExportFails)
{
    vmmc::ClusterConfig cfg;
    cfg.nodes = 1;
    vmmc::Cluster cluster(cfg);
    auto &n = cluster.node(0);
    n.createProcess(1);
    EXPECT_FALSE(n.redirect(42, addrOf(1)));   // never existed
    auto exp = n.exportBuffer(1, addrOf(10), kPageSize);
    n.unexportBuffer(*exp);
    EXPECT_FALSE(n.redirect(*exp, addrOf(1))); // dead
    EXPECT_FALSE(n.unredirect(*exp));
}

TEST(VmmcEdge, FetchBeyondExportBoundsIsClampedToNothing)
{
    vmmc::ClusterConfig cfg;
    cfg.nodes = 2;
    vmmc::Cluster cluster(cfg);
    auto &a = cluster.node(0);
    auto &b = cluster.node(1);
    a.createProcess(1);
    b.createProcess(2);
    auto exp = b.exportBuffer(2, addrOf(20), kPageSize);
    auto slot = a.importBuffer(1, 1, *exp);
    // Offset past the end of the exported buffer: the responder
    // sends nothing; the requester's transfer never completes but
    // the system stays healthy.
    ASSERT_TRUE(a.fetch(1, addrOf(50), 256, slot, 10 * kPageSize));
    cluster.run();
    EXPECT_EQ(a.transfersCompleted(), 0u);
    // Normal traffic still flows afterwards.
    ASSERT_TRUE(a.fetch(1, addrOf(60), 256, slot, 0));
    cluster.run();
    EXPECT_EQ(a.transfersCompleted(), 1u);
}

TEST(ReliableEdge, StaleAckDoesNotRewindTheWindow)
{
    sim::EventQueue eq;
    NicTimings t;
    net::Network net(eq, t, {2, 0.0, true, 1});
    vmmc::ReliableEndpoint a(0, net, eq), b(1, net, eq);
    std::size_t delivered = 0;
    net.attach(0, [&](const net::Packet &p) { a.onPacket(p); });
    net.attach(1, [&](const net::Packet &p) {
        if (b.onPacket(p))
            ++delivered;
    });
    for (int i = 0; i < 5; ++i) {
        net::Packet p;
        p.hdr.type = net::PacketType::Data;
        p.hdr.src = 0;
        p.hdr.dst = 1;
        a.sendReliable(std::move(p));
    }
    eq.run();
    EXPECT_EQ(delivered, 5u);
    EXPECT_EQ(a.unackedPackets(), 0u);
    // Replay an old ack out of the blue: must be ignored.
    net::Packet stale;
    stale.hdr.type = net::PacketType::Ack;
    stale.hdr.src = 1;
    stale.hdr.dst = 0;
    stale.hdr.ackSeq = 1;
    a.onPacket(stale);
    // New traffic continues with correct sequencing.
    net::Packet p;
    p.hdr.type = net::PacketType::Data;
    p.hdr.src = 0;
    p.hdr.dst = 1;
    a.sendReliable(std::move(p));
    eq.run();
    EXPECT_EQ(delivered, 6u);
    EXPECT_EQ(a.unackedPackets(), 0u);
}

} // namespace
