/**
 * @file
 * Integration tests for the VMMC communication model: export /
 * import, remote store, remote fetch, transfer redirection, and the
 * whole stack under packet loss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mem/page.hpp"
#include "vmmc/system.hpp"

namespace {

using namespace utlb::vmmc;
using utlb::mem::addrOf;
using utlb::mem::kPageSize;
using utlb::mem::pageOf;
using utlb::mem::VirtAddr;
using utlb::sim::Tick;
using utlb::sim::ticksToUs;
using utlb::sim::usToTicks;

/** Fill a process buffer with a recognizable pattern. */
std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

class VmmcRig : public ::testing::Test
{
  protected:
    VmmcRig() : VmmcRig(0.0) {}

    explicit VmmcRig(double loss)
        : cluster(makeConfig(loss)),
          sender(cluster.node(0)), receiver(cluster.node(1))
    {
        sender.createProcess(1);
        receiver.createProcess(2);
    }

    static ClusterConfig
    makeConfig(double loss)
    {
        ClusterConfig cfg;
        cfg.nodes = 2;
        cfg.lossProbability = loss;
        cfg.node.memoryFrames = 4096;
        cfg.node.cache = {1024, 1, true};
        return cfg;
    }

    /** Export on the receiver and import on the sender. */
    ImportSlot
    wireBuffers(VirtAddr recv_va, std::size_t bytes)
    {
        auto exp = receiver.exportBuffer(2, recv_va, bytes);
        EXPECT_TRUE(exp.has_value());
        exportId = *exp;
        return sender.importBuffer(1, 1, *exp);
    }

    Cluster cluster;
    VmmcNode &sender;
    VmmcNode &receiver;
    ExportId exportId = 0;
};

TEST_F(VmmcRig, SinglePageRemoteStoreDeliversBytes)
{
    VirtAddr send_va = addrOf(10);
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, kPageSize);

    auto data = pattern(1024, 3);
    sender.space(1).writeBytes(send_va, data);
    ASSERT_TRUE(sender.send(1, send_va, data.size(), slot, 0));
    cluster.run();

    std::vector<std::uint8_t> got(data.size());
    receiver.space(2).readBytes(recv_va, got);
    EXPECT_EQ(got, data);
    EXPECT_EQ(receiver.bytesDeposited(), data.size());
    EXPECT_EQ(receiver.transfersCompleted(), 1u);
}

TEST_F(VmmcRig, MultiPageUnalignedTransfer)
{
    VirtAddr send_va = addrOf(10) + 123;   // unaligned source
    VirtAddr recv_va = addrOf(20) + 1111;  // differently unaligned dst
    std::size_t nbytes = 3 * kPageSize + 700;
    auto slot = wireBuffers(recv_va, nbytes);

    auto data = pattern(nbytes, 9);
    sender.space(1).writeBytes(send_va, data);
    ASSERT_TRUE(sender.send(1, send_va, nbytes, slot, 0));
    cluster.run();

    std::vector<std::uint8_t> got(nbytes);
    receiver.space(2).readBytes(recv_va, got);
    EXPECT_EQ(got, data);
    EXPECT_GE(sender.fragmentsSent(), 4u);
}

TEST_F(VmmcRig, StoreOfWrittenThenNeverWrittenPageComparesByteForByte)
{
    // Page 10 is written, page 11 never is: the second fragment is a
    // zero payload, and it lands across two receiver pages that hold
    // a pattern.
    VirtAddr send_va = addrOf(10) + 123;
    std::size_t nbytes = kPageSize + 1000;
    auto first = pattern(kPageSize, 5);
    sender.space(1).writeBytes(addrOf(10), first);

    VirtAddr recv_va = addrOf(20);
    std::size_t offset = 1111;
    auto slot = wireBuffers(recv_va, 3 * kPageSize);
    auto before = pattern(3 * kPageSize, 200);
    receiver.space(2).writeBytes(recv_va, before);
    ASSERT_TRUE(sender.send(1, send_va, nbytes, slot, offset));
    cluster.run();

    std::vector<std::uint8_t> want = before;
    for (std::size_t i = 0; i < nbytes; ++i)
        want[offset + i] = 123 + i < kPageSize ? first[123 + i] : 0;
    std::vector<std::uint8_t> got(want.size());
    receiver.space(2).readBytes(recv_va, got);
    EXPECT_EQ(got, want);
    EXPECT_EQ(sender.fragmentsSent(), 2u);
    // The sender read page 11 without writing it.
    auto pfn = sender.space(1).lookup(11);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_FALSE(sender.physMemory().isWritten(*pfn));
}

TEST_F(VmmcRig, RemoteOffsetPlacesDataWithinBuffer)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, 2 * kPageSize);
    auto data = pattern(256, 1);
    sender.space(1).writeBytes(addrOf(5), data);
    ASSERT_TRUE(sender.send(1, addrOf(5), 256, slot, 5000));
    cluster.run();
    std::vector<std::uint8_t> got(256);
    receiver.space(2).readBytes(recv_va + 5000, got);
    EXPECT_EQ(got, data);
}

TEST_F(VmmcRig, BackToBackSendsAllArrive)
{
    VirtAddr recv_va = addrOf(50);
    auto slot = wireBuffers(recv_va, 32 * kPageSize);
    for (int i = 0; i < 16; ++i) {
        auto data = pattern(kPageSize, static_cast<std::uint8_t>(i));
        sender.space(1).writeBytes(addrOf(100 + i), data);
        ASSERT_TRUE(sender.send(1, addrOf(100 + i), kPageSize, slot,
                                static_cast<std::uint64_t>(i)
                                    * kPageSize));
    }
    cluster.run();
    for (int i = 0; i < 16; ++i) {
        std::vector<std::uint8_t> got(kPageSize);
        receiver.space(2).readBytes(
            recv_va + static_cast<std::uint64_t>(i) * kPageSize, got);
        EXPECT_EQ(got, pattern(kPageSize, static_cast<std::uint8_t>(i)))
            << "transfer " << i;
    }
    EXPECT_EQ(receiver.bytesDeposited(), 16u * kPageSize);
}

TEST_F(VmmcRig, RemoteFetchPullsData)
{
    // Receiver exports a buffer containing data; sender fetches it.
    VirtAddr remote_va = addrOf(30);
    auto data = pattern(2 * kPageSize, 17);
    receiver.space(2).writeBytes(remote_va, data);
    auto slot = wireBuffers(remote_va, 2 * kPageSize);

    VirtAddr local_va = addrOf(60) + 64;
    ASSERT_TRUE(sender.fetch(1, local_va, data.size(), slot, 0));
    cluster.run();

    std::vector<std::uint8_t> got(data.size());
    sender.space(1).readBytes(local_va, got);
    EXPECT_EQ(got, data);
    EXPECT_EQ(sender.transfersCompleted(), 1u);
}

TEST_F(VmmcRig, FetchWithOffsetReadsTheRightWindow)
{
    VirtAddr remote_va = addrOf(30);
    auto data = pattern(4 * kPageSize, 5);
    receiver.space(2).writeBytes(remote_va, data);
    auto slot = wireBuffers(remote_va, 4 * kPageSize);

    ASSERT_TRUE(sender.fetch(1, addrOf(70), 512, slot, 6000));
    cluster.run();

    std::vector<std::uint8_t> got(512);
    sender.space(1).readBytes(addrOf(70), got);
    std::vector<std::uint8_t> want(data.begin() + 6000,
                                   data.begin() + 6512);
    EXPECT_EQ(got, want);
}

TEST_F(VmmcRig, RedirectionDepositsAtNewBuffer)
{
    VirtAddr recv_va = addrOf(20);
    VirtAddr redirect_va = addrOf(90) + 256;
    auto slot = wireBuffers(recv_va, kPageSize);
    ASSERT_TRUE(receiver.redirect(exportId, redirect_va));

    auto data = pattern(2000, 11);
    sender.space(1).writeBytes(addrOf(4), data);
    ASSERT_TRUE(sender.send(1, addrOf(4), data.size(), slot, 0));
    cluster.run();

    std::vector<std::uint8_t> got(data.size());
    receiver.space(2).readBytes(redirect_va, got);
    EXPECT_EQ(got, data);
    // The original location stayed untouched (zero-filled pages).
    std::vector<std::uint8_t> orig(data.size());
    receiver.space(2).readBytes(recv_va, orig);
    EXPECT_EQ(std::count(orig.begin(), orig.end(), 0),
              static_cast<long>(orig.size()));
}

TEST_F(VmmcRig, UnredirectRestoresOriginalTarget)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, kPageSize);
    receiver.redirect(exportId, addrOf(90));
    ASSERT_TRUE(receiver.unredirect(exportId));

    auto data = pattern(100, 2);
    sender.space(1).writeBytes(addrOf(4), data);
    sender.send(1, addrOf(4), 100, slot, 0);
    cluster.run();

    std::vector<std::uint8_t> got(100);
    receiver.space(2).readBytes(recv_va, got);
    EXPECT_EQ(got, data);
}

TEST_F(VmmcRig, DeliverCallbackFiresOnCompletion)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, 4 * kPageSize);
    std::vector<std::pair<ExportId, std::uint64_t>> events;
    receiver.setDeliverCallback(
        [&](ExportId id, std::uint64_t bytes) {
            events.emplace_back(id, bytes);
        });
    sender.space(1).writeBytes(addrOf(4), pattern(3 * kPageSize, 1));
    sender.send(1, addrOf(4), 3 * kPageSize, slot, 0);
    cluster.run();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, exportId);
    EXPECT_EQ(events[0].second, 3u * kPageSize);
}

TEST_F(VmmcRig, SendLatencyIsPlausible)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, kPageSize);
    sender.space(1).writeBytes(addrOf(4), pattern(kPageSize, 1));
    Tick start = cluster.clock().now();
    sender.send(1, addrOf(4), kPageSize, slot, 0);
    cluster.run();
    double us = ticksToUs(receiver.lastDepositTime() - start);
    // One page: pin (~27) + translations (~2x3) + two DMAs (~32 each)
    // + wire (~26). Anything from 60 us to 250 us is sane; anything
    // outside that means the cost plumbing broke.
    EXPECT_GT(us, 60.0);
    EXPECT_LT(us, 250.0);
}

TEST_F(VmmcRig, SecondSendIsFasterThanFirst)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, kPageSize);
    sender.space(1).writeBytes(addrOf(4), pattern(kPageSize, 1));

    Tick t0 = cluster.clock().now();
    sender.send(1, addrOf(4), kPageSize, slot, 0);
    cluster.run();
    Tick first = receiver.lastDepositTime() - t0;

    Tick t1 = cluster.clock().now();
    sender.send(1, addrOf(4), kPageSize, slot, 0);
    cluster.run();
    Tick second = receiver.lastDepositTime() - t1;

    // Warm path: no pinning, NIC cache hits on both sides.
    EXPECT_LT(second, first);
}

TEST_F(VmmcRig, SenderPagesLockedOnlyWhileSendOutstanding)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, kPageSize);
    sender.space(1).writeBytes(addrOf(4), pattern(64, 1));
    sender.send(1, addrOf(4), 64, slot, 0);
    // Immediately after posting, the page is locked (§3.1).
    EXPECT_TRUE(sender.utlb(1).pinManager().isLocked(4));
    cluster.run();
    EXPECT_FALSE(sender.utlb(1).pinManager().isLocked(4));
    // ...but still pinned (UTLB keeps translations alive).
    EXPECT_TRUE(sender.utlb(1).pinManager().isPinned(4));
}

TEST_F(VmmcRig, ExportPinsAndUnexportReleases)
{
    VirtAddr recv_va = addrOf(40);
    auto exp = receiver.exportBuffer(2, recv_va, 2 * kPageSize);
    ASSERT_TRUE(exp.has_value());
    EXPECT_TRUE(receiver.utlb(2).pinManager().isLocked(40));
    EXPECT_TRUE(receiver.utlb(2).pinManager().isLocked(41));
    EXPECT_TRUE(receiver.unexportBuffer(*exp));
    EXPECT_FALSE(receiver.utlb(2).pinManager().isLocked(40));
    EXPECT_FALSE(receiver.unexportBuffer(*exp));  // already gone
}

TEST_F(VmmcRig, SendToBogusSlotFails)
{
    EXPECT_FALSE(sender.send(1, addrOf(4), 64, 999, 0));
    EXPECT_FALSE(sender.send(1, addrOf(4), 0, 0, 0));
}

class LossyVmmcRig : public VmmcRig
{
  protected:
    LossyVmmcRig() : VmmcRig(0.15) {}
};

TEST_F(LossyVmmcRig, TransfersSurvivePacketLoss)
{
    VirtAddr recv_va = addrOf(20);
    std::size_t nbytes = 8 * kPageSize;
    auto slot = wireBuffers(recv_va, nbytes);
    auto data = pattern(nbytes, 77);
    sender.space(1).writeBytes(addrOf(100), data);
    ASSERT_TRUE(sender.send(1, addrOf(100), nbytes, slot, 0));
    cluster.run();

    std::vector<std::uint8_t> got(nbytes);
    receiver.space(2).readBytes(recv_va, got);
    EXPECT_EQ(got, data);
    EXPECT_GT(sender.reliable().retransmissions(), 0u);
    EXPECT_EQ(sender.reliable().unackedPackets(), 0u);
}

TEST_F(LossyVmmcRig, NeverWrittenSourceZeroesAPatternedExport)
{
    // Every fragment of a never-written source page is a bufferless
    // zero payload; through loss and go-back-N resends it must still
    // clear the receiver's pattern.
    VirtAddr recv_va = addrOf(20);
    std::size_t nbytes = 8 * kPageSize;
    auto slot = wireBuffers(recv_va, nbytes);
    receiver.space(2).writeBytes(recv_va, pattern(nbytes, 77));
    ASSERT_TRUE(sender.send(1, addrOf(100), nbytes, slot, 0));
    cluster.run();

    std::vector<std::uint8_t> got(nbytes, 0xEE);
    receiver.space(2).readBytes(recv_va, got);
    EXPECT_EQ(got, std::vector<std::uint8_t>(nbytes, 0));
    EXPECT_EQ(receiver.bytesDeposited(), nbytes);
    EXPECT_GT(sender.reliable().retransmissions(), 0u);
    EXPECT_EQ(sender.reliable().unackedPackets(), 0u);
}

TEST_F(LossyVmmcRig, FetchSurvivesPacketLoss)
{
    VirtAddr remote_va = addrOf(30);
    auto data = pattern(4 * kPageSize, 21);
    receiver.space(2).writeBytes(remote_va, data);
    auto slot = wireBuffers(remote_va, 4 * kPageSize);
    ASSERT_TRUE(sender.fetch(1, addrOf(70), data.size(), slot, 0));
    cluster.run();
    std::vector<std::uint8_t> got(data.size());
    sender.space(1).readBytes(addrOf(70), got);
    EXPECT_EQ(got, data);
}

TEST(VmmcCluster, FourNodeAllToAll)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.node.memoryFrames = 4096;
    Cluster cluster(cfg);
    // Each node runs one process; everyone exports a buffer and
    // everyone stores a distinct pattern into everyone else's.
    std::vector<ExportId> exports(4);
    for (std::uint32_t n = 0; n < 4; ++n) {
        cluster.node(n).createProcess(100 + n);
        auto e = cluster.node(n).exportBuffer(100 + n, addrOf(10),
                                              4 * kPageSize);
        ASSERT_TRUE(e.has_value());
        exports[n] = *e;
    }
    for (std::uint32_t src = 0; src < 4; ++src) {
        for (std::uint32_t dst = 0; dst < 4; ++dst) {
            if (src == dst)
                continue;
            auto slot = cluster.node(src).importBuffer(100 + src, dst,
                                                       exports[dst]);
            auto data = pattern(kPageSize,
                                static_cast<std::uint8_t>(src * 4));
            cluster.node(src).space(100 + src)
                .writeBytes(addrOf(50 + dst), data);
            ASSERT_TRUE(cluster.node(src).send(
                100 + src, addrOf(50 + dst), kPageSize, slot,
                static_cast<std::uint64_t>(src) * kPageSize));
        }
    }
    cluster.run();
    for (std::uint32_t dst = 0; dst < 4; ++dst) {
        for (std::uint32_t src = 0; src < 4; ++src) {
            if (src == dst)
                continue;
            std::vector<std::uint8_t> got(kPageSize);
            cluster.node(dst).space(100 + dst).readBytes(
                addrOf(10) + static_cast<std::uint64_t>(src) * kPageSize,
                got);
            EXPECT_EQ(got, pattern(kPageSize,
                                   static_cast<std::uint8_t>(src * 4)))
                << src << "->" << dst;
        }
    }
}

} // namespace

// Re-opened namespace: interrupt-mode end-to-end tests.
namespace {

using utlb::vmmc::XlateMode;

class IntrModeRig : public ::testing::Test
{
  protected:
    IntrModeRig()
    {
        ClusterConfig cfg;
        cfg.nodes = 2;
        cfg.node.cache = {64, 1, true};  // tiny: force evictions
        cfg.node.mode = XlateMode::Interrupt;
        cluster = std::make_unique<Cluster>(cfg);
        cluster->node(0).createProcess(1);
        cluster->node(1).createProcess(2);
    }

    std::unique_ptr<Cluster> cluster;
};

TEST_F(IntrModeRig, DataIntegritySurvivesEvictionChurn)
{
    auto &a = cluster->node(0);
    auto &b = cluster->node(1);
    auto exp = b.exportBuffer(2, addrOf(20), 128 * kPageSize);
    auto slot = a.importBuffer(1, 1, *exp);

    // 128-page working set through a 64-entry cache: every lap
    // interrupts, pins, and unpins continuously.
    for (int i = 0; i < 128; ++i) {
        auto data = pattern(kPageSize, static_cast<std::uint8_t>(i));
        a.space(1).writeBytes(addrOf(500 + i), data);
        ASSERT_TRUE(a.send(1, addrOf(500 + i), kPageSize, slot,
                           static_cast<std::uint64_t>(i) * kPageSize));
        cluster->run();
    }
    for (int i = 0; i < 128; ++i) {
        std::vector<std::uint8_t> got(kPageSize);
        b.space(2).readBytes(
            addrOf(20) + static_cast<std::uint64_t>(i) * kPageSize,
            got);
        ASSERT_EQ(got, pattern(kPageSize, static_cast<std::uint8_t>(i)))
            << i;
    }
    EXPECT_EQ(b.bytesDeposited(), 128u * kPageSize);
}

TEST_F(IntrModeRig, InterruptModeUnpinsWhileUtlbModeDoesNot)
{
    auto &a = cluster->node(0);
    auto &b = cluster->node(1);
    auto exp = b.exportBuffer(2, addrOf(20), 128 * kPageSize);
    auto slot = a.importBuffer(1, 1, *exp);
    std::vector<std::uint8_t> page(kPageSize, 1);
    for (int i = 0; i < 128; ++i) {
        a.space(1).writeBytes(addrOf(500 + i), page);
        a.send(1, addrOf(500 + i), kPageSize, slot,
               static_cast<std::uint64_t>(i) * kPageSize);
        cluster->run();
    }
    // Cache churn forced eviction-driven unpins on the send side.
    EXPECT_GT(a.pinFacility().totalPagesUnpinned(), 0u);

    // Same workload in UTLB mode: zero unpins.
    ClusterConfig ucfg;
    ucfg.nodes = 2;
    ucfg.node.cache = {64, 1, true};
    Cluster utlb_cluster(ucfg);
    auto &ua = utlb_cluster.node(0);
    auto &ub = utlb_cluster.node(1);
    ua.createProcess(1);
    ub.createProcess(2);
    auto uexp = ub.exportBuffer(2, addrOf(20), 128 * kPageSize);
    auto uslot = ua.importBuffer(1, 1, *uexp);
    for (int i = 0; i < 128; ++i) {
        ua.space(1).writeBytes(addrOf(500 + i), page);
        ua.send(1, addrOf(500 + i), kPageSize, uslot,
                static_cast<std::uint64_t>(i) * kPageSize);
        utlb_cluster.run();
    }
    EXPECT_EQ(ua.pinFacility().totalPagesUnpinned(), 0u);
    EXPECT_EQ(ub.bytesDeposited(), 128u * kPageSize);
}

TEST_F(IntrModeRig, FetchWorksInInterruptMode)
{
    auto &a = cluster->node(0);
    auto &b = cluster->node(1);
    auto data = pattern(2 * kPageSize, 5);
    b.space(2).writeBytes(addrOf(30), data);
    auto exp = b.exportBuffer(2, addrOf(30), 2 * kPageSize);
    auto slot = a.importBuffer(1, 1, *exp);
    ASSERT_TRUE(a.fetch(1, addrOf(70), data.size(), slot, 0));
    cluster->run();
    std::vector<std::uint8_t> got(data.size());
    a.space(1).readBytes(addrOf(70), got);
    EXPECT_EQ(got, data);
}

} // namespace

// Per-process UTLB submit-by-index path (§3.1 + §4.2 garbage page).
namespace {

class SendIdxRig : public ::testing::Test
{
  protected:
    SendIdxRig()
    {
        ClusterConfig cfg;
        cfg.nodes = 2;
        cluster = std::make_unique<Cluster>(cfg);
        a = &cluster->node(0);
        b = &cluster->node(1);
        a->createProcess(1);
        b->createProcess(2);
        a->enablePerProcessUtlb(1, 64);
        auto exp = b->exportBuffer(2, addrOf(20), 4 * kPageSize);
        exportId = *exp;
        slot = a->importBuffer(1, 1, exportId);
    }

    std::unique_ptr<Cluster> cluster;
    VmmcNode *a = nullptr;
    VmmcNode *b = nullptr;
    ExportId exportId = 0;
    ImportSlot slot = 0;
};

TEST_F(SendIdxRig, IndexSubmissionDeliversData)
{
    auto data = pattern(1000, 5);
    a->space(1).writeBytes(addrOf(40) + 100, data);
    // User level: resolve the page to a table index (Figure 2).
    auto lk = a->perProcessUtlb(1).lookup(addrOf(40), kPageSize);
    ASSERT_TRUE(lk.ok);
    ASSERT_EQ(lk.indices.size(), 1u);
    // Submit the index to the NIC.
    ASSERT_TRUE(a->sendIdx(1, lk.indices[0], 100, data.size(), slot,
                           64));
    cluster->run();
    std::vector<std::uint8_t> got(data.size());
    b->space(2).readBytes(addrOf(20) + 64, got);
    EXPECT_EQ(got, data);
}

TEST_F(SendIdxRig, SecondLookupReturnsSameIndexWithoutPinning)
{
    auto lk1 = a->perProcessUtlb(1).lookup(addrOf(40), kPageSize);
    auto lk2 = a->perProcessUtlb(1).lookup(addrOf(40), kPageSize);
    EXPECT_EQ(lk1.indices, lk2.indices);
    EXPECT_EQ(lk2.pagesPinned, 0u);
    EXPECT_FALSE(lk2.checkMiss);
}

TEST_F(SendIdxRig, BogusIndexIsHarmlessGarbageTransfer)
{
    // A malicious/buggy process submits an index it never installed:
    // the NIC transfers from the driver's zero-filled garbage page.
    // "No harm is done to the system or other applications" (§4.2).
    b->space(2).writeBytes(addrOf(20), pattern(256, 9));  // pre-fill
    ASSERT_TRUE(a->sendIdx(1, 9999, 0, 256, slot, 0));
    cluster->run();
    std::vector<std::uint8_t> got(256);
    b->space(2).readBytes(addrOf(20), got);
    // Export overwritten with garbage-page zeros — ugly for the
    // buggy app, but isolated and crash-free.
    EXPECT_EQ(std::count(got.begin(), got.end(), 0), 256);
    EXPECT_EQ(b->bytesDeposited(), 256u);
}

TEST_F(SendIdxRig, StaleIndexAfterEvictionReadsGarbageNotOldPage)
{
    // Fill the 64-entry table so the first page's entry is evicted,
    // then submit the stale index: it must NOT leak the evicted
    // page's old frame.
    auto lk = a->perProcessUtlb(1).lookup(addrOf(40), kPageSize);
    auto stale = lk.indices[0];
    a->space(1).writeBytes(addrOf(40), pattern(64, 3));
    for (int i = 1; i <= 64; ++i)
        a->perProcessUtlb(1).lookup(addrOf(200 + i), kPageSize);
    EXPECT_FALSE(a->perProcessUtlb(1).indexOf(40).has_value());

    ASSERT_TRUE(a->sendIdx(1, stale, 0, 64, slot, 0));
    cluster->run();
    std::vector<std::uint8_t> got(64);
    b->space(2).readBytes(addrOf(20), got);
    // Either zeros (garbage page) or another still-valid page of the
    // same process — never a crash; with LRU eviction order the slot
    // was recycled, so we check it is not the stale page's data.
    EXPECT_NE(got, pattern(64, 3));
}

TEST_F(SendIdxRig, RejectsOversizedAndUnconfiguredUse)
{
    EXPECT_FALSE(a->sendIdx(1, 0, 100, kPageSize, slot, 0));  // spans
    EXPECT_FALSE(a->sendIdx(1, 0, 0, 0, slot, 0));            // empty
    // Process without a per-process table cannot use the path.
    b->createProcess(3);
    EXPECT_FALSE(b->sendIdx(3, 0, 0, 64, 0, 0));
}

} // namespace

// Node statistics report.
namespace {

TEST_F(VmmcRig, PrintStatsReportsActivity)
{
    VirtAddr recv_va = addrOf(20);
    auto slot = wireBuffers(recv_va, kPageSize);
    sender.space(1).writeBytes(addrOf(4), pattern(kPageSize, 1));
    sender.send(1, addrOf(4), kPageSize, slot, 0);
    cluster.run();

    std::ostringstream oss;
    sender.printStats(oss);
    receiver.printStats(oss);
    auto text = oss.str();
    EXPECT_NE(text.find("vmmc.sends                1"),
              std::string::npos);
    EXPECT_NE(text.find("nic.cache.hits"), std::string::npos);
    EXPECT_NE(text.find("host.pin.pagesPinned"), std::string::npos);
    EXPECT_NE(text.find("link.acksSent"), std::string::npos);
    EXPECT_NE(text.find("---- node 0 ----"), std::string::npos);
    EXPECT_NE(text.find("---- node 1 ----"), std::string::npos);
}

} // namespace

// Event-order goldens: the exact tick, event count, link-protocol
// counters and per-transfer completion times of lossy, redirected and
// failed-over runs. perfbench's vmmc_stores is loss-free and
// fetch-free, so only these pin the order in which same-tick events
// fire under retransmission. The expected strings were recorded from
// the simulator before the event queue stopped copying callbacks;
// any change to them is a change to the modeled machine.
namespace {

using utlb::net::NodeId;

/** Records every completed transfer, in completion order. */
class CompletionLog
{
  public:
    explicit CompletionLog(Cluster &cl) : cluster(cl)
    {
        for (NodeId n = 0; n < cl.size(); ++n) {
            cl.node(n).setDeliverCallback(
                [this, n](ExportId id, std::uint64_t bytes) {
                    text << " n" << n << ":e" << id << ':' << bytes << '@'
                         << cluster.node(n).lastDepositTime();
                });
        }
    }

    /** Final tick, fired events, per-node link and deposit state, and
     *  the completions. */
    std::string
    signature()
    {
        std::ostringstream os;
        os << "tick=" << cluster.clock().now()
           << " fired=" << cluster.clock().fired();
        for (NodeId n = 0; n < cluster.size(); ++n) {
            VmmcNode &node = cluster.node(n);
            ReliableEndpoint &link = node.reliable();
            os << " n" << n << "{rtx=" << link.retransmissions()
               << " to=" << link.timeouts()
               << " dup=" << link.duplicatesDropped()
               << " ooo=" << link.outOfOrderDropped()
               << " acks=" << link.acksSent()
               << " done=" << node.transfersCompleted()
               << " last=" << node.lastDepositTime() << '}';
        }
        os << " |" << text.str();
        return os.str();
    }

  private:
    Cluster &cluster;
    std::ostringstream text;
};

/** Read back [va, +n) of @p pid on @p node. */
std::vector<std::uint8_t>
readBack(VmmcNode &node, utlb::mem::ProcId pid, VirtAddr va, std::size_t n)
{
    std::vector<std::uint8_t> got(n);
    node.space(pid).readBytes(va, got);
    return got;
}

TEST(VmmcGolden, LossySendsAndFetchesBothWays)
{
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.lossProbability = 0.2;
    cfg.seed = 0x5eed17;
    cfg.node.memoryFrames = 4096;
    cfg.node.cache = {1024, 1, true};
    Cluster cluster(cfg);
    VmmcNode &a = cluster.node(0);
    VmmcNode &b = cluster.node(1);
    a.createProcess(1);
    b.createProcess(2);
    CompletionLog log(cluster);

    // b exports 16 pages (the upper half pre-written, for fetches); a
    // exports 8 pages for b's stores.
    auto remote = pattern(8 * kPageSize, 201);
    b.space(2).writeBytes(addrOf(20) + 8 * kPageSize, remote);
    auto exp_b = b.exportBuffer(2, addrOf(20), 16 * kPageSize);
    auto exp_a = a.exportBuffer(1, addrOf(200), 8 * kPageSize);
    ASSERT_TRUE(exp_b && exp_a);
    ImportSlot to_b = a.importBuffer(1, 1, *exp_b);
    ImportSlot to_a = b.importBuffer(2, 0, *exp_a);

    auto out_a = pattern(5 * kPageSize, 17);
    auto out_b = pattern(3 * kPageSize, 99);
    a.space(1).writeBytes(addrOf(100) + 300, out_a);
    b.space(2).writeBytes(addrOf(400) + 1000, out_b);

    // Stores and fetches in flight together, in both directions: b's
    // stores into a and a's fetch replies from b arrive at a from the
    // same peer.
    ASSERT_TRUE(a.send(1, addrOf(100) + 300, 3 * kPageSize, to_b, 100));
    ASSERT_TRUE(a.fetch(1, addrOf(300), 2 * kPageSize + 512, to_b,
                        8 * kPageSize));
    ASSERT_TRUE(b.send(2, addrOf(400) + 1000, 2 * kPageSize + 77, to_a,
                       0));
    cluster.runFor(usToTicks(40.0));
    ASSERT_TRUE(a.send(1, addrOf(100) + 300 + 3 * kPageSize,
                       2 * kPageSize, to_b, 100 + 3 * kPageSize));
    ASSERT_TRUE(b.send(2, addrOf(400) + 1000 + 2 * kPageSize + 77,
                       kPageSize - 77, to_a, 2 * kPageSize + 77));
    ASSERT_TRUE(a.fetch(1, addrOf(310), 4 * kPageSize, to_b,
                        12 * kPageSize));
    cluster.run();

    auto sent = readBack(b, 2, addrOf(20) + 100, out_a.size());
    EXPECT_EQ(sent, out_a);
    EXPECT_EQ(readBack(a, 1, addrOf(200), out_b.size()), out_b);
    auto fetched = readBack(a, 1, addrOf(300), 2 * kPageSize + 512);
    EXPECT_TRUE(std::equal(fetched.begin(), fetched.end(), remote.begin()));
    auto fetched2 = readBack(a, 1, addrOf(310), 4 * kPageSize);
    EXPECT_TRUE(std::equal(fetched2.begin(), fetched2.end(),
                           remote.begin() + 4 * kPageSize));
    EXPECT_EQ(a.reliable().unackedPackets(), 0u);
    EXPECT_EQ(b.reliable().unackedPackets(), 0u);
    EXPECT_EQ(log.signature(),
              "tick=2560078195 fired=124"
              " n0{rtx=4 to=3 dup=1 ooo=13 acks=26 done=4 last=1727475187}"
              " n1{rtx=18 to=4 dup=0 ooo=1 acks=10 done=2 last=1547905639}"
              " | n0:e0:4019@192465742 n0:e0:8269@201825939"
              " n1:e0:8192@549705639 n1:e0:12288@1547905639"
              " n0:e1:8704@1574727819 n0:e2:16384@1701625187");
}

TEST(VmmcGolden, RedirectedStores)
{
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.lossProbability = 0.2;
    cfg.seed = 0xd1ec7;
    cfg.node.memoryFrames = 4096;
    cfg.node.cache = {1024, 1, true};
    Cluster cluster(cfg);
    VmmcNode &a = cluster.node(0);
    VmmcNode &b = cluster.node(1);
    a.createProcess(1);
    b.createProcess(2);
    CompletionLog log(cluster);

    auto exp = b.exportBuffer(2, addrOf(20), 4 * kPageSize);
    ASSERT_TRUE(exp);
    ImportSlot slot = a.importBuffer(1, 1, *exp);
    auto first = pattern(3 * kPageSize, 5);
    auto second = pattern(2 * kPageSize, 66);
    a.space(1).writeBytes(addrOf(100) + 64, first);
    a.space(1).writeBytes(addrOf(120), second);

    ASSERT_TRUE(b.redirect(*exp, addrOf(90) + 256));
    ASSERT_TRUE(a.send(1, addrOf(100) + 64, first.size(), slot, 512));
    cluster.run();
    ASSERT_TRUE(b.unredirect(*exp));
    ASSERT_TRUE(a.send(1, addrOf(120), second.size(), slot, kPageSize));
    cluster.run();

    EXPECT_EQ(readBack(b, 2, addrOf(90) + 256 + 512, first.size()), first);
    EXPECT_EQ(readBack(b, 2, addrOf(20) + kPageSize, second.size()),
              second);
    EXPECT_EQ(log.signature(),
              "tick=1634712781 fired=29"
              " n0{rtx=1 to=1 dup=0 ooo=0 acks=0 done=0 last=0}"
              " n1{rtx=0 to=0 dup=0 ooo=0 acks=6 done=2 last=1255506765}"
              " | n1:e0:12288@573996992 n1:e0:8192@1221109773");
}

TEST(VmmcGolden, RemapFailoverUnderLoss)
{
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.lossProbability = 0.2;
    cfg.seed = 0xfa11;
    cfg.node.memoryFrames = 4096;
    Cluster cluster(cfg);
    VmmcNode &sender = cluster.node(0);
    VmmcNode &primary = cluster.node(1);
    VmmcNode &standby = cluster.node(2);
    sender.createProcess(1);
    primary.createProcess(2);
    standby.createProcess(2);
    CompletionLog log(cluster);

    auto exp = primary.exportBuffer(2, addrOf(20), 8 * kPageSize);
    ASSERT_EQ(standby.exportBuffer(2, addrOf(20), 8 * kPageSize), exp);
    ImportSlot slot = sender.importBuffer(1, 1, *exp);
    auto data = pattern(6 * kPageSize + 100, 91);
    sender.space(1).writeBytes(addrOf(100), data);

    // The primary's port dies with the transfer on the wire; the
    // sender times out against it, then fails over to the standby and
    // sends one more transfer there.
    cluster.network().setNodeDown(1, true);
    ASSERT_TRUE(sender.send(1, addrOf(100), data.size(), slot, 0));
    cluster.runFor(usToTicks(1500.0));
    EXPECT_EQ(sender.remapImports(1, 1, 2), 1u);
    cluster.runFor(usToTicks(20.0));
    ASSERT_TRUE(sender.send(1, addrOf(100), kPageSize, slot,
                            7 * kPageSize));
    cluster.run();

    EXPECT_EQ(readBack(standby, 2, addrOf(20), data.size()), data);
    EXPECT_EQ(standby.transfersCompleted(), 2u);
    EXPECT_EQ(primary.bytesDeposited(), 0u);
    EXPECT_EQ(log.signature(),
              "tick=3500000000 fired=56"
              " n0{rtx=30 to=5 dup=0 ooo=0 acks=0 done=0 last=0}"
              " n1{rtx=0 to=0 dup=0 ooo=0 acks=0 done=0 last=0}"
              " n2{rtx=0 to=0 dup=0 ooo=11 acks=12 done=2 last=3087271992}"
              " | n2:e0:24676@3006401880 n2:e0:4096@3087271992");
}

} // namespace
