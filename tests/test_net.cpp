/**
 * @file
 * Tests for the network model and the reliable link protocol.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "nic/timing.hpp"
#include "sim/event_queue.hpp"
#include "vmmc/reliable.hpp"

namespace {

using namespace utlb::net;
using utlb::nic::NicTimings;
using utlb::sim::EventQueue;
using utlb::sim::Tick;
using utlb::vmmc::ReliableEndpoint;

/** A payload holding a copy of @p bytes. */
Payload
payloadOf(const std::vector<std::uint8_t> &bytes)
{
    return Payload::filled(bytes.size(), [&](std::span<std::uint8_t> out) {
        std::copy(bytes.begin(), bytes.end(), out.begin());
    });
}

/** A payload's bytes; a bufferless payload reads as zeros. */
std::vector<std::uint8_t>
bytesOf(const Payload &p)
{
    if (!p.data())
        return std::vector<std::uint8_t>(p.size(), 0);
    return {p.data(), p.data() + p.size()};
}

Packet
makeData(NodeId src, NodeId dst, std::uint32_t tag,
         std::size_t payload = 64)
{
    Packet p;
    p.hdr.type = PacketType::Data;
    p.hdr.src = src;
    p.hdr.dst = dst;
    p.hdr.exportId = tag;
    p.payload = payloadOf(std::vector<std::uint8_t>(
        payload, static_cast<std::uint8_t>(tag)));
    return p;
}

TEST(Network, DeliversWithPositiveLatency)
{
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {2, 0.0, true, 1});
    std::vector<std::uint32_t> got;
    net.attach(1, [&](const Packet &p) { got.push_back(p.hdr.exportId); });
    net.send(makeData(0, 1, 7));
    EXPECT_TRUE(got.empty());  // not delivered synchronously
    Tick end = eq.run();
    EXPECT_GT(end, 0u);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 7u);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

TEST(Network, PreservesPayloadBytes)
{
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {2, 0.0, true, 1});
    std::vector<std::uint8_t> got;
    net.attach(1, [&](const Packet &p) { got = bytesOf(p.payload); });
    Packet p = makeData(0, 1, 0, 0);
    p.payload = payloadOf(std::vector<std::uint8_t>{1, 2, 3, 4, 5});
    net.send(std::move(p));
    eq.run();
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Network, SameChannelPacketsArriveInOrder)
{
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {2, 0.0, true, 1});
    std::vector<std::uint32_t> got;
    net.attach(1, [&](const Packet &p) { got.push_back(p.hdr.exportId); });
    for (std::uint32_t i = 0; i < 20; ++i)
        net.send(makeData(0, 1, i, 4096));
    eq.run();
    ASSERT_EQ(got.size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Network, LinkSerializationSpacesDeliveries)
{
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {2, 0.0, true, 1});
    std::vector<Tick> times;
    net.attach(1, [&](const Packet &) { times.push_back(eq.now()); });
    // Two full-page packets back to back: second must wait for the
    // first to clear the uplink.
    net.send(makeData(0, 1, 0, 4096));
    net.send(makeData(0, 1, 1, 4096));
    eq.run();
    ASSERT_EQ(times.size(), 2u);
    Tick wire = t.linkTransferCost(4096 + kHeaderBytes);
    EXPECT_GE(times[1] - times[0], wire);
}

TEST(Network, LossDropsApproximatelyTheConfiguredFraction)
{
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {2, 0.25, true, 42});
    int got = 0;
    net.attach(1, [&](const Packet &) { ++got; });
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        net.send(makeData(0, 1, 0, 8));
    eq.run();
    double rate = 1.0 - static_cast<double>(got) / n;
    EXPECT_NEAR(rate, 0.25, 0.03);
    EXPECT_EQ(net.packetsDropped() + net.packetsDelivered(),
              static_cast<std::uint64_t>(n));
}

TEST(Network, ZeroLossDeliversEverything)
{
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {3, 0.0, true, 1});
    int got = 0;
    net.attach(2, [&](const Packet &) { ++got; });
    for (int i = 0; i < 100; ++i)
        net.send(makeData(0, 2, 0));
    eq.run();
    EXPECT_EQ(got, 100);
    EXPECT_EQ(net.packetsDropped(), 0u);
}

// ---------------------------------------------------------------------
// ReliableEndpoint
// ---------------------------------------------------------------------

/** Two endpoints wired through a (possibly lossy) network. */
class ReliableRig
{
  public:
    explicit ReliableRig(double loss, std::uint64_t seed = 9)
        : net(eq, t, {2, loss, true, seed}),
          a(0, net, eq), b(1, net, eq)
    {
        net.attach(0, [this](const Packet &p) {
            if (a.onPacket(p))
                aGot.push_back(p);
        });
        net.attach(1, [this](const Packet &p) {
            if (b.onPacket(p))
                bGot.push_back(p);
        });
    }

    EventQueue eq;
    NicTimings t;
    Network net;
    ReliableEndpoint a, b;
    std::vector<Packet> aGot, bGot;
};

TEST(Reliable, InOrderExactlyOnceWithoutLoss)
{
    ReliableRig rig(0.0);
    for (std::uint32_t i = 0; i < 50; ++i)
        rig.a.sendReliable(makeData(0, 1, i));
    rig.eq.run();
    ASSERT_EQ(rig.bGot.size(), 50u);
    for (std::uint32_t i = 0; i < 50; ++i)
        EXPECT_EQ(rig.bGot[i].hdr.exportId, i);
    EXPECT_EQ(rig.a.unackedPackets(), 0u);
    EXPECT_EQ(rig.a.retransmissions(), 0u);
}

TEST(Reliable, RecoversFromHeavyLoss)
{
    ReliableRig rig(0.3, 123);
    for (std::uint32_t i = 0; i < 100; ++i)
        rig.a.sendReliable(makeData(0, 1, i, 128));
    rig.eq.run();
    ASSERT_EQ(rig.bGot.size(), 100u);
    for (std::uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(rig.bGot[i].hdr.exportId, i);
    EXPECT_EQ(rig.a.unackedPackets(), 0u);
    EXPECT_GT(rig.a.retransmissions(), 0u);
    // Exactly once: duplicates were filtered, not delivered.
    EXPECT_GT(rig.b.duplicatesDropped() + rig.b.outOfOrderDropped(),
              0u);
}

TEST(Reliable, BidirectionalChannelsAreIndependent)
{
    ReliableRig rig(0.2, 77);
    for (std::uint32_t i = 0; i < 40; ++i) {
        rig.a.sendReliable(makeData(0, 1, i));
        rig.b.sendReliable(makeData(1, 0, 1000 + i));
    }
    rig.eq.run();
    ASSERT_EQ(rig.bGot.size(), 40u);
    ASSERT_EQ(rig.aGot.size(), 40u);
    for (std::uint32_t i = 0; i < 40; ++i) {
        EXPECT_EQ(rig.bGot[i].hdr.exportId, i);
        EXPECT_EQ(rig.aGot[i].hdr.exportId, 1000 + i);
    }
}

TEST(Reliable, PayloadSurvivesRetransmission)
{
    ReliableRig rig(0.4, 5);
    Packet p = makeData(0, 1, 0, 0);
    p.payload = payloadOf(std::vector<std::uint8_t>{9, 8, 7, 6});
    rig.a.sendReliable(std::move(p));
    rig.eq.run();
    ASSERT_EQ(rig.bGot.size(), 1u);
    EXPECT_EQ(bytesOf(rig.bGot[0].payload),
              (std::vector<std::uint8_t>{9, 8, 7, 6}));
}

TEST(Reliable, RetransmissionSharesThePayloadBuffer)
{
    // Node 1 ignores the first arrival, as if it were lost, and hands
    // the retransmission to its endpoint. Every arrival must carry
    // the buffer the sender built: the in-flight record and the
    // resend copy no bytes.
    EventQueue eq;
    NicTimings t;
    Network net(eq, t, {2, 0.0, true, 1});
    ReliableEndpoint a(0, net, eq), b(1, net, eq);
    net.attach(0, [&](const Packet &p) { a.onPacket(p); });
    std::vector<const std::uint8_t *> arrivals;
    std::vector<std::uint8_t> delivered;
    net.attach(1, [&](const Packet &p) {
        arrivals.push_back(p.payload.data());
        if (arrivals.size() > 1 && b.onPacket(p))
            delivered = bytesOf(p.payload);
    });
    Packet p = makeData(0, 1, 3, 4096);
    const std::uint8_t *sent = p.payload.data();
    ASSERT_NE(sent, nullptr);
    a.sendReliable(std::move(p));
    eq.run();
    EXPECT_GT(a.retransmissions(), 0u);
    ASSERT_GE(arrivals.size(), 2u);
    for (const std::uint8_t *at : arrivals)
        EXPECT_EQ(at, sent);
    EXPECT_EQ(delivered, std::vector<std::uint8_t>(4096, 3));
    EXPECT_EQ(a.unackedPackets(), 0u);
}

TEST(Payload, ZerosHaveNoBufferAndCopiesShareOne)
{
    Payload z = Payload::zeros(4096);
    EXPECT_EQ(z.size(), 4096u);
    EXPECT_EQ(z.data(), nullptr);

    Payload a = payloadOf({1, 2, 3});
    Payload b = a;
    EXPECT_EQ(b.data(), a.data());
    Payload c = std::move(b);
    EXPECT_EQ(c.data(), a.data());
    a = Payload();
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(bytesOf(c), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Reliable, TimersDoNotFireForever)
{
    ReliableRig rig(0.0);
    rig.a.sendReliable(makeData(0, 1, 0));
    Tick end = rig.eq.run();
    // The queue drained: no timer livelock once everything acked.
    EXPECT_LT(end, utlb::sim::usToTicks(10000.0));
    EXPECT_EQ(rig.eq.pending(), 0u);
}

} // namespace
