#include "vmmc/reliable.hpp"

#include "sim/log.hpp"

namespace utlb::vmmc {

using net::NodeId;
using net::Packet;
using net::PacketType;

ReliableEndpoint::ReliableEndpoint(NodeId self, net::Network &network,
                                   sim::EventQueue &event_queue,
                                   sim::Tick retry_timeout)
    : selfId(self), net(&network), events(&event_queue),
      timeout(retry_timeout), senders(network.nodes()),
      expectedSeq(network.nodes(), 0)
{
}

ReliableEndpoint::SenderChannel &
ReliableEndpoint::sender(NodeId peer)
{
    if (peer >= senders.size())
        sim::panic("node %u has no link to nonexistent node %u", selfId,
                   peer);
    SenderChannel &ch = senders[peer];
    ch.open = true;
    return ch;
}

void
ReliableEndpoint::sendReliable(Packet pkt)
{
    if (pkt.hdr.type == PacketType::Ack)
        sim::panic("acks are sent by the protocol, not callers");
    NodeId peer = pkt.hdr.dst;
    SenderChannel &ch = sender(peer);
    pkt.hdr.src = selfId;
    pkt.hdr.seq = ch.nextSeq++;
    ch.inflight.push_back(pkt);
    net->send(std::move(pkt));
    armTimer(peer);
}

void
ReliableEndpoint::armTimer(NodeId peer)
{
    SenderChannel &ch = sender(peer);
    if (ch.timerArmed || ch.inflight.empty())
        return;
    ch.timerArmed = true;
    events->after(timeout, [this, peer] { onTimeout(peer); });
}

void
ReliableEndpoint::onTimeout(NodeId peer)
{
    SenderChannel &ch = sender(peer);
    ch.timerArmed = false;
    if (ch.inflight.empty())
        return;
    ++numTimeouts;
    // Go-back-N: retransmit the whole window.
    for (const Packet &pkt : ch.inflight) {
        ++numRetransmits;
        net->send(pkt);
    }
    armTimer(peer);
}

void
ReliableEndpoint::sendAck(NodeId peer, std::uint32_t cumulative)
{
    Packet ack;
    ack.hdr.type = PacketType::Ack;
    ack.hdr.src = selfId;
    ack.hdr.dst = peer;
    ack.hdr.ackSeq = cumulative;
    ++numAcks;
    net->send(std::move(ack));
}

bool
ReliableEndpoint::onPacket(const Packet &pkt)
{
    if (pkt.hdr.dst != selfId)
        sim::panic("packet for node %u arrived at node %u",
                   pkt.hdr.dst, selfId);

    if (pkt.hdr.type == PacketType::Ack) {
        SenderChannel &ch = sender(pkt.hdr.src);
        // Cumulative: everything up to and including ackSeq is
        // delivered. Guard against stale acks from retransmits.
        while (!ch.inflight.empty()
               && ch.baseSeq <= pkt.hdr.ackSeq) {
            ch.inflight.pop_front();
            ++ch.baseSeq;
        }
        return false;
    }

    if (pkt.hdr.src >= expectedSeq.size())
        sim::panic("packet from nonexistent node %u", pkt.hdr.src);
    std::uint32_t &expected = expectedSeq[pkt.hdr.src];
    if (pkt.hdr.seq == expected) {
        ++expected;
        sendAck(pkt.hdr.src, pkt.hdr.seq);
        return true;
    }
    if (pkt.hdr.seq < expected) {
        // Duplicate of something already delivered; re-ack so the
        // sender can advance if our ack was lost.
        ++numDuplicates;
        sendAck(pkt.hdr.src, expected - 1);
        return false;
    }
    // Out of order (a predecessor was dropped): go-back-N discards.
    ++numOutOfOrder;
    if (expected > 0)
        sendAck(pkt.hdr.src, expected - 1);
    return false;
}

void
ReliableEndpoint::remapPeer(NodeId old_peer, NodeId new_peer)
{
    if (old_peer >= senders.size() || !senders[old_peer].open)
        return;
    ++numRemaps;
    std::deque<Packet> pending = std::move(senders[old_peer].inflight);
    // The old channel closes and restarts from sequence 0 if reused.
    senders[old_peer] = SenderChannel{};
    // Re-issue the window to the new peer as fresh traffic; its
    // receiver channel starts from its own expected sequence.
    SenderChannel &ch = sender(new_peer);
    for (Packet &pkt : pending) {
        pkt.hdr.dst = new_peer;
        pkt.hdr.seq = ch.nextSeq++;
        ch.inflight.push_back(std::move(pkt));
        net->send(ch.inflight.back());
    }
    armTimer(new_peer);
}

std::size_t
ReliableEndpoint::unackedPackets() const
{
    std::size_t total = 0;
    for (const SenderChannel &ch : senders)
        total += ch.inflight.size();
    return total;
}

} // namespace utlb::vmmc
