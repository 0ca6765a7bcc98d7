/**
 * @file
 * Link-level reliable delivery (§4.1, "Reliable communication that
 * implements a retransmission protocol at data link level (between
 * network interfaces)").
 *
 * Go-back-N between NIC pairs: every non-ack packet carries a
 * per-channel sequence number; the receiver delivers in order and
 * returns cumulative acks; the sender retransmits all unacked
 * packets after a timeout. Duplicates and out-of-order arrivals are
 * dropped (and re-acked) at the link level, so the VMMC layer above
 * sees an in-order, exactly-once packet stream.
 */

#ifndef UTLB_VMMC_RELIABLE_HPP
#define UTLB_VMMC_RELIABLE_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace utlb::vmmc {

/** Default retransmission timeout. */
inline constexpr sim::Tick kDefaultRetryTimeout = sim::usToTicks(500.0);

/**
 * One node's end of the reliable link protocol, covering all its
 * peer channels.
 */
class ReliableEndpoint
{
  public:
    ReliableEndpoint(net::NodeId self, net::Network &network,
                     sim::EventQueue &event_queue,
                     sim::Tick retry_timeout = kDefaultRetryTimeout);

    ReliableEndpoint(const ReliableEndpoint &) = delete;
    ReliableEndpoint &operator=(const ReliableEndpoint &) = delete;

    /**
     * Send @p pkt reliably: stamps the channel sequence number,
     * records it for retransmission and transmits it. The record, the
     * transmission and every retransmission share one payload
     * buffer.
     */
    void sendReliable(net::Packet pkt);

    /**
     * Feed every arriving packet through here.
     * @return true if @p pkt is in-order data to deliver up-stack,
     *         false if the link consumed it (ack, duplicate, or
     *         out-of-order).
     */
    bool onPacket(const net::Packet &pkt);

    /**
     * Dynamic node remapping (§4.1): retarget the channel to
     * @p old_peer at @p new_peer. Unacknowledged packets are
     * re-issued to the new peer with fresh sequence numbers, so an
     * in-flight transfer survives a port failover as long as the
     * replacement node holds equivalent receive-buffer state.
     */
    void remapPeer(net::NodeId old_peer, net::NodeId new_peer);

    /** Packets awaiting acknowledgment across all channels. */
    std::size_t unackedPackets() const;

    /** @name Lifetime counters @{ */
    std::uint64_t retransmissions() const { return numRetransmits; }
    std::uint64_t duplicatesDropped() const { return numDuplicates; }
    std::uint64_t outOfOrderDropped() const { return numOutOfOrder; }
    std::uint64_t acksSent() const { return numAcks; }
    std::uint64_t timeouts() const { return numTimeouts; }
    std::uint64_t remaps() const { return numRemaps; }
    /** @} */

  private:
    struct SenderChannel {
        std::uint32_t nextSeq = 0;
        std::uint32_t baseSeq = 0;          //!< oldest unacked
        std::deque<net::Packet> inflight;   //!< baseSeq..nextSeq-1
        bool timerArmed = false;
        /** Used since the last remap away from this peer; remapPeer
         *  only moves an open channel. */
        bool open = false;
    };

    /** The channel to @p peer, opened if it was not. */
    SenderChannel &sender(net::NodeId peer);

    void armTimer(net::NodeId peer);
    void onTimeout(net::NodeId peer);
    void sendAck(net::NodeId peer, std::uint32_t cumulative);

    net::NodeId selfId;
    net::Network *net;
    sim::EventQueue *events;
    sim::Tick timeout;

    /** Channels indexed by peer node id. */
    std::vector<SenderChannel> senders;
    /** Next in-order sequence number expected from each peer. */
    std::vector<std::uint32_t> expectedSeq;

    std::uint64_t numRetransmits = 0;
    std::uint64_t numDuplicates = 0;
    std::uint64_t numOutOfOrder = 0;
    std::uint64_t numAcks = 0;
    std::uint64_t numTimeouts = 0;
    std::uint64_t numRemaps = 0;
};

} // namespace utlb::vmmc

#endif // UTLB_VMMC_RELIABLE_HPP
