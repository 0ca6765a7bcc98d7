/**
 * @file
 * Cluster network model.
 *
 * A single crossbar switch with one full-duplex 160 MB/s link per
 * node (the paper's clusters hang all PCs off one Myrinet switch).
 * Delivery time = source link serialization + switch latency +
 * destination link serialization. Per-link serialization is modeled
 * with a link-busy horizon so back-to-back fragments queue rather
 * than overlap.
 *
 * Loss injection: each data packet is dropped independently with a
 * configured probability (acks can be dropped too), which exercises
 * the VMMC retransmission protocol.
 */

#ifndef UTLB_NET_NETWORK_HPP
#define UTLB_NET_NETWORK_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "nic/timing.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace utlb::net {

/** Callback invoked when a packet arrives at a node. */
using PacketHandler = std::function<void(const Packet &)>;

/** Network configuration. */
struct NetworkConfig {
    std::size_t nodes = 2;
    double lossProbability = 0.0;  //!< independent per packet
    bool dropAcks = true;          //!< loss also applies to acks
    std::uint64_t seed = 0xfeedface;
};

/**
 * The cluster interconnect: a star of point-to-point links around
 * one switch.
 */
class Network
{
  public:
    Network(sim::EventQueue &event_queue, const nic::NicTimings &t,
            const NetworkConfig &cfg);

    std::size_t nodes() const { return handlers.size(); }

    /** Install the receive handler for @p node. */
    void attach(NodeId node, PacketHandler handler);

    /**
     * Transmit @p pkt from its header's src to dst. The packet moves
     * into its delivery event (stored inline, no allocation), which
     * hands it to the destination's handler by reference.
     */
    void send(Packet pkt);

    /**
     * Fail or restore a node's link (cable pull / port failure).
     * While down, every packet to or from the node is dropped; the
     * VMMC retransmission protocol rides through the outage once
     * the link is restored.
     */
    void setNodeDown(NodeId node, bool down);

    /** True if the node's link is currently failed. */
    bool isNodeDown(NodeId node) const;

    /** @name Lifetime counters @{ */
    std::uint64_t packetsSent() const { return numSent; }
    std::uint64_t packetsDelivered() const { return numDelivered; }
    std::uint64_t packetsDropped() const { return numDropped; }
    std::uint64_t bytesDelivered() const { return numBytes; }
    /** @} */

  private:
    sim::EventQueue *events;
    const nic::NicTimings *timings;
    NetworkConfig config;
    sim::Rng rng;
    std::vector<PacketHandler> handlers;
    std::vector<sim::Tick> txBusyUntil;  //!< per-node uplink horizon
    std::vector<sim::Tick> rxBusyUntil;  //!< per-node downlink horizon
    std::vector<bool> nodeDown;          //!< failed links

    std::uint64_t numSent = 0;
    std::uint64_t numDelivered = 0;
    std::uint64_t numDropped = 0;
    std::uint64_t numBytes = 0;
};

} // namespace utlb::net

#endif // UTLB_NET_NETWORK_HPP
