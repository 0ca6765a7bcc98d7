#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "sim/log.hpp"

namespace utlb::net {

using sim::panic;
using sim::Tick;

Network::Network(sim::EventQueue &event_queue, const nic::NicTimings &t,
                 const NetworkConfig &cfg)
    : events(&event_queue), timings(&t), config(cfg), rng(cfg.seed),
      handlers(cfg.nodes), txBusyUntil(cfg.nodes, 0),
      rxBusyUntil(cfg.nodes, 0), nodeDown(cfg.nodes, false)
{
    if (cfg.nodes == 0)
        sim::fatal("network requires at least one node");
}

void
Network::setNodeDown(NodeId node, bool down)
{
    if (node >= handlers.size())
        panic("setNodeDown on nonexistent node %u", node);
    nodeDown[node] = down;
}

bool
Network::isNodeDown(NodeId node) const
{
    return node < nodeDown.size() && nodeDown[node];
}

void
Network::attach(NodeId node, PacketHandler handler)
{
    if (node >= handlers.size())
        panic("attach to nonexistent node %u", node);
    handlers[node] = std::move(handler);
}

void
Network::send(Packet pkt)
{
    NodeId src = pkt.hdr.src;
    NodeId dst = pkt.hdr.dst;
    if (src >= handlers.size() || dst >= handlers.size())
        panic("packet between nonexistent nodes %u -> %u", src, dst);
    ++numSent;

    if (nodeDown[src] || nodeDown[dst]) {
        ++numDropped;
        return;
    }

    bool droppable = config.dropAcks
        || pkt.hdr.type != PacketType::Ack;
    if (config.lossProbability > 0.0 && droppable
        && rng.chance(config.lossProbability)) {
        ++numDropped;
        return;
    }

    Tick now = events->now();
    Tick wire = timings->linkTransferCost(pkt.wireBytes());

    // Serialize on the source uplink...
    Tick tx_start = std::max(now, txBusyUntil[src]);
    Tick tx_done = tx_start + wire;
    txBusyUntil[src] = tx_done;

    // ...cross the switch...
    Tick at_switch = tx_done + timings->switchLatency;

    // ...serialize on the destination downlink.
    Tick rx_start = std::max(at_switch, rxBusyUntil[dst]);
    Tick rx_done = rx_start + wire;
    rxBusyUntil[dst] = rx_done;

    auto deliver = [this, dst, pkt = std::move(pkt)] {
        ++numDelivered;
        numBytes += pkt.wireBytes();
        if (handlers[dst])
            handlers[dst](pkt);
    };
    static_assert(sim::EventFn::storedInline<decltype(deliver)>,
                  "a delivery must fit the event's inline storage");
    events->schedule(rx_done, std::move(deliver));
}

} // namespace utlb::net
