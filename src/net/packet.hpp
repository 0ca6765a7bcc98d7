/**
 * @file
 * Network packet representation.
 *
 * Myrinet is a switched point-to-point network with source routing;
 * VMMC-2 layers a link-level retransmission protocol on top (§4.1).
 * Packets here carry a small routing/protocol header plus a real
 * payload (bytes are actually moved end to end so integration tests
 * can verify data integrity).
 */

#ifndef UTLB_NET_PACKET_HPP
#define UTLB_NET_PACKET_HPP

#include <cstdint>
#include <vector>

namespace utlb::net {

/** Node (host/NIC) identifier within a cluster. */
using NodeId = std::uint32_t;

/** Link-level packet type. */
enum class PacketType : std::uint8_t {
    Data,      //!< remote-store fragment
    FetchReq,  //!< remote-fetch request (no payload)
    Ack,       //!< link-level cumulative acknowledgment
};

/** Wire-format header fields modeled explicitly. */
struct PacketHeader {
    PacketType type = PacketType::Data;
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t seq = 0;        //!< link-level sequence number
    std::uint32_t ackSeq = 0;     //!< for Ack: cumulative ack

    // VMMC addressing.
    std::uint32_t transferId = 0; //!< Data: unique per sending node
    std::uint32_t exportId = 0;   //!< receiver buffer handle
    std::uint64_t offset = 0;     //!< byte offset in that buffer
    std::uint32_t totalBytes = 0; //!< full transfer length

    // Fetch addressing (FetchReq only).
    std::uint32_t fetchBytes = 0;
    std::uint32_t replyExportId = 0;
    std::uint64_t replyOffset = 0;
};

/** Modeled header size on the wire. */
inline constexpr std::size_t kHeaderBytes = 40;

/** A packet: header + payload bytes. */
struct Packet {
    PacketHeader hdr;
    std::vector<std::uint8_t> payload;

    /** Bytes occupying the wire. */
    std::size_t wireBytes() const { return kHeaderBytes + payload.size(); }
};

} // namespace utlb::net

#endif // UTLB_NET_PACKET_HPP
