/**
 * @file
 * Network packet representation.
 *
 * Myrinet is a switched point-to-point network with source routing;
 * VMMC-2 layers a link-level retransmission protocol on top (§4.1).
 * Packets here carry a small routing/protocol header plus a real
 * payload (bytes are actually moved end to end so integration tests
 * can verify data integrity).
 *
 * A payload is immutable once built and shared by reference count:
 * the wire, the sender's retransmission window and every go-back-N
 * resend of one fragment hold the same bytes, never copies of them.
 */

#ifndef UTLB_NET_PACKET_HPP
#define UTLB_NET_PACKET_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>

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

/**
 * An immutable, reference-counted run of payload bytes. Copies share
 * one buffer; the last copy frees it. A payload without a buffer
 * reads as size() zero bytes: a fragment of a never-written page
 * needs neither an allocation nor a memset.
 *
 * The count is atomic, so copies of one payload may be dropped on
 * different threads; the bytes are never written after filled()
 * returns.
 */
class Payload
{
  public:
    /** No bytes. */
    Payload() = default;

    /** @p n zero bytes, with no buffer. */
    static Payload
    zeros(std::size_t n)
    {
        Payload p;
        p.len = n;
        return p;
    }

    /**
     * @p n bytes that @p fill writes, given the whole uninitialised
     * buffer as a std::span<std::uint8_t>, before anything can share
     * them.
     */
    template <class Fill>
    static Payload
    filled(std::size_t n, Fill &&fill)
    {
        Payload p;
        p.len = n;
        if (n == 0)
            return p;
        void *mem = std::malloc(sizeof(Buffer) + n);
        if (!mem)
            throw std::bad_alloc();
        p.buf = ::new (mem) Buffer;
        fill(std::span<std::uint8_t>(p.buf->bytes(), n));
        return p;
    }

    Payload(const Payload &o) noexcept : buf(o.buf), len(o.len)
    {
        if (buf)
            buf->refs.fetch_add(1, std::memory_order_relaxed);
    }

    Payload(Payload &&o) noexcept
        : buf(std::exchange(o.buf, nullptr)), len(std::exchange(o.len, 0))
    {
    }

    Payload &
    operator=(Payload o) noexcept
    {
        std::swap(buf, o.buf);
        std::swap(len, o.len);
        return *this;
    }

    ~Payload()
    {
        if (buf && buf->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            buf->~Buffer();
            std::free(buf);
        }
    }

    std::size_t size() const { return len; }

    /** The bytes, or nullptr if the payload has no buffer (all zeros,
     *  or empty). Copies of one payload return the same address. */
    const std::uint8_t *data() const { return buf ? buf->bytes() : nullptr; }

  private:
    /** The count, then the bytes, which start aligned like malloc's. */
    struct alignas(std::max_align_t) Buffer {
        std::atomic<std::uint32_t> refs{1};

        std::uint8_t *
        bytes()
        {
            return reinterpret_cast<std::uint8_t *>(this + 1);
        }
    };

    Buffer *buf = nullptr;
    std::size_t len = 0;
};

/** Modeled header size on the wire. */
inline constexpr std::size_t kHeaderBytes = 40;

/** A packet: header + payload bytes. */
struct Packet {
    PacketHeader hdr;
    Payload payload;

    /** Bytes occupying the wire. */
    std::size_t wireBytes() const { return kHeaderBytes + payload.size(); }
};

} // namespace utlb::net

#endif // UTLB_NET_PACKET_HPP
