/**
 * @file
 * Network-interface SRAM.
 *
 * The Myrinet PCI interface in the paper has 1 MB of SRAM holding the
 * firmware, per-process command posts, the Shared UTLB-Cache, and the
 * top-level UTLB page directories. This class models that store as a
 * byte array with a simple named-region bump allocator, so components
 * that claim SRAM contend for the same 1 MB budget the real board had.
 */

#ifndef UTLB_NIC_SRAM_HPP
#define UTLB_NIC_SRAM_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/zeroed_pages.hpp"

namespace utlb::nic {

/** Offset of a region within NIC SRAM. */
using SramAddr = std::uint32_t;

/** Default SRAM capacity: 1 MB (LANai 4.2 board, §4.2). */
inline constexpr std::size_t kDefaultSramBytes = 1u << 20;

/**
 * NIC static RAM with named-region allocation.
 *
 * Long-lived firmware structures (the Shared UTLB-Cache, command
 * posts) are set up once at initialization, as on the real board,
 * and live forever. Per-process regions (page directories, per-pid
 * translation tables) come and go with tenant churn, so regions can
 * be freed individually: a freed region becomes a hole that later
 * allocations reuse first-fit before falling back to the bump
 * pointer. Without this, a fleet attaching and tearing down
 * thousands of processes exhausts the board in minutes. reset()
 * still wipes everything.
 *
 * The byte store is a sim::ZeroedPages mapping, like PhysMemory's:
 * SRAM nothing has written reads as zero and costs no resident host
 * memory and no memset, so a 4 MB board is cheap to build.
 *
 * Thread safety: none. Callers serialize allocation and free — in
 * practice both only happen under the driver's registry mutex
 * (register/unregisterProcess); the translate hot path never
 * touches SRAM metadata.
 */
class Sram
{
  public:
    explicit Sram(std::size_t capacity = kDefaultSramBytes);

    std::size_t capacity() const { return cap; }
    /** Bytes held by live regions plus alignment padding. */
    std::size_t used() const { return nextFree - holeBytes; }
    std::size_t available() const { return cap - used(); }

    /**
     * Allocate @p size bytes for region @p name, reusing a freed
     * hole when one fits.
     * @return the region base, or nullopt if SRAM is exhausted.
     */
    std::optional<SramAddr> alloc(const std::string &name,
                                  std::size_t size);

    /**
     * Free the named region, zeroing its bytes and turning it into
     * a reusable hole.
     * @return false if no such region exists.
     */
    bool free(const std::string &name);

    /** Base of a named region, or nullopt. */
    std::optional<SramAddr> regionBase(const std::string &name) const;

    /** Size of a named region, or 0. */
    std::size_t regionSize(const std::string &name) const;

    /** Read bytes from SRAM. */
    void read(SramAddr addr, std::span<std::uint8_t> out) const;

    /** Write bytes to SRAM. */
    void write(SramAddr addr, std::span<const std::uint8_t> in);

    /** Read one 32-bit word (little-endian). */
    std::uint32_t readWord(SramAddr addr) const;

    /** Write one 32-bit word (little-endian). */
    void writeWord(SramAddr addr, std::uint32_t value);

    /** Wipe all contents and regions (by mapping a fresh zeroed
     *  store, so the wiped one stops costing resident memory). */
    void reset();

    /** This store's statistics subtree. */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

  private:
    struct Region {
        std::string name;
        SramAddr base;
        std::size_t size;
    };

    /** A freed region available for reuse. */
    struct Hole {
        SramAddr base;
        std::size_t size;
    };

    void checkRange(SramAddr addr, std::size_t len) const;

    std::size_t cap;
    sim::ZeroedPages bytes;
    std::vector<Region> regions;
    std::vector<Hole> holes;
    std::size_t holeBytes = 0;
    std::size_t nextFree = 0;

    sim::StatGroup statsGrp{"sram"};
    sim::Counter statAllocs{&statsGrp, "region_allocs",
                            "named regions claimed"};
    sim::Counter statAllocBytes{&statsGrp, "alloc_bytes",
                                "bytes claimed by regions"};
    sim::Counter statFrees{&statsGrp, "region_frees",
                           "named regions released"};
    sim::Counter statFreedBytes{&statsGrp, "freed_bytes",
                                "bytes released by region frees"};
    mutable sim::Counter statReads{&statsGrp, "reads",
                                   "read accesses (byte spans and "
                                   "words)"};
    sim::Counter statWrites{&statsGrp, "writes",
                            "write accesses (byte spans and words)"};
};

} // namespace utlb::nic

#endif // UTLB_NIC_SRAM_HPP
