/**
 * @file
 * Simulated host physical memory.
 *
 * A frame allocator over a real byte array: DMA transfers in the NIC
 * model copy actual bytes through this store, so end-to-end VMMC tests
 * can verify data integrity, not just bookkeeping.
 */

#ifndef UTLB_MEM_PHYS_MEMORY_HPP
#define UTLB_MEM_PHYS_MEMORY_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mem/page.hpp"

namespace utlb::mem {

/** Owner tag for an unallocated frame. */
inline constexpr ProcId kNoOwner = ~ProcId{0};

/**
 * Host DRAM: a pool of 4 KB frames with owner tracking and byte
 * storage.
 *
 * Frames are allocated lowest-free-first from an explicit freelist so
 * that allocation order is deterministic (important for reproducible
 * physical layouts in the trace-driven experiments).
 */
class PhysMemory
{
  public:
    /** Construct with @p frames frames of kPageSize bytes each. */
    explicit PhysMemory(std::size_t frames);

    /** Total number of frames. */
    std::size_t totalFrames() const { return owners.size(); }

    /** Capacity in bytes. */
    std::size_t capacityBytes() const
    {
        return owners.size() * kPageSize;
    }

    /** Frames currently allocated. */
    std::size_t allocatedFrames() const { return numAllocated; }

    /** Frames still free. */
    std::size_t freeFrames() const { return owners.size() - numAllocated; }

    /**
     * Allocate one frame for @p owner. The frame's contents are
     * zeroed (the backing store is lazily mapped and deliberately
     * not pre-initialized, so freshly simulated DRAM is cheap even
     * at multi-GB sizes).
     * @return the frame number, or nullopt if memory is exhausted.
     */
    std::optional<Pfn> allocFrame(ProcId owner);

    /** Release a frame. @pre the frame is allocated. */
    void freeFrame(Pfn pfn);

    /** Owner of @p pfn, or kNoOwner. */
    ProcId ownerOf(Pfn pfn) const;

    /** True if @p pfn is currently allocated. */
    bool isAllocated(Pfn pfn) const;

    /** Read @p out.size() bytes starting at physical address @p pa. */
    void read(PhysAddr pa, std::span<std::uint8_t> out) const;

    /** Write @p in to physical memory starting at @p pa. */
    void write(PhysAddr pa, std::span<const std::uint8_t> in);

    /** Zero-fill one frame. */
    void zeroFrame(Pfn pfn);

    /** Lifetime counters. */
    std::uint64_t totalAllocs() const { return numAllocs; }
    std::uint64_t totalFrees() const { return numFrees; }

  private:
    void checkRange(PhysAddr pa, std::size_t len) const;

    std::unique_ptr<std::uint8_t[]> bytes;  //!< zeroed on allocFrame
    std::vector<ProcId> owners;
    std::vector<Pfn> freeList;  //!< kept sorted descending; pop_back
    std::size_t numAllocated = 0;
    std::uint64_t numAllocs = 0;
    std::uint64_t numFrees = 0;
};

} // namespace utlb::mem

#endif // UTLB_MEM_PHYS_MEMORY_HPP
