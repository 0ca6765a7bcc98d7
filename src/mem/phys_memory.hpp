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

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mem/page.hpp"
#include "sim/annotations.hpp"
#include "sim/spinlock.hpp"
#include "sim/zeroed_pages.hpp"

namespace utlb::mem {

/** Owner tag for an unallocated frame. */
inline constexpr ProcId kNoOwner = ~ProcId{0};

/**
 * Host DRAM: a pool of 4 KB frames with owner tracking and byte
 * storage.
 *
 * Allocation order is deterministic (important for reproducible
 * physical layouts in the trace-driven experiments): a freed frame
 * goes on a free list and is the next one handed out (LIFO reuse);
 * with the list empty, never-used frames come from a bump counter,
 * lowest first.
 *
 * The backing store is one sim::ZeroedPages mapping, so a frame
 * that has never been handed out is zero and costs no resident
 * memory and no memset until it is written, whatever the store's
 * size. allocFrame zeroes exactly the frames it takes from the free
 * list, the only ones that can hold old bytes.
 *
 * A bitmap records which frames have been written since they were
 * handed out. A frame that has not is all zeros, and a read() longer
 * than a cache line fills the caller's buffer with zeros without
 * touching the store: a DMA read of a never-written frame neither
 * faults its page in nor pulls it through the cache. The bitmap's
 * words are atomics, so read() may test a bit while another thread's
 * write() sets one beside it.
 *
 * Thread safety: allocFrame() and freeFrame() serialize on a small
 * lock of the allocator's own, the one piece of host state that
 * concurrent driver sessions of different processes share. read(),
 * write() and populate() take no lock: a frame's bytes belong to
 * whoever holds the frame. The owner queries and the counters read
 * the allocator unlocked: call them when no session runs.
 */
class PhysMemory
{
  public:
    /** Construct with @p frames frames of kPageSize bytes each. */
    explicit PhysMemory(std::size_t frames);

    /** Total number of frames. */
    std::size_t totalFrames() const { return numFrames; }

    /** Capacity in bytes. */
    std::size_t capacityBytes() const
    {
        return numFrames * kPageSize;
    }

    /** Frames currently allocated. */
    std::size_t allocatedFrames() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return numAllocated;
    }

    /** Frames still free. */
    std::size_t freeFrames() const { return numFrames - allocatedFrames(); }

    /**
     * Allocate one frame for @p owner. The frame reads as zero: a
     * first-time frame is still a never-written zero page, and a reused
     * one is zero-filled here.
     * @return the frame number, or nullopt if memory is exhausted.
     */
    std::optional<Pfn> allocFrame(ProcId owner);

    /** Release a frame. @pre the frame is allocated. */
    void freeFrame(Pfn pfn);

    /** Release @p pfns in order under one hold of the allocator
     *  lock (a process teardown). @pre each frame is allocated. */
    void freeFrames(std::span<const Pfn> pfns);

    /** Owner of @p pfn, or kNoOwner. */
    ProcId ownerOf(Pfn pfn) const;

    /** True if @p pfn is currently allocated. */
    bool isAllocated(Pfn pfn) const;

    /** Reads up to this long go straight to the store. */
    static constexpr std::size_t kStoreReadBytes = 64;

    /**
     * Read @p out.size() bytes starting at physical address @p pa.
     * A frame not written since allocFrame reads as zeros; in a read
     * longer than kStoreReadBytes its bytes are not touched.
     */
    void read(PhysAddr pa, std::span<std::uint8_t> out) const;

    /**
     * Write @p in to physical memory starting at @p pa, marking the
     * frames it covers written.
     * @pre those frames have been handed out at least once (a fresh
     *      frame is handed out as never written).
     */
    void write(PhysAddr pa, std::span<const std::uint8_t> in);

    /**
     * Make frame @p pfn resident without changing its bytes: one
     * atomic no-op write to its first byte, so the host takes the
     * write fault now rather than on the first data access. It does
     * not count as a write: a never-written frame still reads as
     * zeros without being touched.
     */
    void populate(Pfn pfn);

    /** @name Lifetime counters (read when no session runs) @{ */
    std::uint64_t totalAllocs() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return numAllocs;
    }
    std::uint64_t totalFrees() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return numFrees;
    }
    /** Allocations that had to zero-fill a reused frame. */
    std::uint64_t totalZeroFills() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return numZeroFills;
    }
    /** @} */

  private:
    void checkRange(PhysAddr pa, std::size_t len) const;

    void freeLocked(Pfn pfn) UTLB_REQUIRES(allocLock.value);

    /** True if @p pfn has been written since it was handed out. */
    bool
    written(Pfn pfn) const
    {
        return writtenBits[pfn / 64].load(std::memory_order_relaxed)
            >> (pfn % 64) & 1;
    }

    /** Zero when mapped; a frame is zeroed again only when reused. */
    sim::ZeroedPages bytes;
    std::size_t numFrames;
    /** The allocator lock (class comment), on a line of its own. */
    sim::CachePadded<sim::Spinlock> allocLock;
    /** Owner of each frame handed out at least once: frames
     * [0, owners.size()) have been, the rest are still fresh. */
    std::vector<ProcId> owners UTLB_GUARDED_BY(allocLock.value);
    /** Returned frames; freeFrame appends and allocFrame pops the
     * back, so they are reused LIFO, before any fresh frame. */
    std::vector<Pfn> freeList UTLB_GUARDED_BY(allocLock.value);
    /** Bit pfn % 64 of word pfn / 64: frame pfn has been written
     *  since allocFrame last handed it out. Relaxed is enough: a
     *  thread can only rely on a frame's bytes after synchronising
     *  with the thread that wrote them (the allocator lock, the one
     *  event-loop thread), and that orders the bit too. */
    std::vector<std::atomic<std::uint64_t>> writtenBits;
    std::size_t numAllocated UTLB_GUARDED_BY(allocLock.value) = 0;
    std::uint64_t numAllocs UTLB_GUARDED_BY(allocLock.value) = 0;
    std::uint64_t numFrees UTLB_GUARDED_BY(allocLock.value) = 0;
    std::uint64_t numZeroFills UTLB_GUARDED_BY(allocLock.value) = 0;
};

} // namespace utlb::mem

#endif // UTLB_MEM_PHYS_MEMORY_HPP
