#include "mem/phys_memory.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "sim/log.hpp"

namespace utlb::mem {

using sim::panic;

PhysMemory::PhysMemory(std::size_t frames)
    : bytes(frames * kPageSize), numFrames(frames),
      writtenBits((frames + 63) / 64)
{
}

std::optional<Pfn>
PhysMemory::allocFrame(ProcId owner)
{
    Pfn pfn;
    bool reused = false;
    {
        sim::SpinGuard g(allocLock.value);
        if (!freeList.empty()) {
            pfn = freeList.back();
            freeList.pop_back();
            reused = true;
            ++numZeroFills;
            owners[pfn] = owner;
        } else if (owners.size() < numFrames) {
            // Never handed out: still the mapping's zero page.
            pfn = static_cast<Pfn>(owners.size());
            owners.push_back(owner);
        } else {
            return std::nullopt;
        }
        ++numAllocated;
        ++numAllocs;
    }
    // The frame is the caller's from here on, so it is cleared
    // outside the lock. Frames read as zero, like DRAM handed out by
    // an OS.
    if (reused)
        std::memset(bytes.data() + frameAddr(pfn), 0, kPageSize);
    if (written(pfn)) {
        writtenBits[pfn / 64].fetch_and(~(std::uint64_t{1} << (pfn % 64)),
                                        std::memory_order_relaxed);
    }
    return pfn;
}

void
PhysMemory::freeFrame(Pfn pfn)
{
    sim::SpinGuard g(allocLock.value);
    freeLocked(pfn);
}

void
PhysMemory::freeFrames(std::span<const Pfn> pfns)
{
    sim::SpinGuard g(allocLock.value);
    for (Pfn pfn : pfns)
        freeLocked(pfn);
}

void
PhysMemory::freeLocked(Pfn pfn)
{
    if (pfn >= owners.size() || owners[pfn] == kNoOwner)
        panic("freeFrame of unallocated frame %llu",
              static_cast<unsigned long long>(pfn));
    owners[pfn] = kNoOwner;
    freeList.push_back(pfn);
    --numAllocated;
    ++numFrees;
}

// Owner queries run when no session does (class comment).
ProcId
PhysMemory::ownerOf(Pfn pfn) const UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    return pfn < owners.size() ? owners[pfn] : kNoOwner;
}

bool
PhysMemory::isAllocated(Pfn pfn) const UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    return pfn < owners.size() && owners[pfn] != kNoOwner;
}

void
PhysMemory::checkRange(PhysAddr pa, std::size_t len) const
{
    if (pa + len > capacityBytes() || pa + len < pa)
        panic("physical access [%llu, +%zu) out of range",
              static_cast<unsigned long long>(pa), len);
}

void
PhysMemory::read(PhysAddr pa, std::span<std::uint8_t> out) const
{
    checkRange(pa, out.size());
    // A cache line or less costs no more to read from the store than
    // the bitmap test would (the host page-table reads on every miss
    // and pin are 8 bytes), so only longer reads consult the bitmap.
    if (out.size() <= kStoreReadBytes) {
        std::memcpy(out.data(), bytes.data() + pa, out.size());
        return;
    }
    for (std::size_t done = 0; done < out.size();) {
        PhysAddr at = pa + done;
        std::size_t n = std::min(out.size() - done,
                                 kPageSize - (at & (kPageSize - 1)));
        if (written(at >> kPageShift))
            std::memcpy(out.data() + done, bytes.data() + at, n);
        else
            std::memset(out.data() + done, 0, n);
        done += n;
    }
}

void
PhysMemory::write(PhysAddr pa, std::span<const std::uint8_t> in)
{
    checkRange(pa, in.size());
    if (in.empty())
        return;
    std::memcpy(bytes.data() + pa, in.data(), in.size());
    // Set only bits still clear: a word whose frames were all written
    // before stays a read-only cache line for other threads' reads.
    Pfn last = (pa + in.size() - 1) >> kPageShift;
    for (Pfn pfn = pa >> kPageShift; pfn <= last; ++pfn) {
        if (!written(pfn)) {
            writtenBits[pfn / 64].fetch_or(std::uint64_t{1} << (pfn % 64),
                                           std::memory_order_relaxed);
        }
    }
}

void
PhysMemory::populate(Pfn pfn)
{
    checkRange(frameAddr(pfn), kPageSize);
    std::atomic_ref<std::uint8_t>(bytes[frameAddr(pfn)])
        .fetch_or(0, std::memory_order_relaxed);
}

} // namespace utlb::mem
