/**
 * @file
 * Per-process virtual address space.
 *
 * A sparse virtual-to-physical page table with demand allocation: the
 * first touch of a virtual page allocates a physical frame. This
 * stands in for the host OS virtual memory the paper's applications
 * run on top of; the UTLB never sees these mappings directly — it only
 * learns translations for pages that the pinning facility has pinned.
 */

#ifndef UTLB_MEM_ADDRESS_SPACE_HPP
#define UTLB_MEM_ADDRESS_SPACE_HPP

#include <cstdint>
#include <optional>
#include <span>

#include "mem/page.hpp"
#include "mem/phys_memory.hpp"
#include "sim/flat_map.hpp"

namespace utlb::mem {

/**
 * A process' virtual address space backed by PhysMemory.
 *
 * Mappings persist until explicitly unmapped or the space is
 * destroyed. The space does not do swapping: a failed frame
 * allocation surfaces as nullopt from touch(), which models an
 * out-of-memory host.
 */
class AddressSpace
{
  public:
    AddressSpace(ProcId pid, PhysMemory &phys_mem)
        : procId(pid), physMem(&phys_mem)
    {}

    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    ProcId pid() const { return procId; }

    /** Number of mapped virtual pages. */
    std::size_t mappedPages() const { return table.size(); }

    /**
     * Ensure @p vpn is mapped, allocating a frame on first touch.
     * If @p mapped_now is non-null it is set to whether this call
     * created the mapping.
     * @return the frame, or nullopt if physical memory is exhausted.
     */
    std::optional<Pfn> touch(Vpn vpn, bool *mapped_now = nullptr);

    /** Current mapping of @p vpn, or nullopt if unmapped. */
    std::optional<Pfn> lookup(Vpn vpn) const;

    /**
     * Translate a full virtual address to a physical address,
     * mapping the page on demand.
     */
    std::optional<PhysAddr> translate(VirtAddr va);

    /** Unmap @p vpn and free its frame. No-op if unmapped. */
    void unmap(Vpn vpn);

    /** Unmap everything, freeing frames in ascending vpn order (so
     *  the order later allocations reuse them in is fixed). */
    void unmapAll();

    /**
     * Copy bytes out of this space (demand-mapping pages), handling
     * page-boundary straddles.
     */
    void readBytes(VirtAddr va, std::span<std::uint8_t> out);

    /** Copy bytes into this space (demand-mapping pages). */
    void writeBytes(VirtAddr va, std::span<const std::uint8_t> in);

  private:
    ProcId procId;
    PhysMemory *physMem;
    sim::FlatMap<Pfn> table;
};

} // namespace utlb::mem

#endif // UTLB_MEM_ADDRESS_SPACE_HPP
