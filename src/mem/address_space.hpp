/**
 * @file
 * Per-process virtual address space.
 *
 * A sparse virtual-to-physical page table with demand allocation: the
 * first touch of a virtual page allocates a physical frame. This
 * stands in for the host OS virtual memory the paper's applications
 * run on top of; the UTLB never sees these mappings directly — it only
 * learns translations for pages that the pinning facility has pinned.
 *
 * The table is two-level, like the host table of §3.3: a hash map
 * from `vpn >> kLeafBits` to a fixed-size leaf of page-table entries
 * indexed by the low vpn bits. Each entry also carries the page's pin
 * refcount, which the pinning facility keeps there instead of in a
 * map of its own, so a pin, an unpin or a pinned-frame lookup is one
 * leaf access. A leaf stays allocated until the space is cleared, so
 * the table costs one 4 KB leaf per 512-page run the process ever
 * touched: at worst (every touched page in a run of its own) 4 KB per
 * mapped page, where a flat hash map of 16-byte slots costs 21–43
 * bytes.
 */

#ifndef UTLB_MEM_ADDRESS_SPACE_HPP
#define UTLB_MEM_ADDRESS_SPACE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "check/test_tamper.hpp"
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
    /** One page-table entry. Zero-initialized means unmapped and
     *  unpinned. */
    struct Pte {
        std::uint32_t frameTag = 0;  //!< frame + 1; 0 = unmapped
        std::uint32_t pins = 0;      //!< pin refcount (PinFacility's)

        bool mapped() const { return frameTag != 0; }
        Pfn frame() const { return Pfn{frameTag} - 1; }
    };

    /** log2 of the entries per leaf. */
    static constexpr unsigned kLeafBits = 9;
    static constexpr std::size_t kLeafEntries = std::size_t{1}
        << kLeafBits;

    AddressSpace(ProcId pid, PhysMemory &phys_mem);

    /** Frees every frame, pinned or not: the process is gone. */
    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    ProcId pid() const { return procId; }

    /** Number of mapped virtual pages. */
    std::size_t mappedPages() const { return numMapped; }

    /**
     * Ensure @p vpn is mapped, allocating a frame on first touch.
     * @return the frame, or nullopt if physical memory is exhausted.
     */
    std::optional<Pfn> touch(Vpn vpn);

    /** Current mapping of @p vpn, or nullopt if unmapped. */
    std::optional<Pfn> lookup(Vpn vpn) const;

    /**
     * Translate a full virtual address to a physical address,
     * mapping the page on demand.
     */
    std::optional<PhysAddr> translate(VirtAddr va);

    /** Unmap @p vpn and free its frame. No-op if unmapped.
     *  @pre the page is not pinned. */
    void unmap(Vpn vpn);

    /** Unmap everything, freeing frames in ascending vpn order (so
     *  the order later allocations reuse them in is fixed).
     *  @pre no page is pinned. */
    void unmapAll();

    /** @name Entry access for the pinning facility @{ */
    /** The entry of @p vpn, or nullptr if its leaf was never made
     *  (an existing entry may still be unmapped). */
    Pte *
    find(Vpn vpn)
    {
        std::unique_ptr<Leaf> *leaf = leaves.find(vpn >> kLeafBits);
        return leaf ? &(*leaf)->ptes[vpn & kLeafMask] : nullptr;
    }

    const Pte *
    find(Vpn vpn) const
    {
        return const_cast<AddressSpace *>(this)->find(vpn);
    }

    /** The entry of @p vpn, making its leaf if needed. */
    Pte &entry(Vpn vpn);

    /** Map the unmapped entry @p e to a fresh frame.
     *  @return false if physical memory is exhausted. */
    bool mapFresh(Pte &e);

    /** Number of entries with a nonzero pin count. */
    std::size_t countPinned() const;

    /** Zero every entry's pin count (the facility forgot the
     *  process); mappings stay. */
    void clearPins();
    /** @} */

    /**
     * Copy bytes out of this space (demand-mapping pages), handling
     * page-boundary straddles.
     */
    void readBytes(VirtAddr va, std::span<std::uint8_t> out);

    /** Copy bytes into this space (demand-mapping pages). */
    void writeBytes(VirtAddr va, std::span<const std::uint8_t> in);

  private:
    friend struct check::TestTamper;

    static constexpr Vpn kLeafMask = kLeafEntries - 1;

    struct Leaf {
        std::array<Pte, kLeafEntries> ptes{};
    };

    /** Free every mapped frame in ascending vpn order and drop the
     *  table; with @p checked, a pinned page is a checked error. */
    void release(bool checked);

    ProcId procId;
    PhysMemory *physMem;
    sim::FlatMap<std::unique_ptr<Leaf>> leaves;  //!< vpn >> kLeafBits
    std::size_t numMapped = 0;
};

} // namespace utlb::mem

#endif // UTLB_MEM_ADDRESS_SPACE_HPP
