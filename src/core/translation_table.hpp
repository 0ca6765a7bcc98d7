/**
 * @file
 * UTLB translation tables.
 *
 * Two flavours, matching the paper's two designs:
 *
 *  - NicTranslationTable (§3.1, Figure 1): a fixed-size per-process
 *    table allocated in NIC SRAM, indexed by user-supplied indices.
 *    Every slot is initialized with the physical address of the
 *    driver's pinned "garbage page" (§4.2), so the NIC never needs
 *    to validate user indices: a bogus index transfers to/from an
 *    unused page and "no harm is done to the system or other
 *    applications".
 *
 *  - HostPageTable (§3.3, Figure 4): the Hierarchical-UTLB table — a
 *    two-level page table indexed by virtual page number whose
 *    second-level tables live in host physical memory (they occupy
 *    real frames of the simulated DRAM) while the top-level
 *    directory "is always stored in the network interface" SRAM.
 *    Optionally, second-level tables can be swapped out to a modeled
 *    disk (§3.3's paging extension).
 */

#ifndef UTLB_CORE_TRANSLATION_TABLE_HPP
#define UTLB_CORE_TRANSLATION_TABLE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "check/test_tamper.hpp"
#include "core/lookup_tree.hpp"
#include "mem/page.hpp"
#include "mem/phys_memory.hpp"
#include "nic/sram.hpp"
#include "sim/flat_map.hpp"
#include "sim/stats.hpp"

namespace utlb::check {
class AuditReport;
} // namespace utlb::check

namespace utlb::core {

/** Pseudo-pid owning kernel data structures in PhysMemory. */
inline constexpr mem::ProcId kKernelPid = 0xfffffffe;

/**
 * Per-process translation table resident in NIC SRAM (§3.1).
 *
 * Slots hold 4-byte frame numbers and are read/written through the
 * SRAM byte store so the table genuinely consumes board memory.
 */
class NicTranslationTable
{
  public:
    /**
     * Allocate @p entries slots in @p board_sram for process
     * @p pid, initializing every slot to @p garbage_frame.
     * Dies fatally if SRAM is exhausted.
     */
    NicTranslationTable(nic::Sram &board_sram, mem::ProcId pid,
                        std::size_t entries, mem::Pfn garbage_frame);

    /** Releases the table's SRAM region back to the board. */
    ~NicTranslationTable();

    NicTranslationTable(const NicTranslationTable &) = delete;
    NicTranslationTable &operator=(const NicTranslationTable &) =
        delete;

    mem::ProcId pid() const { return procId; }
    std::size_t entries() const { return numEntries; }
    mem::Pfn garbageFrame() const { return garbagePfn; }

    /** Store a translation at @p index. @pre index < entries(). */
    void install(UtlbIndex index, mem::Pfn pfn);

    /** Reset @p index to the garbage frame. */
    void invalidate(UtlbIndex index);

    /**
     * Read the frame at @p index. Never fails: out-of-range or
     * stale indices yield the garbage frame, by design.
     */
    mem::Pfn entry(UtlbIndex index) const;

    /** True if the slot holds a real (non-garbage) translation. */
    bool isValid(UtlbIndex index) const;

    /** Count of non-garbage slots. */
    std::size_t validEntries() const { return numValid; }

    /**
     * Invariant auditor: recounts non-garbage slots straight from
     * SRAM and checks the table's region stays within the board.
     */
    void audit(check::AuditReport &report) const;

  private:
    friend struct check::TestTamper;

    nic::Sram *sram;
    mem::ProcId procId;
    std::size_t numEntries;
    mem::Pfn garbagePfn;
    nic::SramAddr base;
    std::size_t numValid = 0;
};

/**
 * Hierarchical-UTLB host-resident page table (§3.3).
 *
 * Second-level tables are one 4 KB frame each, holding 512 8-byte
 * entries; the directory is a map from vpn/512 to the leaf frame.
 * Entries encode a valid bit and the frame number. readRun()
 * supports the Shared UTLB-Cache's prefetching: it returns up to n
 * consecutive entries without crossing the leaf-table boundary (one
 * DMA touches one physically contiguous leaf).
 */
class HostPageTable
{
  public:
    /** Entries per second-level table (4 KB / 8 bytes). */
    static constexpr std::size_t kLeafEntries =
        mem::kPageSize / sizeof(std::uint64_t);

    /**
     * Build a table for @p pid whose leaf frames come from
     * @p host_mem and whose directory claims SRAM in
     * @p board_sram (when non-null), sized for @p dir_slots
     * directory entries of 4 bytes each.
     */
    HostPageTable(mem::PhysMemory &host_mem, mem::ProcId pid,
                  nic::Sram *board_sram = nullptr,
                  std::size_t dir_slots = 1024);

    ~HostPageTable();

    HostPageTable(const HostPageTable &) = delete;
    HostPageTable &operator=(const HostPageTable &) = delete;

    mem::ProcId pid() const { return procId; }

    /**
     * Install a translation for @p vpn, allocating a leaf on
     * demand.
     * @return false if host memory was exhausted allocating a leaf.
     */
    bool set(mem::Vpn vpn, mem::Pfn pfn);

    /** Invalidate @p vpn's entry. @return true if it was valid. */
    bool clear(mem::Vpn vpn);

    /** Read one entry. nullopt if invalid or leaf not present. */
    std::optional<mem::Pfn> get(mem::Vpn vpn) const;

    /**
     * Read up to @p n consecutive entries starting at @p vpn,
     * truncated at the containing leaf's end (a single DMA reads
     * only physically contiguous table memory). Slot i of the
     * result is the translation of vpn + i, or nullopt if invalid.
     *
     * Returns an empty vector if the leaf is absent or swapped out.
     */
    std::vector<std::optional<mem::Pfn>>
    readRun(mem::Vpn vpn, std::size_t n) const;

    /**
     * Allocation-free readRun variant for the miss hot path: fills
     * @p out (cleared first, capacity reused across calls) instead
     * of returning a fresh vector, and reads the whole run from the
     * leaf frame as one contiguous block. Pass @p concurrent when
     * other threads may read this table at the same time (a
     * concurrent view's miss path): the run-read counter is then
     * bumped with a relaxed atomic add instead of a plain one.
     */
    void readRun(mem::Vpn vpn, std::size_t n,
                 std::vector<std::optional<mem::Pfn>> &out,
                 bool concurrent = false) const;

    /** Number of valid entries. */
    std::size_t validEntries() const { return numValid; }

    /** Number of allocated leaf tables. */
    std::size_t leafTables() const { return dir.size(); }

    /** @name Second-level table paging (§3.3 extension) @{ */

    /**
     * Swap the leaf containing @p vpn out to the modeled disk.
     * @return true if a resident leaf existed.
     */
    bool swapOutLeaf(mem::Vpn vpn);

    /** Bring a swapped-out leaf back in. @return false on OOM. */
    bool swapInLeaf(mem::Vpn vpn);

    /** True if the leaf covering @p vpn is swapped out. */
    bool leafSwappedOut(mem::Vpn vpn) const;

    /** Total swap-out operations performed. */
    std::uint64_t swapOuts() const { return statSwapOuts.value(); }

    /** Total swap-in operations performed. */
    std::uint64_t swapIns() const { return statSwapIns.value(); }

    /** @} */

    /** This table's statistics subtree. */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /**
     * Invariant auditor: every resident leaf is an allocated
     * kernel-owned frame, every swapped leaf carries a full disk
     * block, and the valid-entry count matches a recount over both.
     */
    void audit(check::AuditReport &report) const;

  private:
    friend struct check::TestTamper;

    struct DirEntry {
        bool swapped = false;
        mem::Pfn leafFrame = mem::kInvalidPfn;  //!< valid if !swapped
        std::vector<std::uint8_t> diskBlock;    //!< contents if swapped
    };

    std::uint64_t dirIndexOf(mem::Vpn vpn) const
    {
        return vpn / kLeafEntries;
    }

    DirEntry *residentLeaf(mem::Vpn vpn);
    const DirEntry *residentLeaf(mem::Vpn vpn) const;

    std::uint64_t entryAddr(const DirEntry &de, mem::Vpn vpn) const;

    mem::PhysMemory *hostMem;
    mem::ProcId procId;
    /** Board that holds the directory region; null if none was
     *  claimed. Kept so teardown can return the region (fleet churn
     *  must not leak SRAM). */
    nic::Sram *boardSram = nullptr;
    /** Leaf index (vpn / kLeafEntries) -> leaf; the directory sits on
     *  the NIC miss path. */
    sim::FlatMap<DirEntry> dir;
    std::size_t numValid = 0;

    sim::StatGroup statsGrp;
    sim::Counter statInstalls{&statsGrp, "installs",
                              "translations installed via set()"};
    sim::Counter statClears{&statsGrp, "clears",
                            "valid translations removed via clear()"};
    mutable sim::Counter statRunReads{&statsGrp, "run_reads",
                                      "readRun DMA fetches served"};
    sim::Counter statSwapOuts{&statsGrp, "swap_outs",
                              "leaf tables swapped out to disk"};
    sim::Counter statSwapIns{&statsGrp, "swap_ins",
                             "leaf tables brought back from disk"};
};

} // namespace utlb::core

#endif // UTLB_CORE_TRANSLATION_TABLE_HPP
