/**
 * @file
 * The OS page pinning/unpinning facility.
 *
 * The paper's only OS requirement is "a device driver that accesses
 * the OS page-pinning and unpinning facility" (§1). This class is
 * that facility: it refcounts pins per (process, virtual page) in the
 * process' page-table entries, enforces an optional per-process pin
 * limit (the 4 MB / 16 MB constraints of §6.2 and §6.5), and
 * guarantees a pinned page's frame stays resident (the address space
 * refuses to unmap a pinned page).
 */

#ifndef UTLB_MEM_PINNING_HPP
#define UTLB_MEM_PINNING_HPP

#include <cstdint>
#include <memory>
#include <optional>

#include "check/test_tamper.hpp"
#include "mem/address_space.hpp"
#include "mem/page.hpp"
#include "sim/flat_map.hpp"
#include "sim/small_vector.hpp"
#include "sim/stats.hpp"

namespace utlb::check {
class AuditReport;
} // namespace utlb::check

namespace utlb::mem {

/** Result status of a pin request. */
enum class PinStatus {
    Ok,             //!< pinned, translation available
    LimitExceeded,  //!< per-process pin limit would be exceeded
    OutOfMemory,    //!< host physical memory exhausted
    UnknownProcess, //!< process not registered
    NotPinned,      //!< unpin of a page that is not pinned
};

/** Human-readable name of a PinStatus. */
const char *toString(PinStatus s);

/** Caller-owned list of frame or page numbers that a range pin
 *  fills; short runs stay inline, and a reused buffer keeps its
 *  capacity, so steady-state pins allocate nothing. */
using PageBuf = sim::SmallVector<std::uint64_t, 16>;

/**
 * Kernel pin/unpin service with per-process accounting.
 *
 * Pins are refcounted: a page pinned twice must be unpinned twice
 * before its frame may be evicted/reused. The per-process limit
 * counts distinct pinned pages, not refcounts, matching how a real
 * OS accounts locked memory.
 *
 * Thread safety: none of its own. The pid-keyed calls probe the
 * process map that (un)registration rehashes, so they run under the
 * caller's serialization (the driver's registry lock) or at
 * quiescence. The calls that take a Proc handle touch only that
 * process' state, plus the global counters when no shard is given:
 * the driver runs them inside a session on the process, which holds
 * the registry lock whenever it passes no shard.
 */
class PinFacility
{
  public:
    PinFacility() = default;

    PinFacility(const PinFacility &) = delete;
    PinFacility &operator=(const PinFacility &) = delete;

    /**
     * Statistic deltas of the pins one concurrent caller makes. The
     * calls that take a shard count into it instead of the global
     * counters, so callers that take turns under one lock do not pass
     * the counters' cache lines between cores. Fold it back with
     * absorbShard() before reading stats.
     */
    struct Shard {
        std::uint64_t pinOps = 0;
        std::uint64_t unpinOps = 0;
        std::uint64_t pagesPinned = 0;
        std::uint64_t pagesUnpinned = 0;
        std::uint64_t failedPins = 0;
    };

    /** Fold @p sh into the global counters and zero it. Same
     *  locking as the pin calls without a shard. */
    void absorbShard(Shard &sh);

    /** A registered process' state, heap-stable from registration
     *  until the process unregisters (the handle the Proc calls
     *  take). */
    struct Proc;

    /** Register a process' address space. @return its handle. */
    Proc &registerSpace(AddressSpace &space);

    /** Remove a process; implicitly unpins everything it had. */
    void unregisterProcess(ProcId pid);

    /**
     * Set the per-process pin limit in pages (0 = unlimited).
     * Lowering the limit below the current pin count is allowed; it
     * only affects future pins.
     */
    void setPinLimit(ProcId pid, std::size_t pages);

    /** Current limit (0 = unlimited). */
    std::size_t pinLimit(ProcId pid) const;

    /**
     * Pin a single page, demand-mapping it first.
     * @return the frame on success.
     */
    std::optional<Pfn> pinPage(ProcId pid, Vpn vpn, PinStatus *st = nullptr);

    /**
     * Pin a contiguous run of pages all-or-nothing.
     *
     * On success @p frames holds the run's frames in page order and
     * @p mapped the pages this call demand-mapped, in page order (a
     * caller that must undo the pin later unmaps those). On failure
     * both are left empty, no page of the run remains pinned by this
     * call, and the pages it demand-mapped are unmapped again.
     * @return Ok, or why the run could not be pinned.
     */
    PinStatus pinRange(Proc &p, Vpn start, std::size_t npages,
                       PageBuf &frames, PageBuf &mapped,
                       Shard *sh = nullptr);

    /** Drop one pin reference. */
    PinStatus unpinPage(ProcId pid, Vpn vpn, Shard *sh = nullptr);

    /** @name unpinPage() and isPinned() on a resolved process @{ */
    PinStatus unpinPage(Proc &p, Vpn vpn, Shard *sh = nullptr);
    static bool isPinned(const Proc &p, Vpn vpn);
    /** @} */

    /** True if the page has at least one pin reference. */
    bool isPinned(ProcId pid, Vpn vpn) const;

    /** Pin refcount of a page (0 if not pinned). */
    std::uint32_t pinRefs(ProcId pid, Vpn vpn) const;

    /** Number of distinct pinned pages of a process. */
    std::size_t pinnedPages(ProcId pid) const;

    /** Translation of a pinned page; nullopt if not pinned. */
    std::optional<Pfn> pinnedFrame(ProcId pid, Vpn vpn) const;

    /** @name Lifetime counters @{ */
    std::uint64_t totalPinOps() const { return statPinOps.value(); }
    std::uint64_t totalUnpinOps() const { return statUnpinOps.value(); }
    std::uint64_t totalPagesPinned() const
    {
        return statPagesPinned.value();
    }
    std::uint64_t totalPagesUnpinned() const
    {
        return statPagesUnpinned.value();
    }
    std::uint64_t totalFailedPins() const
    {
        return statFailedPins.value();
    }
    /** @} */

    /** This facility's statistics subtree. */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /**
     * Invariant auditor: every registered process has an address
     * space, and its count of pinned pages equals the number of its
     * page-table entries with a nonzero pin count.
     */
    void audit(check::AuditReport &report) const;

  private:
    friend struct check::TestTamper;

    /** The entry of a pinned page of @p p (may be null), or
     *  nullptr. */
    static const AddressSpace::Pte *pinnedEntry(const Proc *p, Vpn vpn);

    Proc *findProc(ProcId pid);
    const Proc *findProc(ProcId pid) const;

    /** pinPage's body for an already-resolved process (@p p may be
     *  null: unknown process). */
    std::optional<Pfn> pinOne(Proc *p, Vpn vpn, PinStatus &st,
                              bool *mapped_now, Shard *sh);

    /** Registered processes, each boxed so a handle survives the
     *  map's rehash. */
    sim::FlatMap<std::unique_ptr<Proc>> procs;

    sim::StatGroup statsGrp{"pin_facility"};
    sim::Counter statPinOps{&statsGrp, "pin_ops",
                            "pin requests (single pages and range "
                            "members)"};
    sim::Counter statUnpinOps{&statsGrp, "unpin_ops",
                              "unpin requests"};
    sim::Counter statPagesPinned{&statsGrp, "pages_pinned",
                                 "pages whose refcount went 0 -> 1"};
    sim::Counter statPagesUnpinned{&statsGrp, "pages_unpinned",
                                   "pages whose refcount went 1 -> 0"};
    sim::Counter statFailedPins{&statsGrp, "failed_pins",
                                "pin requests rejected (limit, OOM, "
                                "unknown process)"};
};

/** A registered process. Its per-page pin refcounts live in its
 *  address space's page-table entries (AddressSpace::Pte::pins). One
 *  cache line each, so two processes pinning at once do not share
 *  their pinned counts' line. */
struct alignas(64) PinFacility::Proc {
    AddressSpace *space = nullptr;
    std::size_t limit = 0;   //!< pages; 0 = unlimited
    std::size_t pinned = 0;  //!< entries with pins > 0
};

} // namespace utlb::mem

#endif // UTLB_MEM_PINNING_HPP
