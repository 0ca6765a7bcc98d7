/**
 * @file
 * The UTLB device driver (§4.2).
 *
 * "The UTLB mechanism does not rely on OS modifications nor on
 * esoteric OS features. Only a device driver that accesses the OS
 * page-pinning and unpinning facility is required." This class is
 * that driver: it owns the pinned garbage page, allocates per-process
 * translation tables, and exposes the ioctl() the user-level library
 * calls to (a) lock pages and (b) fill translation entries.
 *
 * Costs: an ioctl pin/unpin charges the measured Table 1 batch curve
 * (syscall overhead included, since the paper measured through the
 * ioctl interface).
 */

#ifndef UTLB_CORE_DRIVER_HPP
#define UTLB_CORE_DRIVER_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "core/shared_cache.hpp"
#include "core/translation_table.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "sim/annotations.hpp"
#include "sim/flat_map.hpp"
#include "sim/mutex.hpp"
#include "sim/stats.hpp"

namespace utlb::core {

/** Result of a driver ioctl. */
struct IoctlResult {
    mem::PinStatus status = mem::PinStatus::Ok;
    sim::Tick cost = 0;          //!< modeled host time spent
    std::size_t pagesDone = 0;   //!< pages actually pinned/unpinned
};

/**
 * The VMMC/UTLB device driver.
 *
 * One driver instance per host; it manages every process using the
 * board. The driver keeps the host-resident Hierarchical-UTLB page
 * tables coherent with the pinning facility and the NIC shared
 * cache: an unpin always invalidates both the host table entry and
 * any cached NIC copy before the page becomes evictable.
 *
 * Thread safety: one driver mutex serializes every ioctl,
 * (un)registration, and NIC-table creation. It guards the
 * open-addressed process directory, the ioctl statistics, and —
 * because every ioctl body runs under it — the pin facility, the
 * physical allocator, and the host page tables those bodies reach.
 * Splitting it per address space measured no faster on 4 cores
 * (docs/performance.md), so the driver stays one critical section.
 * A caller that issues several ioctls back to back (the pin
 * manager's evict-then-pin slow path) holds the mutex once through
 * a Session instead of once per ioctl. Lock order: a PinManager's
 * mutex, then the driver mutex, then PinBudget's.
 *
 * Accessors that hand out references (pageTable, nicTable,
 * pinFacility, stats, audit) are not locked: use them only after
 * registration has quiesced and, for stats/audit, when no worker is
 * in an ioctl.
 */
class UtlbDriver
{
  public:
    UtlbDriver(mem::PhysMemory &host_mem, mem::PinFacility &pin_facility,
               nic::Sram &board_sram, SharedUtlbCache &cache,
               const HostCosts &costs);

    ~UtlbDriver();

    UtlbDriver(const UtlbDriver &) = delete;
    UtlbDriver &operator=(const UtlbDriver &) = delete;

    /**
     * One hold of the driver mutex spanning several ioctls. Each
     * call still counts and costs as its own ioctl (statIoctls, the
     * latency histograms, the returned IoctlResult), so a session
     * changes wall-clock locking only, never a modeled number. The
     * ioctl entry points below are one-call sessions. Every other
     * worker's pin path waits while a session is open, so keep it to
     * a run of ioctls and the caller's bookkeeping between them.
     */
    class UTLB_SCOPED_CAPABILITY Session
    {
      public:
        explicit Session(UtlbDriver &d) UTLB_ACQUIRE(d.mu)
            : drv(&d), lk(d.mu)
        {}

        ~Session() UTLB_RELEASE() {}

        Session(const Session &) = delete;
        Session &operator=(const Session &) = delete;

        /** ioctlPinAndInstall() under this session's hold. */
        IoctlResult pinAndInstall(mem::ProcId pid, mem::Vpn start,
                                  std::size_t npages);

        /** ioctlUnpinAndInvalidate() under this session's hold. */
        IoctlResult unpinAndInvalidate(mem::ProcId pid, mem::Vpn start,
                                       std::size_t npages);

        /** ioctlPinAtIndex() under this session's hold. */
        IoctlResult pinAtIndex(mem::ProcId pid, mem::Vpn vpn,
                               UtlbIndex index);

        /** ioctlUnpinIndex() under this session's hold. */
        IoctlResult unpinIndex(mem::ProcId pid, mem::Vpn vpn,
                               UtlbIndex index);

      private:
        UtlbDriver *drv;
        sim::LockGuard lk;
    };

    /** The always-pinned garbage frame (§4.2). */
    mem::Pfn garbageFrame() const { return garbagePfn; }

    /** The kernel pin facility this driver fronts. */
    const mem::PinFacility &pinFacility() const { return *pins; }

    /**
     * Register a process: creates its host-resident page table and
     * registers its address space with the pinning facility. The
     * reserved pids kKernelPid and mem::kNoOwner are rejected
     * fatally.
     */
    void registerProcess(mem::AddressSpace &space);

    /**
     * Tear down an exiting process: unpins all pages, drops cache
     * entries, and unmaps its address space, returning its frames to
     * host memory under the driver mutex (so tenant churn never races
     * another process' demand mapping). The space object itself stays
     * the caller's and is left empty.
     */
    void unregisterProcess(mem::ProcId pid);

    /** True if @p pid is registered. Takes the driver mutex, so it
     *  is safe while other tenants (un)register. */
    bool isRegistered(mem::ProcId pid) const;

    /** The process' Hierarchical-UTLB page table. */
    HostPageTable &pageTable(mem::ProcId pid);

    /**
     * pageTable()'s concurrent-safe twin: resolves the table under
     * the driver mutex, so the directory probe cannot race another
     * tenant's register/unregister rehashing the directory (fleet
     * churn does exactly that mid-translate). The returned object is
     * heap-stable and outlives the lock; it stays valid until @p pid
     * itself unregisters. UserUtlb resolves its table here once, at
     * construction, and every owner destroys the view before
     * unregistering its pid.
     * @return nullptr if @p pid is not registered.
     */
    HostPageTable *pageTableShared(mem::ProcId pid);

    /**
     * ioctl: pin [start, start+npages) and install the translations
     * into the process' host page table (all-or-nothing).
     *
     * On LimitExceeded/OutOfMemory nothing is pinned and the caller
     * (the user-level library) is expected to evict and retry.
     */
    IoctlResult ioctlPinAndInstall(mem::ProcId pid, mem::Vpn start,
                                   std::size_t npages);

    /**
     * ioctl: unpin @p npages pages starting at @p start,
     * invalidating host-table entries and NIC cache copies.
     * Pages in the range that are not pinned are skipped.
     */
    IoctlResult ioctlUnpinAndInvalidate(mem::ProcId pid, mem::Vpn start,
                                        std::size_t npages);

    /**
     * Create the per-process NIC-resident translation table used by
     * the §3.1 design. @p entries slots, garbage-initialized.
     */
    NicTranslationTable &createNicTable(mem::ProcId pid,
                                        std::size_t entries);

    /** The per-process NIC table (must have been created). */
    NicTranslationTable &nicTable(mem::ProcId pid);

    /**
     * ioctl for the per-process design: pin one page and install its
     * translation at @p index of the process' NIC table.
     */
    IoctlResult ioctlPinAtIndex(mem::ProcId pid, mem::Vpn vpn,
                                UtlbIndex index);

    /**
     * ioctl for the per-process design: unpin the page behind
     * @p index and reset the slot to the garbage frame.
     */
    IoctlResult ioctlUnpinIndex(mem::ProcId pid, mem::Vpn vpn,
                                UtlbIndex index);

    /**
     * @name Lifetime counters
     *
     * Quiescent-only accessors (class comment): they read the
     * mutex-guarded stats unlocked, by the same temporal contract as
     * pageTable().
     * @{
     */
    std::uint64_t ioctlCalls() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return statIoctls.value();
    }
    std::uint64_t pagesPinned() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return statPagesPinned.value();
    }
    std::uint64_t pagesUnpinned() const UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        return statPagesUnpinned.value();
    }
    /** @} */

    /**
     * @name Driver-mutex contention (sim::Mutex counters)
     *
     * Wall-clock observability, deliberately outside the stats tree
     * so modeled stats dumps stay comparable across runs: lock()
     * calls that found the mutex held, and those that then parked.
     * Safe to read at any time.
     * @{
     */
    std::uint64_t lockContended() const { return mu.contended(); }
    std::uint64_t lockParks() const { return mu.parked(); }
    /** @} */

    /** The driver's statistics subtree. */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /**
     * Invariant auditor: sweeps the garbage page, every registered
     * process' host page table, every NIC-resident table, and the
     * pin facility itself.
     */
    void audit(check::AuditReport &report) const;

  private:
    /** One registered process' driver-side state. */
    struct DirEntry {
        std::unique_ptr<HostPageTable> table;
        std::unique_ptr<NicTranslationTable> nicTable;
        mem::AddressSpace *space = nullptr;
    };

    /**
     * Record an ioctl's outcome in the latency stats before
     * returning it. Rejects sample their own histogram so
     * ioctl_latency_us stays a pure success-cost (Table 1)
     * distribution.
     */
    IoctlResult recordLocked(IoctlResult res) UTLB_REQUIRES(mu)
    {
        if (res.status != mem::PinStatus::Ok) {
            ++statIoctlRejects;
            statIoctlRejectLatency.sample(sim::ticksToUs(res.cost));
        } else {
            statIoctlLatency.sample(sim::ticksToUs(res.cost));
        }
        return res;
    }

    /** @name Process directory probes @{ */
    DirEntry *findEntryLocked(mem::ProcId pid) UTLB_REQUIRES(mu)
    {
        return dir.find(pid);
    }
    /** Quiescent-only probe (the unlocked accessors). */
    const DirEntry *findEntry(mem::ProcId pid) const;
    /** @} */

    /** @name Locked ioctl bodies (Session records and unlocks) @{ */
    IoctlResult pinAndInstallLocked(mem::ProcId pid, mem::Vpn start,
                                    std::size_t npages)
        UTLB_REQUIRES(mu);
    IoctlResult unpinAndInvalidateLocked(mem::ProcId pid,
                                         mem::Vpn start,
                                         std::size_t npages)
        UTLB_REQUIRES(mu);
    IoctlResult pinAtIndexLocked(mem::ProcId pid, mem::Vpn vpn,
                                 UtlbIndex index) UTLB_REQUIRES(mu);
    IoctlResult unpinIndexLocked(mem::ProcId pid, mem::Vpn vpn,
                                 UtlbIndex index) UTLB_REQUIRES(mu);
    /** @} */

    /** The driver mutex (class comment); mutable for the locked
     *  const query isRegistered(). */
    mutable sim::Mutex mu;

    mem::PhysMemory *hostMem;
    mem::PinFacility *pins;
    nic::Sram *sram;
    SharedUtlbCache *nicCache;
    const HostCosts *hostCosts;

    /** Set once in the constructor, immutable afterwards. */
    mem::Pfn garbagePfn;

    /** Registered processes, open-addressed on pid. */
    sim::FlatMap<DirEntry> dir UTLB_GUARDED_BY(mu);

    /** pinAndInstallLocked's frame buffers, reused across ioctls:
     *  the run's frames, and the pages it demand-mapped. */
    mem::PageBuf pinFrames UTLB_GUARDED_BY(mu);
    mem::PageBuf pinMapped UTLB_GUARDED_BY(mu);

    sim::StatGroup statsGrp{"driver"};
    sim::Counter statIoctls UTLB_GUARDED_BY(mu){
        &statsGrp, "ioctl_calls",
        "ioctl invocations (all four entry points)"};
    sim::Counter statIoctlRejects UTLB_GUARDED_BY(mu){
        &statsGrp, "ioctl_rejects",
        "ioctls that returned a non-Ok status"};
    sim::Counter statPagesPinned UTLB_GUARDED_BY(mu){
        &statsGrp, "pages_pinned", "pages pinned through ioctls"};
    sim::Counter statPagesUnpinned UTLB_GUARDED_BY(mu){
        &statsGrp, "pages_unpinned",
        "pages unpinned through ioctls"};
    sim::Histogram statIoctlLatency UTLB_GUARDED_BY(mu){
        &statsGrp, "ioctl_latency_us",
        "modeled cost per successful ioctl (Table 1 batch curve)",
        200.0, 40};
    sim::Histogram statIoctlRejectLatency UTLB_GUARDED_BY(mu){
        &statsGrp, "ioctl_reject_latency_us",
        "modeled cost charged to rejected ioctls (syscall floor)",
        200.0, 40};
};

} // namespace utlb::core

#endif // UTLB_CORE_DRIVER_HPP
