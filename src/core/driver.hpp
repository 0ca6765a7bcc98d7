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
#include <utility>
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
 * a Session instead of once per ioctl, and a concurrent one opens
 * its sessions on its own Shard, so a hold writes no line that
 * another process' holds write too. Lock order: a PinManager's
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
     * One concurrent caller's share of what the pin and unpin ioctls
     * write besides the process' own state: the driver's and the pin
     * facility's statistic deltas, and the NIC-cache invalidations.
     * Callers that take turns on the driver mutex would otherwise
     * pass those cache lines from core to core inside every hold,
     * which stretches each hold. A shard belongs to one caller (a
     * concurrent UserUtlb's PinManager); fold it back with
     * absorbShard() before reading stats.
     */
    class Shard
    {
        friend class UtlbDriver;

        Shard(sim::HistAccum latency_shape, sim::HistAccum reject_shape,
              SharedUtlbCache::Shard cache_shard)
            : latency(std::move(latency_shape)),
              rejectLatency(std::move(reject_shape)),
              cache(std::move(cache_shard))
        {}

        std::uint64_t ioctls = 0;
        std::uint64_t rejects = 0;
        std::uint64_t pagesPinned = 0;
        std::uint64_t pagesUnpinned = 0;
        sim::HistAccum latency;
        sim::HistAccum rejectLatency;
        mem::PinFacility::Shard pins;
        /** Counts the invalidations of this caller's unpins only. */
        SharedUtlbCache::Shard cache;
    };

    /** A zeroed shard for one concurrent caller. */
    Shard makeShard() const;

    /** Fold @p sh into the global stats and zero it. Takes the
     *  driver mutex. */
    void absorbShard(Shard &sh);

    /**
     * One hold of the driver mutex spanning several ioctls. Each
     * call still counts and costs as its own ioctl (statIoctls, the
     * latency histograms, the returned IoctlResult), so a session
     * changes wall-clock locking only, never a modeled number. The
     * ioctl entry points below are one-call sessions. Every other
     * worker's pin path waits while a session is open, so keep it to
     * a run of ioctls and the caller's bookkeeping between them. The
     * pin and unpin calls of a session opened with a shard count
     * into it.
     */
    class UTLB_SCOPED_CAPABILITY Session
    {
      public:
        explicit Session(UtlbDriver &d, Shard *shard = nullptr)
            UTLB_ACQUIRE(d.mu)
            : drv(&d), sh(shard), lk(d.mu)
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
        Shard *sh;
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
    /** One registered process' driver-side state, on lines of its
     *  own: ioctls for different processes write no common line. */
    struct alignas(64) DirEntry {
        std::unique_ptr<HostPageTable> table;
        std::unique_ptr<NicTranslationTable> nicTable;
        mem::AddressSpace *space = nullptr;
        /** pinAndInstallLocked's buffers, reused across ioctls: the
         *  run's frames, and the pages it demand-mapped. */
        mem::PageBuf pinFrames;
        mem::PageBuf pinMapped;
    };

    /**
     * Record an ioctl's outcome in the latency stats (@p sh's when
     * given) before returning it. Rejects sample their own histogram
     * so ioctl_latency_us stays a pure success-cost (Table 1)
     * distribution.
     */
    IoctlResult recordLocked(IoctlResult res, Shard *sh = nullptr)
        UTLB_REQUIRES(mu)
    {
        const double us = sim::ticksToUs(res.cost);
        if (res.status != mem::PinStatus::Ok) {
            if (sh) {
                ++sh->rejects;
                sh->rejectLatency.sample(us);
            } else {
                ++statIoctlRejects;
                statIoctlRejectLatency.sample(us);
            }
        } else if (sh) {
            sh->latency.sample(us);
        } else {
            statIoctlLatency.sample(us);
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
                                    std::size_t npages, Shard *sh)
        UTLB_REQUIRES(mu);
    IoctlResult unpinAndInvalidateLocked(mem::ProcId pid,
                                         mem::Vpn start,
                                         std::size_t npages, Shard *sh)
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
