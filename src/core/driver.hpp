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

#include <atomic>
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
 * Thread safety: two kinds of lock, as in the paper's
 * Hierarchical-UTLB, where each process pins into its own
 * host-resident table and only the NIC cache is shared.
 *
 *  - The registry lock guards the pid directory, (un)registration,
 *    NIC-table creation, isRegistered()/pageTableShared()/
 *    processShared(), and the driver's global statistics.
 *  - Each registered process' Process entry carries a session lock.
 *    It guards that process' pin and unpin ioctls: its host page
 *    table, its pin-facility state, its NIC table and pin buffers.
 *
 * A Session is one hold of a process across a run of ioctls (the pin
 * manager's evict-then-pin slow path). A session opened with a Shard
 * counts into it and takes the process' session lock and nothing
 * else, so sessions of different processes run at once. A session
 * without a shard writes the global statistics, so it takes the
 * registry lock; so do the four ioctl entry points, which resolve
 * their pid under it. It takes the session lock as well only once
 * the process has had a session with a shard: until then every
 * session of the process holds the registry lock, which already
 * excludes the others, so a single-threaded stack takes one
 * uncontended lock per session. The frames a session allocates or
 * frees go through PhysMemory's own allocator lock. Lock order: a
 * PinManager's mutex, then the registry lock, then the process'
 * session lock, then any of the frame allocator, PinBudget or one
 * cache stripe.
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
     * A session that counts into a shard writes no line another
     * process' sessions write, and needs no registry lock. A shard
     * belongs to one caller (a concurrent UserUtlb's PinManager);
     * fold it back with absorbShard() before reading stats.
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
     *  registry lock. */
    void absorbShard(Shard &sh);

    class Session;

    /**
     * A registered process' driver-side state and its session lock.
     * Heap-allocated at registration and freed at unregistration, so
     * a handle from processShared() stays valid while tenant churn
     * rehashes the directory. Each one fills its own cache lines:
     * sessions of different processes write no common line.
     *
     * For the static analysis, mu stands for exclusive use of the
     * process' state. A Session acquires it; at run time that is the
     * session lock, or, for a process that has never had a sharded
     * session, the registry lock (class comment).
     */
    class Process
    {
      public:
        UtlbDriver &driver() const { return *drv; }

      private:
        friend class UtlbDriver;
        friend class Session;

        Process(UtlbDriver &d, mem::ProcId pid, mem::AddressSpace &s,
                mem::PinFacility::Proc &p,
                std::unique_ptr<HostPageTable> t)
            : drv(&d), procId(pid), space(&s), pins(&p),
              table(std::move(t))
        {}

        /** The session lock (class comment of UtlbDriver). */
        mutable sim::Mutex mu;
        /** Set, under the registry lock, by the first session with a
         *  shard; from then on every session takes mu. */
        std::atomic<bool> sharded{false};
        UtlbDriver *const drv;
        const mem::ProcId procId;
        mem::AddressSpace *const space;
        mem::PinFacility::Proc *const pins;
        const std::unique_ptr<HostPageTable> table;
        std::unique_ptr<NicTranslationTable> nicTable UTLB_GUARDED_BY(mu);
        /** pinAndInstallLocked's buffers, reused across ioctls: the
         *  run's frames, and the pages it demand-mapped. */
        mem::PageBuf pinFrames UTLB_GUARDED_BY(mu);
        mem::PageBuf pinMapped UTLB_GUARDED_BY(mu);
    };

    /**
     * One hold of a process spanning several ioctls. Each call still
     * counts and costs as its own ioctl (statIoctls, the latency
     * histograms, the returned IoctlResult), so a session changes
     * wall-clock locking only, never a modeled number. The locks it
     * takes (class comment) depend on run-time state the analysis
     * cannot follow, so the constructors sit outside it, like
     * sim::OptionalLockGuard, and announce p.mu. Other sessions of
     * the same process wait while it is open, so keep it to a run of
     * ioctls and the caller's bookkeeping between them.
     */
    class UTLB_SCOPED_CAPABILITY Session
    {
      public:
        explicit Session(Process &p, Shard *shard = nullptr)
            UTLB_ACQUIRE(p.mu);

        ~Session() UTLB_RELEASE() {}

        Session(const Session &) = delete;
        Session &operator=(const Session &) = delete;

        /** ioctlPinAndInstall() under this session's hold. */
        IoctlResult pinAndInstall(mem::Vpn start, std::size_t npages);

        /** ioctlUnpinAndInvalidate() under this session's hold. */
        IoctlResult unpinAndInvalidate(mem::Vpn start,
                                       std::size_t npages);

      private:
        friend class UtlbDriver;

        /** The ioctl entry points' session: the caller already holds
         *  the registry lock. */
        struct RegistryHeld {};
        Session(Process &p, RegistryHeld) UTLB_ACQUIRE(p.mu);

        /** The session lock a session takes: always with a shard
         *  (marking the process sharded first), otherwise only once
         *  the process is sharded. Without a shard the caller holds
         *  the registry lock. */
        static sim::Mutex *sessionLock(Process &p, Shard *shard);

        Process *proc;
        Shard *sh;
        /** Held iff there is no shard (and the caller did not hold
         *  it already); declared first, so it is taken first. */
        sim::OptionalLockGuard registry;
        sim::OptionalLockGuard own;
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
     * host memory. Runs under the registry lock and, once the
     * process has left the directory, under its session lock, so a
     * session still open on it finishes first. The space object
     * itself stays the caller's and is left empty; every owner closes
     * its views of the process before calling this.
     */
    void unregisterProcess(mem::ProcId pid);

    /** True if @p pid is registered. Takes the registry lock, so it
     *  is safe while other tenants (un)register. */
    bool isRegistered(mem::ProcId pid) const;

    /**
     * @p pid's entry, resolved under the registry lock, or nullptr if
     * @p pid is not registered. The entry is heap-stable and stays
     * valid until @p pid itself unregisters. PinManager resolves its
     * process here once, at construction, and opens its sessions on
     * it without touching the directory again.
     */
    Process *processShared(mem::ProcId pid);

    /** The process' Hierarchical-UTLB page table. */
    HostPageTable &pageTable(mem::ProcId pid);

    /**
     * pageTable()'s concurrent-safe twin: resolves the table under
     * the registry lock, so the directory probe cannot race another
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
     * @name Driver lock contention (sim::Mutex counters)
     *
     * Wall-clock observability, deliberately outside the stats tree
     * so modeled stats dumps stay comparable across runs: lock()
     * calls on the registry lock and on every process' session lock
     * (unregistered processes' included) that found the lock held,
     * and those that then parked. Safe to read at any time; takes
     * the registry lock.
     * @{
     */
    std::uint64_t lockContended() const;
    std::uint64_t lockParks() const;
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
    /**
     * Record an ioctl's outcome in the latency stats (@p sh's when
     * given) before returning it. Rejects sample their own histogram
     * so ioctl_latency_us stays a pure success-cost (Table 1)
     * distribution.
     */
    IoctlResult recordLocked(IoctlResult res, Shard *sh);

    /** Count @p n into @p sh's @p field, or, for a caller without a
     *  shard (which holds the registry lock), into @p global. */
    void countLocked(sim::Counter UtlbDriver::*global,
                     std::uint64_t Shard::*field, Shard *sh,
                     std::uint64_t n = 1);

    /** An ioctl on an unregistered pid: counted and rejected. */
    IoctlResult unknownProcessLocked() UTLB_REQUIRES(registryMu);

    /** @name Process directory probes @{ */
    Process *findLocked(mem::ProcId pid) UTLB_REQUIRES(registryMu)
    {
        std::unique_ptr<Process> *box = dir.find(pid);
        return box ? box->get() : nullptr;
    }
    /** Quiescent-only probe (the unlocked accessors). */
    const Process *findEntry(mem::ProcId pid) const;
    /** @} */

    /** @name Locked ioctl bodies (their callers record and unlock) @{ */
    IoctlResult pinAndInstallLocked(Process &p, mem::Vpn start,
                                    std::size_t npages, Shard *sh)
        UTLB_REQUIRES(p.mu);
    IoctlResult unpinAndInvalidateLocked(Process &p, mem::Vpn start,
                                         std::size_t npages, Shard *sh)
        UTLB_REQUIRES(p.mu);
    IoctlResult pinAtIndexLocked(Process &p, mem::Vpn vpn,
                                 UtlbIndex index)
        UTLB_REQUIRES(registryMu, p.mu);
    IoctlResult unpinIndexLocked(Process &p, mem::Vpn vpn,
                                 UtlbIndex index)
        UTLB_REQUIRES(registryMu, p.mu);
    /** @} */

    /** The registry lock (class comment); mutable for the locked
     *  const queries. */
    mutable sim::Mutex registryMu;

    mem::PhysMemory *hostMem;
    mem::PinFacility *pins;
    nic::Sram *sram;
    SharedUtlbCache *nicCache;
    const HostCosts *hostCosts;

    /** Set once in the constructor, immutable afterwards. */
    mem::Pfn garbagePfn;

    /** Registered processes, open-addressed on pid; each entry boxed
     *  so its address outlives a rehash. */
    sim::FlatMap<std::unique_ptr<Process>> dir UTLB_GUARDED_BY(registryMu);

    /** Session-lock contention of processes that have unregistered. */
    std::uint64_t retiredContended UTLB_GUARDED_BY(registryMu) = 0;
    std::uint64_t retiredParks UTLB_GUARDED_BY(registryMu) = 0;

    sim::StatGroup statsGrp{"driver"};
    sim::Counter statIoctls UTLB_GUARDED_BY(registryMu){
        &statsGrp, "ioctl_calls",
        "ioctl invocations (all four entry points)"};
    sim::Counter statIoctlRejects UTLB_GUARDED_BY(registryMu){
        &statsGrp, "ioctl_rejects",
        "ioctls that returned a non-Ok status"};
    sim::Counter statPagesPinned UTLB_GUARDED_BY(registryMu){
        &statsGrp, "pages_pinned", "pages pinned through ioctls"};
    sim::Counter statPagesUnpinned UTLB_GUARDED_BY(registryMu){
        &statsGrp, "pages_unpinned",
        "pages unpinned through ioctls"};
    sim::Histogram statIoctlLatency UTLB_GUARDED_BY(registryMu){
        &statsGrp, "ioctl_latency_us",
        "modeled cost per successful ioctl (Table 1 batch curve)",
        200.0, 40};
    sim::Histogram statIoctlRejectLatency UTLB_GUARDED_BY(registryMu){
        &statsGrp, "ioctl_reject_latency_us",
        "modeled cost charged to rejected ioctls (syscall floor)",
        200.0, 40};
};

} // namespace utlb::core

#endif // UTLB_CORE_DRIVER_HPP
