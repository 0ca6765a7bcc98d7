/**
 * @file
 * The Hierarchical-UTLB facade (§3.3 + §3.2 + §6.4).
 *
 * UserUtlb ties together the pieces a process uses to translate a
 * buffer for communication:
 *
 *  host side  — the pin manager's bit-vector check and demand-driven
 *               pinning via the driver ioctl (prepare());
 *  NIC side   — the Shared UTLB-Cache probe and, on a miss, a DMA
 *               fetch of up to prefetchEntries consecutive entries
 *               from the host-resident page table (nicTranslate()).
 *
 * translate() runs both halves for a full buffer, one page at a time
 * (the Myrinet firmware "breaks down data transfer at 4 KB page
 * boundaries. Translation lookups are performed one page at a
 * time", §5 footnote).
 *
 * If the NIC ever finds an invalid host-table entry (the page was
 * not pinned — only possible when a caller bypasses prepare()), it
 * falls back to interrupting the host to pin the page (§3.1's
 * safety note), which is counted in nicFaults.
 */

#ifndef UTLB_CORE_UTLB_HPP
#define UTLB_CORE_UTLB_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/driver.hpp"
#include "core/pin_manager.hpp"
#include "core/shared_cache.hpp"
#include "nic/timing.hpp"
#include "sim/small_vector.hpp"
#include "sim/stats.hpp"
#include "sim/tracer.hpp"

namespace utlb::core {

/** Configuration of one process' UTLB view. */
struct UtlbConfig {
    PinManagerConfig pin;

    /**
     * Entries fetched from the host table per NIC cache miss
     * (§6.4 prefetching); 1 = no prefetch.
     */
    std::size_t prefetchEntries = 1;

    /**
     * Build this process' UTLB view for multi-threaded use: arms the
     * shared cache's striped locking and the pin manager's mutex,
     * and gives this instance a per-worker stat shard, which it
     * passes to every cache call so the cache runs its operations
     * under the Striped lock policy. One thread drives each UserUtlb
     * (the instance itself is not shared); the shared cache and
     * driver below it are then safe to hit from all such workers at
     * once. Works at any associativity: lookups read the ways
     * optimistically under per-set seqlock versions, writes
     * serialize on the striped locks.
     *
     * The cache runs the same operation bodies either way, so with a
     * single worker, results, modeled costs, and the stats tree
     * (after flushShardStats) are bit-identical to the unlocked
     * policy — concurrency changes wall-clock behaviour only.
     */
    bool concurrent = false;
};

/**
 * Outcome of servicing one NIC-cache miss: the host-table fetch,
 * the optional fault-repair ioctl, and the cache installs. Every
 * walk of UserUtlb serves its misses one at a time through
 * serviceMiss (from UserUtlb::nicTranslate), as the paper's firmware
 * does (§4.2); it is public so tests can drive one miss directly.
 */
struct MissOutcome {
    mem::Pfn pfn = mem::kInvalidPfn;
    sim::Tick cost = 0;     //!< modeled service cost (probe excluded)
    bool fault = false;     //!< host-table entry was invalid
    bool ok = false;        //!< pfn is a real frame, not garbage
    std::size_t fetched = 0;          //!< entries installed
    std::size_t prefetchInstalls = 0; //!< neighbours among them
};

/**
 * Service a Shared UTLB-Cache miss for (pid, vpn): DMA up to
 * @p width consecutive entries of @p table (pid's host page table),
 * repair an invalid first entry by interrupting the host (the §3.1
 * fault path, a pin ioctl through @p driver), and install every
 * valid entry fetched. No driver lock is taken unless the fault path
 * runs: @p table must stay registered for the call, which the
 * process' own view guarantees. @p runBuf / @p repairBuf are caller
 * scratch (the miss path must not allocate); @p shard is passed to
 * every install (null: the unlocked policy, non-null: the Striped
 * one, see SharedUtlbCache), and non-null also marks @p table as
 * shared with other readers (HostPageTable::readRun); @p tracer may
 * be null.
 *
 * Fault repair reuses the initial wide fetch: when the wide DMA
 * returned valid neighbours around an invalid first entry, only the
 * repaired entry is re-fetched (1-wide) and spliced into the run, so
 * the neighbours already transferred are installed — and counted —
 * exactly once.
 */
MissOutcome serviceMiss(UtlbDriver &driver, HostPageTable &table,
                        SharedUtlbCache &cache,
                        const nic::NicTimings &timings, mem::ProcId pid,
                        mem::Vpn vpn, std::size_t width,
                        std::vector<std::optional<mem::Pfn>> &runBuf,
                        std::vector<std::optional<mem::Pfn>> &repairBuf,
                        SharedUtlbCache::Shard *shard,
                        sim::Tracer *tracer);

/** NIC-side outcome for one page. */
struct NicLookup {
    mem::Pfn pfn = mem::kInvalidPfn;
    sim::Tick cost = 0;
    bool miss = false;
    bool fault = false;       //!< host-table entry was invalid
    std::size_t fetched = 0;  //!< entries installed on a miss (valid
                              //!< slots of the DMAed run, not its
                              //!< raw width)
};

/** Full translation of a user buffer. */
struct Translation {
    bool ok = true;
    /** One physical address per page. Small-buffer storage: the
     *  common short translations (single-page lookups especially)
     *  stay heap-free. */
    sim::SmallVector<mem::PhysAddr, 8> pageAddrs;
    sim::Tick hostCost = 0;
    sim::Tick nicCost = 0;
    sim::Tick pinCost = 0;        //!< portion of hostCost in pin ioctls
    sim::Tick unpinCost = 0;      //!< portion of hostCost in unpins
    bool checkMiss = false;
    std::size_t niMisses = 0;
    std::size_t pagesPinned = 0;
    std::size_t pagesUnpinned = 0;
    std::size_t pinIoctls = 0;
    std::size_t unpinIoctls = 0;
    std::size_t faults = 0;
    /** Indices (page offsets in the buffer) that missed in the NIC
     *  cache, ascending. */
    sim::SmallVector<std::uint32_t, 8> missPages;
};

/**
 * A process' handle on the Hierarchical-UTLB.
 *
 * One instance per (process, NIC) pair; all instances on a node
 * share the same SharedUtlbCache and UtlbDriver.
 */
class UserUtlb
{
  public:
    UserUtlb(UtlbDriver &drv, SharedUtlbCache &cache,
             const nic::NicTimings &timings, mem::ProcId pid,
             const UtlbConfig &cfg);

    /** Flushes any remaining shard deltas (concurrent mode). */
    ~UserUtlb();

    mem::ProcId pid() const { return procId; }
    const UtlbConfig &config() const { return cfg; }

    /** True if built with UtlbConfig::concurrent. */
    bool concurrent() const { return shard != nullptr; }

    /**
     * Concurrent mode: fold this worker's buffered shared-cache and
     * driver stat deltas (driverShard) into the global counters.
     * Call after the worker quiesces (and before reading the stats
     * tree); the destructor also flushes. No-op in sequential mode.
     */
    void flushShardStats();

    /**
     * Host-side half: make sure every page of [va, va+nbytes) is
     * pinned with translations installed.
     */
    EnsureResult prepare(mem::VirtAddr va, std::size_t nbytes);

    /** NIC-side half: translate one virtual page. */
    NicLookup nicTranslate(mem::Vpn vpn);

    /** Both halves over a whole buffer. */
    Translation translate(mem::VirtAddr va, std::size_t nbytes);

    /**
     * Batched translate(): identical results, modeled costs, and
     * stats as translate() over the same buffer, but the NIC half
     * probes the cache across the whole run at once (lookupRun),
     * serves the miss a run stops on without probing it again, and
     * lets each miss's prefetch-width DMA refill the run so
     * contiguous misses coalesce into wide fetches. Falls
     * back to the per-page loop when a tracer is attached or the
     * cache is set-associative (per-way probe costs need per-page
     * accounting).
     */
    Translation translateRange(mem::VirtAddr va, std::size_t nbytes);

    PinManager &pinManager() { return pinMgr; }
    const PinManager &pinManager() const { return pinMgr; }

    /** NIC-side fault counter (unpinned page seen by the NIC). */
    std::uint64_t nicFaults() const { return statFaults.value(); }

    /**
     * Attach an event tracer; nicTranslate() then emits the miss
     * path (cache probe -> table DMA read -> pin ioctl -> install)
     * as Chrome trace events. Pass nullptr to detach.
     */
    void setTracer(sim::Tracer *t) { tracer = t; }

    /** This process' statistics subtree (pin manager nested). */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

  private:
    /**
     * nicTranslate()'s half after a probe of @p vpn missed (and was
     * counted, at @p probeCost): service the miss and record the
     * page's translation latency. translateRange() enters here
     * straight from lookupRun(), so each miss is probed once.
     */
    NicLookup nicMissAfterProbe(mem::Vpn vpn, sim::Tick probeCost);

    /** The NIC half one page at a time. */
    void nicPageByPage(mem::Vpn start, std::size_t npages,
                       Translation &tr);

    UtlbDriver *driver;
    SharedUtlbCache *nicCache;
    const nic::NicTimings *timings;
    mem::ProcId procId;
    /**
     * This process' host page table, resolved once at construction
     * (UtlbDriver::pageTableShared), so a NIC miss takes no driver
     * lock. Valid until procId unregisters, which its owner does
     * only after destroying this view.
     */
    HostPageTable *hostTable;
    UtlbConfig cfg;
    PinManager pinMgr;
    sim::Tracer *tracer = nullptr;

    /** Reused readRun buffer: the miss path must not allocate. */
    std::vector<std::optional<mem::Pfn>> runBuf;

    /** Scratch for the fault path's 1-wide repair re-fetch. */
    std::vector<std::optional<mem::Pfn>> repairBuf;

    /**
     * Per-worker shared-cache context (concurrent mode only) and the
     * pointer every cache call takes (null in sequential mode). Like
     * runBuf, this is single-owner state: one thread drives
     * this UserUtlb, so no lock guards it.
     */
    std::optional<SharedUtlbCache::Shard> shardStore;
    SharedUtlbCache::Shard *shard = nullptr;

    /** Concurrent mode only: where pinMgr's ioctls count. Its
     *  sessions write it under this process' session lock, and
     *  flushShardStats() folds it in through
     *  UtlbDriver::absorbShard() after the worker quiesces. */
    std::optional<UtlbDriver::Shard> driverShard;

    sim::StatGroup statsGrp;
    sim::Counter statMisses{&statsGrp, "nic_misses",
                            "NIC cache misses seen by this process"};
    sim::Counter statFaults{&statsGrp, "nic_faults",
                            "unpinned host-table entries hit by the "
                            "NIC (prepare() bypassed)"};
    sim::Counter statPrefetchInstalls{&statsGrp, "prefetch_installs",
                                      "speculative neighbour entries "
                                      "installed alongside misses"};
    sim::Histogram statTranslateLatency{
        &statsGrp, "translate_latency_us",
        "modeled per-page NIC translation latency", 50.0, 50};
};

} // namespace utlb::core

#endif // UTLB_CORE_UTLB_HPP
