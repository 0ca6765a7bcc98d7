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

    /**
     * Service translateRange() misses out of order (concurrent mode
     * only; fatal otherwise): each miss posts a modeled outstanding
     * fill and the walk keeps serving later pages of the window. The
     * posted fills are serviced, in post order, when the walk ends.
     * Each of the view's eight fill slots is a modeled DMA engine
     * whose busy-until time persists across windows, so only the
     * stall of a post that finds its engine still busy is charged to
     * nicCost — the paper's firmware keeping translation-miss DMAs
     * outstanding while it accepts more work (docs/performance.md).
     * Translation results are identical to the synchronous path;
     * modeled costs differ by design.
     */
    bool asyncFills = false;
};

/**
 * Outcome of servicing one NIC-cache miss: the host-table fetch,
 * the optional fault-repair ioctl, and the cache installs. Shared
 * between the per-page miss path (UserUtlb::nicTranslate) and the
 * posted fills of UtlbConfig::asyncFills, so both charge the same
 * modeled costs and count the same statistics.
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
 * one, see SharedUtlbCache); @p tracer may be null.
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
     * probes the cache across the whole run at once (lookupRun) and
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
    NicLookup nicTranslateImpl(mem::Vpn vpn);

    /** The NIC half one page at a time. */
    void nicPageByPage(mem::Vpn start, std::size_t npages,
                       Translation &tr);

    /** Batched walks: one lookupRun from page @p i, charging @p tr
     *  for the hit prefix (zero hits: page i missed). */
    RunHits serveRun(mem::Vpn start, std::size_t i, std::size_t npages,
                     mem::Pfn *slots, Translation &tr);

    /**
     * The asynchronous NIC half of translateRange() (asyncFills):
     * batched lookups with misses posted as outstanding fills; the
     * posted fills are serviced (demand pages first, then pages
     * covered by a neighbour's fill) before returning. @p slots
     * receives pfns, converted to frame addresses by the caller.
     */
    void nicRangeAsync(mem::Vpn start, std::size_t npages,
                       mem::Pfn *slots, Translation &tr);

    /** Service one missing page synchronously (shared tail). */
    void syncServicePage(mem::Vpn vpn, sim::Tick probeCost,
                         mem::Pfn &slot, Translation &tr);

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
     * Outstanding fills this view may have in flight at once — the
     * model's bounded outstanding-DMA window. Misses beyond it are
     * serviced synchronously.
     */
    static constexpr std::size_t kMaxOutstandingFills = 8;

    /** One posted fill of the current window. */
    struct PendingFill {
        std::uint32_t page;  //!< page index within the buffer
        mem::Vpn vpn;        //!< first entry of the fetch
        std::size_t width;   //!< entries the fetch covers
        std::uint32_t slot;  //!< modeled DMA engine
        sim::Tick probeCost; //!< the missing probe's modeled cost
        sim::Tick postTick;  //!< modeled post time (view clock)
    };

    /** Posted fills of the current window, in post order. */
    std::vector<PendingFill> asyncPending;

    /** Pages covered by a posted neighbour fill (re-probed). */
    std::vector<std::uint32_t> asyncWaiters;

    /**
     * Cross-window modeled state: the view's persistent modeled
     * clock, and per fill slot the modeled time its DMA engine frees
     * up. engineReadyAt[k] > asyncClock means slot k's last fill is
     * still in flight at the model level; the residual is charged to
     * whichever later post next needs that engine.
     */
    sim::Tick asyncClock = 0;
    std::vector<sim::Tick> engineReadyAt;

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
    sim::Counter statAsyncFills{&statsGrp, "async_fills",
                                "misses serviced through the fill "
                                "pipeline"};
    sim::Counter statAsyncCoalesced{&statsGrp, "async_coalesced",
                                    "missing pages covered by an "
                                    "already in-flight fill"};
    sim::Counter statAsyncFallbacks{&statsGrp, "async_sync_fallbacks",
                                    "misses serviced synchronously "
                                    "because the fill queue was full, "
                                    "stopped, or the outstanding "
                                    "window was exhausted"};
    sim::Counter statAsyncCarried{&statsGrp, "async_carried_fills",
                                  "fills whose modeled DMA was still "
                                  "in flight when their window ended "
                                  "(residual cost carried into a "
                                  "later window)"};
    sim::Counter statAsyncHiddenTicks{&statsGrp, "async_hidden_ticks",
                                      "modeled miss-service ticks "
                                      "hidden behind concurrent hit "
                                      "service (DMA time off the "
                                      "window's critical path)"};
    sim::Histogram statTranslateLatency{
        &statsGrp, "translate_latency_us",
        "modeled per-page NIC translation latency", 50.0, 50};
};

} // namespace utlb::core

#endif // UTLB_CORE_UTLB_HPP
