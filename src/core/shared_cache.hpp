/**
 * @file
 * The Shared UTLB-Cache (§3.2, Figure 3).
 *
 * A process-tagged translation cache in NIC SRAM shared by all
 * processes using the board. Entries map (process, virtual page) to
 * a physical frame. The cache is direct-mapped or set-associative;
 * a process-dependent index offset ("a simple scheme to reduce the
 * conflict misses is to offset a translation table index by a
 * process-dependent constant", §3.2) hashes different processes'
 * pages to different sets.
 *
 * Cost model: a hit is the constant 0.8 us of Table 2. Because the
 * LANai firmware "can only check one cache entry at a time" (§6.3),
 * each additional way probed adds perWayProbeCost; this is what makes
 * set-associativity lose on lookup cost even when it wins on miss
 * rate (Table 8 discussion).
 *
 * Tag-width note: the paper stores an 8-bit address tag and a 4-bit
 * process tag per line and relies on the garbage page to absorb any
 * false hits. We store full tags, so a hit is always correct;
 * EXPERIMENTS.md discusses the (negligible) behavioural difference.
 *
 * Layout: structure-of-arrays. Each set's tag words (one 64-bit
 * pid⊕vpn key per way, 0 = invalid) are packed contiguously and
 * cache-line aligned so a whole-set probe — one scalar compare per
 * way, like the firmware's — touches a single 64-byte line; the
 * frame, full tags, and LRU stamp live in a parallel cold array
 * touched only once the tag mask names a candidate way.
 * docs/performance.md has the byte-level diagram and the correctness
 * argument.
 */

#ifndef UTLB_CORE_SHARED_CACHE_HPP
#define UTLB_CORE_SHARED_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "check/test_tamper.hpp"
#include "mem/page.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/annotations.hpp"
#include "sim/mutex.hpp"
#include "sim/spinlock.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace utlb::check {
class AuditReport;
} // namespace utlb::check

namespace utlb::core {

/** Static configuration of a Shared UTLB-Cache. */
struct CacheConfig {
    std::size_t entries = 8192;   //!< total entries (8 K = 32 KB, §4.2)
    unsigned assoc = 1;           //!< 1 (direct), 2, or 4 in the paper
    bool indexOffsetting = true;  //!< process-dependent index offset
};

/**
 * 64-byte-aligned allocator for the packed tag array: with the base
 * cache-line aligned, a set's tag block (8 x assoc bytes) never
 * straddles a line for any power-of-two assoc <= 8, so a full 4-way
 * probe touches exactly one line.
 */
template <class T>
struct CacheAlignedAlloc {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheAlignedAlloc() = default;
    template <class U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U> &) {}

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }
    template <class U>
    bool operator==(const CacheAlignedAlloc<U> &) const
    {
        return true;
    }
};

/** An entry pushed out of the cache by an insertion. */
struct EvictedEntry {
    mem::ProcId pid;
    mem::Vpn vpn;
    mem::Pfn pfn;
};

/** Outcome of a cache probe, including the modeled firmware time. */
struct CacheProbe {
    bool hit = false;
    mem::Pfn pfn = mem::kInvalidPfn;
    sim::Tick cost = 0;
};

/** Outcome of a batched run probe (lookupRun). */
struct RunHits {
    std::size_t hits = 0;     //!< consecutive hits before first miss
    sim::Tick cost = 0;       //!< total modeled cost of those hits
    sim::Tick perHitCost = 0; //!< modeled cost of each hit probe
};

/**
 * Why a translation is being installed (§6.4).
 *
 * Demand installs come from a real NIC reference and update the
 * line's LRU stamp. Prefetch installs are speculative neighbours
 * fetched alongside a miss: refreshing an already-resident line must
 * NOT touch its recency (the NIC never referenced it), or prefetch
 * traffic promotes dead lines over genuinely hot ones.
 */
enum class InsertMode {
    Demand,    //!< a real reference; updates recency
    Prefetch,  //!< speculative neighbour; no-touch on refresh
};

/**
 * The NIC-resident shared translation cache.
 *
 * Within a set, replacement is LRU (the firmware keeps a per-line
 * use stamp; a direct-mapped cache, which never chooses a victim,
 * keeps none). The cache does not know about pinning; callers keep
 * it coherent by invalidating entries when pages are unpinned.
 */
class SharedUtlbCache
{
  public:
    /**
     * Build a cache. If @p board_sram is non-null the cache claims
     * its line storage (4 bytes per entry, as in the paper's 32 KB
     * for 8 K entries) from board SRAM and dies fatally if it does
     * not fit.
     */
    SharedUtlbCache(const CacheConfig &cfg, const nic::NicTimings &t,
                    nic::Sram *board_sram = nullptr);

    std::size_t entries() const { return config.entries; }
    unsigned assoc() const { return config.assoc; }
    std::size_t sets() const { return numSets; }
    const CacheConfig &cfg() const { return config; }

    /** Per-worker context (see "Concurrent mode"); the entry points
     *  below take a trailing Shard *, null for single-threaded use. */
    class Shard;

    /**
     * Probe for (pid, vpn); updates hit/miss counters and, in an
     * associative cache, the hit line's LRU stamp.
     */
    CacheProbe lookup(mem::ProcId pid, mem::Vpn vpn, Shard *sh = nullptr);

    /** Probe without updating state or counters. */
    std::optional<mem::Pfn> peek(mem::ProcId pid, mem::Vpn vpn) const;

    /**
     * Probe a run of consecutive pages of one process, stopping at
     * (and recording nothing for) the first miss. Slot i of @p pfns
     * receives the frame of vpn + i for each hit. Stats end up
     * exactly as the equivalent lookup() sequence over the hit
     * prefix would leave them. Requires assoc() == 1 (the per-way
     * cost model makes wider probes take the page-at-a-time path).
     */
    RunHits lookupRun(mem::ProcId pid, mem::Vpn start, std::size_t n,
                      mem::Pfn *pfns, Shard *sh = nullptr);

    /**
     * Install a translation, evicting the set's LRU entry if the
     * set is full. Prefetch-mode refreshes leave the line's LRU
     * stamp untouched (see InsertMode).
     * @return the displaced entry, if any.
     */
    std::optional<EvictedEntry>
    insert(mem::ProcId pid, mem::Vpn vpn, mem::Pfn pfn,
           InsertMode mode = InsertMode::Demand, Shard *sh = nullptr);

    /**
     * @name Concurrent mode (§4 atomicity/consistency)
     *
     * The paper's host library and NIC firmware touch UTLB state
     * concurrently without syscalls on the common path; mirroring
     * that, the cache can serve probes and miss-fill installs from
     * many threads at once, at any associativity (the paper's §3.2
     * sweep runs 1/2/4-way). enableConcurrent() arms it.
     *
     * Every cache operation is written once, over a lock policy
     * (shared_cache.cpp): the Unlocked policy does plain loads and
     * stores and counts into the global stats; the Striped policy,
     * selected by passing a Shard (or, for invalidate() and
     * invalidateProcess(), whose shard is optional, by
     * concurrent()), adds:
     *
     *  - every set carries a seqlock version counter (sim::SeqCount).
     *    Probes read the ways *optimistically* — no lock, relaxed
     *    atomic field reads, retry on an odd or changed version — so
     *    probes never serialize against each other. After
     *    kSeqlockMaxRetries torn reads a probe falls back to the
     *    set's stripe lock, bounding retries;
     *  - writers (insert, invalidate, invalidateProcess) mutate a
     *    set's tags only inside a writeBegin()/writeEnd() version
     *    bump, and only while holding the set's *stripe* spinlock:
     *    the line array is partitioned into contiguous stripes of
     *    kSetsPerStripe sets, each guarded by one spinlock, so
     *    writers serialize per stripe while readers sail past.
     *    Recording an associative hit's LRU stamp also takes the
     *    stripe lock (the stamp write must not race an eviction) but
     *    does not bump the version — stamps are never read
     *    optimistically. A direct-mapped set never picks a victim,
     *    so its lines carry no stamp and its hits take no lock;
     *  - hot-path statistics accumulate into the per-worker Shard
     *    (no shared counter cache line on the probe path) and are
     *    folded into the global stats by absorbShard();
     *  - LRU stamps come from per-shard blocks carved off the shared
     *    use clock with one relaxed fetch-add per kStampBlock stamps.
     *    Stamps stay strictly monotonic within a shard, so a lone
     *    shard's stamp sequence is exactly the unlocked one; across
     *    shards (concurrent workers, or several views one thread
     *    drives in turn) LRU order holds within each block only, as
     *    on real hardware.
     *
     * Both policies run the same operation bodies, so one worker on
     * the Striped policy makes the Unlocked policy's state changes,
     * costs and stat updates (tests/test_spec.cpp checks it).
     *
     * Maintenance operations (clear, shed, resetStats,
     * audit, stats serialization) still require quiescence: call
     * them only when no worker is inside a Shard-carrying call and
     * all shards have been absorbed. invalidateProcess() is the
     * exception: process teardown during fleet churn overlaps other
     * tenants' probes, so in concurrent mode it retires a process'
     * lines set by set under the same stripe-lock + seqlock protocol
     * as invalidate().
     * @{
     */

    /**
     * Per-worker concurrent-mode context: stat deltas plus the LRU
     * stamp block. One Shard belongs to exactly one thread at a
     * time; fold it back with absorbShard() before reading stats.
     */
    class Shard
    {
        friend class SharedUtlbCache;

        explicit Shard(sim::HistAccum probe_shape)
            : probeLatency(std::move(probe_shape))
        {}

        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t refreshes = 0;
        std::uint64_t evictions = 0;
        std::uint64_t crossEvictions = 0;
        std::uint64_t invalidations = 0;
        sim::HistAccum probeLatency;

        /** Unconsumed LRU stamps: [stampNext, stampEnd). */
        std::uint64_t stampNext = 0;
        std::uint64_t stampEnd = 0;

        /** Torn optimistic reads this worker retried (diagnostic;
         *  not part of the stats tree, not folded by absorbShard). */
        std::uint64_t seqRetries = 0;

      public:
        Shard(Shard &&) = default;
        Shard &operator=(Shard &&) = default;

        /**
         * How many optimistic set reads this worker had to retry.
         * Structurally bounded: after kSeqlockMaxRetries torn reads
         * of one set the probe takes the stripe lock instead, so a
         * single lookup contributes at most kSeqlockMaxRetries.
         */
        std::uint64_t seqlockRetries() const { return seqRetries; }
    };

    /**
     * Optimistic-read retries of one set before a probe gives up and
     * takes the stripe lock (the readers' progress guarantee).
     */
    static constexpr unsigned kSeqlockMaxRetries = 64;

    /** Arm concurrent mode (idempotent). Works at any associativity. */
    void enableConcurrent();

    /** True once enableConcurrent() has run. */
    bool concurrent() const { return numStripes != 0; }

    /** A zeroed per-worker context for this cache. */
    Shard makeShard() const;

    /**
     * Fold a worker's stat deltas into the global stats and zero
     * them. Serialized internally on absorbMu; callable while other
     * workers are still probing (their deltas are simply not
     * included yet). Callers must not already hold absorbMu.
     */
    void absorbShard(Shard &sh) UTLB_EXCLUDES(absorbMu);

    /** @} */

    /**
     * Drop one translation. In concurrent mode the drop counts into
     * @p sh when given (an unpin in a sharded driver session then
     * leaves the shared counter's line alone).
     * @return true if it was present.
     */
    bool invalidate(mem::ProcId pid, mem::Vpn vpn, Shard *sh = nullptr);

    /**
     * Forcibly remove (pid, vpn)'s line (used by the interrupt-based
     * baseline when a pin limit forces it to shed a cached page; the
     * baseline picks the page, see InterruptTlb). Counted as a shed,
     * not a capacity eviction or an invalidation: the removal is
     * demanded by the pin budget, not by cache pressure or coherence.
     * @return the removed entry, or nullopt if the line is absent.
     */
    std::optional<EvictedEntry> shed(mem::ProcId pid, mem::Vpn vpn);

    /** Drop all translations of a process. @return count dropped. */
    std::size_t invalidateProcess(mem::ProcId pid);

    /** Drop everything. */
    void clear();

    /** Number of currently valid entries. */
    std::size_t validEntries() const;

    /** Number of valid entries belonging to @p pid (occupancy). */
    std::size_t occupancyOf(mem::ProcId pid) const;

    /** The set index (pid, vpn) maps to; exposed for tests. */
    std::size_t setIndex(mem::ProcId pid, mem::Vpn vpn) const;

    /**
     * @name Lifetime counters
     *
     * Removal taxonomy (the stats JSON relies on this split):
     *  - evictions():     capacity displacements by insert() only;
     *  - sheds():         forced per-process LRU removals via
     *                     shed() (pin-budget pressure);
     *  - invalidations(): explicit coherence drops via invalidate()
     *                     and invalidateProcess().
     * @{
     */
    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    std::uint64_t insertions() const { return statInserts.value(); }
    std::uint64_t refreshes() const { return statRefreshes.value(); }
    std::uint64_t evictions() const { return statEvictions.value(); }
    /** Capacity evictions whose victim belonged to another process —
     *  the cross-tenant pollution the fleet bench ablates. */
    std::uint64_t crossTenantEvictions() const
    {
        return statCrossEvictions.value();
    }
    std::uint64_t sheds() const { return statSheds.value(); }
    std::uint64_t invalidations() const
    {
        return statInvalidations.value();
    }
    /** @} */

    /** This cache's statistics subtree (for adoption into a root). */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /** Reset counters (state untouched). */
    void resetStats();

    /**
     * Invariant auditor: every valid way's packed tag word equals
     * tagKey() of its cold (pid, vpn) tags (a desynced word turns
     * real entries invisible or resurrects dead ones), every valid
     * way indexes to the set it lives in, no (pid, vpn) pair
     * occupies two ways, no LRU stamp runs ahead of the use clock,
     * dead ways carry no recency stamp, no way of a direct-mapped
     * cache carries one either, every seqlock version is even at
     * quiescence (an odd one means a writer died mid-update and
     * readers would spin), and the removal counters' taxonomy
     * balances against the current occupancy (lines present = lines
     * installed minus lines evicted/shed/invalidated/cleared since
     * the last stats reset).
     */
    void audit(check::AuditReport &report) const;

    /** LRU stamps the Striped policy carves off useClock per relaxed
     *  fetch-add. */
    static constexpr std::uint64_t kStampBlock = 1024;

  private:
    friend struct check::TestTamper;

    /**
     * Per-way cold payload, parallel to the packed tag words: the
     * full (pid, vpn) tags that make every hit exact (the packed key
     * is only a filter), the frame, and the LRU stamp. The two tags
     * share one 64-bit word (packPidVpn) — the confirm compare is a
     * single load-and-compare, and at 24 bytes nearly three ways fit
     * a cache line instead of two — but the probe loop never touches
     * it until the tag mask has already named a candidate way.
     */
    struct Cold {
        std::uint64_t pidVpn = 0;  //!< packPidVpn(pid, vpn)
        mem::Pfn pfn = mem::kInvalidPfn;
        std::uint64_t lastUse = 0;
    };

    /**
     * The exact (pid, vpn) pair as one word: pid in the top 32 bits,
     * vpn in the bottom 32. Unlike tagKey this is an injective
     * encoding, so comparing packed words IS comparing the full tags
     * — provided the vpn fits 32 bits, which install paths assert
     * (a 32-bit vpn spans 16 TB of 4 KB pages, far beyond the
     * simulated address spaces; the paper's own NIC tables are lossy
     * 8-bit tags, §4.2).
     */
    static std::uint64_t packPidVpn(mem::ProcId pid, mem::Vpn vpn)
    {
        return (static_cast<std::uint64_t>(pid) << 32) |
               static_cast<std::uint64_t>(vpn);
    }

    static mem::ProcId pidOfPacked(std::uint64_t pv)
    {
        return static_cast<mem::ProcId>(pv >> 32);
    }

    static mem::Vpn vpnOfPacked(std::uint64_t pv)
    {
        return static_cast<mem::Vpn>(pv & 0xffffffffull);
    }

    /**
     * The packed tag word for (pid, vpn): a fixed multiplicative mix
     * of both tags, forced odd so 0 never names a valid entry — a
     * zero tag word IS the invalid-way state (there is no separate
     * valid bit). Equal (pid, vpn) pairs always collide; unequal
     * pairs collide with probability ~2^-63, and the cold-tag
     * confirm in probePacked() makes even those collisions harmless
     * (full-tag correctness, unlike the paper's lossy 8-bit tags).
     */
    static std::uint64_t tagKey(mem::ProcId pid, mem::Vpn vpn)
    {
        std::uint64_t k = (vpn * 0x9E3779B97F4A7C15ull)
            ^ ((static_cast<std::uint64_t>(pid) + 1)
               * 0xC2B2AE3D27D4EB4Full);
        return k | 1;
    }

    /**
     * The one way-scan authority every probe shares: build the
     * candidate mask from the packed tag words with one compare per
     * way (Loads::matchMask — plain loads unlocked or under a stripe
     * lock, relaxed atomic loads on the seqlock read path), then confirm
     * candidates against the cold (pid, vpn) tags in way order.
     * Returns the modeled probe count (hit way + 1, or assoc on a
     * miss); on a hit sets @p way and @p pfn, on a miss leaves
     * @p way == assoc. Because way selection and probe counting live
     * here and nowhere else, the lock policies cannot drift.
     */
    template <class Loads>
    unsigned probePacked(std::size_t set, mem::ProcId pid,
                         mem::Vpn vpn, std::uint64_t key,
                         unsigned &way, mem::Pfn &pfn);

    /**
     * @name Lock policies and the operation bodies written over them
     *
     * Unlocked and Striped (defined in shared_cache.cpp) are the only
     * place the single-threaded and the concurrent paths differ: the
     * probe's loads, the stripe lock and seqlock version bumps around tag
     * writes, where recency stamps come from, and which counters the
     * statistics land in. Each public operation dispatches once to
     * its body below, instantiated for one policy.
     * @{
     */
    struct Unlocked;
    struct Striped;

    template <class Sync>
    CacheProbe lookupWith(mem::ProcId pid, mem::Vpn vpn, Sync s);
    template <class Sync>
    RunHits lookupRunWith(mem::ProcId pid, mem::Vpn start,
                          std::size_t n, mem::Pfn *pfns, Sync s);
    template <class Sync>
    std::optional<EvictedEntry>
    insertWith(mem::ProcId pid, mem::Vpn vpn, mem::Pfn pfn,
               InsertMode mode, Sync s);
    template <class Sync>
    bool invalidateWith(mem::ProcId pid, mem::Vpn vpn, Sync s);
    template <class Sync>
    std::size_t invalidateProcessWith(mem::ProcId pid, Sync s);
    /** @} */

    /**
     * The lock-based way scan a concurrent probe falls back to when
     * writers keep tearing its optimistic reads. The capability
     * requirement makes "caller holds this set's stripe lock" part
     * of the checked signature.
     */
    unsigned scanWaysLocked(std::size_t set, mem::ProcId pid,
                            mem::Vpn vpn, std::uint64_t key,
                            unsigned &way, mem::Pfn &pfn)
        UTLB_REQUIRES(stripeOf(set));

    /** Invalidate a way, scrubbing its recency stamp. */
    void killWay(std::size_t idx);

    /** Sets per lock stripe. */
    static constexpr std::size_t kSetsPerStripeLog2 = 6;
    static constexpr std::size_t kSetsPerStripe = 1 << kSetsPerStripeLog2;

    sim::Spinlock &stripeOf(std::size_t set)
    {
        return stripes[set >> kSetsPerStripeLog2].value;
    }

    CacheConfig config;
    const nic::NicTimings *timings;
    std::size_t numSets;

    /** numSets - 1 when numSets is a power of two, else 0; lets
     *  setIndex() replace the modulo with a mask (same result). */
    std::size_t setsMask = 0;

    /**
     * Packed tag words, set-major with stride assoc: one 64-bit key
     * per way, 0 = invalid. The base is 64-byte aligned, so a set's
     * whole tag block (8 x assoc bytes) sits in one cache line for
     * any power-of-two assoc <= 8 and a full 4-way probe touches a
     * single line. The array holds exactly entries words, so a probe
     * that reads past the last set faults under AddressSanitizer.
     */
    std::vector<std::uint64_t, CacheAlignedAlloc<std::uint64_t>>
        tagWords;

    /** Cold per-way payload, parallel to tagWords (entries). */
    std::vector<Cold> cold;

    std::uint64_t useClock = 0;

    /**
     * Stripe locks, one cache line each (an associative hit's LRU
     * stamp takes its stripe, so unpadded stripes would false-share
     * across workers hitting disjoint sets); non-null only once
     * enableConcurrent() ran.
     */
    std::unique_ptr<sim::CachePadded<sim::Spinlock>[]> stripes;
    std::size_t numStripes = 0;

    /** Per-set seqlock versions; non-null alongside stripes. */
    std::unique_ptr<sim::SeqCount[]> seqs;

    /** Serializes absorbShard() callers against each other. */
    sim::Mutex absorbMu;

    /** Valid entries at the last resetStats(), for the audit. */
    std::size_t statsBaseValid = 0;

    sim::StatGroup statsGrp{"shared_cache"};
    sim::Counter statHits{&statsGrp, "hits", "probes that hit"};
    sim::Counter statMisses{&statsGrp, "misses", "probes that missed"};
    sim::Counter statInserts{&statsGrp, "insertions",
                             "install requests (incl. refreshes)"};
    sim::Counter statRefreshes{&statsGrp, "refreshes",
                               "installs that hit a resident line"};
    sim::Counter statEvictions{&statsGrp, "evictions",
                               "capacity evictions (LRU displaced "
                               "by insert)"};
    sim::Counter statCrossEvictions{&statsGrp, "cross_evictions",
                                    "capacity evictions whose victim "
                                    "belonged to another process "
                                    "(subset of evictions)"};
    sim::Counter statSheds{&statsGrp, "sheds",
                           "forced per-process LRU removals "
                           "(pin-budget shedding)"};
    sim::Counter statInvalidations{&statsGrp, "invalidations",
                                   "explicit coherence "
                                   "invalidations"};
    sim::Counter statClearDrops{&statsGrp, "clear_drops",
                                "lines dropped by whole-cache "
                                "clears"};
    sim::Histogram statProbeLatency{&statsGrp, "probe_latency_us",
                                    "modeled firmware probe cost",
                                    4.0, 16};
};

} // namespace utlb::core

#endif // UTLB_CORE_SHARED_CACHE_HPP
