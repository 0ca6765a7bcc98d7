#include "core/shared_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "sim/log.hpp"

namespace utlb::core {

using mem::Pfn;
using mem::ProcId;
using mem::Vpn;
using sim::fatal;
using sim::Tick;

namespace {

/**
 * Process-dependent index offset (§3.2): a multiplicative hash of
 * the pid spreads different processes' identical page numbers over
 * different sets. Knuth's multiplicative constant.
 */
std::uint64_t
processOffset(ProcId pid)
{
    return static_cast<std::uint64_t>(pid) * 2654435761ull;
}

/**
 * Relaxed atomic access to the seqlock-protected packed fields (tag
 * words and the cold pid/vpn/pfn). Optimistic readers and the
 * stripe-locked writers both go through these, so every racing
 * access is atomic — the seqlock version only has to make torn
 * snapshots *detectable*, and ThreadSanitizer sees no data race.
 * lastUse is deliberately not covered: recency stamps are only ever
 * touched under the stripe lock (or at quiescence) and never read
 * optimistically.
 */
template <class T>
T
loadRelaxed(T &field)
{
    return std::atomic_ref<T>(field).load(std::memory_order_relaxed);
}

template <class T>
void
storeRelaxed(T &field, T value)
{
    std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
}

/**
 * @name Load policies for the shared packed-probe helper
 *
 * probePacked() is the single way-scan authority; these policies are
 * the only thing that differs between its read paths. Both compare
 * one tag word per way and read nothing outside the set. DirectLoads
 * issues plain loads — the unlocked path, and the stripe-locked one.
 * RelaxedLoads issues relaxed atomic loads exclusively, the contract
 * for code running inside a seqlock read section
 * (scripts/concurrency_lint.py checks the marked helpers).
 * @{
 */
struct DirectLoads {
    static unsigned matchMask(std::uint64_t *tags, unsigned n,
                              std::uint64_t key)
    {
        unsigned mask = 0;
        for (unsigned w = 0; w < n; ++w)
            mask |= (tags[w] == key ? 1u : 0u) << w;
        return mask;
    }
    template <class C>
    static std::uint64_t pidVpn(C &c)
    {
        return c.pidVpn;
    }
    template <class C>
    static Pfn pfn(C &c)
    {
        return c.pfn;
    }
};

struct RelaxedLoads {
    static unsigned matchMask(std::uint64_t *tags, unsigned n,
                              std::uint64_t key)
    {
        // utlb-lint: seqlock-read-helper
        unsigned mask = 0;
        for (unsigned w = 0; w < n; ++w)
            mask |= (loadRelaxed(tags[w]) == key ? 1u : 0u) << w;
        return mask;
    }
    template <class C>
    static std::uint64_t pidVpn(C &c)
    {
        // utlb-lint: seqlock-read-helper
        return loadRelaxed(c.pidVpn);
    }
    template <class C>
    static Pfn pfn(C &c)
    {
        // utlb-lint: seqlock-read-helper
        return loadRelaxed(c.pfn);
    }
};
/** @} */

} // namespace

SharedUtlbCache::SharedUtlbCache(const CacheConfig &cfg,
                                 const nic::NicTimings &t,
                                 nic::Sram *board_sram)
    : config(cfg), timings(&t)
{
    if (config.entries == 0 || config.assoc == 0)
        fatal("cache requires entries > 0 and assoc > 0");
    if (config.entries % config.assoc != 0)
        fatal("cache entries (%zu) not divisible by assoc (%u)",
              config.entries, config.assoc);
    numSets = config.entries / config.assoc;
    setsMask = (numSets & (numSets - 1)) == 0 ? numSets - 1 : 0;
    tagWords.assign(config.entries, 0);
    cold.assign(config.entries, Cold{});

    if (board_sram) {
        // 4 bytes per line, matching "32 KB (or 8 K entries)" (§4.2).
        auto base = board_sram->alloc("utlb-cache", config.entries * 4);
        if (!base)
            fatal("NIC SRAM cannot hold a %zu-entry UTLB cache",
                  config.entries);
    }
}

std::size_t
SharedUtlbCache::setIndex(ProcId pid, Vpn vpn) const
{
    std::uint64_t key = vpn;
    if (config.indexOffsetting)
        key += processOffset(pid);
    // Same result either way; the mask dodges a 64-bit divide on the
    // hottest instruction of the probe path.
    if (setsMask)
        return static_cast<std::size_t>(key & setsMask);
    return static_cast<std::size_t>(key % numSets);
}

template <class Loads>
unsigned
SharedUtlbCache::probePacked(std::size_t set, ProcId pid, Vpn vpn,
                             std::uint64_t key, unsigned &way,
                             Pfn &pfn)
{
    const std::size_t base = set * config.assoc;
    unsigned mask = Loads::matchMask(&tagWords[base], config.assoc,
                                     key);
    // The packed key is a filter; the cold packed (pid, vpn) word is
    // the authority (injective, one compare). Confirming candidates
    // in way order rejects a key collision and moves on, so the hit
    // way — and with it the probe count, modeled cost, and LRU stamp
    // — is exactly what a full per-way tag scan would produce.
    const std::uint64_t pv = packPidVpn(pid, vpn);
    while (mask != 0) {
        unsigned w = static_cast<unsigned>(std::countr_zero(mask));
        Cold &c = cold[base + w];
        if (Loads::pidVpn(c) == pv) {
            way = w;
            pfn = Loads::pfn(c);
            return w + 1;
        }
        mask &= mask - 1;
    }
    way = config.assoc;
    return config.assoc;
}

void
SharedUtlbCache::enableConcurrent()
{
    if (concurrent())
        return;
    // Any associativity: probes validate a set's ways against its
    // seqlock version, writers bump that version under the set's
    // stripe lock. The paper's sweep runs 1-, 2-, and 4-way (§3.2).
    seqs = std::make_unique<sim::SeqCount[]>(numSets);
    numStripes = (numSets + kSetsPerStripe - 1) / kSetsPerStripe;
    stripes = std::make_unique<sim::CachePadded<sim::Spinlock>[]>(
        numStripes);
}

SharedUtlbCache::Shard
SharedUtlbCache::makeShard() const
{
    return Shard(statProbeLatency.makeLocal());
}

void
SharedUtlbCache::absorbShard(Shard &sh)
{
    sim::LockGuard g(absorbMu);
    statHits.absorb(sh.hits);
    statMisses.absorb(sh.misses);
    statInserts.absorb(sh.inserts);
    statRefreshes.absorb(sh.refreshes);
    statEvictions.absorb(sh.evictions);
    statCrossEvictions.absorb(sh.crossEvictions);
    // Shardless removals add to this counter with relaxed RMWs
    // without absorbMu (Striped::retired), so the fold must too.
    statInvalidations.addRelaxed(sh.invalidations);
    sh.invalidations = 0;
    statProbeLatency.absorb(sh.probeLatency);
}

unsigned
SharedUtlbCache::scanWaysLocked(std::size_t set, ProcId pid, Vpn vpn,
                                std::uint64_t key, unsigned &way,
                                Pfn &pfn)
{
    return probePacked<DirectLoads>(set, pid, vpn, key, way, pfn);
}

/**
 * The single-threaded lock policy: plain loads and stores, ++useClock
 * stamps, and the global counters. Legal only when no other thread
 * touches the cache.
 */
struct SharedUtlbCache::Unlocked {
    SharedUtlbCache &c;

    unsigned probe(std::size_t set, ProcId pid, Vpn vpn,
                   std::uint64_t key, unsigned &way, Pfn &pfn)
    {
        return c.probePacked<DirectLoads>(set, pid, vpn, key, way, pfn);
    }
    /** Direct-mapped probe of line @p idx (way index == set index). */
    bool probeLine(std::size_t idx, ProcId pid, Vpn vpn, Pfn &pfn)
    {
        Cold &l = c.cold[idx];
        if (c.tagWords[idx] != tagKey(pid, vpn)
            || l.pidVpn != packPidVpn(pid, vpn))
            return false;
        pfn = l.pfn;
        return true;
    }
    void stampHit(std::size_t set, unsigned way, ProcId, Vpn)
    {
        c.cold[set * c.config.assoc + way].lastUse = nextStamp();
    }
    std::uint64_t nextStamp() { return ++c.useClock; }
    template <class F>
    auto exclusive(std::size_t, F &&f) { return f(); }
    void writeBegin(std::size_t) {}
    void writeEnd(std::size_t) {}
    template <class T>
    static void put(T &field, T value) { field = value; }

    void probed(Tick cost, bool hit)
    {
        c.statProbeLatency.sample(sim::ticksToUs(cost));
        ++(hit ? c.statHits : c.statMisses);
    }
    void hitRun(Tick cost, std::size_t n)
    {
        c.statHits += n;
        c.statProbeLatency.sampleN(sim::ticksToUs(cost), n);
    }
    void inserted() { ++c.statInserts; }
    void refreshed() { ++c.statRefreshes; }
    void evicted(bool cross)
    {
        if (cross)
            ++c.statCrossEvictions;
        ++c.statEvictions;
    }
    void retired(std::size_t n) { c.statInvalidations += n; }
};

/**
 * The concurrent lock policy (enableConcurrent()): seqlock-validated
 * optimistic probes, the stripe lock and a version bump around every
 * tag write, recency stamps from the worker's stamp block, and
 * statistics into the worker's Shard.
 */
struct SharedUtlbCache::Striped {
    SharedUtlbCache &c;
    /** The worker's shard; null on the shardless removal paths. */
    Shard *sh = nullptr;

    /**
     * Removals (invalidate, invalidateProcess) run from the unpin and
     * teardown paths. An unpin made through a driver shard counts
     * into that shard; the shardless ones make a relaxed RMW on the
     * shared counter, since absorbShard() may be writing its
     * neighbours at the same time.
     */
    void retired(std::size_t n)
    {
        if (sh)
            sh->invalidations += n;
        else if (n)
            c.statInvalidations.addRelaxed(n);
    }

    // Everything below runs on a worker's probe and install path.
    // utlb-lint: mt-shard-scope

    /**
     * Seqlock-validated way scan: relaxed atomic reads, retried on a
     * torn version; after kSeqlockMaxRetries torn reads it takes the
     * stripe lock instead (the readers' progress guarantee).
     */
    unsigned probe(std::size_t set, ProcId pid, Vpn vpn,
                   std::uint64_t key, unsigned &way, Pfn &pfn)
    {
        sim::SeqCount &seq = c.seqs[set];
        for (unsigned attempt = 0; attempt < kSeqlockMaxRetries;
             ++attempt) {
            std::uint32_t v = seq.readBegin();
            unsigned probes = c.probePacked<RelaxedLoads>(set, pid, vpn,
                                                          key, way, pfn);
            if (!seq.readRetry(v))
                return probes;
            ++sh->seqRetries;
        }
        sim::SpinGuard g(c.stripeOf(set));
        return c.scanWaysLocked(set, pid, vpn, key, way, pfn);
    }
    bool probeLine(std::size_t idx, ProcId pid, Vpn vpn, Pfn &pfn)
    {
        unsigned way = 0;
        probe(idx, pid, vpn, tagKey(pid, vpn), way, pfn);
        return way == 0;
    }
    /**
     * Stamp a hit under the stripe lock, re-validating the way first:
     * if a writer reclaimed or retagged it since the optimistic read,
     * the (already-returned) hit keeps its snapshot semantics and
     * leaves no recency mark — a stamp would resurrect a dead or
     * foreign way.
     */
    void stampHit(std::size_t set, unsigned way, ProcId pid, Vpn vpn)
    {
        const std::size_t idx = set * c.config.assoc + way;
        Cold &l = c.cold[idx];
        sim::SpinGuard g(c.stripeOf(set));
        if (c.tagWords[idx] == tagKey(pid, vpn)
            && l.pidVpn == packPidVpn(pid, vpn))
            l.lastUse = nextStamp();
    }
    /** One shared-clock RMW buys kStampBlock local stamps. The base is
     *  the pre-add clock, so a lone worker draws exactly the 1, 2, 3,
     *  ... sequence of the unlocked ++useClock. */
    std::uint64_t nextStamp()
    {
        if (sh->stampNext == sh->stampEnd) {
            std::uint64_t base =
                std::atomic_ref<std::uint64_t>(c.useClock).fetch_add(
                    kStampBlock, std::memory_order_relaxed);
            sh->stampNext = base + 1;
            sh->stampEnd = base + kStampBlock + 1;
        }
        return sh->stampNext++;
    }
    template <class F>
    auto exclusive(std::size_t set, F &&f)
    {
        sim::SpinGuard g(c.stripeOf(set));
        return f();
    }
    void writeBegin(std::size_t set) { c.seqs[set].writeBegin(); }
    void writeEnd(std::size_t set) { c.seqs[set].writeEnd(); }
    template <class T>
    static void put(T &field, T value) { storeRelaxed(field, value); }

    void probed(Tick cost, bool hit)
    {
        sh->probeLatency.sample(sim::ticksToUs(cost));
        ++(hit ? sh->hits : sh->misses);
    }
    void hitRun(Tick cost, std::size_t n)
    {
        sh->hits += n;
        sh->probeLatency.sampleN(sim::ticksToUs(cost), n);
    }
    void inserted() { ++sh->inserts; }
    void refreshed() { ++sh->refreshes; }
    void evicted(bool cross)
    {
        if (cross)
            ++sh->crossEvictions;
        ++sh->evictions;
    }
};

template <class Sync>
CacheProbe
SharedUtlbCache::lookupWith(ProcId pid, Vpn vpn, Sync s)
{
    CacheProbe probe;
    std::size_t set = setIndex(pid, vpn);
    unsigned way = config.assoc;
    Pfn pfn = mem::kInvalidPfn;
    unsigned probes = s.probe(set, pid, vpn, tagKey(pid, vpn), way, pfn);
    // The firmware probes ways sequentially (§6.3); the first probe
    // is the published constant hit cost, each further way adds
    // perWayProbeCost.
    probe.cost = timings->cacheHitCost
        + Tick{probes > 0 ? probes - 1 : 0} * timings->perWayProbeCost;
    probe.hit = way != config.assoc;
    s.probed(probe.cost, probe.hit);
    if (probe.hit) {
        probe.pfn = pfn;
        // Only an associative set picks a victim by recency; a
        // direct-mapped line's stamp would never be read.
        if (config.assoc > 1)
            s.stampHit(set, way, pid, vpn);
    }
    return probe;
}

template <class Sync>
RunHits
SharedUtlbCache::lookupRunWith(ProcId pid, Vpn start, std::size_t n,
                               Pfn *pfns, Sync s)
{
    // A cost-model restriction, not a structural one: RunHits models
    // one shared perHitCost, which only holds when every hit is a
    // single-way probe. Associative callers take the page-at-a-time
    // path, whose per-page probe counts price each way probed.
    UTLB_ASSERT(config.assoc == 1,
                "lookupRun requires a direct-mapped cache (RunHits "
                "carries a single shared per-hit probe cost)");
    RunHits out;
    out.perHitCost = timings->cacheHitCost;

    // Consecutive vpns map to consecutive sets (the index is a sum
    // modulo numSets), so the run walks the packed arrays with an
    // increment instead of re-hashing every page; with assoc == 1
    // the way index is the set index.
    std::size_t set = setIndex(pid, start);
    std::size_t i = 0;
    for (; i < n; ++i) {
        Pfn pfn = mem::kInvalidPfn;
        if (!s.probeLine(set, pid, start + i, pfn))
            break;  // first miss: record nothing, caller re-probes
        pfns[i] = pfn;
        if (++set == numSets)
            set = 0;
    }

    out.hits = i;
    if (i > 0) {
        out.cost = static_cast<Tick>(i) * out.perHitCost;
        s.hitRun(out.perHitCost, i);
    }
    return out;
}

template <class Sync>
std::optional<EvictedEntry>
SharedUtlbCache::insertWith(ProcId pid, Vpn vpn, Pfn pfn,
                            InsertMode mode, Sync s)
{
    s.inserted();
    UTLB_ASSERT((vpn >> 32) == 0,
                "vpn 0x%llx exceeds the 32-bit packed pid/vpn field",
                static_cast<unsigned long long>(vpn));
    const std::size_t set = setIndex(pid, vpn);
    const std::size_t base = set * config.assoc;
    const std::uint64_t key = tagKey(pid, vpn);
    const std::uint64_t pv = packPidVpn(pid, vpn);
    // Only an associative set picks a victim by recency.
    const bool stamped = config.assoc > 1;

    // Retag way w. The tag word is published last inside the write
    // section: an optimistic reader either sees 0 (way still dead)
    // or the old line, or retries on the version bump.
    auto install = [&](unsigned w) {
        Cold &c = cold[base + w];
        s.writeBegin(set);
        s.put(c.pidVpn, pv);
        s.put(c.pfn, pfn);
        s.put(tagWords[base + w], key);
        s.writeEnd(set);
        if (stamped)
            c.lastUse = s.nextStamp();
    };

    return s.exclusive(set, [&]() -> std::optional<EvictedEntry> {
        // Re-insert over an existing entry (refresh). A prefetch
        // refresh updates the translation but not the recency: the
        // NIC never referenced this page, so promoting it would
        // pollute the LRU order of the set (§6.4).
        for (unsigned w = 0; w < config.assoc; ++w) {
            Cold &c = cold[base + w];
            if (tagWords[base + w] == key && c.pidVpn == pv) {
                s.writeBegin(set);
                s.put(c.pfn, pfn);
                s.writeEnd(set);
                if (stamped && mode == InsertMode::Demand)
                    c.lastUse = s.nextStamp();
                s.refreshed();
                return std::nullopt;
            }
        }

        // Fill an invalid way if one exists.
        for (unsigned w = 0; w < config.assoc; ++w) {
            if (tagWords[base + w] == 0) {
                install(w);
                return std::nullopt;
            }
        }

        // Evict the LRU way; stamps are stable under the stripe
        // lock, so one worker picks the unlocked path's victim.
        unsigned vw = 0;
        for (unsigned w = 1; w < config.assoc; ++w) {
            if (cold[base + w].lastUse < cold[base + vw].lastUse)
                vw = w;
        }
        const Cold &victim = cold[base + vw];
        EvictedEntry out{pidOfPacked(victim.pidVpn),
                         vpnOfPacked(victim.pidVpn), victim.pfn};
        s.evicted(out.pid != pid);
        install(vw);
        return out;
    });
}

template <class Sync>
bool
SharedUtlbCache::invalidateWith(ProcId pid, Vpn vpn, Sync s)
{
    const std::size_t set = setIndex(pid, vpn);
    const bool dropped = s.exclusive(set, [&] {
        unsigned way = config.assoc;
        Pfn pfn = mem::kInvalidPfn;
        probePacked<DirectLoads>(set, pid, vpn, tagKey(pid, vpn), way,
                                 pfn);
        if (way == config.assoc)
            return false;
        const std::size_t idx = set * config.assoc + way;
        s.writeBegin(set);
        s.put(tagWords[idx], std::uint64_t{0});
        s.writeEnd(set);
        cold[idx].lastUse = 0;  // see killWay()
        return true;
    });
    if (dropped)
        s.retired(1);
    return dropped;
}

template <class Sync>
std::size_t
SharedUtlbCache::invalidateProcessWith(ProcId pid, Sync s)
{
    // Set by set, so that in concurrent mode process teardown (driver
    // unregister) can overlap other tenants' live probes: each set's
    // kills share one stripe-lock hold and one seqlock write section.
    std::size_t count = 0;
    for (std::size_t set = 0; set < numSets; ++set) {
        const std::size_t base = set * config.assoc;
        count += s.exclusive(set, [&] {
            std::size_t killed = 0;
            for (unsigned w = 0; w < config.assoc; ++w) {
                Cold &c = cold[base + w];
                if (tagWords[base + w] == 0
                    || pidOfPacked(c.pidVpn) != pid)
                    continue;
                if (killed++ == 0)
                    s.writeBegin(set);
                s.put(tagWords[base + w], std::uint64_t{0});
                c.lastUse = 0;  // see killWay()
            }
            if (killed != 0)
                s.writeEnd(set);
            return killed;
        });
    }
    s.retired(count);
    return count;
}

CacheProbe
SharedUtlbCache::lookup(ProcId pid, Vpn vpn, Shard *sh)
{
    return sh ? lookupWith(pid, vpn, Striped{*this, sh})
              : lookupWith(pid, vpn, Unlocked{*this});
}

RunHits
SharedUtlbCache::lookupRun(ProcId pid, Vpn start, std::size_t n,
                           Pfn *pfns, Shard *sh)
{
    return sh ? lookupRunWith(pid, start, n, pfns, Striped{*this, sh})
              : lookupRunWith(pid, start, n, pfns, Unlocked{*this});
}

std::optional<EvictedEntry>
SharedUtlbCache::insert(ProcId pid, Vpn vpn, Pfn pfn, InsertMode mode,
                        Shard *sh)
{
    return sh ? insertWith(pid, vpn, pfn, mode, Striped{*this, sh})
              : insertWith(pid, vpn, pfn, mode, Unlocked{*this});
}

bool
SharedUtlbCache::invalidate(ProcId pid, Vpn vpn, Shard *sh)
{
    // Unpin-path coherence drops race other workers' optimistic
    // probes once the cache is concurrent.
    return concurrent() ? invalidateWith(pid, vpn, Striped{*this, sh})
                        : invalidateWith(pid, vpn, Unlocked{*this});
}

std::size_t
SharedUtlbCache::invalidateProcess(ProcId pid)
{
    return concurrent() ? invalidateProcessWith(pid, Striped{*this})
                        : invalidateProcessWith(pid, Unlocked{*this});
}

std::optional<Pfn>
SharedUtlbCache::peek(ProcId pid, Vpn vpn) const
{
    auto *self = const_cast<SharedUtlbCache *>(this);
    std::size_t set = setIndex(pid, vpn);
    unsigned way = config.assoc;
    Pfn pfn = mem::kInvalidPfn;
    self->probePacked<DirectLoads>(set, pid, vpn, tagKey(pid, vpn),
                                   way, pfn);
    if (way == config.assoc)
        return std::nullopt;
    return pfn;
}

void
SharedUtlbCache::killWay(std::size_t idx)
{
    // A dead way must not retain a recency stamp: the next insert
    // reuses the way with a fresh stamp, and the audit relies on
    // invalid ways being fully scrubbed. The cold (pid, vpn, pfn)
    // may go stale — the zeroed tag word is the single validity
    // authority.
    tagWords[idx] = 0;
    cold[idx].lastUse = 0;
}

std::optional<EvictedEntry>
SharedUtlbCache::shed(ProcId pid, Vpn vpn)
{
    std::size_t set = setIndex(pid, vpn);
    unsigned way = config.assoc;
    Pfn pfn = mem::kInvalidPfn;
    probePacked<DirectLoads>(set, pid, vpn, tagKey(pid, vpn), way, pfn);
    if (way == config.assoc)
        return std::nullopt;
    killWay(set * config.assoc + way);
    ++statSheds;
    return EvictedEntry{pid, vpn, pfn};
}

void
SharedUtlbCache::clear()
{
    for (std::size_t idx = 0; idx < config.entries; ++idx) {
        if (tagWords[idx] != 0) {
            killWay(idx);
            ++statClearDrops;
        }
    }
}

std::size_t
SharedUtlbCache::validEntries() const
{
    return static_cast<std::size_t>(
        std::count_if(tagWords.begin(), tagWords.end(),
                      [](std::uint64_t t) { return t != 0; }));
}

std::size_t
SharedUtlbCache::occupancyOf(ProcId pid) const
{
    std::size_t count = 0;
    for (std::size_t idx = 0; idx < config.entries; ++idx) {
        if (tagWords[idx] != 0
            && pidOfPacked(cold[idx].pidVpn) == pid)
            ++count;
    }
    return count;
}

void
SharedUtlbCache::audit(check::AuditReport &report) const
{
    report.component("shared-cache");
    for (std::size_t set = 0; set < numSets; ++set) {
        const std::size_t base = set * config.assoc;
        for (unsigned w = 0; w < config.assoc; ++w) {
            const Cold &c = cold[base + w];
            if (tagWords[base + w] == 0) {
                // Dead ways must be fully scrubbed: a stale stamp
                // would silently distort LRU if ever trusted, and
                // signals a removal path that bypassed killWay().
                report.require(c.lastUse == 0,
                               "dead way %u of set %zu "
                               "retains recency stamp %llu",
                               w, set,
                               static_cast<unsigned long long>(
                                   c.lastUse));
                continue;
            }
            const mem::ProcId cpid = pidOfPacked(c.pidVpn);
            const mem::Vpn cvpn = vpnOfPacked(c.pidVpn);
            // Packed-tag coherence: the tag word must be exactly the
            // key of the cold tags, or probes see a different entry
            // than the one stored (an invisible line or a phantom
            // candidate that the cold confirm then rejects).
            report.require(tagWords[base + w] == tagKey(cpid, cvpn),
                           "way %u of set %zu: packed tag word "
                           "0x%llx does not match cold tags "
                           "(pid %u, vpn %llu)",
                           w, set,
                           static_cast<unsigned long long>(
                               tagWords[base + w]),
                           cpid,
                           static_cast<unsigned long long>(cvpn));
            // Tag/process-offset integrity: a line must live in the
            // set its (pid, vpn) hashes to, or lookups will silently
            // miss it (cross-process aliasing shows up the same way).
            std::size_t home = setIndex(cpid, cvpn);
            report.require(home == set,
                           "line (pid %u, vpn %llu) stored in set %zu "
                           "but indexes to set %zu",
                           cpid,
                           static_cast<unsigned long long>(cvpn),
                           set, home);
            report.require(c.lastUse <= useClock,
                           "line (pid %u, vpn %llu) LRU stamp %llu is "
                           "ahead of the use clock %llu",
                           cpid,
                           static_cast<unsigned long long>(cvpn),
                           static_cast<unsigned long long>(c.lastUse),
                           static_cast<unsigned long long>(useClock));
            // A direct-mapped set never picks a victim, so no path
            // may spend a store on a stamp nothing reads.
            report.require(config.assoc > 1 || c.lastUse == 0,
                           "direct-mapped line (pid %u, vpn %llu) "
                           "carries recency stamp %llu",
                           cpid,
                           static_cast<unsigned long long>(cvpn),
                           static_cast<unsigned long long>(c.lastUse));
            for (unsigned w2 = w + 1; w2 < config.assoc; ++w2) {
                const Cold &dup = cold[base + w2];
                report.require(tagWords[base + w2] == 0
                                   || dup.pidVpn != c.pidVpn,
                               "duplicate (pid %u, vpn %llu) in ways "
                               "%u and %u of set %zu",
                               cpid,
                               static_cast<unsigned long long>(cvpn),
                               w, w2, set);
            }
        }
    }

    // Removal-taxonomy conservation: every line present was installed
    // by an insert that created it (insertions minus refreshes; a
    // capacity eviction both removes and creates in one call), and
    // every line gone left through exactly one of the three removal
    // paths or a clear. Double-counting a shed as an eviction — the
    // bug this split fixes — breaks the balance immediately.
    auto created = static_cast<std::int64_t>(insertions())
        - static_cast<std::int64_t>(refreshes());
    auto removed = static_cast<std::int64_t>(evictions())
        + static_cast<std::int64_t>(sheds())
        + static_cast<std::int64_t>(invalidations())
        + static_cast<std::int64_t>(statClearDrops.value());
    auto expected = static_cast<std::int64_t>(statsBaseValid)
        + created - removed;
    report.require(static_cast<std::int64_t>(validEntries()) == expected,
                   "occupancy %zu disagrees with counter taxonomy "
                   "(base %zu + created %lld - removed %lld)",
                   validEntries(), statsBaseValid,
                   static_cast<long long>(created),
                   static_cast<long long>(removed));

    // Cross-tenant pollution is a classification of evictions, never
    // a fourth removal path: it can only count a subset of them.
    report.require(crossTenantEvictions() <= evictions(),
                   "%llu cross-tenant evictions exceed the %llu total "
                   "evictions they classify",
                   static_cast<unsigned long long>(
                       crossTenantEvictions()),
                   static_cast<unsigned long long>(evictions()));

    // Seqlock quiescence: the audit runs with no writer in flight, so
    // every set's version counter must be even — an odd counter means
    // a write section was entered and never closed, which would spin
    // all future optimistic readers of that set into the lock-based
    // fallback forever.
    if (numStripes != 0) {
        for (std::size_t set = 0; set < numSets; ++set) {
            std::uint32_t v = seqs[set].value();
            report.require((v & 1u) == 0,
                           "set %zu seqlock version %u is odd at "
                           "quiescence (unclosed write section)",
                           set, v);
        }
    }
}

void
SharedUtlbCache::resetStats()
{
    statsGrp.resetAll();
    statsBaseValid = validEntries();
}

} // namespace utlb::core
