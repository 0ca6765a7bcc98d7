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
 * the only thing that differs between the sequential and seqlock
 * read paths. DirectLoads issues plain loads and the SIMD tag
 * compare — legal only single-threaded or under the set's stripe
 * lock. RelaxedLoads issues relaxed atomic loads exclusively, the
 * contract for code running inside a seqlock read section
 * (scripts/concurrency_lint.py checks the marked helpers).
 * @{
 */
struct DirectLoads {
    static unsigned matchMask(std::uint64_t *tags, unsigned n,
                              std::uint64_t key)
    {
        return simd::matchWays(tags, n, key);
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
    tagWords.assign(config.entries + simd::kTagPadWords, 0);
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

CacheProbe
SharedUtlbCache::lookup(ProcId pid, Vpn vpn)
{
    CacheProbe probe;
    std::size_t set = setIndex(pid, vpn);
    unsigned way = config.assoc;
    Pfn pfn = mem::kInvalidPfn;
    unsigned probes = probePacked<DirectLoads>(set, pid, vpn,
                                               tagKey(pid, vpn), way,
                                               pfn);
    // The firmware probes ways sequentially (§6.3); the first probe
    // is the published constant hit cost, each further way adds
    // perWayProbeCost.
    probe.cost = timings->cacheHitCost
        + Tick{probes > 0 ? probes - 1 : 0} * timings->perWayProbeCost;
    statProbeLatency.sample(sim::ticksToUs(probe.cost));
    if (way != config.assoc) {
        probe.hit = true;
        probe.pfn = pfn;
        cold[set * config.assoc + way].lastUse = ++useClock;
        ++statHits;
    } else {
        ++statMisses;
    }
    return probe;
}

RunHits
SharedUtlbCache::lookupRun(ProcId pid, Vpn start, std::size_t n,
                           Pfn *pfns, LineRef *first_hit)
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
        Cold &c = cold[set];
        if (tagWords[set] != tagKey(pid, start + i)
            || c.pidVpn != packPidVpn(pid, start + i))
            break;  // first miss: record nothing, caller re-probes
        c.lastUse = ++useClock;
        pfns[i] = c.pfn;
        if (i == 0 && first_hit) {
            first_hit->set = static_cast<std::uint32_t>(set);
            first_hit->way = 0;
        }
        if (++set == numSets)
            set = 0;
    }

    out.hits = i;
    if (i > 0) {
        out.cost = static_cast<Tick>(i) * out.perHitCost;
        statHits += i;
        statProbeLatency.sampleN(sim::ticksToUs(out.perHitCost), i);
    }
    return out;
}

bool
SharedUtlbCache::hitViaRef(LineRef &ref, ProcId pid, Vpn vpn,
                           CacheProbe &out)
{
    if (ref.way == LineRef::kNoWay)
        return false;
    std::size_t idx =
        std::size_t{ref.set} * config.assoc + ref.way;
    Cold &c = cold[idx];
    // Revalidate the packed word first (0 = reclaimed), then the
    // full tags: any churn since the mint is a clean miss.
    if (tagWords[idx] != tagKey(pid, vpn)
        || c.pidVpn != packPidVpn(pid, vpn))
        return false;
    // A ref pins the exact way that served the original hit (for
    // refs minted by lookupRun, always way 0 of a direct-mapped
    // set), so the modeled firmware re-probe charges that way's
    // probe depth.
    out.hit = true;
    out.pfn = c.pfn;
    out.cost = timings->cacheHitCost
        + Tick{ref.way} * timings->perWayProbeCost;
    c.lastUse = ++useClock;
    ++statHits;
    statProbeLatency.sample(sim::ticksToUs(out.cost));
    return true;
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
    statProbeLatency.absorb(sh.probeLatency);
}

std::uint64_t
SharedUtlbCache::nextStamp(Shard &sh)
{
    if (sh.stampNext == sh.stampEnd) {
        // One shared-clock RMW buys kStampBlock local stamps. The
        // base is the pre-add clock, so a lone worker draws exactly
        // the 1, 2, 3, ... sequence of the sequential ++useClock.
        std::uint64_t base =
            std::atomic_ref<std::uint64_t>(useClock).fetch_add(
                kStampBlock, std::memory_order_relaxed);
        sh.stampNext = base + 1;
        sh.stampEnd = base + kStampBlock + 1;
    }
    return sh.stampNext++;
}

unsigned
SharedUtlbCache::probeSetMT(std::size_t set, ProcId pid, Vpn vpn,
                            std::uint64_t key, unsigned &way,
                            Pfn &pfn, Shard &sh)
{
    sim::SeqCount &seq = seqs[set];
    for (unsigned attempt = 0; attempt < kSeqlockMaxRetries;
         ++attempt) {
        std::uint32_t v = seq.readBegin();
        unsigned probes = probePacked<RelaxedLoads>(set, pid, vpn,
                                                    key, way, pfn);
        if (!seq.readRetry(v))
            return probes;
        ++sh.seqRetries;
    }
    // Writers are hammering this set; take their lock instead of
    // spinning forever (the readers' progress guarantee). Under it
    // the scan cannot race anything.
    sim::SpinGuard g(stripeOf(set));
    return scanWaysLocked(set, pid, vpn, key, way, pfn);
}

unsigned
SharedUtlbCache::scanWaysLocked(std::size_t set, ProcId pid, Vpn vpn,
                                std::uint64_t key, unsigned &way,
                                Pfn &pfn)
{
    return probePacked<DirectLoads>(set, pid, vpn, key, way, pfn);
}

void
SharedUtlbCache::stampWayMT(std::size_t set, unsigned way, ProcId pid,
                            Vpn vpn, Shard &sh)
{
    sim::SpinGuard g(stripeOf(set));
    stampLineLocked(set, way, pid, vpn, sh);
}

void
SharedUtlbCache::stampLineLocked(std::size_t set, unsigned way,
                                 ProcId pid, Vpn vpn, Shard &sh)
{
    std::size_t idx = set * config.assoc + way;
    Cold &c = cold[idx];
    // If a writer reclaimed the way since the optimistic read, the
    // (already-consistent) hit simply leaves no recency mark — a
    // stamp here would resurrect a dead or foreign way. The tag word
    // distinguishes "same tags, still live" from "killed, cold tags
    // stale".
    if (tagWords[idx] == tagKey(pid, vpn)
        && c.pidVpn == packPidVpn(pid, vpn))
        c.lastUse = nextStamp(sh);
}

CacheProbe
SharedUtlbCache::lookupMT(ProcId pid, Vpn vpn, Shard &sh)
{
    CacheProbe probe;
    std::size_t set = setIndex(pid, vpn);
    unsigned way = config.assoc;
    Pfn pfn = mem::kInvalidPfn;
    unsigned probes = probeSetMT(set, pid, vpn, tagKey(pid, vpn), way,
                                 pfn, sh);
    // Same firmware model as lookup(): the first way probed is the
    // published constant hit cost, each further way adds
    // perWayProbeCost (§6.3).
    probe.cost = timings->cacheHitCost
        + Tick{probes > 0 ? probes - 1 : 0} * timings->perWayProbeCost;
    sh.probeLatency.sample(sim::ticksToUs(probe.cost));
    if (way == config.assoc) {
        ++sh.misses;
        return probe;
    }
    probe.hit = true;
    probe.pfn = pfn;
    stampWayMT(set, way, pid, vpn, sh);
    ++sh.hits;
    return probe;
}

RunHits
SharedUtlbCache::lookupRunMT(ProcId pid, Vpn start, std::size_t n,
                             Pfn *pfns, LineRef *first_hit, Shard &sh)
{
    // Same cost-model restriction as lookupRun (one shared
    // perHitCost); associative MT callers go page-at-a-time through
    // lookupMT, which prices every way probed.
    UTLB_ASSERT(config.assoc == 1,
                "lookupRunMT requires a direct-mapped cache (RunHits "
                "carries a single shared per-hit probe cost)");
    RunHits out;
    out.perHitCost = timings->cacheHitCost;

    // Same consecutive-set walk as lookupRun. Each stripe's window
    // is read optimistically (per-set seqlock validation, no lock
    // held), then the stripe lock is taken once to stamp the
    // window's hits — so readers only serialize against writers for
    // the stamping stores, never the probes.
    std::size_t set = setIndex(pid, start);
    std::size_t i = 0;
    bool missed = false;
    while (i < n && !missed) {
        std::size_t stripe_end = std::min(
            ((set >> kSetsPerStripeLog2) + 1) << kSetsPerStripeLog2,
            numSets);
        const std::size_t windowSet = set;
        const std::size_t windowI = i;
        for (; i < n && set < stripe_end; ++set, ++i) {
            unsigned way = 1;
            Pfn pfn = mem::kInvalidPfn;
            probeSetMT(set, pid, start + i, tagKey(pid, start + i),
                       way, pfn, sh);
            if (way == config.assoc) {
                missed = true;  // record nothing, caller re-probes
                break;
            }
            pfns[i] = pfn;
        }
        std::size_t hitsHere = i - windowI;
        if (hitsHere > 0) {
            sim::SpinGuard g(stripeOf(windowSet));
            for (std::size_t k = 0; k < hitsHere; ++k) {
                // assoc == 1: way index == set index.
                std::size_t idx = windowSet + k;
                Cold &c = cold[idx];
                Vpn v = start + windowI + k;
                // Re-validate: a concurrent writer may have
                // reclaimed the way since the optimistic read, and
                // a skipped stamp is the only correct outcome then.
                if (tagWords[idx] == tagKey(pid, v)
                    && c.pidVpn == packPidVpn(pid, v))
                    c.lastUse = nextStamp(sh);
            }
            if (windowI == 0 && first_hit) {
                // Mint the ref under the stripe lock: the version
                // recorded here is even and stays authoritative for
                // hitViaRefMT until the next tag write in the set.
                first_hit->set =
                    static_cast<std::uint32_t>(windowSet);
                first_hit->way = 0;
                first_hit->version = seqs[windowSet].value();
            }
        }
        if (set == numSets)
            set = 0;
    }

    out.hits = i;
    if (i > 0) {
        out.cost = static_cast<Tick>(i) * out.perHitCost;
        sh.hits += i;
        sh.probeLatency.sampleN(sim::ticksToUs(out.perHitCost), i);
    }
    return out;
}

bool
SharedUtlbCache::hitViaRefMT(LineRef &ref, ProcId pid, Vpn vpn,
                             CacheProbe &out, Shard &sh)
{
    if (ref.way == LineRef::kNoWay)
        return false;
    std::size_t set = ref.set;
    std::size_t idx = std::size_t{ref.set} * config.assoc + ref.way;
    sim::SpinGuard g(stripeOf(set));
    // Version guard: the set must not have seen a single tag write
    // since the ref was minted, or the way may have been reclaimed
    // for another translation — any churn demotes the ref to a
    // clean miss and the caller re-probes.
    if (seqs[set].value() != ref.version)
        return false;
    Cold &c = cold[idx];
    if (tagWords[idx] != tagKey(pid, vpn)
        || c.pidVpn != packPidVpn(pid, vpn))
        return false;
    out.hit = true;
    out.pfn = c.pfn;
    // The ref pins the exact way that served the original hit, so
    // the modeled re-probe charges that way's probe depth (way 0 —
    // the only minted way today — is the constant hit cost).
    out.cost = timings->cacheHitCost
        + Tick{ref.way} * timings->perWayProbeCost;
    c.lastUse = nextStamp(sh);
    ++sh.hits;
    sh.probeLatency.sample(sim::ticksToUs(out.cost));
    return true;
}

std::optional<EvictedEntry>
SharedUtlbCache::insertMT(ProcId pid, Vpn vpn, Pfn pfn,
                          InsertMode mode, Shard &sh)
{
    ++sh.inserts;
    UTLB_ASSERT((vpn >> 32) == 0,
                "vpn 0x%llx exceeds the 32-bit packed pid/vpn field",
                static_cast<unsigned long long>(vpn));
    std::size_t set = setIndex(pid, vpn);
    std::size_t base = set * config.assoc;
    std::uint64_t key = tagKey(pid, vpn);
    const std::uint64_t pv = packPidVpn(pid, vpn);
    sim::SeqCount &seq = seqs[set];
    sim::SpinGuard g(stripeOf(set));

    // Re-insert over an existing entry (refresh); prefetch refreshes
    // leave recency alone (§6.4), exactly as insert(). Only the pfn
    // store needs the version bump — the tags are unchanged.
    for (unsigned w = 0; w < config.assoc; ++w) {
        Cold &c = cold[base + w];
        if (tagWords[base + w] == key && c.pidVpn == pv) {
            seq.writeBegin();
            storeRelaxed(c.pfn, pfn);
            seq.writeEnd();
            if (mode == InsertMode::Demand)
                c.lastUse = nextStamp(sh);
            ++sh.refreshes;
            return std::nullopt;
        }
    }

    // Fill an invalid way if one exists. The tag word is published
    // last inside the write section: an optimistic reader either
    // sees 0 (way still dead) or retries on the version bump.
    for (unsigned w = 0; w < config.assoc; ++w) {
        if (tagWords[base + w] == 0) {
            Cold &c = cold[base + w];
            seq.writeBegin();
            storeRelaxed(c.pidVpn, pv);
            storeRelaxed(c.pfn, pfn);
            storeRelaxed(tagWords[base + w], key);
            seq.writeEnd();
            c.lastUse = nextStamp(sh);
            return std::nullopt;
        }
    }

    // Evict the LRU way; stamps are stable under the stripe lock,
    // so the victim scan matches insert()'s decision bit-for-bit
    // with a single worker.
    unsigned vw = 0;
    for (unsigned w = 1; w < config.assoc; ++w) {
        if (cold[base + w].lastUse < cold[base + vw].lastUse)
            vw = w;
    }
    Cold &victim = cold[base + vw];
    EvictedEntry out{pidOfPacked(victim.pidVpn),
                     vpnOfPacked(victim.pidVpn), victim.pfn};
    if (out.pid != pid)
        ++sh.crossEvictions;
    seq.writeBegin();
    storeRelaxed(victim.pidVpn, pv);
    storeRelaxed(victim.pfn, pfn);
    storeRelaxed(tagWords[base + vw], key);
    seq.writeEnd();
    victim.lastUse = nextStamp(sh);
    ++sh.evictions;
    return out;
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
SharedUtlbCache::insert(ProcId pid, Vpn vpn, Pfn pfn, InsertMode mode)
{
    ++statInserts;
    UTLB_ASSERT((vpn >> 32) == 0,
                "vpn 0x%llx exceeds the 32-bit packed pid/vpn field",
                static_cast<unsigned long long>(vpn));
    std::size_t set = setIndex(pid, vpn);
    std::size_t base = set * config.assoc;
    std::uint64_t key = tagKey(pid, vpn);
    const std::uint64_t pv = packPidVpn(pid, vpn);

    // Re-insert over an existing entry (refresh). A prefetch refresh
    // updates the translation but not the recency: the NIC never
    // referenced this page, so promoting it would pollute the LRU
    // order of the set (§6.4).
    for (unsigned w = 0; w < config.assoc; ++w) {
        Cold &c = cold[base + w];
        if (tagWords[base + w] == key && c.pidVpn == pv) {
            c.pfn = pfn;
            if (mode == InsertMode::Demand)
                c.lastUse = ++useClock;
            ++statRefreshes;
            return std::nullopt;
        }
    }

    // Fill an invalid way if one exists.
    for (unsigned w = 0; w < config.assoc; ++w) {
        if (tagWords[base + w] == 0) {
            cold[base + w] = Cold{pv, pfn, ++useClock};
            tagWords[base + w] = key;
            return std::nullopt;
        }
    }

    // Evict the LRU way.
    unsigned vw = 0;
    for (unsigned w = 1; w < config.assoc; ++w) {
        if (cold[base + w].lastUse < cold[base + vw].lastUse)
            vw = w;
    }
    Cold &victim = cold[base + vw];
    EvictedEntry out{pidOfPacked(victim.pidVpn),
                     vpnOfPacked(victim.pidVpn), victim.pfn};
    if (out.pid != pid)
        ++statCrossEvictions;
    victim = Cold{pv, pfn, ++useClock};
    tagWords[base + vw] = key;
    ++statEvictions;
    return out;
}

bool
SharedUtlbCache::invalidate(ProcId pid, Vpn vpn)
{
    std::size_t set = setIndex(pid, vpn);
    std::size_t base = set * config.assoc;
    std::uint64_t key = tagKey(pid, vpn);
    if (concurrent()) {
        // Unpin-path coherence drops race with other workers'
        // optimistic probes, so scan the ways under the stripe lock
        // and retire the match inside a seqlock write section; the
        // counter bump is a relaxed RMW since it can race
        // absorbShard() readers of sibling counters on the same
        // cache line.
        bool dropped = false;
        {
            sim::SpinGuard g(stripeOf(set));
            const std::uint64_t pv = packPidVpn(pid, vpn);
            for (unsigned w = 0; w < config.assoc; ++w) {
                Cold &c = cold[base + w];
                if (tagWords[base + w] == key && c.pidVpn == pv) {
                    seqs[set].writeBegin();
                    storeRelaxed(tagWords[base + w],
                                 std::uint64_t{0});
                    seqs[set].writeEnd();
                    c.lastUse = 0;
                    dropped = true;
                    break;
                }
            }
        }
        if (dropped)
            statInvalidations.addRelaxed(1);
        return dropped;
    }
    unsigned way = config.assoc;
    Pfn pfn = mem::kInvalidPfn;
    probePacked<DirectLoads>(set, pid, vpn, key, way, pfn);
    if (way == config.assoc)
        return false;
    killWay(base + way);
    ++statInvalidations;
    return true;
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

std::size_t
SharedUtlbCache::invalidateProcess(ProcId pid)
{
    if (concurrent()) {
        // Process teardown (driver unregister) overlaps other
        // tenants' live probes during fleet churn, so retire the
        // process' lines set by set under the stripe lock, batching
        // one seqlock write section around each set's kills —
        // exactly invalidate()'s protocol, amortized. Stamps are
        // scrubbed under the lock like killWay() does.
        std::size_t count = 0;
        for (std::size_t set = 0; set < numSets; ++set) {
            std::size_t base = set * config.assoc;
            sim::SpinGuard g(stripeOf(set));
            bool open = false;
            for (unsigned w = 0; w < config.assoc; ++w) {
                Cold &c = cold[base + w];
                if (tagWords[base + w] == 0
                    || pidOfPacked(c.pidVpn) != pid)
                    continue;
                if (!open) {
                    seqs[set].writeBegin();
                    open = true;
                }
                storeRelaxed(tagWords[base + w], std::uint64_t{0});
                c.lastUse = 0;
                ++count;
            }
            if (open)
                seqs[set].writeEnd();
        }
        if (count)
            statInvalidations.addRelaxed(count);
        return count;
    }
    std::size_t count = 0;
    for (std::size_t idx = 0; idx < config.entries; ++idx) {
        if (tagWords[idx] != 0
            && pidOfPacked(cold[idx].pidVpn) == pid) {
            killWay(idx);
            ++count;
        }
    }
    statInvalidations += count;
    return count;
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
        std::count_if(tagWords.begin(),
                      tagWords.begin()
                          + static_cast<std::ptrdiff_t>(
                              config.entries),
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

    // The SIMD overread padding must stay zero: a nonzero pad word
    // can only come from an out-of-bounds write (the vector kernels
    // mask pad lanes off, so this is a canary, not a correctness
    // dependency).
    for (std::size_t p = config.entries; p < tagWords.size(); ++p) {
        report.require(tagWords[p] == 0,
                       "SIMD overread pad word %zu is nonzero "
                       "(0x%llx)",
                       p - config.entries,
                       static_cast<unsigned long long>(tagWords[p]));
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
