#include "tlbsim/simulator.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <vector>

#include "check/audit.hpp"
#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/flat_map.hpp"
#include "sim/json.hpp"
#include "sim/log.hpp"

namespace utlb::tlbsim {

using mem::pageOf;
using mem::pagesSpanned;
using mem::ProcId;
using mem::Vpn;

namespace {

/**
 * Three-C miss classifier: a seen-set for compulsory misses and a
 * fully-associative LRU shadow cache of equal total capacity for the
 * capacity/conflict split (§6.3 cites Hill's taxonomy).
 *
 * Both live in flat storage indexed by the trace's dense page ids
 * (trace::indexPages). One array takes every page to its shadow
 * node, to kNotResident once the shadow has dropped it, or to
 * kUnseen before its first probe, so the seen test and the shadow
 * lookup are one load. The shadow's LRU order is a list threaded by
 * index through a node array of at most @p capacity nodes.
 */
class MissClassifier
{
  public:
    MissClassifier(std::size_t capacity, std::size_t distinct_pages)
        : cap(capacity), nodeOf(distinct_pages, kUnseen)
    {
        nodes.reserve(capacity);
    }

    /** Record a probe of page @p id; if @p missed, classify it. */
    void
    probe(std::uint32_t id, bool missed, SimResult &res)
    {
        std::uint32_t &node = nodeOf[id];
        bool first = node == kUnseen;
        bool shadow_hit = !first && node != kNotResident;
        if (shadow_hit)
            moveToTail(node);
        else
            node = install(id);
        if (!missed)
            return;
        if (first)
            ++res.compulsoryMisses;
        else if (!shadow_hit)
            ++res.capacityMisses;
        else
            ++res.conflictMisses;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kNotResident = kNil;
    static constexpr std::uint32_t kUnseen = kNil - 1;

    struct Node {
        std::uint32_t key = 0;  //!< page id
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** Make page @p id the shadow's MRU entry, dropping the LRU one
     *  if the shadow is full. @return its node. */
    std::uint32_t
    install(std::uint32_t id)
    {
        std::uint32_t n;
        if (nodes.size() < cap) {
            n = static_cast<std::uint32_t>(nodes.size());
            nodes.emplace_back();
        } else if (cap != 0) {
            n = head;
            unlink(n);
            nodeOf[nodes[n].key] = kNotResident;
        } else {
            return kNotResident;
        }
        nodes[n].key = id;
        linkTail(n);
        return n;
    }

    void
    moveToTail(std::uint32_t n)
    {
        if (n == tail)
            return;
        unlink(n);
        linkTail(n);
    }

    void
    unlink(std::uint32_t n)
    {
        Node &x = nodes[n];
        (x.prev != kNil ? nodes[x.prev].next : head) = x.next;
        (x.next != kNil ? nodes[x.next].prev : tail) = x.prev;
    }

    void
    linkTail(std::uint32_t n)
    {
        nodes[n].prev = tail;
        nodes[n].next = kNil;
        (tail != kNil ? nodes[tail].next : head) = n;
        tail = n;
    }

    std::size_t cap;
    std::vector<std::uint32_t> nodeOf;  //!< by page id
    std::vector<Node> nodes;  //!< grows to cap, then recycles the LRU
    std::uint32_t head = kNil;  //!< LRU
    std::uint32_t tail = kNil;  //!< MRU
};

/** Abort the run if an audit sweep found violations. */
void
dieOnViolations(const check::AuditReport &report, std::uint64_t lookup)
{
    if (report.ok())
        return;
    sim::panic("invariant audit failed after %llu lookups:\n%s",
               static_cast<unsigned long long>(lookup),
               report.summary().c_str());
}

/**
 * Serialize one finished run as the "utlb-stats-v1" per-run object:
 * the mechanism, the configuration it ran under, the headline
 * results (raw counters plus the derived table metrics), and the
 * full component statistics tree rooted at @p root.
 */
std::string
runJson(const char *mechanism, const SimConfig &cfg,
        const SimResult &res, const sim::StatGroup &root)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "utlb-stats-v1");
    w.field("mechanism", mechanism);

    w.beginObject("config");
    w.field("cache_entries", std::uint64_t{cfg.cache.entries});
    w.field("cache_assoc", std::uint64_t{cfg.cache.assoc});
    w.field("index_offsetting", cfg.cache.indexOffsetting);
    w.field("prefetch_entries", std::uint64_t{cfg.prefetchEntries});
    w.field("mem_limit_pages", std::uint64_t{cfg.memLimitPages});
    w.field("policy", core::toString(cfg.policy));
    w.field("prepin_pages", std::uint64_t{cfg.prepinPages});
    w.field("batched_range", cfg.batchedRange);
    w.field("seed", cfg.seed);
    w.field("warmup_lookups", std::uint64_t{cfg.warmupLookups});
    w.endObject();

    w.beginObject("results");
    w.field("lookups", res.lookups);
    w.field("probes", res.probes);
    w.field("check_miss_lookups", res.checkMissLookups);
    w.field("ni_miss_lookups", res.niMissLookups);
    w.field("ni_miss_probes", res.niMissProbes);
    w.field("pages_pinned", res.pagesPinned);
    w.field("pages_unpinned", res.pagesUnpinned);
    w.field("pin_ioctls", res.pinIoctls);
    w.field("interrupts", res.interrupts);
    w.field("host_time_us", sim::ticksToUs(res.hostTime));
    w.field("pin_time_us", sim::ticksToUs(res.pinTime));
    w.field("unpin_time_us", sim::ticksToUs(res.unpinTime));
    w.field("nic_time_us", sim::ticksToUs(res.nicTime));
    w.field("compulsory_misses", res.compulsoryMisses);
    w.field("capacity_misses", res.capacityMisses);
    w.field("conflict_misses", res.conflictMisses);
    w.field("audits", res.audits);
    w.field("wall_ns", res.wallNs);
    w.field("check_miss_per_lookup", res.checkMissPerLookup());
    w.field("ni_miss_per_lookup", res.niMissPerLookup());
    w.field("unpins_per_lookup", res.unpinsPerLookup());
    w.field("probe_miss_rate", res.probeMissRate());
    w.field("avg_lookup_cost_us", res.avgLookupCostUs());
    w.field("amortized_pin_us", res.amortizedPinUs());
    w.field("amortized_unpin_us", res.amortizedUnpinUs());
    w.endObject();

    root.writeJson(w, "components");

    w.endObject();
    return os.str();
}

/** Frames needed to replay a trace of @p distinct_pages pages
 *  without running out of DRAM. */
std::size_t
framesFor(std::size_t distinct_pages)
{
    // Data pages — including pages only sequential pre-pinning ever
    // touches: with FFT's stride-8 layout, pre-pin waste can reach
    // ~8x the communicated footprint — plus page-table leaves, the
    // garbage page, and slack.
    return distinct_pages * 10 + 2048;
}

} // namespace

SimResult
simulateUtlb(const trace::Trace &trace, const SimConfig &cfg)
{
    SimResult res;
    if (trace.empty()) {
        sim::StatGroup root("utlb");
        res.statsJson = runJson("utlb", cfg, res, root);
        return res;
    }

    trace::PageIds ids = trace::indexPages(trace);
    mem::PhysMemory phys_mem(framesFor(ids.distinct));
    mem::PinFacility pins;
    nic::Sram sram(4u << 20);  // generous: sweeps go up to 16 K entries
    nic::NicTimings timings;
    core::HostCosts costs(cfg.hostProfile);
    core::SharedUtlbCache cache(cfg.cache, timings, &sram);
    core::UtlbDriver driver(phys_mem, pins, sram, cache, costs);

    sim::StatGroup root("utlb");
    root.adopt(cache.stats());
    root.adopt(driver.stats());
    root.adopt(pins.stats());
    root.adopt(sram.stats());

    struct Proc {
        std::unique_ptr<mem::AddressSpace> space;
        std::unique_ptr<core::UserUtlb> utlb;
    };
    sim::FlatMap<Proc> procs;

    auto get_utlb = [&](ProcId pid) -> core::UserUtlb & {
        auto [p, fresh] = procs.tryEmplace(pid);
        if (fresh) {
            p->space =
                std::make_unique<mem::AddressSpace>(pid, phys_mem);
            driver.registerProcess(*p->space);
            core::UtlbConfig ucfg;
            ucfg.prefetchEntries = cfg.prefetchEntries;
            ucfg.pin.memLimitPages = cfg.memLimitPages;
            ucfg.pin.policy = cfg.policy;
            ucfg.pin.prepinPages = cfg.prepinPages;
            ucfg.pin.seed = cfg.seed + pid;
            p->utlb = std::make_unique<core::UserUtlb>(
                driver, cache, timings, pid, ucfg);
            p->utlb->setTracer(cfg.tracer);
            root.adopt(p->utlb->stats());
        }
        return *p->utlb;
    };

    MissClassifier classifier(cfg.cache.entries, ids.distinct);

    // The ids of the pages each record spans start at this record's
    // touch offset, which advances on every record, warm-up and
    // failed pins included.
    std::size_t touch = 0;
    std::size_t seen = 0;
    auto wall_start = std::chrono::steady_clock::now();
    for (const auto &rec : trace) {
        core::UserUtlb &utlb = get_utlb(rec.pid);
        std::size_t npages = pagesSpanned(rec.va, rec.nbytes);
        const std::uint32_t *page = ids.touches.data() + touch;
        touch += npages;
        if (npages == 0)
            continue;
        bool warm = seen++ >= cfg.warmupLookups;
        if (warm)
            ++res.lookups;
        Vpn start = pageOf(rec.va);

        if (cfg.batchedRange) {
            // Whole-buffer fast path. The modeled costs and stats it
            // accrues are identical to the per-page branch below (the
            // executable spec, tests/test_spec.cpp, holds both to one
            // oracle); the classifier is replayed from the recorded
            // miss indices, which match the per-page probe outcomes.
            core::Translation t = utlb.translateRange(rec.va,
                                                      rec.nbytes);
            if (warm) {
                res.hostTime += costs.userCheck() + t.pinCost
                    + t.unpinCost;
                res.pinTime += t.pinCost;
                res.unpinTime += t.unpinCost;
                if (t.checkMiss)
                    ++res.checkMissLookups;
                res.pagesPinned += t.pagesPinned;
                res.pagesUnpinned += t.pagesUnpinned;
                res.pinIoctls += t.pinIoctls;
            }
            if (!t.ok) {
                sim::warn("UTLB sim: pin failed for pid %u va %llx",
                          rec.pid,
                          static_cast<unsigned long long>(rec.va));
                continue;
            }
            if (warm) {
                res.probes += npages;
                res.nicTime += t.nicCost;
                res.niMissProbes += t.missPages.size();
                if (!t.missPages.empty())
                    ++res.niMissLookups;
                std::size_t mi = 0;
                for (std::size_t i = 0; i < npages; ++i) {
                    bool missed = mi < t.missPages.size()
                        && t.missPages[mi] == i;
                    if (missed)
                        ++mi;
                    classifier.probe(page[i], missed, res);
                }
            }
        } else {
            core::EnsureResult host = utlb.prepare(rec.va, rec.nbytes);
            if (warm) {
                // Per-lookup host time uses the §6.2 cost equation:
                // the flat 0.5 us user-level charge (which subsumes
                // the bitmap scan) plus the measured pin/unpin ioctl
                // costs.
                res.hostTime += costs.userCheck() + host.pinCost
                    + host.unpinCost;
                res.pinTime += host.pinCost;
                res.unpinTime += host.unpinCost;
                if (host.checkMiss)
                    ++res.checkMissLookups;
                res.pagesPinned += host.pagesPinned;
                res.pagesUnpinned += host.pagesUnpinned;
                res.pinIoctls += host.pinIoctls;
            }
            if (!host.ok) {
                sim::warn("UTLB sim: pin failed for pid %u va %llx",
                          rec.pid,
                          static_cast<unsigned long long>(rec.va));
                continue;
            }

            bool any_miss = false;
            for (std::size_t i = 0; i < npages; ++i) {
                // The classifier keeps its own shadow state and never
                // reads the cache, so the probe's own miss bit is all
                // it needs.
                core::NicLookup nl = utlb.nicTranslate(start + i);
                if (warm) {
                    classifier.probe(page[i], nl.miss, res);
                    ++res.probes;
                    res.nicTime += nl.cost;
                    if (nl.miss) {
                        ++res.niMissProbes;
                        any_miss = true;
                    }
                }
            }
            if (warm && any_miss)
                ++res.niMissLookups;
        }

        if (cfg.auditEvery != 0 && seen % cfg.auditEvery == 0) {
            // Periodic self-check (--audit-every): re-derive every
            // structure's redundant state and abort on disagreement.
            check::AuditReport report;
            cache.audit(report);
            driver.audit(report);
            for (const auto &[pid, p] : procs)
                p.utlb->pinManager().audit(report);
            dieOnViolations(report, seen);
            ++res.audits;
        }
    }
    res.wallNs = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
    res.statsJson = runJson("utlb", cfg, res, root);
    return res;
}

SimResult
simulateIntr(const trace::Trace &trace, const SimConfig &cfg)
{
    SimResult res;
    if (trace.empty()) {
        sim::StatGroup root("intr");
        res.statsJson = runJson("intr", cfg, res, root);
        return res;
    }

    trace::PageIds ids = trace::indexPages(trace);
    mem::PhysMemory phys_mem(framesFor(ids.distinct));
    mem::PinFacility pins;
    nic::NicTimings timings;
    core::HostCosts costs(cfg.hostProfile);
    core::SharedUtlbCache cache(cfg.cache, timings);
    core::InterruptTlb intr(pins, cache, costs, timings);

    sim::StatGroup root("intr");
    root.adopt(cache.stats());
    root.adopt(intr.stats());
    root.adopt(pins.stats());

    sim::FlatMap<std::unique_ptr<mem::AddressSpace>> spaces;
    auto ensure_proc = [&](ProcId pid) {
        auto [space, fresh] = spaces.tryEmplace(pid);
        if (!fresh)
            return;
        *space = std::make_unique<mem::AddressSpace>(pid, phys_mem);
        pins.registerSpace(**space);
        if (cfg.memLimitPages != 0)
            pins.setPinLimit(pid, cfg.memLimitPages);
    };

    MissClassifier classifier(cfg.cache.entries, ids.distinct);

    // Page ids of each record from its touch offset, as above.
    std::size_t touch = 0;
    std::size_t seen = 0;
    auto wall_start = std::chrono::steady_clock::now();
    for (const auto &rec : trace) {
        ensure_proc(rec.pid);
        std::size_t npages = pagesSpanned(rec.va, rec.nbytes);
        const std::uint32_t *page = ids.touches.data() + touch;
        touch += npages;
        if (npages == 0)
            continue;
        bool warm = seen++ >= cfg.warmupLookups;
        if (warm)
            ++res.lookups;

        bool any_miss = false;
        Vpn start = pageOf(rec.va);
        for (std::size_t i = 0; i < npages; ++i) {
            core::IntrLookup lk = intr.translate(rec.pid, start + i);
            if (warm) {
                classifier.probe(page[i], lk.miss, res);
                ++res.probes;
                res.nicTime += lk.cost;
                if (lk.miss) {
                    ++res.niMissProbes;
                    any_miss = true;
                    ++res.interrupts;
                    ++res.pagesPinned;
                    res.pinTime += costs.kernelPinCost();
                }
                res.pagesUnpinned += lk.unpins;
                res.unpinTime += static_cast<sim::Tick>(lk.unpins)
                    * costs.kernelUnpinCost();
            }
            if (lk.failed) {
                sim::warn("Intr sim: pin failed for pid %u page "
                          "%llu", rec.pid,
                          static_cast<unsigned long long>(start + i));
            }
        }
        if (warm && any_miss)
            ++res.niMissLookups;

        if (cfg.auditEvery != 0 && seen % cfg.auditEvery == 0) {
            check::AuditReport report;
            cache.audit(report);
            intr.audit(report);
            pins.audit(report);
            dieOnViolations(report, seen);
            ++res.audits;
        }
    }
    res.wallNs = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
    res.statsJson = runJson("intr", cfg, res, root);
    return res;
}

} // namespace utlb::tlbsim
