/**
 * @file
 * The interrupt-based address translation baseline (§2, §6.2).
 *
 * Models the UNet-MM-style approach the paper compares against: the
 * NIC holds a translation cache; on a miss it interrupts the host
 * CPU, which pins the page and installs the translation; "the
 * interrupt-based approach always unpins a page that is evicted from
 * the network interface translation cache". There is no user-level
 * check and no host-resident translation table — pinning is tied to
 * cache residency, which is precisely why it unpins so much more
 * than UTLB (Tables 4 and 5).
 *
 * Costs (§6.2 equations): every lookup pays ni_check; a miss adds
 * intr_cost + kernel_pin_cost; each eviction-driven unpin adds
 * kernel_unpin_cost (kernel-mode work needs no protection-domain
 * crossing, so the in-kernel pin/unpin constants are used, not the
 * ioctl batch curve).
 *
 * Shedding: when the pin limit (or host memory) refuses a pin, the
 * handler sheds the process' least recently used cached page. Each
 * process keeps an LRU list of the pages it has cached, updated on
 * every hit, install and removal, so the victim is the list head
 * rather than the result of a scan over the whole cache. The head is
 * exactly the line with the oldest cache recency stamp: a page is
 * pinned exactly while it is cached, and the cache stamps a line
 * only on a lookup hit or a demand install, the two events that move
 * a page to the list tail.
 */

#ifndef UTLB_CORE_INTERRUPT_BASELINE_HPP
#define UTLB_CORE_INTERRUPT_BASELINE_HPP

#include <cstdint>
#include <memory>

#include "core/cost_model.hpp"
#include "core/replacement.hpp"
#include "core/shared_cache.hpp"
#include "mem/pinning.hpp"
#include "nic/timing.hpp"
#include "sim/flat_map.hpp"
#include "sim/stats.hpp"

namespace utlb::check {
class AuditReport;
} // namespace utlb::check

namespace utlb::core {

/** Outcome of one interrupt-based translation. */
struct IntrLookup {
    mem::Pfn pfn = mem::kInvalidPfn;
    sim::Tick cost = 0;
    bool miss = false;
    std::size_t unpins = 0;   //!< eviction-driven unpins this lookup
    bool failed = false;      //!< pin impossible (hard OOM)
};

/**
 * Interrupt-based translation mechanism shared by all processes on
 * a node (one NIC cache, host pinning per process).
 */
class InterruptTlb
{
  public:
    InterruptTlb(mem::PinFacility &pin_facility, SharedUtlbCache &cache,
                 const HostCosts &host_costs,
                 const nic::NicTimings &timings)
        : pins(&pin_facility), nicCache(&cache), costs(&host_costs),
          nicTimings(&timings)
    {}

    InterruptTlb(const InterruptTlb &) = delete;
    InterruptTlb &operator=(const InterruptTlb &) = delete;

    /** Translate one page for @p pid. */
    IntrLookup translate(mem::ProcId pid, mem::Vpn vpn);

    /** @name Lifetime counters @{ */
    std::uint64_t lookups() const { return statLookups.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    std::uint64_t interrupts() const { return statInterrupts.value(); }
    std::uint64_t unpins() const { return statUnpins.value(); }
    /** @} */

    /** This baseline's statistics subtree. */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /**
     * Invariant auditor: every process' LRU list names exactly the
     * lines it has in the cache.
     */
    void audit(check::AuditReport &report) const;

  private:
    IntrLookup translateImpl(mem::ProcId pid, mem::Vpn vpn);

    /** @p pid's LRU list of cached pages, created on first use. */
    ReplacementPolicy &cachedOf(mem::ProcId pid);

    /** Shed @p pid's least recently used cached page. */
    std::optional<EvictedEntry> shedLru(mem::ProcId pid,
                                        ReplacementPolicy &lru);

    /** A line left the cache: drop it from its owner's list and
     *  unpin its page. */
    void unpinEvicted(const EvictedEntry &ev, IntrLookup &out);

    mem::PinFacility *pins;
    SharedUtlbCache *nicCache;
    const HostCosts *costs;
    const nic::NicTimings *nicTimings;

    /** Per-process LRU lists of cached pages (see the file comment). */
    sim::FlatMap<std::unique_ptr<ReplacementPolicy>> cached;
    /** The last list cachedOf() returned, and its pid. */
    ReplacementPolicy *lastList = nullptr;
    mem::ProcId lastPid = 0;

    sim::StatGroup statsGrp{"interrupt_tlb"};
    sim::Counter statLookups{&statsGrp, "lookups",
                             "translations requested"};
    sim::Counter statMisses{&statsGrp, "misses",
                            "NIC cache misses"};
    sim::Counter statInterrupts{&statsGrp, "interrupts",
                                "host interrupts raised"};
    sim::Counter statUnpins{&statsGrp, "unpins",
                            "eviction-driven unpins"};
    sim::Histogram statLookupLatency{&statsGrp, "lookup_latency_us",
                                     "modeled per-page translation "
                                     "latency", 100.0, 25};
};

} // namespace utlb::core

#endif // UTLB_CORE_INTERRUPT_BASELINE_HPP
