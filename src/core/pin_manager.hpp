/**
 * @file
 * User-level pinned-page manager (§3.1, §3.3, §3.4, §6.5).
 *
 * The part of the UTLB user-level library that keeps pages pinned:
 * it tracks pin status in a bit vector, invokes the driver ioctl to
 * pin on demand (optionally pre-pinning a run of contiguous pages,
 * §6.5), and — when the process' physical memory allowance runs out —
 * selects victims with an application-chosen replacement policy and
 * unpins them one page at a time (§6.5: "unpinning is still done one
 * page at a time").
 *
 * Correctness: pages named in outstanding send requests can be
 * locked with lockRange(); the victim search skips locked pages
 * (§3.1: the library "must only select virtual pages that will not
 * be involved in any outstanding send requests").
 */

#ifndef UTLB_CORE_PIN_MANAGER_HPP
#define UTLB_CORE_PIN_MANAGER_HPP

#include <cstdint>
#include <memory>

#include "core/bitvector.hpp"
#include "core/driver.hpp"
#include "core/replacement.hpp"
#include "mem/page.hpp"
#include "sim/flat_map.hpp"
#include "sim/mutex.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace utlb::core {

class PinBudget;

/** Configuration of a process' pin manager. */
struct PinManagerConfig {
    /**
     * The library's own pin budget in pages (0 = unlimited). This is
     * the "amount of physical memory that a user process can pin"
     * (§3.4); the experiments use 4 MB (1024 pages) and 16 MB (4096
     * pages) budgets.
     */
    std::size_t memLimitPages = 0;

    /** Sequential pre-pin batch size (§6.5); 1 disables pre-pinning. */
    std::size_t prepinPages = 1;

    /** Replacement policy for victim selection (§3.4). */
    PolicyKind policy = PolicyKind::Lru;

    /** Seed for the RANDOM policy. */
    std::uint64_t seed = 12345;

    /**
     * Optional fleet-wide quota (src/core/pin_budget.hpp). When set,
     * the manager attaches on construction, detaches on destruction,
     * and treats PinBudget::limitFor() as a second pin budget next
     * to memLimitPages — the tighter of the two wins, and evictions
     * the quota forces count as quota_throttles. Must outlive the
     * manager. nullptr (the default) keeps behavior bit-identical to
     * the pre-quota library.
     */
    PinBudget *budget = nullptr;

    /** HardCap override for this tenant (0 = the pool default). */
    std::size_t quotaCapPages = 0;

    /** WeightedShare weight for this tenant (0 is remapped to 1). */
    std::size_t quotaWeight = 1;
};

/** Accounting of one ensurePinned() call. */
struct EnsureResult {
    bool ok = true;               //!< all pages pinned on return
    sim::Tick cost = 0;           //!< modeled host time (check+ioctls)
    sim::Tick pinCost = 0;        //!< portion spent in pin ioctls
    sim::Tick unpinCost = 0;      //!< portion spent in unpin ioctls
    bool checkMiss = false;       //!< some page was found unpinned
    std::size_t pagesPinned = 0;  //!< newly pinned (incl. pre-pins)
    std::size_t pagesUnpinned = 0;//!< evicted to make room
    std::size_t pinIoctls = 0;
    std::size_t unpinIoctls = 0;
};

/**
 * Per-process user-level pin manager.
 *
 * Invariant (checked by the test suite): the bit vector, the
 * replacement policy's tracked set, and the kernel pin facility's
 * per-process pin set agree at every quiescent point.
 *
 * Thread safety: single-threaded by default. After
 * enableConcurrent(), the mutating entry points and their read-side
 * counterparts (ensurePinned*, lockRange/unlockRange/isLocked,
 * isPinned/pinnedPages, releasePage) serialize on an internal
 * mutex, so overlapping pins, releases, and send-locks from many
 * threads stay coherent. The paper's library gets this atomicity
 * for free by running inside one process; the simulated one takes a
 * lock. bitVector(), policy(), stats(), and audit() remain
 * unlocked: call them only at quiescent points.
 */
class PinManager
{
  public:
    /** @pre @p pid is registered with @p drv, and stays so until
     *  this manager is destroyed. */
    PinManager(UtlbDriver &drv, mem::ProcId pid,
               const PinManagerConfig &cfg);

    /** Detaches from the shared PinBudget, if one was configured. */
    ~PinManager();

    PinManager(const PinManager &) = delete;
    PinManager &operator=(const PinManager &) = delete;

    mem::ProcId pid() const { return procId; }
    const PinManagerConfig &config() const { return cfg; }

    /**
     * Make the public entry points callable from many threads (see
     * class comment). Idempotent; call before spawning workers. The
     * uncontended lock is not charged to the modeled cost, so a
     * single-threaded caller sees bit-identical results and stats
     * with or without it. With @p shard, the manager's ioctls count
     * the driver's, the pin facility's and the cache's statistics
     * into it (see UtlbDriver::Shard); its owner folds it back.
     */
    void enableConcurrent(UtlbDriver::Shard *shard = nullptr);

    /** True once enableConcurrent() has run. */
    bool isConcurrent() const { return mu != nullptr; }

    /**
     * Guarantee [start, start+npages) is pinned with translations
     * installed, evicting other pages if the budget requires it. The
     * replacement policy hears of the request's pages in one
     * onAccessRange().
     */
    EnsureResult ensurePinned(mem::Vpn start, std::size_t npages);

    /** Mark pages as involved in an outstanding send. */
    void lockRange(mem::Vpn start, std::size_t npages);

    /** Release an outstanding-send lock. */
    void unlockRange(mem::Vpn start, std::size_t npages);

    /** True if @p vpn is locked against eviction. */
    bool isLocked(mem::Vpn vpn) const;

    /** True if the library believes @p vpn is pinned. */
    bool isPinned(mem::Vpn vpn) const;

    /** Number of pages this manager currently holds pinned. */
    std::size_t pinnedPages() const;

    /** Voluntarily unpin a page (e.g. on buffer free). */
    bool releasePage(mem::Vpn vpn);

    /** The pin-status bit vector (read-only). */
    const PinBitVector &bitVector() const { return bits; }

    /** The replacement policy (read-only access for tests). */
    const ReplacementPolicy &policy() const { return *repl; }

    /** @name Lifetime counters @{ */
    std::uint64_t totalChecks() const { return statChecks.value(); }
    std::uint64_t totalCheckMisses() const
    {
        return statCheckMisses.value();
    }
    std::uint64_t totalEvictions() const
    {
        return statEvictions.value();
    }
    std::uint64_t totalQuotaThrottles() const
    {
        return statQuotaThrottles.value();
    }
    /** @} */

    /** This manager's statistics subtree (policy group nested). */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /**
     * Invariant auditor: the bit vector's count agrees with its own
     * words and with the library's pin budget, every page the library
     * believes pinned is pinned in the kernel facility, and every
     * outstanding-send lock covers a pinned page (no in-flight DMA
     * may target an unpinned frame).
     */
    void audit(check::AuditReport &report) const;

  private:
    friend struct check::TestTamper;

    /**
     * The concurrent-mode lock, or an empty (unlocked) handle when
     * enableConcurrent() was never called. Public entry points hold
     * it and delegate to the unlocked *Impl internals — the slow
     * path re-enters lockRange/isLocked from inside itself, so the
     * internals must not re-acquire. Conditional acquisition is
     * outside the thread-safety analysis (see sim::OptionalLockGuard);
     * the lint's scoped-guard rule covers this file instead.
     */
    sim::OptionalLockGuard guard() const;

    void lockRangeImpl(mem::Vpn start, std::size_t npages);
    void unlockRangeImpl(mem::Vpn start, std::size_t npages);
    bool isLockedImpl(mem::Vpn vpn) const;

    /**
     * Evict one victim page to free budget, unpinning it through
     * @p drv (the caller's driver session).
     * @return false if nothing is evictable.
     */
    bool evictOne(UtlbDriver::Session &drv, EnsureResult &res);

    /**
     * Pin a contiguous run of currently-unpinned pages. The evictions
     * that make room and the pin that follows share one driver
     * session (one hold of this process' session lock).
     */
    bool pinRun(mem::Vpn start, std::size_t npages, EnsureResult &res);

    /**
     * ensurePinned's check-miss path: pins every unpinned run in the
     * request, skipping pinned stretches a 64-page bitmap word at a
     * time.
     */
    EnsureResult ensureSlow(mem::Vpn start, std::size_t npages,
                            mem::Vpn firstUnpinned, EnsureResult res);

    /** This process' driver entry, resolved once at construction
     *  (UtlbDriver::processShared): sessions never probe the
     *  directory that tenant churn rehashes. */
    UtlbDriver::Process *proc;
    mem::ProcId procId;

    PinManagerConfig cfg;
    /** Non-null once enableConcurrent() ran; mutable for guards in
     *  const readers (isLocked/isPinned/pinnedPages). Annotated
     *  capability type so any future direct use is analyzable. */
    mutable std::unique_ptr<sim::Mutex> mu;
    /** The shard enableConcurrent() was given, or null: where this
     *  manager's ioctls count. */
    UtlbDriver::Shard *drvShard = nullptr;
    PinBitVector bits;
    std::unique_ptr<ReplacementPolicy> repl;
    /** vpn -> outstanding-send lock count. */
    sim::FlatMap<std::uint32_t> locks;

    sim::StatGroup statsGrp{"pin_manager"};
    sim::Counter statChecks{&statsGrp, "checks",
                            "bit-vector range checks (one per "
                            "ensurePinned call)"};
    sim::Counter statCheckMisses{&statsGrp, "check_misses",
                                 "checks that found an unpinned page"};
    sim::Counter statEvictions{&statsGrp, "evictions",
                               "pages unpinned to free budget"};
    sim::Counter statQuotaThrottles{&statsGrp, "quota_throttles",
                                    "evictions forced by the shared "
                                    "tenant quota (subset of "
                                    "evictions)"};
    sim::Counter statPagesPinned{&statsGrp, "pages_pinned",
                                 "pages pinned (incl. pre-pins)"};
    sim::Histogram statEnsureLatency{
        &statsGrp, "ensure_latency_us",
        "modeled host-side cost per ensurePinned call", 50.0, 40};

    // Replacement-policy traffic, kept outside the ReplacementPolicy
    // interface so external policy implementations need no changes.
    sim::StatGroup statsPolicy{"policy", &statsGrp};
    sim::Counter statPolicyAccesses{&statsPolicy, "accesses",
                                    "onAccess notifications"};
    sim::Counter statPolicyVictims{&statsPolicy, "victim_requests",
                                   "victim selections requested"};
    sim::Counter statPolicyVictimFails{&statsPolicy, "victim_failures",
                                       "victim requests with no "
                                       "evictable page"};
};

} // namespace utlb::core

#endif // UTLB_CORE_PIN_MANAGER_HPP
