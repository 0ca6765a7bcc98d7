#include "core/pin_manager.hpp"

#include <algorithm>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "core/driver.hpp"
#include "sim/log.hpp"

namespace utlb::core {

using mem::PinStatus;
using mem::Vpn;
using sim::warn;

PinManager::PinManager(UtlbDriver &drv, mem::ProcId pid,
                       const PinManagerConfig &config)
    : proc(drv.processShared(pid)), procId(pid), cfg(config),
      repl(ReplacementPolicy::create(cfg.policy, cfg.seed))
{
    if (!proc)
        sim::panic("pin manager for unregistered process %u", pid);
}

void
PinManager::enableConcurrent(UtlbDriver::Shard *shard)
{
    if (!mu)
        mu = std::make_unique<sim::Mutex>();
    if (shard)
        drvShard = shard;
}

sim::OptionalLockGuard
PinManager::guard() const
{
    // Locks iff concurrent mode armed the mutex; the returned prvalue
    // is constructed in place (guaranteed elision), so exactly one
    // unlock happens when the caller's scope ends.
    return sim::OptionalLockGuard(mu.get());
}

void
PinManager::lockRange(Vpn start, std::size_t npages)
{
    auto g = guard();
    lockRangeImpl(start, npages);
}

void
PinManager::unlockRange(Vpn start, std::size_t npages)
{
    auto g = guard();
    unlockRangeImpl(start, npages);
}

bool
PinManager::isLocked(Vpn vpn) const
{
    auto g = guard();
    return isLockedImpl(vpn);
}

bool
PinManager::isPinned(Vpn vpn) const
{
    auto g = guard();
    return bits.test(vpn);
}

std::size_t
PinManager::pinnedPages() const
{
    auto g = guard();
    return bits.count();
}

void
PinManager::lockRangeImpl(Vpn start, std::size_t npages)
{
    for (std::size_t i = 0; i < npages; ++i)
        ++locks[start + i];
}

void
PinManager::unlockRangeImpl(Vpn start, std::size_t npages)
{
    for (std::size_t i = 0; i < npages; ++i) {
        std::uint32_t *count = locks.find(start + i);
        if (count && --*count == 0)
            locks.erase(start + i);
    }
}

bool
PinManager::isLockedImpl(Vpn vpn) const
{
    return locks.contains(vpn);
}

bool
PinManager::evictOne(UtlbDriver::Session &drv, EnsureResult &res)
{
    ++statPolicyVictims;
    auto victim = repl->victim(
        [this](Vpn vpn) { return !isLockedImpl(vpn); });
    if (!victim) {
        ++statPolicyVictimFails;
        return false;
    }
    // The policy only tracks pages this manager pinned; a victim the
    // bit vector does not know about means the two structures have
    // diverged.
    UTLB_ASSERT(bits.test(*victim),
                "eviction victim %llu is not marked pinned",
                static_cast<unsigned long long>(*victim));

    // Unpin one page at a time (§6.5).
    IoctlResult io = drv.unpinAndInvalidate(*victim, 1);
    res.cost += io.cost;
    res.unpinCost += io.cost;
    ++res.unpinIoctls;
    if (io.status != PinStatus::Ok || io.pagesDone != 1) {
        warn("eviction unpin of page %llu failed (%s)",
             static_cast<unsigned long long>(*victim),
             toString(io.status));
        return false;
    }
    bits.clear(*victim);
    repl->onRemove(*victim);
    res.pagesUnpinned += 1;
    ++statEvictions;
    return true;
}

bool
PinManager::pinRun(Vpn start, std::size_t npages, EnsureResult &res)
{
    // One session for the evictions and the pin. Lock order: this
    // manager's mutex (held by the caller), then the driver session.
    UtlbDriver::Session drv(*proc, drvShard);

    // Make room under the library's own budget first.
    while (cfg.memLimitPages != 0
           && bits.count() + npages > cfg.memLimitPages) {
        if (!evictOne(drv, res))
            return false;
    }

    while (true) {
        IoctlResult io = drv.pinAndInstall(start, npages);
        res.cost += io.cost;
        res.pinCost += io.cost;
        ++res.pinIoctls;
        if (io.status == PinStatus::Ok) {
            for (std::size_t i = 0; i < npages; ++i) {
                bits.set(start + i);
                repl->onInsert(start + i);
            }
            res.pagesPinned += npages;
            statPagesPinned += npages;
            return true;
        }
        if (io.status == PinStatus::LimitExceeded
            || io.status == PinStatus::OutOfMemory) {
            // The kernel's limit may be tighter than the library's
            // notion; evict and retry.
            if (!evictOne(drv, res))
                return false;
            continue;
        }
        return false;
    }
}

EnsureResult
PinManager::ensurePinned(Vpn start, std::size_t npages)
{
    auto g = guard();
    // One named result on every path, built in place in the caller's
    // slot: a second return expression would turn off the elision
    // and copy it out on every check.
    EnsureResult res;
    ++statChecks;

    CheckResult check = bits.checkRange(start, npages);
    res.cost += check.cost;

    if (check.allPinned) {
        repl->onAccessRange(start, npages);
        statPolicyAccesses += npages;
    } else {
        ensureSlow(start, npages, check.firstUnpinned, res);
    }
    statEnsureLatency.sample(sim::ticksToUs(res.cost));
    return res;
}

void
PinManager::ensureSlow(Vpn start, std::size_t npages, Vpn firstUnpinned,
                       EnsureResult &res)
{
    res.checkMiss = true;
    ++statCheckMisses;
    UTLB_ASSERT(firstUnpinned >= start && firstUnpinned < start + npages,
                "checkRange reported first unpinned page %llu outside "
                "[%llu, +%zu)",
                static_cast<unsigned long long>(firstUnpinned),
                static_cast<unsigned long long>(start), npages);

    // The request's own pages must never be chosen as eviction
    // victims while we pin the rest of it (§3.1's rule generalized:
    // a page that this very lookup needs is "outstanding").
    lockRangeImpl(start, npages);

    // Pin each maximal run of unpinned pages within the request,
    // locating run boundaries a bitmap word at a time.
    std::size_t i = static_cast<std::size_t>(firstUnpinned - start);
    while (i < npages) {
        if (bits.test(start + i)) {
            // Skip (and touch) the whole pinned stretch.
            std::size_t len = npages - i;
            if (auto clear = bits.firstClearInRange(start + i,
                                                    npages - i)) {
                len = static_cast<std::size_t>(*clear - (start + i));
            }
            repl->onAccessRange(start + i, len);
            statPolicyAccesses += len;
            i += len;
            continue;
        }
        // Extent of this unpinned run, optionally extended past the
        // request by sequential pre-pinning (§6.5): "the user library
        // tries to pin a number of contiguous pages starting with
        // that page".
        std::size_t horizon = std::max(npages - i, cfg.prepinPages);
        std::size_t run = horizon;
        if (horizon > 1) {
            if (auto set = bits.firstSetInRange(start + i + 1,
                                                horizon - 1)) {
                run = static_cast<std::size_t>(*set - (start + i));
            }
        }

        if (!pinRun(start + i, run, res)) {
            res.ok = false;
            unlockRangeImpl(start, npages);
            return;
        }
        i += run;
    }
    unlockRangeImpl(start, npages);

    // Touch all requested pages for recency/frequency accounting.
    repl->onAccessRange(start, npages);
    statPolicyAccesses += npages;
}

bool
PinManager::releasePage(Vpn vpn)
{
    auto g = guard();
    if (!bits.test(vpn))
        return false;
    IoctlResult io = UtlbDriver::Session(*proc, drvShard)
                         .unpinAndInvalidate(vpn, 1);
    if (io.status != PinStatus::Ok || io.pagesDone != 1)
        return false;
    bits.clear(vpn);
    repl->onRemove(vpn);
    return true;
}

void
PinManager::audit(check::AuditReport &report) const
{
    bits.audit(report);

    report.component("pin-manager", procId);
    if (cfg.memLimitPages != 0) {
        report.require(bits.count() <= cfg.memLimitPages,
                       "%zu pinned pages exceed the %zu-page budget",
                       bits.count(), cfg.memLimitPages);
    }

    const mem::PinFacility &pins = proc->driver().pinFacility();
    bits.forEachSet([&](mem::Vpn vpn) {
        report.require(pins.isPinned(procId, vpn),
                       "page %llu marked pinned in the bit vector but "
                       "not pinned in the kernel",
                       static_cast<unsigned long long>(vpn));
    });
    // Other users of the facility (per-process tables, exports) may
    // hold extra pins, but never fewer than the bit vector claims.
    report.require(pins.pinnedPages(procId) >= bits.count(),
                   "kernel holds %zu pinned pages but the bit vector "
                   "claims %zu",
                   pins.pinnedPages(procId), bits.count());

    for (const auto &[vpn, refcount] : locks) {
        report.require(refcount > 0,
                       "outstanding-send lock on page %llu has a zero "
                       "count",
                       static_cast<unsigned long long>(vpn));
        // §3.1: pages named in outstanding sends stay pinned until
        // the send completes — in-flight DMA must never target an
        // unpinned frame.
        report.require(bits.test(vpn) && pins.isPinned(procId, vpn),
                       "page %llu is locked for in-flight DMA but is "
                       "not pinned",
                       static_cast<unsigned long long>(vpn));
    }
}

} // namespace utlb::core
