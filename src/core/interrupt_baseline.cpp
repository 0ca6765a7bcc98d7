#include "core/interrupt_baseline.hpp"

#include "check/audit.hpp"
#include "sim/log.hpp"

namespace utlb::core {

using mem::PinStatus;
using mem::ProcId;
using mem::Vpn;

ReplacementPolicy &
InterruptTlb::cachedOf(ProcId pid)
{
    if (lastList && lastPid == pid)
        return *lastList;
    auto [list, fresh] = cached.tryEmplace(pid);
    if (fresh)
        *list = ReplacementPolicy::create(PolicyKind::Lru);
    lastPid = pid;
    lastList = list->get();
    return *lastList;
}

std::optional<EvictedEntry>
InterruptTlb::shedLru(ProcId pid, ReplacementPolicy &lru)
{
    // The list head is the process' least recently used line. A page
    // whose line something else already dropped (a process teardown's
    // invalidateProcess, a whole-cache clear) is skipped.
    while (auto vpn = lru.victim({})) {
        lru.onRemove(*vpn);
        if (auto shed = nicCache->shed(pid, *vpn))
            return shed;
    }
    return std::nullopt;
}

void
InterruptTlb::unpinEvicted(const EvictedEntry &ev, IntrLookup &out)
{
    if (auto *owner = cached.find(ev.pid))
        (*owner)->onRemove(ev.vpn);
    // Eviction from the NIC cache unpins the page — the defining
    // behaviour of this approach [Basu et al. 97].
    pins->unpinPage(ev.pid, ev.vpn);
    out.cost += costs->kernelUnpinCost();
    ++out.unpins;
    ++statUnpins;
}

IntrLookup
InterruptTlb::translate(ProcId pid, Vpn vpn)
{
    IntrLookup out = translateImpl(pid, vpn);
    statLookupLatency.sample(sim::ticksToUs(out.cost));
    return out;
}

IntrLookup
InterruptTlb::translateImpl(ProcId pid, Vpn vpn)
{
    IntrLookup out;
    ++statLookups;

    ReplacementPolicy &lru = cachedOf(pid);
    CacheProbe probe = nicCache->lookup(pid, vpn);
    out.cost += probe.cost;
    if (probe.hit) {
        lru.onAccess(vpn);
        out.pfn = probe.pfn;
        return out;
    }

    // Miss: interrupt the host; the handler pins the page and
    // installs the translation.
    out.miss = true;
    ++statMisses;
    ++statInterrupts;
    out.cost += costs->interruptCost();

    std::optional<mem::Pfn> frame;
    while (true) {
        PinStatus st = PinStatus::Ok;
        frame = pins->pinPage(pid, vpn, &st);
        if (frame)
            break;
        if (st == PinStatus::LimitExceeded
            || st == PinStatus::OutOfMemory) {
            // Pinning is tied to cache residency: shed this
            // process' LRU cached page and retry.
            auto shed = shedLru(pid, lru);
            if (!shed) {
                out.failed = true;
                out.cost += costs->kernelPinCost();
                return out;
            }
            unpinEvicted(*shed, out);
            continue;
        }
        out.failed = true;
        return out;
    }
    out.cost += costs->kernelPinCost();

    auto evicted = nicCache->insert(pid, vpn, *frame);
    // A page still listed lost its line to something other than this
    // baseline (see shedLru); re-listing it as most recent matches
    // the fresh stamp.
    if (lru.contains(vpn))
        lru.onAccess(vpn);
    else
        lru.onInsert(vpn);
    if (evicted)
        unpinEvicted(*evicted, out);

    out.pfn = *frame;
    return out;
}

void
InterruptTlb::audit(check::AuditReport &report) const
{
    for (const auto &[key, lru] : cached) {
        auto pid = static_cast<ProcId>(key);
        report.component("interrupt-tlb", pid);
        report.require(lru->size() == nicCache->occupancyOf(pid),
                       "LRU list names %zu pages but the process caches "
                       "%zu lines",
                       lru->size(), nicCache->occupancyOf(pid));
        // victim() walks the list from its head; a predicate that
        // never accepts visits every listed page.
        lru->victim([&](Vpn vpn) {
            report.require(nicCache->peek(pid, vpn).has_value(),
                           "listed page %llu has no cache line",
                           static_cast<unsigned long long>(vpn));
            return false;
        });
    }
}

} // namespace utlb::core
