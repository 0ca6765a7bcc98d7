#include "mem/pinning.hpp"

#include "check/audit.hpp"
#include "sim/log.hpp"

namespace utlb::mem {

using sim::panic;

const char *
toString(PinStatus s)
{
    switch (s) {
      case PinStatus::Ok:             return "Ok";
      case PinStatus::LimitExceeded:  return "LimitExceeded";
      case PinStatus::OutOfMemory:    return "OutOfMemory";
      case PinStatus::UnknownProcess: return "UnknownProcess";
      case PinStatus::NotPinned:      return "NotPinned";
    }
    return "?";
}

void
PinFacility::registerSpace(AddressSpace &space)
{
    auto [p, inserted] = procs.tryEmplace(space.pid());
    if (!inserted && p->space != &space)
        panic("process %u registered twice with different spaces",
              space.pid());
    p->space = &space;
}

void
PinFacility::unregisterProcess(ProcId pid)
{
    ProcState *p = findProc(pid);
    if (!p)
        return;
    if (p->pinned != 0)
        p->space->clearPins();
    procs.erase(pid);
}

void
PinFacility::setPinLimit(ProcId pid, std::size_t pages)
{
    auto *p = findProc(pid);
    if (!p)
        panic("setPinLimit for unknown process %u", pid);
    p->limit = pages;
}

std::size_t
PinFacility::pinLimit(ProcId pid) const
{
    const auto *p = findProc(pid);
    return p ? p->limit : 0;
}

std::optional<Pfn>
PinFacility::pinOne(ProcState *p, Vpn vpn, PinStatus &st,
                    bool *mapped_now, Shard *sh)
{
    sim::countInto(statPinOps, &Shard::pinOps, sh);
    if (!p) {
        sim::countInto(statFailedPins, &Shard::failedPins, sh);
        st = PinStatus::UnknownProcess;
        return std::nullopt;
    }

    AddressSpace::Pte &e = p->space->entry(vpn);
    if (e.pins != 0) {
        ++e.pins;
        st = PinStatus::Ok;
        return e.frame();
    }

    // The limit is checked before the page is demand-mapped, so a
    // rejected pin allocates no frame.
    if (p->limit != 0 && p->pinned >= p->limit) {
        sim::countInto(statFailedPins, &Shard::failedPins, sh);
        st = PinStatus::LimitExceeded;
        return std::nullopt;
    }

    bool fresh = !e.mapped();
    if (fresh && !p->space->mapFresh(e)) {
        sim::countInto(statFailedPins, &Shard::failedPins, sh);
        st = PinStatus::OutOfMemory;
        return std::nullopt;
    }
    if (mapped_now)
        *mapped_now = fresh;

    e.pins = 1;
    ++p->pinned;
    sim::countInto(statPagesPinned, &Shard::pagesPinned, sh);
    st = PinStatus::Ok;
    return e.frame();
}

std::optional<Pfn>
PinFacility::pinPage(ProcId pid, Vpn vpn, PinStatus *st)
{
    PinStatus s = PinStatus::Ok;
    auto pfn = pinOne(findProc(pid), vpn, s, nullptr, nullptr);
    if (st)
        *st = s;
    return pfn;
}

PinStatus
PinFacility::pinRange(ProcId pid, Vpn start, std::size_t npages,
                      PageBuf &frames, PageBuf &mapped, Shard *sh)
{
    frames.clear();
    mapped.clear();
    ProcState *p = findProc(pid);
    for (std::size_t i = 0; i < npages; ++i) {
        PinStatus st = PinStatus::Ok;
        bool fresh = false;
        auto pfn = pinOne(p, start + i, st, &fresh, sh);
        if (!pfn) {
            // Roll back: all-or-nothing semantics. Pages this call
            // demand-mapped purely to pin them are unmapped again so
            // a failed pin does not strand physical frames.
            for (std::size_t j = i; j-- > 0;)
                unpinPage(pid, start + j, sh);
            for (std::size_t k = mapped.size(); k-- > 0;)
                p->space->unmap(mapped[k]);
            frames.clear();
            mapped.clear();
            return st;
        }
        frames.push_back(*pfn);
        if (fresh)
            mapped.push_back(start + i);
    }
    return PinStatus::Ok;
}

PinStatus
PinFacility::unpinPage(ProcId pid, Vpn vpn, Shard *sh)
{
    sim::countInto(statUnpinOps, &Shard::unpinOps, sh);
    auto *p = findProc(pid);
    if (!p)
        return PinStatus::UnknownProcess;
    AddressSpace::Pte *e = p->space->find(vpn);
    if (!e || e->pins == 0)
        return PinStatus::NotPinned;
    if (--e->pins == 0) {
        --p->pinned;
        sim::countInto(statPagesUnpinned, &Shard::pagesUnpinned, sh);
    }
    return PinStatus::Ok;
}

void
PinFacility::absorbShard(Shard &sh)
{
    statPinOps.absorb(sh.pinOps);
    statUnpinOps.absorb(sh.unpinOps);
    statPagesPinned.absorb(sh.pagesPinned);
    statPagesUnpinned.absorb(sh.pagesUnpinned);
    statFailedPins.absorb(sh.failedPins);
}

const AddressSpace::Pte *
PinFacility::pinnedEntry(ProcId pid, Vpn vpn) const
{
    const auto *p = findProc(pid);
    if (!p)
        return nullptr;
    const AddressSpace::Pte *e = p->space->find(vpn);
    return e && e->pins != 0 ? e : nullptr;
}

bool
PinFacility::isPinned(ProcId pid, Vpn vpn) const
{
    return pinnedEntry(pid, vpn) != nullptr;
}

std::uint32_t
PinFacility::pinRefs(ProcId pid, Vpn vpn) const
{
    const AddressSpace::Pte *e = pinnedEntry(pid, vpn);
    return e ? e->pins : 0;
}

std::size_t
PinFacility::pinnedPages(ProcId pid) const
{
    const auto *p = findProc(pid);
    return p ? p->pinned : 0;
}

std::optional<Pfn>
PinFacility::pinnedFrame(ProcId pid, Vpn vpn) const
{
    const AddressSpace::Pte *e = pinnedEntry(pid, vpn);
    if (!e)
        return std::nullopt;
    return e->frame();
}

void
PinFacility::audit(check::AuditReport &report) const
{
    for (const auto &[pid, p] : procs) {
        report.component("pin-facility", pid);
        report.require(p.space != nullptr,
                       "registered process has no address space");
        // No pinned <= limit check here: setPinLimit() allows
        // lowering the limit below the current count, so that state
        // is legal. Budget overflow is PinManager::audit's job (its
        // budget is fixed at construction).
        //
        // No per-page checks either: a pin count lives in the page's
        // own table entry, so "a pinned page has a positive refcount
        // and a mapping" holds by construction (a zero count is an
        // unpinned page, and AddressSpace asserts it never unmaps a
        // pinned one). What can drift is the per-process total.
        if (!p.space)
            continue;
        std::size_t counted = p.space->countPinned();
        report.require(counted == p.pinned,
                       "%zu pinned pages counted, %zu page-table "
                       "entries pinned", p.pinned, counted);
    }
}

} // namespace utlb::mem
