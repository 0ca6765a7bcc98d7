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
                    bool *mapped_now)
{
    ++statPinOps;
    if (!p) {
        ++statFailedPins;
        st = PinStatus::UnknownProcess;
        return std::nullopt;
    }

    if (std::uint32_t *refs = p->refs.find(vpn)) {
        ++*refs;
        st = PinStatus::Ok;
        return p->space->lookup(vpn);
    }

    if (p->limit != 0 && p->refs.size() >= p->limit) {
        ++statFailedPins;
        st = PinStatus::LimitExceeded;
        return std::nullopt;
    }

    auto pfn = p->space->touch(vpn, mapped_now);
    if (!pfn) {
        ++statFailedPins;
        st = PinStatus::OutOfMemory;
        return std::nullopt;
    }

    p->refs[vpn] = 1;
    ++statPagesPinned;
    st = PinStatus::Ok;
    return pfn;
}

std::optional<Pfn>
PinFacility::pinPage(ProcId pid, Vpn vpn, PinStatus *st)
{
    PinStatus s = PinStatus::Ok;
    auto pfn = pinOne(findProc(pid), vpn, s, nullptr);
    if (st)
        *st = s;
    return pfn;
}

PinStatus
PinFacility::pinRange(ProcId pid, Vpn start, std::size_t npages,
                      PageBuf &frames, PageBuf &mapped)
{
    frames.clear();
    mapped.clear();
    ProcState *p = findProc(pid);
    for (std::size_t i = 0; i < npages; ++i) {
        PinStatus st = PinStatus::Ok;
        bool fresh = false;
        auto pfn = pinOne(p, start + i, st, &fresh);
        if (!pfn) {
            // Roll back: all-or-nothing semantics. Pages this call
            // demand-mapped purely to pin them are unmapped again so
            // a failed pin does not strand physical frames.
            for (std::size_t j = i; j-- > 0;)
                unpinPage(pid, start + j);
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
PinFacility::unpinPage(ProcId pid, Vpn vpn)
{
    ++statUnpinOps;
    auto *p = findProc(pid);
    if (!p)
        return PinStatus::UnknownProcess;
    std::uint32_t *refs = p->refs.find(vpn);
    if (!refs)
        return PinStatus::NotPinned;
    if (--*refs == 0) {
        p->refs.erase(vpn);
        ++statPagesUnpinned;
    }
    return PinStatus::Ok;
}

bool
PinFacility::isPinned(ProcId pid, Vpn vpn) const
{
    const auto *p = findProc(pid);
    return p && p->refs.contains(vpn);
}

std::uint32_t
PinFacility::pinRefs(ProcId pid, Vpn vpn) const
{
    const auto *p = findProc(pid);
    if (!p)
        return 0;
    const std::uint32_t *refs = p->refs.find(vpn);
    return refs ? *refs : 0;
}

std::size_t
PinFacility::pinnedPages(ProcId pid) const
{
    const auto *p = findProc(pid);
    return p ? p->refs.size() : 0;
}

std::optional<Pfn>
PinFacility::pinnedFrame(ProcId pid, Vpn vpn) const
{
    const auto *p = findProc(pid);
    if (!p || !p->refs.contains(vpn))
        return std::nullopt;
    return p->space->lookup(vpn);
}

void
PinFacility::audit(check::AuditReport &report) const
{
    for (const auto &[pid, p] : procs) {
        report.component("pin-facility", pid);
        report.require(p.space != nullptr,
                       "registered process has no address space");
        // No refs.size() <= limit check here: setPinLimit() allows
        // lowering the limit below the current count, so that state
        // is legal. Budget overflow is PinManager::audit's job (its
        // budget is fixed at construction).
        for (const auto &[vpn, refcount] : p.refs) {
            report.require(refcount > 0,
                           "page %llu carries a zero pin refcount",
                           static_cast<unsigned long long>(vpn));
            if (!p.space)
                continue;
            auto pfn = p.space->lookup(vpn);
            report.require(pfn.has_value(),
                           "pinned page %llu has no mapping",
                           static_cast<unsigned long long>(vpn));
        }
    }
}

} // namespace utlb::mem
