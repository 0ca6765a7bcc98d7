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
    auto [it, inserted] = procs.try_emplace(space.pid());
    if (!inserted && it->second.space != &space)
        panic("process %u registered twice with different spaces",
              space.pid());
    it->second.space = &space;
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

PinFacility::ProcState *
PinFacility::findProc(ProcId pid)
{
    auto it = procs.find(pid);
    return it == procs.end() ? nullptr : &it->second;
}

const PinFacility::ProcState *
PinFacility::findProc(ProcId pid) const
{
    auto it = procs.find(pid);
    return it == procs.end() ? nullptr : &it->second;
}

std::optional<Pfn>
PinFacility::pinPage(ProcId pid, Vpn vpn, PinStatus *st)
{
    ++statPinOps;
    auto set_st = [&](PinStatus s) { if (st) *st = s; };

    auto *p = findProc(pid);
    if (!p) {
        ++statFailedPins;
        set_st(PinStatus::UnknownProcess);
        return std::nullopt;
    }

    auto it = p->refs.find(vpn);
    if (it != p->refs.end()) {
        ++it->second;
        set_st(PinStatus::Ok);
        return p->space->lookup(vpn);
    }

    if (p->limit != 0 && p->refs.size() >= p->limit) {
        ++statFailedPins;
        set_st(PinStatus::LimitExceeded);
        return std::nullopt;
    }

    auto pfn = p->space->touch(vpn);
    if (!pfn) {
        ++statFailedPins;
        set_st(PinStatus::OutOfMemory);
        return std::nullopt;
    }

    p->refs.emplace(vpn, 1);
    ++statPagesPinned;
    set_st(PinStatus::Ok);
    return pfn;
}

std::optional<std::vector<Pfn>>
PinFacility::pinRange(ProcId pid, Vpn start, std::size_t npages,
                      PinStatus *st)
{
    auto *p = findProc(pid);
    std::vector<Pfn> frames;
    std::vector<bool> freshly_mapped;
    frames.reserve(npages);
    freshly_mapped.reserve(npages);
    for (std::size_t i = 0; i < npages; ++i) {
        bool was_mapped =
            p && p->space->lookup(start + i).has_value();
        PinStatus s = PinStatus::Ok;
        auto pfn = pinPage(pid, start + i, &s);
        if (!pfn) {
            // Roll back: all-or-nothing semantics. Pages this call
            // demand-mapped purely to pin them are unmapped again so
            // a failed pin does not strand physical frames.
            for (std::size_t j = i; j-- > 0;) {
                unpinPage(pid, start + j);
                if (freshly_mapped[j] && !isPinned(pid, start + j))
                    p->space->unmap(start + j);
            }
            if (st)
                *st = s;
            return std::nullopt;
        }
        frames.push_back(*pfn);
        freshly_mapped.push_back(!was_mapped);
    }
    if (st)
        *st = PinStatus::Ok;
    return frames;
}

PinStatus
PinFacility::unpinPage(ProcId pid, Vpn vpn)
{
    ++statUnpinOps;
    auto *p = findProc(pid);
    if (!p)
        return PinStatus::UnknownProcess;
    auto it = p->refs.find(vpn);
    if (it == p->refs.end())
        return PinStatus::NotPinned;
    if (--it->second == 0) {
        p->refs.erase(it);
        ++statPagesUnpinned;
    }
    return PinStatus::Ok;
}

bool
PinFacility::isPinned(ProcId pid, Vpn vpn) const
{
    const auto *p = findProc(pid);
    return p && p->refs.count(vpn) > 0;
}

std::uint32_t
PinFacility::pinRefs(ProcId pid, Vpn vpn) const
{
    const auto *p = findProc(pid);
    if (!p)
        return 0;
    auto it = p->refs.find(vpn);
    return it == p->refs.end() ? 0 : it->second;
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
    if (!p || !p->refs.count(vpn))
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
