#include "core/driver.hpp"

#include <utility>

#include "check/audit.hpp"
#include "sim/log.hpp"

namespace utlb::core {

using mem::PinStatus;
using mem::ProcId;
using mem::Vpn;
using sim::fatal;
using sim::panic;

UtlbDriver::UtlbDriver(mem::PhysMemory &host_mem,
                       mem::PinFacility &pin_facility,
                       nic::Sram &board_sram, SharedUtlbCache &cache,
                       const HostCosts &costs)
    : hostMem(&host_mem), pins(&pin_facility), sram(&board_sram),
      nicCache(&cache), hostCosts(&costs)
{
    // "The device driver allocates and pins a 'garbage' page" (§4.2).
    auto frame = hostMem->allocFrame(kKernelPid);
    if (!frame)
        fatal("no physical memory for the driver garbage page");
    garbagePfn = *frame;
}

UtlbDriver::~UtlbDriver()
{
    hostMem->freeFrame(garbagePfn);
}

// Quiescent-only probe (class comment): the unlocked accessors read
// the directory by the same temporal contract their references
// carry. Invisible to the static analysis.
const UtlbDriver::DirEntry *
UtlbDriver::findEntry(ProcId pid) const UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    return std::as_const(dir).find(pid);
}

void
UtlbDriver::registerProcess(mem::AddressSpace &space)
{
    ProcId pid = space.pid();
    if (pid == kKernelPid || pid == mem::kNoOwner)
        panic("pid %u is reserved", pid);
    sim::LockGuard lk(mu);
    auto [e, inserted] = dir.tryEmplace(pid);
    if (!inserted)
        panic("process %u registered with the driver twice", pid);
    pins->registerSpace(space);
    e->table = std::make_unique<HostPageTable>(*hostMem, pid, sram);
    e->space = &space;
    statsGrp.adopt(e->table->stats());
}

void
UtlbDriver::unregisterProcess(ProcId pid)
{
    sim::LockGuard lk(mu);
    nicCache->invalidateProcess(pid);
    mem::AddressSpace *space = nullptr;
    if (DirEntry *e = findEntryLocked(pid)) {
        statsGrp.disown(e->table->stats());
        space = e->space;
        dir.erase(pid);
    }
    pins->unregisterProcess(pid);
    if (space)
        space->unmapAll();
}

bool
UtlbDriver::isRegistered(ProcId pid) const
{
    sim::LockGuard lk(mu);
    return dir.contains(pid);
}

// Quiescent-only accessor (class comment): hands out a reference that
// outlives any lock scope, so locking here would promise nothing.
HostPageTable &
UtlbDriver::pageTable(ProcId pid)
{
    const DirEntry *e = findEntry(pid);
    if (!e)
        panic("pageTable of unregistered process %u", pid);
    return *e->table;
}

// The lock covers only the directory probe: the table it resolves
// is heap-owned by the entry's unique_ptr, so a concurrent rehash
// moving the entry leaves the table object in place (see header).
HostPageTable *
UtlbDriver::pageTableShared(ProcId pid)
{
    sim::LockGuard lk(mu);
    DirEntry *e = findEntryLocked(pid);
    return e ? e->table.get() : nullptr;
}

// The Session methods run while their Session's LockGuard member
// holds the driver mutex; assertHeld() carries that fact into each
// body for the static analysis.
IoctlResult
UtlbDriver::Session::pinAndInstall(ProcId pid, Vpn start,
                                   std::size_t npages)
{
    drv->mu.assertHeld();
    return drv->recordLocked(drv->pinAndInstallLocked(pid, start, npages));
}

IoctlResult
UtlbDriver::Session::unpinAndInvalidate(ProcId pid, Vpn start,
                                        std::size_t npages)
{
    drv->mu.assertHeld();
    return drv->recordLocked(
        drv->unpinAndInvalidateLocked(pid, start, npages));
}

IoctlResult
UtlbDriver::Session::pinAtIndex(ProcId pid, Vpn vpn, UtlbIndex index)
{
    drv->mu.assertHeld();
    return drv->recordLocked(drv->pinAtIndexLocked(pid, vpn, index));
}

IoctlResult
UtlbDriver::Session::unpinIndex(ProcId pid, Vpn vpn, UtlbIndex index)
{
    drv->mu.assertHeld();
    return drv->recordLocked(drv->unpinIndexLocked(pid, vpn, index));
}

IoctlResult
UtlbDriver::ioctlPinAndInstall(ProcId pid, Vpn start, std::size_t npages)
{
    Session s(*this);
    return s.pinAndInstall(pid, start, npages);
}

IoctlResult
UtlbDriver::pinAndInstallLocked(ProcId pid, Vpn start,
                                std::size_t npages)
{
    ++statIoctls;
    IoctlResult res;
    DirEntry *e = findEntryLocked(pid);
    if (!e) {
        res.status = PinStatus::UnknownProcess;
        return res;
    }
    if (npages == 0)
        return res;

    PinStatus st =
        pins->pinRange(pid, start, npages, pinFrames, pinMapped);
    if (st != PinStatus::Ok) {
        res.status = st;
        // A rejected ioctl still costs the syscall entry; charge the
        // one-page pin floor as a conservative model.
        res.cost = hostCosts->pinCost(1);
        return res;
    }

    HostPageTable &table = *e->table;
    for (std::size_t i = 0; i < npages; ++i) {
        if (table.set(start + i, pinFrames[i]))
            continue;
        // Table-leaf OOM: undo this call only. Drop its pin
        // references; a page left unpinned was installed by this call
        // (an earlier pin would still hold it), so clear its entry.
        // Then unmap the pages the pin demand-mapped.
        for (std::size_t j = 0; j < npages; ++j) {
            pins->unpinPage(pid, start + j);
            if (j < i && !pins->isPinned(pid, start + j))
                table.clear(start + j);
        }
        for (std::size_t k = pinMapped.size(); k-- > 0;)
            e->space->unmap(pinMapped[k]);
        res.status = PinStatus::OutOfMemory;
        res.cost = hostCosts->pinCost(1);
        return res;
    }

    statPagesPinned += npages;
    res.pagesDone = npages;
    res.cost = hostCosts->pinCost(npages);
    return res;
}

IoctlResult
UtlbDriver::ioctlUnpinAndInvalidate(ProcId pid, Vpn start,
                                    std::size_t npages)
{
    Session s(*this);
    return s.unpinAndInvalidate(pid, start, npages);
}

IoctlResult
UtlbDriver::unpinAndInvalidateLocked(ProcId pid, Vpn start,
                                     std::size_t npages)
{
    ++statIoctls;
    IoctlResult res;
    DirEntry *e = findEntryLocked(pid);
    if (!e) {
        res.status = PinStatus::UnknownProcess;
        return res;
    }

    HostPageTable &table = *e->table;
    for (std::size_t i = 0; i < npages; ++i) {
        Vpn vpn = start + i;
        if (pins->unpinPage(pid, vpn) != PinStatus::Ok)
            continue;
        if (!pins->isPinned(pid, vpn)) {
            // Last reference gone: the translation must not survive
            // anywhere the NIC could read it.
            table.clear(vpn);
            nicCache->invalidate(pid, vpn);
        }
        ++res.pagesDone;
    }
    statPagesUnpinned += res.pagesDone;
    res.cost = hostCosts->unpinCost(res.pagesDone ? res.pagesDone : 1);
    return res;
}

NicTranslationTable &
UtlbDriver::createNicTable(ProcId pid, std::size_t entries)
{
    sim::LockGuard lk(mu);
    DirEntry *e = findEntryLocked(pid);
    if (!e)
        panic("createNicTable for unregistered process %u", pid);
    if (e->nicTable)
        panic("NIC table for process %u created twice", pid);
    e->nicTable = std::make_unique<NicTranslationTable>(
        *sram, pid, entries, garbagePfn);
    return *e->nicTable;
}

// Quiescent-only accessor, same contract as pageTable().
NicTranslationTable &
UtlbDriver::nicTable(ProcId pid)
{
    const DirEntry *e = findEntry(pid);
    if (!e || !e->nicTable)
        panic("nicTable of process %u does not exist", pid);
    return *e->nicTable;
}

IoctlResult
UtlbDriver::ioctlPinAtIndex(ProcId pid, Vpn vpn, UtlbIndex index)
{
    Session s(*this);
    return s.pinAtIndex(pid, vpn, index);
}

IoctlResult
UtlbDriver::pinAtIndexLocked(ProcId pid, Vpn vpn, UtlbIndex index)
{
    ++statIoctls;
    IoctlResult res;
    DirEntry *e = findEntryLocked(pid);
    if (!e) {
        res.status = PinStatus::UnknownProcess;
        return res;
    }

    PinStatus st = PinStatus::Ok;
    auto frame = pins->pinPage(pid, vpn, &st);
    if (!frame) {
        res.status = st;
        res.cost = hostCosts->pinCost(1);
        return res;
    }
    if (!e->nicTable)
        panic("nicTable of process %u does not exist", pid);
    e->nicTable->install(index, *frame);
    ++statPagesPinned;
    res.pagesDone = 1;
    res.cost = hostCosts->pinCost(1);
    return res;
}

IoctlResult
UtlbDriver::ioctlUnpinIndex(ProcId pid, Vpn vpn, UtlbIndex index)
{
    Session s(*this);
    return s.unpinIndex(pid, vpn, index);
}

IoctlResult
UtlbDriver::unpinIndexLocked(ProcId pid, Vpn vpn, UtlbIndex index)
{
    ++statIoctls;
    IoctlResult res;
    DirEntry *e = findEntryLocked(pid);
    if (!e) {
        res.status = PinStatus::UnknownProcess;
        return res;
    }
    res.status = pins->unpinPage(pid, vpn);
    if (res.status == PinStatus::Ok) {
        if (!e->nicTable)
            panic("nicTable of process %u does not exist", pid);
        e->nicTable->invalidate(index);
        ++statPagesUnpinned;
        res.pagesDone = 1;
    }
    res.cost = hostCosts->unpinCost(1);
    return res;
}

// Audits run at quiescence only (no worker in an ioctl), so the
// unlocked sweep over the guarded directory is safe but unprovable
// here.
void
UtlbDriver::audit(check::AuditReport &report) const
    UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    report.component("driver");
    report.require(hostMem->isAllocated(garbagePfn),
                   "garbage frame %llu is not allocated",
                   static_cast<unsigned long long>(garbagePfn));
    report.require(hostMem->ownerOf(garbagePfn) == kKernelPid,
                   "garbage frame %llu not owned by the kernel",
                   static_cast<unsigned long long>(garbagePfn));
    for (const auto &[key, e] : dir) {
        auto pid = static_cast<ProcId>(key);
        report.require(e.space && e.space->pid() == pid,
                       "space registered under pid %u reports pid %u",
                       pid, e.space ? e.space->pid() : 0);
        report.require(e.table != nullptr,
                       "registered pid %u has no host page table",
                       pid);
        if (e.table)
            e.table->audit(report);
        if (e.nicTable)
            e.nicTable->audit(report);
    }
    pins->audit(report);
}

} // namespace utlb::core
