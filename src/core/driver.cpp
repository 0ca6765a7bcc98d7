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
const UtlbDriver::Process *
UtlbDriver::findEntry(ProcId pid) const UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    const std::unique_ptr<Process> *box = std::as_const(dir).find(pid);
    return box ? box->get() : nullptr;
}

void
UtlbDriver::registerProcess(mem::AddressSpace &space)
{
    ProcId pid = space.pid();
    if (pid == kKernelPid || pid == mem::kNoOwner)
        panic("pid %u is reserved", pid);
    sim::LockGuard lk(registryMu);
    auto [box, inserted] = dir.tryEmplace(pid);
    if (!inserted)
        panic("process %u registered with the driver twice", pid);
    mem::PinFacility::Proc &pinProc = pins->registerSpace(space);
    box->reset(new Process(
        *this, pid, space, pinProc,
        std::make_unique<HostPageTable>(*hostMem, pid, sram)));
    statsGrp.adopt((*box)->table->stats());
}

void
UtlbDriver::unregisterProcess(ProcId pid)
{
    sim::LockGuard lk(registryMu);
    nicCache->invalidateProcess(pid);
    mem::AddressSpace *space = nullptr;
    if (std::unique_ptr<Process> *box = dir.find(pid)) {
        std::unique_ptr<Process> gone = std::move(*box);
        dir.erase(pid);
        // A session still open on the process (its owner should have
        // closed its views first) finishes before the entry goes.
        sim::LockGuard drain(gone->mu);
        statsGrp.disown(gone->table->stats());
        space = gone->space;
        retiredContended += gone->mu.contended();
        retiredParks += gone->mu.parked();
    }
    pins->unregisterProcess(pid);
    if (space)
        space->unmapAll();
}

bool
UtlbDriver::isRegistered(ProcId pid) const
{
    sim::LockGuard lk(registryMu);
    return dir.contains(pid);
}

UtlbDriver::Process *
UtlbDriver::processShared(ProcId pid)
{
    sim::LockGuard lk(registryMu);
    return findLocked(pid);
}

// Quiescent-only accessor (class comment): hands out a reference that
// outlives any lock scope, so locking here would promise nothing.
HostPageTable &
UtlbDriver::pageTable(ProcId pid)
{
    const Process *e = findEntry(pid);
    if (!e)
        panic("pageTable of unregistered process %u", pid);
    return *e->table;
}

// The lock covers only the directory probe: the table it resolves
// is owned by the heap-allocated entry, which a concurrent rehash
// leaves in place (see header).
HostPageTable *
UtlbDriver::pageTableShared(ProcId pid)
{
    sim::LockGuard lk(registryMu);
    Process *e = findLocked(pid);
    return e ? e->table.get() : nullptr;
}

std::uint64_t
UtlbDriver::lockContended() const
{
    sim::LockGuard lk(registryMu);
    std::uint64_t n = retiredContended;
    for (const auto &[pid, e] : dir)
        n += e->mu.contended();
    return n + registryMu.contended();
}

std::uint64_t
UtlbDriver::lockParks() const
{
    sim::LockGuard lk(registryMu);
    std::uint64_t n = retiredParks;
    for (const auto &[pid, e] : dir)
        n += e->mu.parked();
    return n + registryMu.parked();
}

// Conditional acquisition (header): outside the static analysis.
sim::Mutex *
UtlbDriver::Session::sessionLock(Process &p, Shard *shard)
    UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    if (!shard)
        return p.sharded.load(std::memory_order_relaxed) ? &p.mu : nullptr;
    if (!p.sharded.load(std::memory_order_acquire)) {
        // From here on the registry lock no longer covers the
        // process: an unsharded session still open on it finishes
        // first, and every later one takes mu too.
        sim::LockGuard lk(p.drv->registryMu);
        p.sharded.store(true, std::memory_order_release);
    }
    return &p.mu;
}

UtlbDriver::Session::Session(Process &p, Shard *shard)
    UTLB_NO_THREAD_SAFETY_ANALYSIS
    : proc(&p), sh(shard),
      registry(shard ? nullptr : &p.drv->registryMu),
      own(sessionLock(p, shard))
{
}

UtlbDriver::Session::Session(Process &p, RegistryHeld)
    UTLB_NO_THREAD_SAFETY_ANALYSIS
    : proc(&p), sh(nullptr), own(sessionLock(p, nullptr))
{
}

// The Session methods run while their Session holds the process
// (header); assertHeld() carries that fact into each body for the
// static analysis.
IoctlResult
UtlbDriver::Session::pinAndInstall(Vpn start, std::size_t npages)
{
    proc->mu.assertHeld();
    UtlbDriver &drv = *proc->drv;
    return drv.recordLocked(
        drv.pinAndInstallLocked(*proc, start, npages, sh), sh);
}

IoctlResult
UtlbDriver::Session::unpinAndInvalidate(Vpn start, std::size_t npages)
{
    proc->mu.assertHeld();
    UtlbDriver &drv = *proc->drv;
    return drv.recordLocked(
        drv.unpinAndInvalidateLocked(*proc, start, npages, sh), sh);
}

IoctlResult
UtlbDriver::recordLocked(IoctlResult res, Shard *sh)
{
    const double us = sim::ticksToUs(res.cost);
    const bool ok = res.status == mem::PinStatus::Ok;
    if (sh) {
        if (!ok) {
            ++sh->rejects;
            sh->rejectLatency.sample(us);
        } else {
            sh->latency.sample(us);
        }
        return res;
    }
    // Without a shard the caller holds the registry lock (Session, the
    // ioctl entry points).
    registryMu.assertHeld();
    if (!ok) {
        ++statIoctlRejects;
        statIoctlRejectLatency.sample(us);
    } else {
        statIoctlLatency.sample(us);
    }
    return res;
}

void
UtlbDriver::countLocked(sim::Counter UtlbDriver::*global,
                        std::uint64_t Shard::*field, Shard *sh,
                        std::uint64_t n)
{
    if (sh) {
        sh->*field += n;
        return;
    }
    registryMu.assertHeld();
    this->*global += n;
}

IoctlResult
UtlbDriver::unknownProcessLocked()
{
    ++statIoctls;
    IoctlResult res;
    res.status = PinStatus::UnknownProcess;
    return recordLocked(res, nullptr);
}

UtlbDriver::Shard
UtlbDriver::makeShard() const
{
    sim::LockGuard lk(registryMu);
    return Shard(statIoctlLatency.makeLocal(),
                 statIoctlRejectLatency.makeLocal(),
                 nicCache->makeShard());
}

void
UtlbDriver::absorbShard(Shard &sh)
{
    sim::LockGuard lk(registryMu);
    statIoctls.absorb(sh.ioctls);
    statIoctlRejects.absorb(sh.rejects);
    statPagesPinned.absorb(sh.pagesPinned);
    statPagesUnpinned.absorb(sh.pagesUnpinned);
    statIoctlLatency.absorb(sh.latency);
    statIoctlRejectLatency.absorb(sh.rejectLatency);
    pins->absorbShard(sh.pins);
    nicCache->absorbShard(sh.cache);
}

// The four ioctl entry points: resolve the pid under the registry
// lock, which also serializes their global statistics, then run the
// body in a session on the process.
IoctlResult
UtlbDriver::ioctlPinAndInstall(ProcId pid, Vpn start, std::size_t npages)
{
    sim::LockGuard lk(registryMu);
    Process *p = findLocked(pid);
    if (!p)
        return unknownProcessLocked();
    return Session(*p, Session::RegistryHeld{}).pinAndInstall(start,
                                                             npages);
}

IoctlResult
UtlbDriver::pinAndInstallLocked(Process &p, Vpn start,
                                std::size_t npages, Shard *sh)
{
    countLocked(&UtlbDriver::statIoctls, &Shard::ioctls, sh);
    IoctlResult res;
    if (npages == 0)
        return res;

    mem::PinFacility::Shard *pinShard = sh ? &sh->pins : nullptr;
    PinStatus st = pins->pinRange(*p.pins, start, npages, p.pinFrames,
                                  p.pinMapped, pinShard);
    if (st != PinStatus::Ok) {
        res.status = st;
        // A rejected ioctl still costs the syscall entry; charge the
        // one-page pin floor as a conservative model.
        res.cost = hostCosts->pinCost(1);
        return res;
    }

    HostPageTable &table = *p.table;
    for (std::size_t i = 0; i < npages; ++i) {
        if (table.set(start + i, p.pinFrames[i]))
            continue;
        // Table-leaf OOM: undo this call only. Drop its pin
        // references; a page left unpinned was installed by this call
        // (an earlier pin would still hold it), so clear its entry.
        // Then unmap the pages the pin demand-mapped.
        for (std::size_t j = 0; j < npages; ++j) {
            pins->unpinPage(*p.pins, start + j, pinShard);
            if (j < i && !mem::PinFacility::isPinned(*p.pins, start + j))
                table.clear(start + j);
        }
        for (std::size_t k = p.pinMapped.size(); k-- > 0;)
            p.space->unmap(p.pinMapped[k]);
        res.status = PinStatus::OutOfMemory;
        res.cost = hostCosts->pinCost(1);
        return res;
    }

    countLocked(&UtlbDriver::statPagesPinned, &Shard::pagesPinned, sh,
                npages);
    res.pagesDone = npages;
    res.cost = hostCosts->pinCost(npages);
    return res;
}

IoctlResult
UtlbDriver::ioctlUnpinAndInvalidate(ProcId pid, Vpn start,
                                    std::size_t npages)
{
    sim::LockGuard lk(registryMu);
    Process *p = findLocked(pid);
    if (!p)
        return unknownProcessLocked();
    return Session(*p, Session::RegistryHeld{})
        .unpinAndInvalidate(start, npages);
}

IoctlResult
UtlbDriver::unpinAndInvalidateLocked(Process &p, Vpn start,
                                     std::size_t npages, Shard *sh)
{
    countLocked(&UtlbDriver::statIoctls, &Shard::ioctls, sh);
    IoctlResult res;
    HostPageTable &table = *p.table;
    mem::PinFacility::Shard *pinShard = sh ? &sh->pins : nullptr;
    SharedUtlbCache::Shard *cacheShard = sh ? &sh->cache : nullptr;
    for (std::size_t i = 0; i < npages; ++i) {
        Vpn vpn = start + i;
        if (pins->unpinPage(*p.pins, vpn, pinShard) != PinStatus::Ok)
            continue;
        if (!mem::PinFacility::isPinned(*p.pins, vpn)) {
            // Last reference gone: the translation must not survive
            // anywhere the NIC could read it.
            table.clear(vpn);
            nicCache->invalidate(p.procId, vpn, cacheShard);
        }
        ++res.pagesDone;
    }
    countLocked(&UtlbDriver::statPagesUnpinned, &Shard::pagesUnpinned,
                sh, res.pagesDone);
    res.cost = hostCosts->unpinCost(res.pagesDone ? res.pagesDone : 1);
    return res;
}

NicTranslationTable &
UtlbDriver::createNicTable(ProcId pid, std::size_t entries)
{
    sim::LockGuard lk(registryMu);
    Process *e = findLocked(pid);
    if (!e)
        panic("createNicTable for unregistered process %u", pid);
    sim::LockGuard session(e->mu);
    if (e->nicTable)
        panic("NIC table for process %u created twice", pid);
    e->nicTable = std::make_unique<NicTranslationTable>(
        *sram, pid, entries, garbagePfn);
    return *e->nicTable;
}

// Quiescent-only accessor, same contract as pageTable().
NicTranslationTable &
UtlbDriver::nicTable(ProcId pid) UTLB_NO_THREAD_SAFETY_ANALYSIS
{
    const Process *e = findEntry(pid);
    if (!e || !e->nicTable)
        panic("nicTable of process %u does not exist", pid);
    return *e->nicTable;
}

IoctlResult
UtlbDriver::ioctlPinAtIndex(ProcId pid, Vpn vpn, UtlbIndex index)
{
    sim::LockGuard lk(registryMu);
    Process *p = findLocked(pid);
    if (!p)
        return unknownProcessLocked();
    Session s(*p, Session::RegistryHeld{});
    return recordLocked(pinAtIndexLocked(*p, vpn, index), nullptr);
}

IoctlResult
UtlbDriver::pinAtIndexLocked(Process &p, Vpn vpn, UtlbIndex index)
{
    ++statIoctls;
    IoctlResult res;
    PinStatus st = PinStatus::Ok;
    auto frame = pins->pinPage(p.procId, vpn, &st);
    if (!frame) {
        res.status = st;
        res.cost = hostCosts->pinCost(1);
        return res;
    }
    if (!p.nicTable)
        panic("nicTable of process %u does not exist", p.procId);
    p.nicTable->install(index, *frame);
    ++statPagesPinned;
    res.pagesDone = 1;
    res.cost = hostCosts->pinCost(1);
    return res;
}

IoctlResult
UtlbDriver::ioctlUnpinIndex(ProcId pid, Vpn vpn, UtlbIndex index)
{
    sim::LockGuard lk(registryMu);
    Process *p = findLocked(pid);
    if (!p)
        return unknownProcessLocked();
    Session s(*p, Session::RegistryHeld{});
    return recordLocked(unpinIndexLocked(*p, vpn, index), nullptr);
}

IoctlResult
UtlbDriver::unpinIndexLocked(Process &p, Vpn vpn, UtlbIndex index)
{
    ++statIoctls;
    IoctlResult res;
    res.status = pins->unpinPage(p.procId, vpn);
    if (res.status == PinStatus::Ok) {
        if (!p.nicTable)
            panic("nicTable of process %u does not exist", p.procId);
        p.nicTable->invalidate(index);
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
    for (const auto &[key, box] : dir) {
        const Process &e = *box;
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
