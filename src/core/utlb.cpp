#include "core/utlb.hpp"

#include "sim/log.hpp"

namespace utlb::core {

using mem::Vpn;

MissOutcome
serviceMiss(UtlbDriver &driver, HostPageTable &table,
            SharedUtlbCache &cache,
            const nic::NicTimings &timings, mem::ProcId pid, Vpn vpn,
            std::size_t width,
            std::vector<std::optional<mem::Pfn>> &runBuf,
            std::vector<std::optional<mem::Pfn>> &repairBuf,
            SharedUtlbCache::Shard *shard, sim::Tracer *tracer)
{
    MissOutcome mo;
    table.readRun(vpn, width, runBuf, shard != nullptr);
    auto &run = runBuf;

    if (run.empty() || !run[0]) {
        // The page is not pinned: only reachable when the host-side
        // prepare() was bypassed. Fall back to interrupting the host
        // (§3.1), pinning on the NIC's behalf.
        mo.fault = true;
        sim::Tick faultCost = timings.interruptCost;
        IoctlResult io = driver.ioctlPinAndInstall(pid, vpn, 1);
        faultCost += io.cost;
        mo.cost += faultCost;
        if (tracer)
            tracer->complete("pin.ioctl", "nic", pid, faultCost,
                             {{"vpn", vpn},
                              {"ok", io.status == mem::PinStatus::Ok
                                         ? 1u
                                         : 0u}});
        if (io.status != mem::PinStatus::Ok) {
            mo.pfn = driver.garbageFrame();
            return mo;
        }
        // The host pinned exactly one page for us; fetch that single
        // repaired entry rather than re-charging a full prefetch-width
        // DMA for neighbours the wide read already answered.
        table.readRun(vpn, 1, repairBuf, shard != nullptr);
        if (run.empty()) {
            run.swap(repairBuf);
        } else {
            // The wide DMA returned valid neighbours around the
            // invalid first entry. Splice the repaired entry into the
            // run instead of replacing the whole run with it: the
            // neighbours were already transferred, so they install —
            // and count into fetched / prefetch_installs — exactly
            // once.
            run[0] = repairBuf.empty()
                ? std::nullopt
                : repairBuf[0];
            mo.cost += timings.entryFetchCost(1);
        }
    }

    // Install the missing entry plus any valid prefetched neighbours
    // ("in order for prefetching to work well, translations for
    // contiguous application pages must be available", §6.4). Only
    // run[0] answers a real reference; neighbours are speculative and
    // must not perturb LRU order when they merely refresh a resident
    // line.
    std::size_t installed = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
        if (!run[i])
            continue;
        InsertMode mode =
            i == 0 ? InsertMode::Demand : InsertMode::Prefetch;
        cache.insert(pid, vpn + i, *run[i], mode, shard);
        if (i != 0)
            ++mo.prefetchInstalls;
        ++installed;
    }
    mo.fetched = installed;
    // An empty run means the table gave us nothing to DMA: charge the
    // single directory reference that discovered that, not a
    // full-width fetch of entries that were never transferred.
    sim::Tick fetchCost = run.empty()
        ? timings.directoryRefCost
        : timings.missHandleCost(run.size());
    mo.cost += fetchCost;
    if (tracer) {
        tracer->complete("table.dma_read", "nic", pid, fetchCost,
                         {{"vpn", vpn}, {"width", run.size()}});
        tracer->instant("cache.install", "nic", pid,
                        {{"vpn", vpn}, {"installed", installed}});
    }
    if (installed == 0 || !run[0]) {
        mo.pfn = driver.garbageFrame();
        return mo;
    }
    mo.pfn = *run[0];
    mo.ok = true;
    return mo;
}

UserUtlb::UserUtlb(UtlbDriver &drv, SharedUtlbCache &cache,
                   const nic::NicTimings &t, mem::ProcId pid,
                   const UtlbConfig &config)
    : driver(&drv), nicCache(&cache), timings(&t), procId(pid),
      hostTable(drv.pageTableShared(pid)), cfg(config),
      pinMgr(drv, pid, config.pin),
      statsGrp("proc" + std::to_string(pid))
{
    if (!hostTable)
        sim::panic("UserUtlb for unregistered process %u", pid);
    if (cfg.prefetchEntries == 0)
        sim::fatal("prefetchEntries must be >= 1");
    statsGrp.adopt(pinMgr.stats());
    if (cfg.concurrent) {
        nicCache->enableConcurrent();
        pinMgr.enableConcurrent(&driverShard.emplace(drv.makeShard()));
        shard = &shardStore.emplace(nicCache->makeShard());
    }
}

UserUtlb::~UserUtlb()
{
    flushShardStats();
}

void
UserUtlb::flushShardStats()
{
    if (shard)
        nicCache->absorbShard(*shard);
    if (driverShard)
        driver->absorbShard(*driverShard);
}

EnsureResult
UserUtlb::prepare(mem::VirtAddr va, std::size_t nbytes)
{
    Vpn start = mem::pageOf(va);
    std::size_t npages = mem::pagesSpanned(va, nbytes);
    if (npages == 0)
        return EnsureResult{};
    return pinMgr.ensurePinned(start, npages);
}

NicLookup
UserUtlb::nicTranslate(Vpn vpn)
{
    CacheProbe probe = nicCache->lookup(procId, vpn, shard);
    if (tracer)
        tracer->complete("cache.probe", "nic", procId, probe.cost,
                         {{"vpn", vpn}, {"hit", probe.hit ? 1u : 0u}});
    if (!probe.hit)
        return nicMissAfterProbe(vpn, probe.cost);
    statTranslateLatency.sample(sim::ticksToUs(probe.cost));
    return NicLookup{.pfn = probe.pfn, .cost = probe.cost};
}

NicLookup
UserUtlb::nicMissAfterProbe(Vpn vpn, sim::Tick probeCost)
{
    NicLookup out;
    out.cost = probeCost;
    out.miss = true;
    ++statMisses;
    MissOutcome mo = serviceMiss(*driver, *hostTable, *nicCache,
                                 *timings, procId, vpn,
                                 cfg.prefetchEntries, runBuf, repairBuf,
                                 shard, tracer);
    if (mo.fault) {
        out.fault = true;
        ++statFaults;
    }
    statPrefetchInstalls += mo.prefetchInstalls;
    out.fetched = mo.fetched;
    out.cost += mo.cost;
    out.pfn = mo.pfn;
    statTranslateLatency.sample(sim::ticksToUs(out.cost));
    return out;
}

namespace {

/** Copy an EnsureResult's accounting into a Translation. */
void
fillHostHalf(Translation &tr, const EnsureResult &host)
{
    tr.hostCost = host.cost;
    tr.pinCost = host.pinCost;
    tr.unpinCost = host.unpinCost;
    tr.pinIoctls = host.pinIoctls;
    tr.unpinIoctls = host.unpinIoctls;
    tr.checkMiss = host.checkMiss;
    tr.pagesPinned = host.pagesPinned;
    tr.pagesUnpinned = host.pagesUnpinned;
    tr.ok = host.ok;
}

} // namespace

Translation
UserUtlb::translate(mem::VirtAddr va, std::size_t nbytes)
{
    Translation tr;
    std::size_t npages = mem::pagesSpanned(va, nbytes);
    if (npages == 0)
        return tr;

    EnsureResult host = prepare(va, nbytes);
    fillHostHalf(tr, host);
    if (!host.ok)
        return tr;

    nicPageByPage(mem::pageOf(va), npages, tr);
    return tr;
}

void
UserUtlb::nicPageByPage(Vpn start, std::size_t npages, Translation &tr)
{
    tr.pageAddrs.reserve(npages);
    for (std::size_t i = 0; i < npages; ++i) {
        NicLookup nl = nicTranslate(start + i);
        tr.nicCost += nl.cost;
        if (nl.miss) {
            ++tr.niMisses;
            tr.missPages.push_back(static_cast<std::uint32_t>(i));
        }
        if (nl.fault)
            ++tr.faults;
        tr.pageAddrs.push_back(mem::frameAddr(nl.pfn));
    }
}

Translation
UserUtlb::translateRange(mem::VirtAddr va, std::size_t nbytes)
{
    Translation tr;
    std::size_t npages = mem::pagesSpanned(va, nbytes);
    if (npages == 0)
        return tr;

    Vpn start = mem::pageOf(va);
    EnsureResult host = pinMgr.ensurePinned(start, npages);
    fillHostHalf(tr, host);
    if (!host.ok)
        return tr;

    // The batched walk needs every hit to cost the same single probe
    // (direct-mapped) and emits no per-page trace events; otherwise
    // run the exact page-at-a-time loop.
    if (tracer != nullptr || nicCache->assoc() != 1) {
        nicPageByPage(start, npages, tr);
        return tr;
    }

    tr.pageAddrs.resize(npages);
    // Pfn and PhysAddr are the same 64-bit type: collect pfns in
    // place, then convert to frame addresses in one pass at the end.
    mem::Pfn *slots = tr.pageAddrs.data();

    std::size_t i = 0;
    while (i < npages) {
        RunHits run = nicCache->lookupRun(procId, start + i, npages - i,
                                          slots + i, shard);
        if (run.hits > 0) {
            // Every hit in the run has the same modeled latency;
            // sampleN folds them without perturbing the histogram.
            statTranslateLatency.sampleN(sim::ticksToUs(run.perHitCost),
                                         run.hits);
            tr.nicCost += run.cost;
            i += run.hits;
        }
        if (!run.missed)
            break;
        // The run stopped on a miss it has already probed and
        // counted: serve it directly. Its prefetch-width DMA install
        // refills the cache, so a stretch of contiguous misses costs
        // one wide fetch per prefetchEntries pages, not one per page.
        NicLookup nl = nicMissAfterProbe(start + i, run.perHitCost);
        tr.nicCost += nl.cost;
        ++tr.niMisses;
        tr.missPages.push_back(static_cast<std::uint32_t>(i));
        if (nl.fault)
            ++tr.faults;
        slots[i] = nl.pfn;
        ++i;
    }

    for (std::size_t p = 0; p < npages; ++p)
        slots[p] = mem::frameAddr(slots[p]);
    return tr;
}

} // namespace utlb::core
