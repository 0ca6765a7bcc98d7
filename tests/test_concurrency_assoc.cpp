/**
 * @file
 * Associative concurrent mode: golden equivalence, multiset
 * equivalence, and seqlock torture.
 *
 * PR 4's concurrency suite (test_concurrency.cpp) pinned the
 * direct-mapped contract; this file covers what the per-set seqlocks
 * add:
 *
 *  1. At assoc ∈ {2, 4} a single concurrent worker must stay
 *     *bit-identical* to the sequential path — results, modeled
 *     costs (including per-way probe depth), stats tree.
 *  2. With many workers on disjoint cache sets, each worker's result
 *     *sequence* (and the aggregate hit/miss/insert counters) must
 *     match a sequential replay of its own workload — only physical
 *     frame numbers may differ, since PhysMemory hands out frames in
 *     interleaving order.
 *  3. Optimistic readers racing writers must never surface a torn
 *     line (a pfn that does not belong to the tag they matched),
 *     must retry at most kSeqlockMaxRetries times per probe, and a
 *     version-guarded LineRef must never serve a reclaimed way.
 *
 * Run under UTLB_SANITIZE=thread to turn the torture tests into race
 * detectors. The BenchGoldenRegression tests re-check the
 * golden_equivalence markers bench_mt publishes for the pin-churn
 * and associative scenarios.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_mt_common.hpp"
#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace {

using namespace utlb::core;
using utlb::check::AuditReport;
using utlb::mem::Pfn;
using utlb::mem::ProcId;
using utlb::mem::Vpn;
using utlb::sim::Rng;

// ---------------------------------------------------------------------
// Golden equivalence: one concurrent worker at assoc > 1
// ---------------------------------------------------------------------

/** The test_concurrency.cpp Harness with a configurable geometry. */
struct AssocHarness {
    utlb::mem::PhysMemory phys;
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram;
    utlb::nic::NicTimings timings;
    HostCosts costs;
    SharedUtlbCache cache;
    UtlbDriver driver;
    std::unique_ptr<utlb::mem::AddressSpace> space;
    std::unique_ptr<UserUtlb> utlb;
    utlb::sim::StatGroup root{"stack"};

    AssocHarness(const CacheConfig &ccfg, const UtlbConfig &ucfg)
        : phys(4096), sram(1u << 20),
          costs(HostProfile::PentiumIINT),
          cache(ccfg, timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {
        space = std::make_unique<utlb::mem::AddressSpace>(1, phys);
        driver.registerProcess(*space);
        utlb = std::make_unique<UserUtlb>(driver, cache, timings, 1,
                                          ucfg);
        root.adopt(cache.stats());
        root.adopt(driver.stats());
        root.adopt(pins.stats());
        root.adopt(sram.stats());
        root.adopt(utlb->stats());
    }

    std::string
    statsDump()
    {
        utlb->flushShardStats();
        std::ostringstream os;
        root.dumpJson(os);
        return os.str();
    }
};

void
expectSameTranslation(const Translation &a, const Translation &b,
                      const std::string &where)
{
    EXPECT_EQ(a.ok, b.ok) << where;
    EXPECT_EQ(a.pageAddrs, b.pageAddrs) << where;
    EXPECT_EQ(a.hostCost, b.hostCost) << where;
    EXPECT_EQ(a.nicCost, b.nicCost) << where;
    EXPECT_EQ(a.pinCost, b.pinCost) << where;
    EXPECT_EQ(a.unpinCost, b.unpinCost) << where;
    EXPECT_EQ(a.checkMiss, b.checkMiss) << where;
    EXPECT_EQ(a.niMisses, b.niMisses) << where;
    EXPECT_EQ(a.pagesPinned, b.pagesPinned) << where;
    EXPECT_EQ(a.pagesUnpinned, b.pagesUnpinned) << where;
    EXPECT_EQ(a.pinIoctls, b.pinIoctls) << where;
    EXPECT_EQ(a.unpinIoctls, b.unpinIoctls) << where;
    EXPECT_EQ(a.faults, b.faults) << where;
    EXPECT_EQ(a.missPages, b.missPages) << where;
}

/**
 * Replay the same randomized workload through a sequential-mode and
 * a concurrent-mode stack (both single-threaded) at the given
 * associativity; every call and the final stats tree must match
 * exactly. Mirrors test_concurrency.cpp's runGolden, whose workload
 * shape it reuses so both suites sweep the same address patterns.
 */
void
runGoldenAssoc(std::size_t entries, unsigned assoc,
               std::size_t prefetch, std::size_t memlimit,
               bool batched, std::uint64_t seed)
{
    UtlbConfig seqCfg;
    seqCfg.prefetchEntries = prefetch;
    seqCfg.pin.memLimitPages = memlimit;
    seqCfg.pin.seed = seed;
    UtlbConfig mtCfg = seqCfg;
    mtCfg.concurrent = true;

    CacheConfig ccfg{entries, assoc, true};
    AssocHarness seq(ccfg, seqCfg);
    AssocHarness mt(ccfg, mtCfg);
    ASSERT_TRUE(mt.utlb->concurrent());
    ASSERT_TRUE(mt.cache.concurrent());

    Rng rng(seed ^ 0xc0ffeeULL);
    constexpr std::size_t kBufPages = 512;
    for (int call = 0; call < 300; ++call) {
        Vpn startPage;
        std::size_t npages;
        switch (rng.below(4)) {
        case 0:
            startPage = rng.below(8);
            npages = 1;
            break;
        case 1:
            startPage = rng.below(kBufPages);
            npages = 1 + rng.below(8);
            break;
        default:
            startPage = rng.below(kBufPages);
            npages = 1 + rng.below(96);
            break;
        }
        std::uint64_t offset = rng.below(utlb::mem::kPageSize);
        utlb::mem::VirtAddr va =
            startPage * utlb::mem::kPageSize + offset;
        std::size_t nbytes = npages * utlb::mem::kPageSize
            - offset - rng.below(utlb::mem::kPageSize - offset + 1);
        if (nbytes == 0)
            nbytes = 1;

        Translation a = batched ? seq.utlb->translateRange(va, nbytes)
                                : seq.utlb->translate(va, nbytes);
        Translation b = batched ? mt.utlb->translateRange(va, nbytes)
                                : mt.utlb->translate(va, nbytes);
        expectSameTranslation(a, b, "call " + std::to_string(call));
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_EQ(seq.statsDump(), mt.statsDump());

    AuditReport report;
    mt.cache.audit(report);
    mt.driver.audit(report);
    mt.utlb->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(AssocGolden, TwoWayPerPage)
{
    runGoldenAssoc(1024, 2, 1, 0, false, 21);
}

TEST(AssocGolden, TwoWayBatched)
{
    runGoldenAssoc(1024, 2, 1, 0, true, 22);
}

TEST(AssocGolden, TwoWaySmallCacheEvictions)
{
    // 64 entries / 2-way = 32 sets under a 512-page working set: the
    // LRU victim scan under the Striped policy must pick the same
    // way the unlocked one does on every eviction.
    runGoldenAssoc(64, 2, 4, 0, true, 23);
}

TEST(AssocGolden, TwoWayMemLimit)
{
    // The pin budget forces unpins, exercising the concurrent
    // invalidate()'s way scan against the sequential one.
    runGoldenAssoc(256, 2, 4, 64, false, 24);
}

TEST(AssocGolden, FourWayPerPage)
{
    runGoldenAssoc(1024, 4, 1, 0, false, 25);
}

TEST(AssocGolden, FourWayBatched)
{
    runGoldenAssoc(1024, 4, 1, 0, true, 26);
}

TEST(AssocGolden, FourWaySmallCacheEvictions)
{
    runGoldenAssoc(64, 4, 4, 0, true, 27);
}

TEST(AssocGolden, FourWayMemLimitPrefetch)
{
    runGoldenAssoc(256, 4, 8, 64, true, 28);
}

// ---------------------------------------------------------------------
// Multiset equivalence: N workers on disjoint sets vs N sequential
// replays
// ---------------------------------------------------------------------

/** Everything of a Translation except the physical frame numbers,
 *  which depend on thread interleaving (PhysMemory hands frames out
 *  of a shared free list in arrival order). */
struct ResultRecord {
    bool ok;
    std::size_t npages;
    utlb::sim::Tick hostCost, nicCost, pinCost, unpinCost;
    std::uint64_t niMisses, pagesPinned, pagesUnpinned;
    std::vector<unsigned> missPages;

    explicit ResultRecord(const Translation &t)
        : ok(t.ok), npages(t.pageAddrs.size()), hostCost(t.hostCost),
          nicCost(t.nicCost), pinCost(t.pinCost),
          unpinCost(t.unpinCost), niMisses(t.niMisses),
          pagesPinned(t.pagesPinned), pagesUnpinned(t.pagesUnpinned),
          missPages(t.missPages.begin(), t.missPages.end())
    {}

    bool
    operator==(const ResultRecord &o) const
    {
        return ok == o.ok && npages == o.npages
            && hostCost == o.hostCost && nicCost == o.nicCost
            && pinCost == o.pinCost && unpinCost == o.unpinCost
            && niMisses == o.niMisses && pagesPinned == o.pagesPinned
            && pagesUnpinned == o.pagesUnpinned
            && missPages == o.missPages;
    }
};

/** Worker w's call sequence: strided vpns (w, w+T, w+2T, ...) so,
 *  with index offsetting off and T dividing numSets, workers own
 *  interleaved but fully disjoint cache sets. */
std::vector<ResultRecord>
runWorkerOps(UserUtlb &u, unsigned worker, unsigned nworkers,
             std::size_t vpnSlots, int ops, std::size_t memlimit)
{
    std::vector<ResultRecord> out;
    out.reserve(static_cast<std::size_t>(ops));
    Rng rng(0x5eed0 + worker);
    for (int op = 0; op < ops; ++op) {
        std::size_t slot = rng.below(vpnSlots);
        Vpn vpn = worker + slot * nworkers;
        Translation t = u.translate(vpn * utlb::mem::kPageSize,
                                    utlb::mem::kPageSize);
        out.emplace_back(t);
        if (memlimit == 0) {
            EXPECT_TRUE(t.ok) << "worker " << worker << " op " << op;
        }
    }
    return out;
}

/**
 * N concurrent workers over one cache, each confined to its own sets,
 * must each produce the exact result sequence (modulo frame numbers)
 * of a fresh single-worker sequential stack replaying its workload —
 * and the shared cache's aggregate counters must equal the sum of
 * the baselines'.
 */
void
runDisjointMultiset(std::size_t entries, unsigned assoc,
                    unsigned nworkers, std::size_t memlimit)
{
    const std::size_t vpnSlots = 192;
    const int ops = 600;
    // Strided disjointness needs nworkers to divide numSets.
    ASSERT_EQ((entries / assoc) % nworkers, 0u);

    // --- concurrent run ---
    utlb::mem::PhysMemory phys(16384);
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram(4u << 20);
    utlb::nic::NicTimings timings;
    HostCosts costs(HostProfile::PentiumIINT);
    // Index offsetting off so the strided vpn layout maps onto
    // disjoint sets directly.
    SharedUtlbCache cache(CacheConfig{entries, assoc, false}, timings,
                          &sram);
    UtlbDriver driver(phys, pins, sram, cache, costs);

    std::vector<std::unique_ptr<utlb::mem::AddressSpace>> spaces;
    std::vector<std::unique_ptr<UserUtlb>> views;
    for (unsigned w = 0; w < nworkers; ++w) {
        auto pid = static_cast<ProcId>(w + 1);
        spaces.push_back(
            std::make_unique<utlb::mem::AddressSpace>(pid, phys));
        driver.registerProcess(*spaces.back());
        UtlbConfig ucfg;
        ucfg.concurrent = true;
        ucfg.pin.memLimitPages = memlimit;
        views.push_back(std::make_unique<UserUtlb>(
            driver, cache, timings, pid, ucfg));
    }

    std::vector<std::vector<ResultRecord>> observed(nworkers);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < nworkers; ++w) {
        workers.emplace_back([&, w] {
            observed[w] = runWorkerOps(*views[w], w, nworkers,
                                       vpnSlots, ops, memlimit);
        });
    }
    for (auto &t : workers)
        t.join();
    for (auto &v : views)
        v->flushShardStats();

    AuditReport report;
    cache.audit(report);
    driver.audit(report);
    ASSERT_TRUE(report.ok()) << report.summary();

    // --- per-worker sequential baselines ---
    std::uint64_t baseHits = 0, baseMisses = 0, baseInserts = 0;
    for (unsigned w = 0; w < nworkers; ++w) {
        utlb::mem::PhysMemory bphys(16384);
        utlb::mem::PinFacility bpins;
        utlb::nic::Sram bsram(4u << 20);
        utlb::nic::NicTimings btimings;
        HostCosts bcosts(HostProfile::PentiumIINT);
        SharedUtlbCache bcache(CacheConfig{entries, assoc, false},
                               btimings, &bsram);
        UtlbDriver bdriver(bphys, bpins, bsram, bcache, bcosts);
        auto pid = static_cast<ProcId>(w + 1);
        utlb::mem::AddressSpace bspace(pid, bphys);
        bdriver.registerProcess(bspace);
        UtlbConfig ucfg;
        ucfg.pin.memLimitPages = memlimit;
        UserUtlb bview(bdriver, bcache, btimings, pid, ucfg);

        std::vector<ResultRecord> expected = runWorkerOps(
            bview, w, nworkers, vpnSlots, ops, memlimit);
        ASSERT_EQ(observed[w].size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_TRUE(observed[w][i] == expected[i])
                << "worker " << w << " call " << i
                << " diverged from its sequential replay";
            if (::testing::Test::HasFailure())
                return;
        }
        baseHits += bcache.hits();
        baseMisses += bcache.misses();
        baseInserts += bcache.insertions();
    }

    // Aggregate multiset check: disjoint sets mean no cross-worker
    // interference, so the shared cache saw exactly the union of the
    // baselines' traffic.
    EXPECT_EQ(cache.hits(), baseHits);
    EXPECT_EQ(cache.misses(), baseMisses);
    EXPECT_EQ(cache.insertions(), baseInserts);
}

TEST(AssocMultiset, TwoWayTwoWorkers)
{
    runDisjointMultiset(512, 2, 2, 0);
}

TEST(AssocMultiset, TwoWayFourWorkers)
{
    runDisjointMultiset(512, 2, 4, 0);
}

TEST(AssocMultiset, FourWayFourWorkers)
{
    runDisjointMultiset(512, 4, 4, 0);
}

TEST(AssocMultiset, FourWayFourWorkersSmallCache)
{
    // 64 entries / 4-way = 16 sets: every worker keeps its 4 sets
    // evicting, so the MT LRU victim scan runs constantly.
    runDisjointMultiset(64, 4, 4, 0);
}

TEST(AssocMultiset, TwoWayFourWorkersMemLimit)
{
    // Pin churn: each worker unpins and repins under its own budget;
    // unpin-path invalidates stay confined to the worker's sets.
    runDisjointMultiset(512, 2, 4, 96);
}

// ---------------------------------------------------------------------
// Seqlock torture: writers slam hot sets under optimistic readers
// ---------------------------------------------------------------------

/** Each cached frame encodes its tag, so a torn read — a pfn taken
 *  from a different (pid, vpn) than the tag the reader matched — is
 *  detectable at the probe result. */
Pfn
packPfn(ProcId pid, Vpn vpn)
{
    return (static_cast<Pfn>(pid) << 32) | vpn;
}

TEST(SeqlockTorture, HotSetReadersNeverSeeTornLines)
{
    utlb::nic::NicTimings timings;
    // 4 sets x 4 ways, no offsetting: everything lands in a handful
    // of hot sets and every insert evicts.
    SharedUtlbCache cache(CacheConfig{16, 4, false}, timings);
    cache.enableConcurrent();

    constexpr unsigned kWriters = 2;
    constexpr unsigned kReaders = 2;
    constexpr int kWriterOps = 40000;
    constexpr int kReaderOps = 60000;
    constexpr Vpn kVpnSpan = 32;

    std::atomic<std::uint64_t> tornReads{0};
    std::atomic<std::uint64_t> readerHits{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kWriters; ++t) {
        threads.emplace_back([&cache, t] {
            SharedUtlbCache::Shard sh = cache.makeShard();
            Rng rng(0xa0 + t * 17 + 1);
            for (int op = 0; op < kWriterOps; ++op) {
                auto pid = static_cast<ProcId>(1 + rng.below(3));
                Vpn vpn = rng.below(kVpnSpan);
                if (rng.below(8) == 0)
                    cache.invalidate(pid, vpn);
                else
                    cache.insert(pid, vpn, packPfn(pid, vpn),
                                 InsertMode::Demand, &sh);
            }
            cache.absorbShard(sh);
        });
    }
    for (unsigned t = 0; t < kReaders; ++t) {
        threads.emplace_back([&cache, t, &tornReads, &readerHits] {
            SharedUtlbCache::Shard sh = cache.makeShard();
            Rng rng(0x4ead + t);
            std::uint64_t probes = 0, hits = 0, torn = 0;
            for (int op = 0; op < kReaderOps; ++op) {
                auto pid = static_cast<ProcId>(1 + rng.below(3));
                Vpn vpn = rng.below(kVpnSpan);
                CacheProbe p = cache.lookup(pid, vpn, &sh);
                ++probes;
                if (p.hit) {
                    ++hits;
                    if (p.pfn != packPfn(pid, vpn))
                        ++torn;
                }
            }
            // Structural retry bound: a probe falls back to the
            // stripe lock after kSeqlockMaxRetries torn snapshots,
            // so the per-worker total cannot exceed probes x bound.
            EXPECT_LE(sh.seqlockRetries(),
                      probes * SharedUtlbCache::kSeqlockMaxRetries);
            readerHits.fetch_add(hits, std::memory_order_relaxed);
            tornReads.fetch_add(torn, std::memory_order_relaxed);
            cache.absorbShard(sh);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(tornReads.load(), 0u)
        << "optimistic readers surfaced pfns from mismatched tags";
    EXPECT_GT(readerHits.load(), 0u);

    // Quiescence: taxonomy balances and every seqlock version is
    // even (no write section left open).
    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SeqlockTorture, StaleRefNeverServesReclaimedWay)
{
    utlb::nic::NicTimings timings;
    // Direct-mapped (the ref-minting path is assoc==1 only): the
    // reader's (pid 1, vpn 0) and the writer's (pid 2, vpn 0) fight
    // over set 0, so refs go stale constantly.
    SharedUtlbCache cache(CacheConfig{8, 1, false}, timings);
    cache.enableConcurrent();

    constexpr int kWriterOps = 30000;
    constexpr int kReaderOps = 30000;

    std::atomic<std::uint64_t> staleServes{0};
    std::atomic<bool> writerDone{false};

    std::thread writer([&cache, &writerDone] {
        SharedUtlbCache::Shard sh = cache.makeShard();
        Rng rng(0xb1ade);
        for (int op = 0; op < kWriterOps; ++op) {
            if (rng.below(4) == 0)
                cache.invalidate(1, 0);
            else
                cache.insert(2, 0, packPfn(2, 0), InsertMode::Demand, &sh);
        }
        cache.absorbShard(sh);
        writerDone.store(true, std::memory_order_relaxed);
    });

    std::thread reader([&cache, &staleServes] {
        SharedUtlbCache::Shard sh = cache.makeShard();
        std::vector<Pfn> pfns(1);
        std::uint64_t stale = 0;
        for (int op = 0; op < kReaderOps; ++op) {
            // (Re)install our line and mint a version-carrying ref.
            cache.insert(1, 0, packPfn(1, 0), InsertMode::Demand, &sh);
            SharedUtlbCache::LineRef ref;
            RunHits run =
                cache.lookupRun(1, 0, 1, pfns.data(), &ref, &sh);
            if (run.hits == 0)
                continue;  // writer got between install and probe
            for (int spin = 0; spin < 4; ++spin) {
                CacheProbe p;
                if (!cache.hitViaRef(ref, 1, 0, p, &sh))
                    break;  // version guard: ref went stale
                if (p.pfn != packPfn(1, 0))
                    ++stale;
            }
        }
        staleServes.fetch_add(stale, std::memory_order_relaxed);
        cache.absorbShard(sh);
    });

    writer.join();
    reader.join();
    EXPECT_TRUE(writerDone.load());
    EXPECT_EQ(staleServes.load(), 0u)
        << "a version-guarded ref returned a reclaimed way";

    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------
// Bench scenario regression: the golden_equivalence markers hold
// ---------------------------------------------------------------------

TEST(BenchGoldenRegression, PinChurnScenarioHolds)
{
    EXPECT_EQ(bench::mtGoldenDivergence(bench::kMtPinChurn), "");
}

TEST(BenchGoldenRegression, WarmAssoc4ScenarioHolds)
{
    EXPECT_EQ(bench::mtGoldenDivergence(bench::kMtWarmAssoc4), "");
}

} // namespace
