/**
 * @file
 * Associative concurrent mode: multiset equivalence, seqlock
 * torture, and a probe-vs-pin-churn stress run.
 *
 * The executable spec (test_spec.cpp) holds one concurrent worker at
 * assoc ∈ {2, 4} to the oracle; this file covers what the per-set
 * seqlocks add once several workers run at once:
 *
 *  1. With many workers on disjoint cache sets, each worker's result
 *     *sequence* (and the aggregate hit/miss/insert counters) must
 *     match a sequential replay of its own workload — only physical
 *     frame numbers may differ, since PhysMemory hands out frames in
 *     interleaving order.
 *  2. Optimistic readers racing writers must never surface a torn
 *     line (a pfn that does not belong to the tag they matched),
 *     must retry at most kSeqlockMaxRetries times per probe, and a
 *     direct-mapped optimistic probe must never serve a reclaimed way.
 *  3. Set probes, pin-churn evictions and miss installs mixed on
 *     one 4-way cache leave every structure auditable.
 *
 * Run under UTLB_SANITIZE=thread to turn the torture and stress tests
 * into race detectors. The BenchGoldenRegression tests re-check the
 * golden_equivalence markers bench_mt publishes for the pin-churn
 * and associative scenarios.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
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
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "spec/spec_runner.hpp"

namespace {

using namespace utlb::core;
using utlb::check::AuditReport;
using utlb::mem::Pfn;
using utlb::mem::ProcId;
using utlb::mem::Vpn;
using utlb::sim::Rng;

// ---------------------------------------------------------------------
// Multiset equivalence: N workers on disjoint sets vs N sequential
// replays
// ---------------------------------------------------------------------

/** Worker w's call sequence: strided vpns (w, w+T, w+2T, ...) so,
 *  with index offsetting off and T dividing numSets, workers own
 *  interleaved but fully disjoint cache sets. Frame numbers depend on
 *  thread interleaving (PhysMemory hands frames out of a shared free
 *  list in arrival order), so each result keeps only their count. */
std::vector<Translation>
runWorkerOps(UserUtlb &u, unsigned worker, unsigned nworkers,
             std::size_t vpnSlots, int ops, std::size_t memlimit)
{
    std::vector<Translation> out;
    Rng rng(0x5eed0 + worker);
    for (int op = 0; op < ops; ++op) {
        std::size_t slot = rng.below(vpnSlots);
        Vpn vpn = worker + slot * nworkers;
        Translation t = u.translate(vpn * utlb::mem::kPageSize,
                                    utlb::mem::kPageSize);
        std::fill(t.pageAddrs.begin(), t.pageAddrs.end(), 0);
        if (memlimit == 0) {
            EXPECT_TRUE(t.ok) << "worker " << worker << " op " << op;
        }
        out.push_back(std::move(t));
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
    // Index offsetting off so the strided vpn layout maps onto
    // disjoint sets directly.
    utlb::NodeStack node({entries, assoc, false}, 16384, 4u << 20);
    UtlbConfig ucfg;
    ucfg.pin.memLimitPages = memlimit;
    UtlbConfig concurrent = ucfg;
    concurrent.concurrent = true;
    std::vector<utlb::NodeStack::Tenant> views;
    for (unsigned w = 0; w < nworkers; ++w)
        views.push_back(node.attach(w + 1, concurrent));

    std::vector<std::vector<Translation>> observed(nworkers);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < nworkers; ++w) {
        workers.emplace_back([&, w] {
            observed[w] = runWorkerOps(*views[w].utlb, w, nworkers,
                                       vpnSlots, ops, memlimit);
        });
    }
    for (auto &t : workers)
        t.join();
    ASSERT_EQ(node.audit(views), "");
    const SharedUtlbCache &cache = node.cache;

    // --- per-worker sequential baselines ---
    std::uint64_t baseHits = 0, baseMisses = 0, baseInserts = 0;
    for (unsigned w = 0; w < nworkers; ++w) {
        utlb::NodeStack bnode({entries, assoc, false}, 16384, 4u << 20);
        auto bview = bnode.attach(w + 1, ucfg);
        std::vector<Translation> expected = runWorkerOps(
            *bview.utlb, w, nworkers, vpnSlots, ops, memlimit);
        ASSERT_EQ(observed[w].size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(utlb::spec::diff(expected[i], observed[w][i]), "")
                << "worker " << w << " call " << i
                << " diverged from its sequential replay";
        }
        baseHits += bnode.cache.hits();
        baseMisses += bnode.cache.misses();
        baseInserts += bnode.cache.insertions();
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
    // Direct-mapped, the optimistic lookupRun/lookup path: the
    // reader's (pid 1, vpn 0) and the writer's (pid 2, vpn 0) fight
    // over set 0, so the way the reader last saw is reclaimed
    // constantly. Every pfn encodes its tag, so a served pfn other
    // than packPfn(1, 0) came from a reclaimed or retagged way.
    SharedUtlbCache cache(CacheConfig{8, 1, false}, timings);
    cache.enableConcurrent();

    constexpr int kWriterOps = 30000;
    constexpr int kReaderOps = 30000;

    std::atomic<std::uint64_t> staleServes{0};
    std::atomic<std::uint64_t> served{0};
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

    std::thread reader([&cache, &staleServes, &served] {
        SharedUtlbCache::Shard sh = cache.makeShard();
        const Pfn mine = packPfn(1, 0);
        std::uint64_t stale = 0;
        std::uint64_t hits = 0;
        for (int op = 0; op < kReaderOps; ++op) {
            cache.insert(1, 0, mine, InsertMode::Demand, &sh);
            for (int spin = 0; spin < 4; ++spin) {
                Pfn pfn = utlb::mem::kInvalidPfn;
                if (cache.lookupRun(1, 0, 1, &pfn, &sh).hits != 0) {
                    ++hits;
                    stale += pfn != mine;
                }
                CacheProbe p = cache.lookup(1, 0, &sh);
                if (p.hit) {
                    ++hits;
                    stale += p.pfn != mine;
                }
            }
        }
        staleServes.fetch_add(stale, std::memory_order_relaxed);
        served.fetch_add(hits, std::memory_order_relaxed);
        cache.absorbShard(sh);
    });

    writer.join();
    reader.join();
    EXPECT_TRUE(writerDone.load());
    EXPECT_GT(served.load(), 0u);
    EXPECT_EQ(staleServes.load(), 0u)
        << "an optimistic probe returned a reclaimed way";

    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------
// Torture: set probes vs pin churn
// ---------------------------------------------------------------------

TEST(AssocStress, ProbesVsPinChurn)
{
    // Two views under a tight pin budget drive translateRange loops
    // (per-page set probes + budget-forced unpin invalidates + miss
    // installs), while a raw reader hammers lookup() through the
    // seqlock path on the same sets. Run under UTLB_SANITIZE=thread
    // to make this a race detector for the tag/cold write protocol.
    utlb::NodeStack node({256, 4, true}, 8192, 4u << 20);
    auto &[costs, timings, phys, pins, sram, cache, driver] = node;

    UtlbConfig cfg;
    cfg.concurrent = true;
    cfg.prefetchEntries = 8;
    cfg.pin.memLimitPages = 96;
    std::vector<utlb::NodeStack::Tenant> views;
    views.push_back(node.attach(1, cfg));
    views.push_back(node.attach(2, cfg));

    auto work = [](UserUtlb &view, std::uint64_t seed) {
        Rng rng(seed);
        for (int it = 0; it < 200; ++it) {
            Vpn start = rng.below(512);
            std::size_t n = 1 + rng.below(32);
            view.translateRange(start * utlb::mem::kPageSize,
                                n * utlb::mem::kPageSize);
        }
    };
    std::thread w1([&] { work(*views[0].utlb, 0x511); });
    std::thread w2([&] { work(*views[1].utlb, 0x522); });
    std::thread reader([&] {
        SharedUtlbCache::Shard sh = cache.makeShard();
        Rng rng(0x4ead51);
        for (int it = 0; it < 60000; ++it) {
            auto pid = static_cast<ProcId>(1 + rng.below(2));
            cache.lookup(pid, rng.below(512), &sh);
        }
        cache.absorbShard(sh);
    });
    w1.join();
    w2.join();
    reader.join();

    EXPECT_EQ(node.audit(views), "");
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
