/**
 * @file
 * Tests for the tenant-fleet machinery: the shared Zipf generator
 * (moments, determinism, cross-platform stream stability), the
 * TenantFleet op-stream generator (state-machine consistency under
 * churn), the PinBudget fleet quota (hard-cap and weighted-share
 * arithmetic, PinManager integration, throttle accounting), and the
 * index-offsetting fairness golden: offsetting-on strictly reduces
 * cross-tenant conflict evictions on a crafted 2-tenant workload at
 * associativities 1, 2, and 4 — sequentially and concurrently.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/pin_budget.hpp"
#include "core/pin_manager.hpp"
#include "core/shared_cache.hpp"
#include "mem/address_space.hpp"
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/tenant_fleet.hpp"
#include "sim/zipf.hpp"

namespace {

using utlb::NodeStack;
using namespace utlb::core;
using utlb::mem::AddressSpace;
using utlb::mem::Vpn;
using utlb::nic::NicTimings;
using utlb::sim::FleetConfig;
using utlb::sim::FleetOp;
using utlb::sim::TenantFleet;
using utlb::sim::ZipfPicker;

// ---------------------------------------------------------------------
// ZipfPicker
// ---------------------------------------------------------------------

TEST(Zipf, SameSeedReplaysIdenticalStream)
{
    ZipfPicker a(512, 1.2, 99);
    ZipfPicker b(512, 1.2, 99);
    for (int i = 0; i < 4096; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Zipf, SingleItemAlwaysDrawsIt)
{
    ZipfPicker z(1, 1.0, 5);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(z.next(), 0u);
}

TEST(Zipf, AlphaZeroIsUniform)
{
    constexpr std::size_t n = 64;
    constexpr int draws = 128000;
    ZipfPicker z(n, 0.0, 123);
    std::array<int, n> freq{};
    for (int i = 0; i < draws; ++i)
        ++freq[z.next()];
    // Expected 2000 per bin, sd ~45; +-400 is ~9 sigma.
    for (std::size_t r = 0; r < n; ++r)
        EXPECT_NEAR(freq[r], draws / static_cast<int>(n), 400)
            << "rank " << r;
}

TEST(Zipf, Alpha1RankFrequencyRatiosMatchTheLaw)
{
    constexpr int draws = 200000;
    ZipfPicker z(100, 1.0, 7);
    std::array<int, 100> freq{};
    for (int i = 0; i < draws; ++i)
        ++freq[z.next()];
    // P(rank r) ~ 1/(r+1): rank 0 draws twice as often as rank 1 and
    // ten times as often as rank 9.
    double r01 = static_cast<double>(freq[0]) / freq[1];
    double r09 = static_cast<double>(freq[0]) / freq[9];
    EXPECT_NEAR(r01, 2.0, 0.3);
    EXPECT_NEAR(r09, 10.0, 1.5);
    // Monotone head: the law's defining property.
    EXPECT_GT(freq[0], freq[1]);
    EXPECT_GT(freq[1], freq[3]);
    EXPECT_GT(freq[3], freq[9]);
}

/**
 * Cross-platform stream stability. Integral alphas take the exact
 * repeated-multiplication weight path (no std::pow), so the CDF and
 * hence the draw stream are bit-identical on every IEEE-754 platform
 * and libm. These goldens pin the streams; a change here is a
 * compatibility break for every recorded bench stream.
 */
TEST(Zipf, IntegralAlphaStreamsAreGolden)
{
    {
        ZipfPicker z(1000, 1.0, 0x5eedull);
        const std::size_t want[] = {46, 193, 510, 0, 0, 11, 1, 284,
                                    2, 0, 1, 10, 520, 34, 13, 585};
        for (std::size_t w : want)
            EXPECT_EQ(z.next(), w);
    }
    {
        ZipfPicker z(4096, 2.0, 42);
        const std::size_t want[] = {0, 2, 2, 10, 2, 3, 0, 0,
                                    0, 1, 0, 0, 4, 0, 0, 1};
        for (std::size_t w : want)
            EXPECT_EQ(z.next(), w);
    }
    {
        ZipfPicker z(256, 0.0, 7);
        const std::size_t want[] = {209, 237, 22, 27, 95, 104,
                                    218, 43, 93, 202, 173, 186,
                                    166, 230, 32, 85};
        for (std::size_t w : want)
            EXPECT_EQ(z.next(), w);
    }
}

// ---------------------------------------------------------------------
// TenantFleet
// ---------------------------------------------------------------------

TEST(TenantFleet, DeterministicForAGivenSeed)
{
    FleetConfig cfg;
    cfg.tenants = 64;
    cfg.churnProbability = 0.1;
    cfg.seed = 3;
    TenantFleet a(cfg), b(cfg);
    for (int i = 0; i < 5000; ++i) {
        FleetOp x = a.next(), y = b.next();
        ASSERT_EQ(x.kind, y.kind);
        ASSERT_EQ(x.tenant, y.tenant);
        ASSERT_EQ(x.buffer, y.buffer);
    }
}

TEST(TenantFleet, OpStreamIsStateConsistentUnderChurn)
{
    FleetConfig cfg;
    cfg.tenants = 32;
    cfg.buffersPerTenant = 4;
    cfg.churnProbability = 0.1;
    cfg.churnBurst = 8;
    cfg.seed = 11;
    TenantFleet fleet(cfg);
    std::vector<bool> alive(cfg.tenants, true);
    std::size_t live = cfg.tenants;
    std::uint64_t attaches = 0, detaches = 0, translates = 0;
    for (int i = 0; i < 20000; ++i) {
        FleetOp op = fleet.next();
        ASSERT_LT(op.tenant, cfg.tenants);
        switch (op.kind) {
        case FleetOp::Kind::Translate:
            ASSERT_TRUE(alive[op.tenant])
                << "translate against a detached tenant";
            ASSERT_LT(op.buffer, cfg.buffersPerTenant);
            ++translates;
            break;
        case FleetOp::Kind::Attach:
            ASSERT_FALSE(alive[op.tenant]) << "double attach";
            alive[op.tenant] = true;
            ++live;
            ++attaches;
            break;
        case FleetOp::Kind::Detach:
            ASSERT_TRUE(alive[op.tenant]) << "double detach";
            alive[op.tenant] = false;
            ASSERT_GT(live, 1u) << "tore down the last live tenant";
            --live;
            ++detaches;
            break;
        }
        // The generator flips liveness when a burst *enqueues* its
        // ops; the replayed state catches up once the queue drains.
        if (fleet.pendingOps() == 0) {
            ASSERT_EQ(live, fleet.aliveCount());
        }
    }
    // A bursty 10%-churn stream must actually churn, keep
    // translating, and keep attaches and detaches balanced (they can
    // differ by at most the net liveness drift).
    EXPECT_GT(attaches, 100u);
    EXPECT_GT(detaches, 100u);
    EXPECT_GT(translates, 1000u);
    std::size_t drift = attaches > detaches ? attaches - detaches
                                            : detaches - attaches;
    EXPECT_LE(drift, cfg.tenants);
}

TEST(TenantFleet, NoChurnMeansOnlyTranslates)
{
    FleetConfig cfg;
    cfg.tenants = 16;
    cfg.churnProbability = 0.0;
    TenantFleet fleet(cfg);
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(fleet.next().kind, FleetOp::Kind::Translate);
    EXPECT_EQ(fleet.aliveCount(), cfg.tenants);
}

// ---------------------------------------------------------------------
// PinBudget
// ---------------------------------------------------------------------

TEST(PinBudget, HardCapFallsBackToThePoolDefault)
{
    PinBudget b(100, QuotaMode::HardCap);
    b.attach(1, 0, 1);  // no per-tenant cap: pool default
    b.attach(2, 30, 1); // explicit cap
    EXPECT_EQ(b.limitFor(1), 100u);
    EXPECT_EQ(b.limitFor(2), 30u);
    EXPECT_EQ(b.tenants(), 2u);
}

TEST(PinBudget, WeightedShareSplitsByWeightAndRecomputes)
{
    PinBudget b(90, QuotaMode::WeightedShare);
    b.attach(1, 0, 1);
    EXPECT_EQ(b.limitFor(1), 90u);
    b.attach(2, 0, 2);
    EXPECT_EQ(b.limitFor(1), 30u);
    EXPECT_EQ(b.limitFor(2), 60u);
    b.detach(2);
    // The departed tenant's share flows back immediately.
    EXPECT_EQ(b.limitFor(1), 90u);
}

TEST(PinBudget, DegenerateSharesStayUsable)
{
    // Weight 0 is remapped to 1, and a share rounded to zero pages
    // is bumped to 1 so a starved tenant can still make progress.
    PinBudget b(1, QuotaMode::WeightedShare);
    b.attach(1, 0, 0);
    b.attach(2, 0, 0);
    EXPECT_EQ(b.limitFor(1), 1u);
    EXPECT_EQ(b.limitFor(2), 1u);
}

/** Minimal driver stack for PinManager-with-quota integration. */
class QuotaStack : public ::testing::Test, protected NodeStack
{
  protected:
    QuotaStack() : space(1, physMem)
    {
        driver.registerProcess(space);
    }

    AddressSpace space;
};

TEST_F(QuotaStack, QuotaEvictsAndCountsThrottles)
{
    PinBudget budget(4, QuotaMode::HardCap);
    PinManagerConfig cfg;
    cfg.budget = &budget;
    PinManager mgr(driver, 1, cfg);
    auto r1 = mgr.ensurePinned(0, 4);
    EXPECT_TRUE(r1.ok);
    EXPECT_EQ(r1.pagesUnpinned, 0u);
    EXPECT_EQ(mgr.totalQuotaThrottles(), 0u);

    // Two more pages push past the 4-page quota: two LRU evictions,
    // both attributed to the quota.
    auto r2 = mgr.ensurePinned(10, 2);
    EXPECT_TRUE(r2.ok);
    EXPECT_EQ(r2.pagesUnpinned, 2u);
    EXPECT_EQ(mgr.pinnedPages(), 4u);
    EXPECT_EQ(mgr.totalQuotaThrottles(), 2u);
}

TEST_F(QuotaStack, TighterLibraryBudgetMasksTheQuota)
{
    // memLimitPages 2 is stricter than the 4-page quota, so the
    // evictions it forces are plain budget evictions, not throttles.
    PinBudget budget(4, QuotaMode::HardCap);
    PinManagerConfig cfg;
    cfg.budget = &budget;
    cfg.memLimitPages = 2;
    PinManager mgr(driver, 1, cfg);
    mgr.ensurePinned(0, 2);
    auto r = mgr.ensurePinned(10, 1);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pagesUnpinned, 1u);
    EXPECT_EQ(mgr.totalEvictions(), 1u);
    EXPECT_EQ(mgr.totalQuotaThrottles(), 0u);
}

TEST_F(QuotaStack, UnboundQuotaIsBitIdenticalToNoQuota)
{
    // A quota that never binds must not perturb results or stats:
    // the nullptr-budget golden-equivalence discipline.
    PinBudget budget(1u << 20, QuotaMode::HardCap);
    PinManagerConfig with;
    with.budget = &budget;
    with.memLimitPages = 4;
    PinManagerConfig without;
    without.memLimitPages = 4;
    PinManager a(driver, 1, with);
    PinManager b(driver, 1, without);
    for (Vpn v : {Vpn{0}, Vpn{2}, Vpn{64}, Vpn{1}, Vpn{0}}) {
        auto ra = a.ensurePinned(v, 2);
        auto rb = b.ensurePinned(v, 2);
        ASSERT_EQ(ra.ok, rb.ok);
        ASSERT_EQ(ra.cost, rb.cost);
        ASSERT_EQ(ra.pagesPinned, rb.pagesPinned);
        ASSERT_EQ(ra.pagesUnpinned, rb.pagesUnpinned);
    }
    EXPECT_EQ(a.totalEvictions(), b.totalEvictions());
    EXPECT_EQ(a.totalQuotaThrottles(), 0u);
}

TEST_F(QuotaStack, ManagerLifecycleAttachesAndDetaches)
{
    PinBudget budget(64, QuotaMode::WeightedShare);
    {
        PinManagerConfig cfg;
        cfg.budget = &budget;
        PinManager mgr(driver, 1, cfg);
        EXPECT_EQ(budget.tenants(), 1u);
        EXPECT_EQ(budget.limitFor(1), 64u);
    }
    EXPECT_EQ(budget.tenants(), 0u);
}

// ---------------------------------------------------------------------
// Index-offsetting fairness golden (satellite of the fleet tentpole)
// ---------------------------------------------------------------------

/**
 * Crafted 2-tenant conflict workload: both tenants sweep `assoc` vpn
 * ranges that alias into the same S/4-set window, alternating whole
 * sweeps (tenant 1 fills the window's ways, then tenant 2 sweeps it,
 * then tenant 1 again ...). Each tenant's assoc aliases exactly fill
 * an assoc-way set, so without offsetting every sweep after the
 * first must evict the *other* tenant's resident lines — a pure
 * cross-tenant conflict storm. Offsetting shifts the two tenants'
 * windows apart, so each tenant's lines survive the other's sweep
 * (modulo the small wrap overlap) and cross-tenant evictions
 * collapse. The phase order matters: interleaving the tenants
 * per-vpn instead would make the LRU victim the *same* tenant's
 * older alias and hide the pollution this test pins.
 */
constexpr int kConflictRounds = 4;

/**
 * The storm above on a 256-entry cache. With @p threads each tenant
 * runs on its own thread through the concurrent probe and insert
 * paths, handing the window back and forth on a phase counter so the
 * sweep order (and hence the victim pattern) is the sequential one.
 */
std::uint64_t
crossEvictions(unsigned assoc, bool offsetting, bool threads)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{256, assoc, offsetting},
                          timings, nullptr);
    if (threads)
        cache.enableConcurrent();
    const std::size_t sets = 256 / assoc;
    const std::size_t window = sets / 4;
    auto sweep = [&](utlb::mem::ProcId pid, SharedUtlbCache::Shard *sh) {
        for (std::size_t v = 0; v < window; ++v) {
            for (unsigned r = 0; r < assoc; ++r) {
                Vpn vpn = static_cast<Vpn>(r * sets + v);
                if (!cache.lookup(pid, vpn, sh).hit)
                    cache.insert(pid, vpn,
                                 static_cast<utlb::mem::Pfn>(
                                     vpn + pid * 4096),
                                 InsertMode::Demand, sh);
            }
        }
    };
    if (!threads) {
        for (int round = 0; round < kConflictRounds; ++round) {
            sweep(1, nullptr);
            sweep(2, nullptr);
        }
        return cache.crossTenantEvictions();
    }
    std::atomic<int> phase{0};
    auto tenant = [&](utlb::mem::ProcId pid) {
        SharedUtlbCache::Shard sh = cache.makeShard();
        for (int round = 0; round < kConflictRounds; ++round) {
            int myPhase = round * 2 + static_cast<int>(pid) - 1;
            while (phase.load(std::memory_order_acquire) != myPhase)
                std::this_thread::yield();
            sweep(pid, &sh);
            phase.fetch_add(1, std::memory_order_acq_rel);
        }
        cache.absorbShard(sh);
    };
    std::thread t1(tenant, 1u), t2(tenant, 2u);
    t1.join();
    t2.join();
    return cache.crossTenantEvictions();
}

TEST(IndexOffsetting, StrictlyReducesCrossTenantEvictionsSequential)
{
    for (unsigned assoc : {1u, 2u, 4u}) {
        std::uint64_t off = crossEvictions(assoc, false, false);
        std::uint64_t on = crossEvictions(assoc, true, false);
        EXPECT_LT(on, off) << "assoc " << assoc;
        // The contested-window shape guarantees heavy conflict when
        // the tenants share sets.
        EXPECT_GT(off, 100u) << "assoc " << assoc;
    }
}

TEST(IndexOffsetting, StrictlyReducesCrossTenantEvictionsConcurrent)
{
    for (unsigned assoc : {1u, 2u, 4u}) {
        std::uint64_t off = crossEvictions(assoc, false, true);
        std::uint64_t on = crossEvictions(assoc, true, true);
        EXPECT_LT(on, off) << "assoc " << assoc;
        EXPECT_GT(off, 100u) << "assoc " << assoc;
    }
}

} // namespace
