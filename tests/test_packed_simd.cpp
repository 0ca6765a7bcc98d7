/**
 * @file
 * Packed set probe: SIMD/scalar golden equivalence and stress.
 *
 * The packed tag-word layout (shared_cache.hpp) dispatches its tag
 * compare through simd::matchWays(), which may run scalar, SSE2, or
 * AVX2 depending on build and host. The contract is that the chosen
 * kernel is *unobservable*: identical Translation results, modeled
 * costs, LRU decisions, and stats trees. This suite pins that down:
 *
 *  1. Kernel unit equivalence: every supported path produces the
 *     scalar reference mask over adversarial tag blocks (duplicate
 *     keys, zero words, nonzero pad garbage beyond n).
 *  2. Golden equivalence: the same randomized workload replayed on a
 *     forced-scalar stack and a default-dispatch stack must match
 *     call-by-call and in the final stats dump, across
 *     assoc {1, 2, 4} x {sequential, concurrent} stacks.
 *  3. A torture mix of packed probes, pin-churn evictions, and
 *     asynchronous-fill views; run under UTLB_SANITIZE=thread this
 *     is a race detector for the packed read/write protocol.
 *
 * The dispatch override (simd::forcePath) is process-global, so the
 * golden tests run their two stacks sequentially, each under a
 * scoped force.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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
#include "sim/simd.hpp"
#include "sim/stats.hpp"

namespace {

using namespace utlb::core;
using utlb::check::AuditReport;
using utlb::mem::ProcId;
using utlb::mem::Vpn;
using utlb::sim::Rng;
using utlb::simd::Path;

/** Force a dispatch path for a scope, restoring on exit. */
struct ScopedPath {
    Path prev;

    explicit ScopedPath(Path p) : prev(utlb::simd::activePath())
    {
        utlb::simd::forcePath(p);
    }
    ~ScopedPath() { utlb::simd::forcePath(prev); }
};

// ---------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------

TEST(SimdDispatch, NamesAndClamping)
{
    EXPECT_STREQ(utlb::simd::pathName(Path::Scalar), "scalar");
    EXPECT_STREQ(utlb::simd::pathName(Path::Sse2), "sse2");
    EXPECT_STREQ(utlb::simd::pathName(Path::Avx2), "avx2");

    Path best = utlb::simd::bestSupported();
    ScopedPath restore(utlb::simd::activePath());

    // Forcing narrower always works; forcing wider clamps to best.
    EXPECT_EQ(utlb::simd::forcePath(Path::Scalar), Path::Scalar);
    EXPECT_EQ(utlb::simd::activePath(), Path::Scalar);
    EXPECT_STREQ(utlb::simd::activePathName(), "scalar");
    Path got = utlb::simd::forcePath(Path::Avx2);
    EXPECT_EQ(got, best <= Path::Avx2 ? best : Path::Avx2);
    EXPECT_LE(static_cast<int>(utlb::simd::activePath()),
              static_cast<int>(best));
}

// ---------------------------------------------------------------------
// Kernel unit equivalence
// ---------------------------------------------------------------------

TEST(SimdKernels, AllPathsMatchScalarReference)
{
    Path best = utlb::simd::bestSupported();
    ScopedPath restore(utlb::simd::activePath());

    Rng rng(0x51D);
    // A few distinct keys so duplicate-tag sets occur often; 0 plays
    // the invalid-way word.
    const std::uint64_t keys[4] = {
        0x9E3779B97F4A7C15ull | 1,
        0xC2B2AE3D27D4EB4Full | 1,
        0,
        ~std::uint64_t{0},
    };

    for (int trial = 0; trial < 2000; ++trial) {
        unsigned n = 1 + static_cast<unsigned>(rng.below(8));
        // Overread room past n, poisoned with nonzero garbage: the
        // kernels must mask lanes >= n off, whatever follows.
        alignas(64) std::uint64_t tags[16];
        for (unsigned w = 0; w < 16; ++w)
            tags[w] = w < n ? keys[rng.below(4)]
                            : 0xDEADBEEFDEADBEEFull;
        std::uint64_t key = keys[rng.below(4)];
        if (key == 0)
            key = keys[0];

        unsigned ref = 0;
        for (unsigned w = 0; w < n; ++w)
            ref |= (tags[w] == key ? 1u : 0u) << w;

        for (Path p : {Path::Scalar, Path::Sse2, Path::Avx2}) {
            if (p > best)
                continue;
            utlb::simd::forcePath(p);
            EXPECT_EQ(utlb::simd::matchWays(tags, n, key), ref)
                << "path " << utlb::simd::pathName(p) << " n " << n
                << " trial " << trial;
        }
    }
}

// ---------------------------------------------------------------------
// Golden equivalence: forced scalar vs default dispatch
// ---------------------------------------------------------------------

/** One full stack (the test_concurrency.cpp harness shape). */
struct Harness {
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

    Harness(const CacheConfig &ccfg, const UtlbConfig &ucfg)
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
};

struct RunResult {
    std::vector<Translation> calls;
    std::string stats;
};

/**
 * Replay the randomized workload (the runGoldenAssoc shape from
 * test_concurrency_assoc.cpp, mixing translate and translateRange)
 * on a fresh stack under whatever dispatch path is currently
 * forced, and capture every call plus the final stats tree.
 */
RunResult
runWorkload(unsigned assoc, bool concurrent, std::uint64_t seed)
{
    UtlbConfig cfg;
    cfg.prefetchEntries = 4;
    cfg.pin.memLimitPages = 128;
    cfg.pin.seed = seed;
    cfg.concurrent = concurrent;

    Harness h(CacheConfig{256, assoc, true}, cfg);
    EXPECT_EQ(h.cache.concurrent(), concurrent);

    RunResult out;
    Rng rng(seed ^ 0x51D0ULL);
    constexpr std::size_t kBufPages = 512;
    for (int call = 0; call < 300; ++call) {
        Vpn startPage = rng.below(kBufPages);
        std::size_t npages = 1 + rng.below(64);
        if (rng.below(4) == 0) {
            startPage = rng.below(8);
            npages = 1;
        }
        utlb::mem::VirtAddr va = startPage * utlb::mem::kPageSize;
        std::size_t nbytes = npages * utlb::mem::kPageSize;
        out.calls.push_back(call % 2 ? h.utlb->translateRange(va,
                                                              nbytes)
                                     : h.utlb->translate(va, nbytes));
    }

    h.utlb->flushShardStats();
    std::ostringstream os;
    h.root.dumpJson(os);
    out.stats = os.str();

    AuditReport report;
    h.cache.audit(report);
    h.driver.audit(report);
    h.utlb->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    return out;
}

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
    EXPECT_EQ(a.missPages, b.missPages) << where;
}

void
runGoldenSimd(unsigned assoc, bool concurrent, std::uint64_t seed)
{
    if (utlb::simd::bestSupported() == Path::Scalar)
        GTEST_SKIP() << "host dispatch is already scalar";

    RunResult scalar, dispatch;
    {
        ScopedPath sp(Path::Scalar);
        ASSERT_EQ(utlb::simd::activePath(), Path::Scalar);
        scalar = runWorkload(assoc, concurrent, seed);
    }
    {
        ScopedPath sp(utlb::simd::bestSupported());
        dispatch = runWorkload(assoc, concurrent, seed);
    }

    ASSERT_EQ(scalar.calls.size(), dispatch.calls.size());
    for (std::size_t i = 0; i < scalar.calls.size(); ++i) {
        expectSameTranslation(scalar.calls[i], dispatch.calls[i],
                              "call " + std::to_string(i));
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_EQ(scalar.stats, dispatch.stats);
}

TEST(SimdGolden, DirectMappedSequential)
{
    runGoldenSimd(1, false, 81);
}

TEST(SimdGolden, DirectMappedConcurrent)
{
    runGoldenSimd(1, true, 82);
}

TEST(SimdGolden, TwoWaySequential)
{
    runGoldenSimd(2, false, 83);
}

TEST(SimdGolden, TwoWayConcurrent)
{
    runGoldenSimd(2, true, 84);
}

TEST(SimdGolden, FourWaySequential)
{
    runGoldenSimd(4, false, 85);
}

TEST(SimdGolden, FourWayConcurrent)
{
    runGoldenSimd(4, true, 86);
}

// ---------------------------------------------------------------------
// Torture: packed probes vs pin churn vs async fills
// ---------------------------------------------------------------------

TEST(SimdStress, PackedProbesVsPinChurnAndAsyncFills)
{
    // Two async-fill views under a tight pin budget drive
    // translateRange loops (packed probes + budget-forced unpin
    // invalidates + miss installs), while a raw reader hammers lookup()
    // through the seqlock path on the same sets. Run under
    // UTLB_SANITIZE=thread to make this a race detector for the
    // packed tag/cold write protocol.
    utlb::mem::PhysMemory phys(8192);
    utlb::mem::PinFacility pins;
    utlb::nic::Sram sram(4u << 20);
    utlb::nic::NicTimings timings;
    HostCosts costs(HostProfile::PentiumIINT);
    SharedUtlbCache cache(CacheConfig{256, 4, true}, timings, &sram);
    UtlbDriver driver(phys, pins, sram, cache, costs);

    std::vector<std::unique_ptr<utlb::mem::AddressSpace>> spaces;
    for (ProcId p = 1; p <= 2; ++p) {
        spaces.push_back(
            std::make_unique<utlb::mem::AddressSpace>(p, phys));
        driver.registerProcess(*spaces.back());
    }

    UtlbConfig cfg;
    cfg.concurrent = true;
    cfg.asyncFills = true;
    cfg.prefetchEntries = 8;
    cfg.pin.memLimitPages = 96;
    auto v1 = std::make_unique<UserUtlb>(driver, cache, timings, 1,
                                         cfg);
    auto v2 = std::make_unique<UserUtlb>(driver, cache, timings, 2,
                                         cfg);

    auto work = [](UserUtlb &view, std::uint64_t seed) {
        Rng rng(seed);
        for (int it = 0; it < 200; ++it) {
            Vpn start = rng.below(512);
            std::size_t n = 1 + rng.below(32);
            view.translateRange(start * utlb::mem::kPageSize,
                                n * utlb::mem::kPageSize);
        }
    };
    std::thread w1([&] { work(*v1, 0x511); });
    std::thread w2([&] { work(*v2, 0x522); });
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

    v1->flushShardStats();
    v2->flushShardStats();
    AuditReport report;
    cache.audit(report);
    driver.audit(report);
    v1->pinManager().audit(report);
    v2->pinManager().audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

} // namespace
