/**
 * @file
 * Packed set probe: SIMD kernel equivalence and stress.
 *
 * The packed tag-word layout (shared_cache.hpp) dispatches its tag
 * compare through simd::matchWays(), which may run scalar, SSE2, or
 * AVX2 depending on build and host. The contract is that the chosen
 * kernel is *unobservable*. This suite pins the kernels down:
 *
 *  1. Kernel unit equivalence: every supported path produces the
 *     scalar reference mask over adversarial tag blocks (duplicate
 *     keys, zero words, nonzero pad garbage beyond n).
 *  2. A torture mix of packed probes, pin-churn evictions, and
 *     asynchronous-fill views; run under UTLB_SANITIZE=thread this
 *     is a race detector for the packed read/write protocol.
 *
 * Whole stacks on a forced-scalar and a default-dispatch path are
 * held to the executable spec (test_spec.cpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"
#include "sim/simd.hpp"
#include "sim/stats.hpp"

namespace {

using namespace utlb::core;
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
    utlb::NodeStack node({256, 4, true}, 8192, 4u << 20);
    auto &[costs, timings, phys, pins, sram, cache, driver] = node;

    UtlbConfig cfg;
    cfg.concurrent = true;
    cfg.asyncFills = true;
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

} // namespace
