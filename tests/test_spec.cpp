/**
 * @file
 * Every translation path against one executable spec. Each case is a
 * point of the stack's parameter space; its seeded op list runs
 * through every configuration of spec::matrix(), index offsetting on
 * and off (docs/checking.md, "The executable spec"). Cases in the
 * BatchedRange, ConcurrentGolden, AssocGolden, SimdGolden and
 * IndexOffsetting suites keep the names of the pairwise golden tests
 * whose parameter points they took over.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "spec/spec_runner.hpp"

namespace {

using utlb::core::PolicyKind;
using utlb::mem::kPageSize;
using namespace utlb::spec;

constexpr PolicyKind Lru = PolicyKind::Lru, Mru = PolicyKind::Mru,
                     Lfu = PolicyKind::Lfu, Mfu = PolicyKind::Mfu,
                     Fifo = PolicyKind::Fifo, Rnd = PolicyKind::Random;

void
expectSpec(const Case &c, const std::vector<Op> &ops)
{
    std::string bad = check(c, ops);
    EXPECT_TRUE(bad.empty()) << bad;
}

// entries, assoc, prefetch, pin budget, policy, pre-pin, seed[, one view]
#define SPEC_CASE(suite, name, ...)                                       \
    TEST(suite, name)                                                     \
    {                                                                     \
        const Case c{__VA_ARGS__};                                        \
        expectSpec(c, generate(c));                                       \
    }

// Direct-mapped: the batched walk's run probes.
SPEC_CASE(BatchedRange, GoldenDirectMappedNoLimit, 1024, 1, 1, 0, Lru, 1, 1)
SPEC_CASE(BatchedRange, GoldenPrefetchWide, 256, 1, 8, 0, Lru, 1, 2)
SPEC_CASE(BatchedRange, GoldenMemLimitLru, 1024, 1, 4, 64, Lru, 1, 3)
SPEC_CASE(BatchedRange, GoldenMemLimitMru, 1024, 1, 4, 64, Mru, 1, 4)
SPEC_CASE(BatchedRange, GoldenMemLimitRandomPolicy, 512, 1, 4, 128, Rnd, 1,
          5)
SPEC_CASE(BatchedRange, GoldenPrepinBatch, 1024, 1, 4, 96, Lru, 16, 6)
SPEC_CASE(BatchedRange, GoldenSetAssociativeFallback, 1024, 2, 4, 64, Lru,
          1, 7)
SPEC_CASE(ConcurrentGolden, PerPageNoLimit, 1024, 1, 1, 0, Lru, 1, 11)
SPEC_CASE(ConcurrentGolden, PerPagePrefetchWide, 256, 1, 8, 0, Lru, 1, 12)
SPEC_CASE(ConcurrentGolden, PerPageMemLimit, 1024, 1, 4, 64, Lru, 1, 13)
SPEC_CASE(ConcurrentGolden, BatchedNoLimit, 1024, 1, 1, 0, Lru, 1, 14)
SPEC_CASE(ConcurrentGolden, BatchedPrefetchWide, 256, 1, 8, 0, Lru, 1, 15)
SPEC_CASE(ConcurrentGolden, BatchedMemLimit, 1024, 1, 4, 64, Lru, 1, 16)
SPEC_CASE(ConcurrentGolden, BatchedSmallCacheEvictions, 64, 1, 4, 0, Lru,
          1, 17)
SPEC_CASE(ConcurrentGolden, BatchedPrefetchWideSeed18, 256, 1, 8, 0, Lru,
          1, 18)

// Set-associative, tenant 1 alone: a lone Striped view must make the
// Unlocked policy's every stat, so each configuration's stats tree is
// held to the reference's.
SPEC_CASE(AssocGolden, TwoWayPerPage, 1024, 2, 1, 0, Lru, 1, 21, true)
SPEC_CASE(AssocGolden, TwoWayBatched, 1024, 2, 1, 0, Lru, 1, 22, true)
SPEC_CASE(AssocGolden, TwoWaySmallCacheEvictions, 64, 2, 4, 0, Lru, 1, 23,
          true)
SPEC_CASE(AssocGolden, TwoWayMemLimit, 256, 2, 4, 64, Lru, 1, 24, true)
SPEC_CASE(AssocGolden, FourWayPerPage, 1024, 4, 1, 0, Lru, 1, 25, true)
SPEC_CASE(AssocGolden, FourWayBatched, 1024, 4, 1, 0, Lru, 1, 26, true)
SPEC_CASE(AssocGolden, FourWaySmallCacheEvictions, 64, 4, 4, 0, Lru, 1, 27,
          true)
SPEC_CASE(AssocGolden, FourWayMemLimitPrefetch, 256, 4, 8, 64, Lru, 1, 28,
          true)
SPEC_CASE(AssocGolden, FourWayFifoBudget, 64, 4, 4, 48, Fifo, 1, 30, true)

// Set-associative, several tenants: cross-tenant evictions with and
// without offsetting, held to the oracle's counts.
SPEC_CASE(IndexOffsetting, SequentialAndConcurrentAgreeAtOneThread, 64, 2,
          1, 0, Lru, 1, 29)

// A small shared cache under a 128-page budget, per associativity.
SPEC_CASE(SimdGolden, DirectMappedSequential, 256, 1, 4, 128, Lru, 1, 81)
SPEC_CASE(SimdGolden, DirectMappedConcurrent, 256, 1, 4, 128, Mru, 1, 82)
SPEC_CASE(SimdGolden, TwoWaySequential, 256, 2, 4, 128, Lru, 1, 83)
SPEC_CASE(SimdGolden, TwoWayConcurrent, 256, 2, 4, 128, Mru, 1, 84)
SPEC_CASE(SimdGolden, FourWaySequential, 256, 4, 4, 128, Lru, 1, 85)
SPEC_CASE(SimdGolden, FourWayConcurrent, 256, 4, 4, 128, Mru, 1, 86)

// MRU and tight budgets at every associativity, and the policies the
// oracle does not model (held to the reference configuration).
SPEC_CASE(Spec, MruBudgetTwoWay, 256, 2, 4, 48, Mru, 1, 101)
SPEC_CASE(Spec, MruBudgetFourWayPrepin, 128, 4, 2, 64, Mru, 8, 102)
SPEC_CASE(Spec, LruTightBudgetFourWay, 64, 4, 8, 24, Lru, 4, 103)
SPEC_CASE(Spec, LfuBudgetDirectMapped, 256, 1, 4, 64, Lfu, 1, 104)
SPEC_CASE(Spec, MfuBudgetTwoWay, 256, 2, 4, 64, Mfu, 1, 105)
SPEC_CASE(Spec, FifoBudgetFourWay, 256, 4, 4, 64, Fifo, 1, 106)
SPEC_CASE(Spec, RandomBudgetFourWay, 128, 4, 8, 48, Rnd, 4, 107)

// Directed op lists, written the way check() prints a shrunk one.
TEST(BatchedRange, ZeroBytesIsEmpty)
{
    expectSpec(Case{256}, {{Op::Attach, 1},
                           {Op::Translate, 1, 0x1000, 0},
                           {Op::Translate, 1, 0x1fff, 1},
                           {Op::Translate, 1, 0x1fff, 0}});
}

TEST(BatchedRange, PinFailureReportedIdentically)
{
    // A 4-page budget cannot hold an 8-page buffer; a locked page
    // then makes a 4-page request fail once the unlocked ones are gone.
    expectSpec(Case{256, 1, 1, 4},
               {{Op::Attach, 1},
                {Op::Translate, 1, 0, 8 * kPageSize},
                {Op::Translate, 1, 0, 3 * kPageSize},
                {Op::Lock, 1, 0, 1},
                {Op::Translate, 1, 16 * kPageSize, 4 * kPageSize},
                {Op::Unlock, 1, 0, 1},
                {Op::Translate, 1, 16 * kPageSize, 4 * kPageSize}});
}

TEST(Spec, ShrinkerFindsTheFailingPair)
{
    std::vector<int> items(100);
    std::iota(items.begin(), items.end(), 0);
    int tries = 0;
    auto fails = [&](const std::vector<int> &sub) {
        ++tries;
        return std::count(sub.begin(), sub.end(), 17)
            && std::count(sub.begin(), sub.end(), 63);
    };
    EXPECT_EQ(ddmin(items, fails), (std::vector<int>{17, 63}));
    EXPECT_LT(tries, 200);
    // Nothing to drop from a single failing item.
    EXPECT_EQ(ddmin(std::vector<int>{5}, fails), std::vector<int>{5});
}

} // namespace
