/**
 * @file
 * Unit and property tests for the core UTLB data structures:
 * lookup tree, pin bit vector, replacement policies, the Shared
 * UTLB-Cache, and both translation table flavours.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/audit.hpp"
#include "core/bitvector.hpp"
#include "core/lookup_tree.hpp"
#include "core/replacement.hpp"
#include "core/shared_cache.hpp"
#include "core/translation_table.hpp"
#include "mem/phys_memory.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/random.hpp"

namespace {

using namespace utlb::core;
using utlb::mem::PhysMemory;
using utlb::mem::Pfn;
using utlb::mem::ProcId;
using utlb::mem::Vpn;
using utlb::nic::NicTimings;
using utlb::nic::Sram;
using utlb::sim::Rng;
using utlb::sim::usToTicks;

// ---------------------------------------------------------------------
// LookupTree
// ---------------------------------------------------------------------

TEST(LookupTree, SetGetInvalidate)
{
    LookupTree t;
    EXPECT_FALSE(t.get(100).has_value());
    t.set(100, 7);
    EXPECT_EQ(t.get(100), 7u);
    EXPECT_EQ(t.validEntries(), 1u);
    EXPECT_TRUE(t.invalidate(100));
    EXPECT_FALSE(t.get(100).has_value());
    EXPECT_FALSE(t.invalidate(100));
    EXPECT_EQ(t.validEntries(), 0u);
}

TEST(LookupTree, OverwriteKeepsCount)
{
    LookupTree t;
    t.set(5, 1);
    t.set(5, 2);
    EXPECT_EQ(t.get(5), 2u);
    EXPECT_EQ(t.validEntries(), 1u);
}

TEST(LookupTree, SparseAddressesAllocateSeparateLeaves)
{
    LookupTree t;
    t.set(0, 1);
    t.set(LookupTree::kLeafEntries, 2);      // next leaf
    t.set(10 * LookupTree::kLeafEntries, 3); // far leaf
    EXPECT_EQ(t.leafTables(), 3u);
    EXPECT_EQ(t.get(0), 1u);
    EXPECT_EQ(t.get(LookupTree::kLeafEntries), 2u);
    EXPECT_EQ(t.get(10 * LookupTree::kLeafEntries), 3u);
    EXPECT_GT(t.footprintBytes(), 0u);
}

TEST(LookupTree, ManyEntriesRoundTrip)
{
    LookupTree t;
    for (Vpn v = 0; v < 5000; v += 3)
        t.set(v, static_cast<UtlbIndex>(v * 2));
    for (Vpn v = 0; v < 5000; ++v) {
        if (v % 3 == 0)
            EXPECT_EQ(t.get(v), static_cast<UtlbIndex>(v * 2));
        else
            EXPECT_FALSE(t.get(v).has_value());
    }
}

// ---------------------------------------------------------------------
// PinBitVector
// ---------------------------------------------------------------------

TEST(PinBitVector, SetClearTestCount)
{
    PinBitVector bv;
    EXPECT_FALSE(bv.test(100));
    bv.set(100);
    EXPECT_TRUE(bv.test(100));
    EXPECT_EQ(bv.count(), 1u);
    bv.set(100);  // idempotent
    EXPECT_EQ(bv.count(), 1u);
    bv.clear(100);
    EXPECT_FALSE(bv.test(100));
    EXPECT_EQ(bv.count(), 0u);
    bv.clear(100);  // idempotent
    EXPECT_EQ(bv.count(), 0u);
}

TEST(PinBitVector, CheckRangeFindsFirstUnpinned)
{
    PinBitVector bv;
    for (Vpn v = 0; v < 10; ++v)
        bv.set(v);
    bv.clear(6);
    auto res = bv.checkRange(0, 10);
    EXPECT_FALSE(res.allPinned);
    EXPECT_EQ(res.firstUnpinned, 6u);
}

TEST(PinBitVector, CheckRangeAllPinned)
{
    PinBitVector bv;
    for (Vpn v = 5; v < 15; ++v)
        bv.set(v);
    auto res = bv.checkRange(5, 10);
    EXPECT_TRUE(res.allPinned);
}

TEST(PinBitVector, CheckCostMatchesTable1Bounds)
{
    PinBitVector bv;
    // All unpinned: the scan stops at the first page -> minimum cost
    // 0.2 us regardless of range length (Table 1 "check min").
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u}) {
        auto res = bv.checkRange(0, n);
        EXPECT_EQ(res.cost, usToTicks(0.2)) << n;
    }
    // All pinned: full scan -> maximum cost per Table 1 "check max".
    for (Vpn v = 0; v < 32; ++v)
        bv.set(v);
    EXPECT_EQ(bv.checkRange(0, 1).cost, usToTicks(0.4));
    EXPECT_EQ(bv.checkRange(0, 2).cost, usToTicks(0.6));
    EXPECT_EQ(bv.checkRange(0, 32).cost, usToTicks(0.7));
}

TEST(PinBitVector, WordsScannedCrossesWordBoundaries)
{
    PinBitVector bv;
    for (Vpn v = 60; v < 70; ++v)
        bv.set(v);
    auto res = bv.checkRange(60, 10);  // spans words 0 and 1
    EXPECT_TRUE(res.allPinned);
    EXPECT_EQ(res.wordsScanned, 2u);
}

TEST(PinBitVector, StoresOnlyTheTouchedSpan)
{
    // A process far from vpn 0 pays for the words it touches, not for
    // the address space below them.
    PinBitVector bv;
    const Vpn far = Vpn{5} << 20;
    bv.set(far + 70);
    EXPECT_EQ(bv.footprintBytes(), 8u);
    EXPECT_TRUE(bv.test(far + 70));
    EXPECT_FALSE(bv.test(70));
    EXPECT_FALSE(bv.test(far + 6));

    // A set below the base word grows the span downwards.
    bv.set(far - 1);
    EXPECT_TRUE(bv.test(far - 1));
    EXPECT_TRUE(bv.test(far + 70));
    EXPECT_FALSE(bv.test(far));
    EXPECT_EQ(bv.count(), 2u);
    EXPECT_LE(bv.footprintBytes(), 4u * 8);
    std::vector<Vpn> seen;
    bv.forEachSet([&](Vpn v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<Vpn>{far - 1, far + 70}));

    // Clears outside the span are harmless.
    bv.clear(3);
    bv.clear(far << 2);
    EXPECT_EQ(bv.count(), 2u);
}

TEST(PinBitVector, RangeScansAcrossTheSpanEdgesMatchASet)
{
    // Random pages around a base far from 0, the first of them not
    // the lowest; queries start below the stored span and end past
    // it. A std::set is the oracle.
    utlb::sim::Rng rng(0x5ba5e);
    for (int round = 0; round < 100; ++round) {
        const Vpn base = ((1 + rng.below(8)) << 20) + rng.below(4096);
        PinBitVector bv;
        std::set<Vpn> pinned;
        for (std::uint64_t k = 0, n = rng.below(60); k < n; ++k) {
            Vpn v = base + rng.below(600) - 300;
            bv.set(v);
            pinned.insert(v);
        }
        ASSERT_EQ(bv.count(), pinned.size());
        for (int q = 0; q < 20; ++q) {
            Vpn start = base - 400 + rng.below(800);
            std::size_t n = 1 + rng.below(900);
            std::optional<Vpn> firstSet, firstClear;
            for (Vpn v = start; v < start + n; ++v) {
                bool in = pinned.count(v) != 0;
                ASSERT_EQ(bv.test(v), in) << v;
                if (in && !firstSet)
                    firstSet = v;
                if (!in && !firstClear)
                    firstClear = v;
            }
            EXPECT_EQ(bv.firstSetInRange(start, n), firstSet);
            EXPECT_EQ(bv.firstClearInRange(start, n), firstClear);
            CheckResult c = bv.checkRange(start, n);
            EXPECT_EQ(c.allPinned, !firstClear.has_value());
            if (firstClear) {
                EXPECT_EQ(c.firstUnpinned, *firstClear);
            }
        }
    }
}

// ---------------------------------------------------------------------
// PinBitVector range primitives vs brute force
// ---------------------------------------------------------------------

TEST(BitVectorRange, PrimitivesMatchBruteForce)
{
    Rng rng(0xb17b17);
    for (int round = 0; round < 200; ++round) {
        PinBitVector bits;
        // Random pattern straddling several 64-bit words, with runs.
        Vpn base = rng.below(500);
        std::size_t span = 1 + rng.below(300);
        for (Vpn v = base; v < base + span; ++v) {
            if (rng.below(100) < 60)
                bits.set(v);
        }
        Vpn qstart = base > 5 ? base - 5 : 0;
        std::size_t qlen = span + 10;

        // Brute-force references.
        bool all = true;
        Vpn firstClear = 0, firstSet = 0;
        bool haveClear = false, haveSet = false;
        for (Vpn v = qstart; v < qstart + qlen; ++v) {
            if (bits.test(v)) {
                if (!haveSet) {
                    haveSet = true;
                    firstSet = v;
                }
            } else {
                all = false;
                if (!haveClear) {
                    haveClear = true;
                    firstClear = v;
                }
            }
        }

        EXPECT_EQ(bits.allSetInRange(qstart, qlen), all);
        auto clear = bits.firstClearInRange(qstart, qlen);
        ASSERT_EQ(clear.has_value(), haveClear);
        if (haveClear) {
            EXPECT_EQ(*clear, firstClear);
        }
        auto set = bits.firstSetInRange(qstart, qlen);
        ASSERT_EQ(set.has_value(), haveSet);
        if (haveSet) {
            EXPECT_EQ(*set, firstSet);
        }
    }
}

TEST(BitVectorRange, EmptyAndDegenerate)
{
    PinBitVector bits;
    EXPECT_TRUE(bits.allSetInRange(10, 0));
    EXPECT_FALSE(bits.firstClearInRange(10, 0).has_value());
    EXPECT_FALSE(bits.firstSetInRange(10, 0).has_value());
    EXPECT_FALSE(bits.allSetInRange(0, 1));
    bits.set(63);
    bits.set(64);  // word boundary
    EXPECT_TRUE(bits.allSetInRange(63, 2));
    EXPECT_EQ(bits.firstClearInRange(63, 3), Vpn{65});
    EXPECT_EQ(bits.firstSetInRange(0, 200), Vpn{63});
}

// ---------------------------------------------------------------------
// Replacement policies
// ---------------------------------------------------------------------

TEST(Replacement, LruEvictsLeastRecentlyUsed)
{
    auto p = ReplacementPolicy::create(PolicyKind::Lru);
    p->onInsert(1);
    p->onInsert(2);
    p->onInsert(3);
    p->onAccess(1);  // order now 2, 3, 1
    EXPECT_EQ(p->victim({}), 2u);
    p->onAccess(2);  // order now 3, 1, 2
    EXPECT_EQ(p->victim({}), 3u);
}

TEST(Replacement, MruEvictsMostRecentlyUsed)
{
    auto p = ReplacementPolicy::create(PolicyKind::Mru);
    p->onInsert(1);
    p->onInsert(2);
    p->onInsert(3);
    p->onAccess(1);
    EXPECT_EQ(p->victim({}), 1u);
}

TEST(Replacement, FifoIgnoresAccesses)
{
    auto p = ReplacementPolicy::create(PolicyKind::Fifo);
    p->onInsert(1);
    p->onInsert(2);
    p->onAccess(1);
    p->onAccess(1);
    EXPECT_EQ(p->victim({}), 1u);
}

TEST(Replacement, LfuEvictsLeastFrequentlyUsed)
{
    auto p = ReplacementPolicy::create(PolicyKind::Lfu);
    p->onInsert(1);
    p->onInsert(2);
    p->onAccess(1);
    p->onAccess(1);
    p->onAccess(2);
    EXPECT_EQ(p->victim({}), 2u);
}

TEST(Replacement, MfuEvictsMostFrequentlyUsed)
{
    auto p = ReplacementPolicy::create(PolicyKind::Mfu);
    p->onInsert(1);
    p->onInsert(2);
    p->onAccess(1);
    p->onAccess(1);
    EXPECT_EQ(p->victim({}), 1u);
}

TEST(Replacement, LfuTieBreaksTowardLeastRecent)
{
    auto p = ReplacementPolicy::create(PolicyKind::Lfu);
    p->onInsert(1);
    p->onInsert(2);
    // Equal frequency; 1 was inserted (stamped) first.
    EXPECT_EQ(p->victim({}), 1u);
    p->onAccess(1);
    p->onAccess(2);
    // Still equal; 1 accessed before 2.
    EXPECT_EQ(p->victim({}), 1u);
}

TEST(Replacement, RandomIsDeterministicPerSeed)
{
    auto a = ReplacementPolicy::create(PolicyKind::Random, 7);
    auto b = ReplacementPolicy::create(PolicyKind::Random, 7);
    for (Vpn v = 0; v < 50; ++v) {
        a->onInsert(v);
        b->onInsert(v);
    }
    for (int i = 0; i < 20; ++i) {
        auto va = a->victim({});
        auto vb = b->victim({});
        ASSERT_TRUE(va.has_value());
        EXPECT_EQ(va, vb);
        a->onRemove(*va);
        b->onRemove(*vb);
    }
}

TEST(Replacement, NameRoundTrip)
{
    for (auto kind : {PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Lfu,
                      PolicyKind::Mfu, PolicyKind::Fifo,
                      PolicyKind::Random}) {
        std::string name = toString(kind);
        for (auto &c : name)
            c = static_cast<char>(std::tolower(c));
        EXPECT_EQ(policyFromName(name), kind);
    }
}

/** Property suite run over every policy kind. */
class PolicyProperty : public ::testing::TestWithParam<PolicyKind>
{};

TEST_P(PolicyProperty, VictimIsAlwaysATrackedPage)
{
    auto p = ReplacementPolicy::create(GetParam(), 3);
    utlb::sim::Rng rng(17);
    std::set<Vpn> tracked;
    for (int step = 0; step < 2000; ++step) {
        double roll = rng.uniform();
        if (roll < 0.45 || tracked.empty()) {
            Vpn v = rng.below(500);
            if (!tracked.count(v)) {
                p->onInsert(v);
                tracked.insert(v);
            }
        } else if (roll < 0.7) {
            // access a random tracked page
            auto it = tracked.begin();
            std::advance(it, rng.below(tracked.size()));
            p->onAccess(*it);
        } else if (roll < 0.85) {
            auto it = tracked.begin();
            std::advance(it, rng.below(tracked.size()));
            p->onRemove(*it);
            tracked.erase(it);
        } else {
            auto v = p->victim({});
            if (tracked.empty()) {
                EXPECT_FALSE(v.has_value());
            } else {
                ASSERT_TRUE(v.has_value());
                EXPECT_TRUE(tracked.count(*v));
            }
        }
        ASSERT_EQ(p->size(), tracked.size());
    }
}

TEST_P(PolicyProperty, VictimRespectsEvictabilityPredicate)
{
    auto p = ReplacementPolicy::create(GetParam(), 5);
    for (Vpn v = 0; v < 20; ++v)
        p->onInsert(v);
    // Only even pages evictable.
    for (int i = 0; i < 10; ++i) {
        auto v = p->victim([](Vpn x) { return x % 2 == 0; });
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v % 2, 0u);
        p->onRemove(*v);
    }
    // All even pages gone; nothing evictable remains.
    EXPECT_FALSE(
        p->victim([](Vpn x) { return x % 2 == 0; }).has_value());
    EXPECT_EQ(p->size(), 10u);
}

TEST_P(PolicyProperty, ContainsAgreesWithInsertRemove)
{
    auto p = ReplacementPolicy::create(GetParam(), 5);
    p->onInsert(42);
    EXPECT_TRUE(p->contains(42));
    EXPECT_FALSE(p->contains(43));
    p->onRemove(42);
    EXPECT_FALSE(p->contains(42));
    // Removing an untracked page is a no-op.
    p->onRemove(42);
    EXPECT_EQ(p->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperty,
    ::testing::Values(PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Lfu,
                      PolicyKind::Mfu, PolicyKind::Fifo,
                      PolicyKind::Random),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return toString(info.param);
    });

// ---------------------------------------------------------------------
// RecencyPolicy::onAccessRange vs per-page onAccess
// ---------------------------------------------------------------------

/** Drain a policy by repeated victim()+onRemove(); returns order. */
std::vector<Vpn>
drain(ReplacementPolicy &p)
{
    std::vector<Vpn> order;
    auto any = [](Vpn) { return true; };
    while (p.size() > 0) {
        auto v = p.victim(any);
        EXPECT_TRUE(v.has_value()) << "victim on nonempty policy";
        if (!v)
            break;
        order.push_back(*v);
        p.onRemove(*v);
    }
    return order;
}

TEST(RecencyRange, SplicedRangeAccessMatchesLoop)
{
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Mru}) {
        Rng rng(0x5eed + static_cast<int>(kind));
        for (int round = 0; round < 50; ++round) {
            auto a = ReplacementPolicy::create(kind);
            auto b = ReplacementPolicy::create(kind);
            // Random tracked population, including vpns past the
            // dense chunk window to hit the sparse fallback.
            std::vector<Vpn> pop;
            std::size_t n = 1 + rng.below(200);
            for (std::size_t i = 0; i < n; ++i) {
                Vpn v = rng.below(100) < 90
                    ? rng.below(4096)
                    : (std::uint64_t{1} << 36) + rng.below(512);
                if (!a->contains(v)) {
                    a->onInsert(v);
                    b->onInsert(v);
                    pop.push_back(v);
                }
            }
            // Interleave single accesses and range accesses (range
            // over a chain, a partial chain, and untracked gaps).
            for (int op = 0; op < 40; ++op) {
                if (rng.below(2) == 0 && !pop.empty()) {
                    Vpn v = pop[rng.below(pop.size())];
                    a->onAccess(v);
                    b->onAccess(v);
                } else {
                    Vpn start = rng.below(4096);
                    std::size_t len = 1 + rng.below(150);
                    for (std::size_t i = 0; i < len; ++i)
                        a->onAccess(start + i);
                    b->onAccessRange(start, len);
                }
            }
            EXPECT_EQ(drain(*a), drain(*b));
        }
    }
}

// ---------------------------------------------------------------------
// SharedUtlbCache
// ---------------------------------------------------------------------

class SharedCacheTest : public ::testing::Test
{
  protected:
    NicTimings timings;
};

TEST_F(SharedCacheTest, MissThenHit)
{
    SharedUtlbCache c({64, 1, true}, timings);
    auto probe = c.lookup(1, 100);
    EXPECT_FALSE(probe.hit);
    c.insert(1, 100, 55);
    probe = c.lookup(1, 100);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(probe.pfn, 55u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST_F(SharedCacheTest, HitCostIsPaperConstantForDirectMapped)
{
    SharedUtlbCache c({64, 1, true}, timings);
    c.insert(1, 0, 1);
    auto probe = c.lookup(1, 0);
    EXPECT_EQ(probe.cost, usToTicks(0.8));
}

TEST_F(SharedCacheTest, AssociativeLookupCostsMorePerWay)
{
    SharedUtlbCache c({64, 4, true}, timings);
    // Fill one set with 4 entries of the same process.
    // Find 4 vpns mapping to set 0.
    std::vector<Vpn> vpns;
    for (Vpn v = 0; vpns.size() < 4 && v < 10000; ++v) {
        if (c.setIndex(1, v) == 0)
            vpns.push_back(v);
    }
    ASSERT_EQ(vpns.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        c.insert(1, vpns[i], i + 1);
    // The last-inserted entry may sit in any way; a miss probes all
    // four ways.
    auto probe = c.lookup(1, 999999);
    EXPECT_FALSE(probe.hit);
    EXPECT_EQ(probe.cost,
              usToTicks(0.8) + 3 * timings.perWayProbeCost);
}

TEST_F(SharedCacheTest, DirectMappedConflictEvicts)
{
    SharedUtlbCache c({8, 1, false}, timings);
    // vpn and vpn+8 collide in an 8-set direct-mapped cache.
    c.insert(1, 0, 10);
    auto evicted = c.insert(1, 8, 20);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->vpn, 0u);
    EXPECT_EQ(evicted->pfn, 10u);
    EXPECT_FALSE(c.lookup(1, 0).hit);
    EXPECT_TRUE(c.lookup(1, 8).hit);
}

TEST_F(SharedCacheTest, TwoWaySetHoldsBothConflictingPages)
{
    SharedUtlbCache c({16, 2, false}, timings);
    c.insert(1, 0, 10);
    auto ev = c.insert(1, 8, 20);
    EXPECT_FALSE(ev.has_value());
    EXPECT_TRUE(c.lookup(1, 0).hit);
    EXPECT_TRUE(c.lookup(1, 8).hit);
}

TEST_F(SharedCacheTest, SetLruEvictionOrder)
{
    SharedUtlbCache c({16, 2, false}, timings);
    c.insert(1, 0, 10);
    c.insert(1, 8, 20);
    c.lookup(1, 0);                 // 0 now more recent than 8
    auto ev = c.insert(1, 16, 30);  // same set; evicts vpn 8
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->vpn, 8u);
}

TEST_F(SharedCacheTest, ProcessesAreIsolated)
{
    SharedUtlbCache c({64, 1, true}, timings);
    c.insert(1, 100, 11);
    c.insert(2, 100, 22);
    EXPECT_EQ(c.lookup(1, 100).pfn, 11u);
    EXPECT_EQ(c.lookup(2, 100).pfn, 22u);
}

TEST_F(SharedCacheTest, IndexOffsettingSeparatesProcesses)
{
    // Without offsetting, the same vpn of two processes maps to the
    // same set; with offsetting, (almost always) different sets.
    SharedUtlbCache plain({1024, 1, false}, timings);
    SharedUtlbCache hashed({1024, 1, true}, timings);
    EXPECT_EQ(plain.setIndex(1, 7), plain.setIndex(2, 7));
    int same = 0;
    for (ProcId p = 2; p < 12; ++p)
        same += (hashed.setIndex(1, 7) == hashed.setIndex(p, 7));
    EXPECT_LE(same, 1);
}

TEST_F(SharedCacheTest, OffsettingPreservesIntraProcessContiguity)
{
    // The offset is per-process and constant, so consecutive pages
    // of one process still map to consecutive sets (good for
    // prefetching).
    SharedUtlbCache c({1024, 1, true}, timings);
    auto s0 = c.setIndex(3, 100);
    auto s1 = c.setIndex(3, 101);
    EXPECT_EQ((s0 + 1) % c.sets(), s1);
}

TEST_F(SharedCacheTest, InvalidateRemovesEntry)
{
    SharedUtlbCache c({64, 2, true}, timings);
    c.insert(1, 5, 50);
    EXPECT_TRUE(c.invalidate(1, 5));
    EXPECT_FALSE(c.lookup(1, 5).hit);
    EXPECT_FALSE(c.invalidate(1, 5));
}

TEST_F(SharedCacheTest, InvalidateProcessDropsOnlyThatProcess)
{
    SharedUtlbCache c({64, 1, true}, timings);
    for (Vpn v = 0; v < 10; ++v) {
        c.insert(1, v, v);
        c.insert(2, v + 100, v);
    }
    EXPECT_EQ(c.invalidateProcess(1), 10u);
    for (Vpn v = 0; v < 10; ++v) {
        EXPECT_FALSE(c.peek(1, v).has_value());
        EXPECT_TRUE(c.peek(2, v + 100).has_value());
    }
}

TEST_F(SharedCacheTest, ShedRemovesNamedLine)
{
    SharedUtlbCache c({64, 2, true}, timings);
    c.insert(1, 1, 10);
    c.insert(1, 2, 20);
    c.insert(2, 2, 30);
    auto ev = c.shed(1, 2);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->pid, 1u);
    EXPECT_EQ(ev->vpn, 2u);
    EXPECT_EQ(ev->pfn, 20u);
    EXPECT_FALSE(c.peek(1, 2).has_value());
    // Only the named line goes: same vpn of another process, and
    // another page of the same process, stay.
    EXPECT_TRUE(c.peek(2, 2).has_value());
    EXPECT_TRUE(c.peek(1, 1).has_value());
    EXPECT_EQ(c.sheds(), 1u);
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_EQ(c.invalidations(), 0u);
    // Absent lines shed nothing and count nothing.
    EXPECT_FALSE(c.shed(1, 2).has_value());
    EXPECT_FALSE(c.shed(99, 1).has_value());
    EXPECT_EQ(c.sheds(), 1u);
    utlb::check::AuditReport report;
    c.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(SharedCacheTest, ReinsertRefreshesWithoutEviction)
{
    SharedUtlbCache c({8, 1, false}, timings);
    c.insert(1, 0, 10);
    auto ev = c.insert(1, 0, 11);
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(c.peek(1, 0), 11u);
    EXPECT_EQ(c.validEntries(), 1u);
}

TEST_F(SharedCacheTest, ClaimsSramBudget)
{
    Sram sram(100 * 1024);
    SharedUtlbCache c({8192, 1, true}, timings, &sram);
    // 8 K entries x 4 bytes = 32 KB, as in §4.2.
    EXPECT_EQ(sram.regionSize("utlb-cache"), 32u * 1024);
}

TEST_F(SharedCacheTest, LastSetOperationsStayInsideTheTagArray)
{
    // The packed tag array holds exactly entries words, so a probe
    // that reads past the last set faults under AddressSanitizer.
    // Every operation runs on the last set, at each associativity,
    // under both lock policies.
    for (unsigned assoc : {1u, 2u, 4u}) {
        for (bool concurrent : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << assoc << "-way "
                         << (concurrent ? "striped" : "unlocked"));
            SharedUtlbCache c({16, assoc, false}, timings);
            std::optional<SharedUtlbCache::Shard> shard;
            if (concurrent) {
                c.enableConcurrent();
                shard.emplace(c.makeShard());
            }
            SharedUtlbCache::Shard *sh = shard ? &*shard : nullptr;
            // Without offsetting, page last + w * sets lands in the
            // last set for every w.
            const Vpn last = c.sets() - 1;
            auto page = [&](unsigned w) { return last + w * c.sets(); };

            // Fill every way, then one more page evicts the LRU way.
            for (unsigned w = 0; w <= assoc; ++w)
                c.insert(1, page(w), 100 + w, InsertMode::Demand, sh);
            EXPECT_FALSE(c.lookup(1, page(0), sh).hit);
            EXPECT_FALSE(c.peek(1, page(0)).has_value());
            for (unsigned w = 1; w <= assoc; ++w) {
                CacheProbe p = c.lookup(1, page(w), sh);
                EXPECT_TRUE(p.hit);
                EXPECT_EQ(p.pfn, 100u + w);
                EXPECT_EQ(c.peek(1, page(w)), 100u + w);
            }
            if (assoc == 1) {
                // The run wraps from the last set to set 0 and stops.
                Pfn pfns[2] = {};
                EXPECT_EQ(c.lookupRun(1, page(1), 2, pfns, sh).hits, 1u);
                EXPECT_EQ(pfns[0], 101u);
            }

            auto shed = c.shed(1, page(assoc));
            ASSERT_TRUE(shed.has_value());
            EXPECT_EQ(shed->pfn, 100u + assoc);
            EXPECT_FALSE(c.insert(1, page(assoc), 200, InsertMode::Demand,
                                  sh));
            EXPECT_TRUE(c.invalidate(1, page(assoc), sh));
            EXPECT_FALSE(c.invalidate(1, page(assoc), sh));
            EXPECT_EQ(c.invalidateProcess(1), assoc - 1);
            if (sh)
                c.absorbShard(*sh);
            EXPECT_EQ(c.evictions(), 1u);
            EXPECT_EQ(c.validEntries(), 0u);
            utlb::check::AuditReport report;
            c.audit(report);
            EXPECT_TRUE(report.ok()) << report.summary();
        }
    }
}

/** Parameterized sweep: invariants hold for all configs. */
class CacheSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(CacheSweep, RandomWorkloadInvariants)
{
    auto [entries, assoc, offset] = GetParam();
    NicTimings timings;
    SharedUtlbCache c(
        {static_cast<std::size_t>(entries),
         static_cast<unsigned>(assoc), offset}, timings);

    // Shadow model: map of (pid, vpn) -> pfn for entries we believe
    // are present; we verify every hit returns the right pfn.
    std::unordered_map<std::uint64_t, Pfn> shadow;
    auto key = [](ProcId p, Vpn v) {
        return (static_cast<std::uint64_t>(p) << 48) | v;
    };

    utlb::sim::Rng rng(entries * 31 + assoc * 7 + offset);
    std::size_t hits = 0;
    for (int step = 0; step < 20000; ++step) {
        ProcId pid = 1 + rng.below(4);
        Vpn vpn = rng.below(512);
        auto probe = c.lookup(pid, vpn);
        if (probe.hit) {
            ++hits;
            ASSERT_EQ(probe.pfn, shadow.at(key(pid, vpn)));
        } else {
            Pfn pfn = rng.below(1 << 20);
            auto ev = c.insert(pid, vpn, pfn);
            shadow[key(pid, vpn)] = pfn;
            if (ev)
                shadow.erase(key(ev->pid, ev->vpn));
        }
        ASSERT_LE(c.validEntries(),
                  static_cast<std::size_t>(entries));
    }
    EXPECT_EQ(c.hits(), hits);
    EXPECT_EQ(c.hits() + c.misses(), 20000u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheSweep,
    ::testing::Combine(::testing::Values(16, 64, 256),
                       ::testing::Values(1, 2, 4),
                       ::testing::Bool()));

// ---------------------------------------------------------------------
// NicTranslationTable
// ---------------------------------------------------------------------

TEST(NicTranslationTable, InitializedToGarbagePage)
{
    Sram sram(64 * 1024);
    NicTranslationTable t(sram, 1, 128, 42);
    for (UtlbIndex i = 0; i < 128; i += 17)
        EXPECT_EQ(t.entry(i), 42u);
    EXPECT_EQ(t.validEntries(), 0u);
}

TEST(NicTranslationTable, InstallAndInvalidate)
{
    Sram sram(64 * 1024);
    NicTranslationTable t(sram, 1, 128, 42);
    t.install(5, 100);
    EXPECT_EQ(t.entry(5), 100u);
    EXPECT_TRUE(t.isValid(5));
    EXPECT_EQ(t.validEntries(), 1u);
    t.invalidate(5);
    EXPECT_EQ(t.entry(5), 42u);
    EXPECT_FALSE(t.isValid(5));
    EXPECT_EQ(t.validEntries(), 0u);
}

TEST(NicTranslationTable, BogusIndicesAreHarmless)
{
    Sram sram(64 * 1024);
    NicTranslationTable t(sram, 1, 128, 42);
    // Out-of-range user index: garbage page, no crash (§4.2).
    EXPECT_EQ(t.entry(100000), 42u);
    EXPECT_FALSE(t.isValid(100000));
}

// ---------------------------------------------------------------------
// HostPageTable
// ---------------------------------------------------------------------

TEST(HostPageTable, SetGetClear)
{
    PhysMemory pm(32);
    HostPageTable t(pm, 1);
    EXPECT_FALSE(t.get(100).has_value());
    EXPECT_TRUE(t.set(100, 7));
    EXPECT_EQ(t.get(100), 7u);
    EXPECT_EQ(t.validEntries(), 1u);
    EXPECT_TRUE(t.clear(100));
    EXPECT_FALSE(t.get(100).has_value());
    EXPECT_FALSE(t.clear(100));
}

TEST(HostPageTable, LeavesOccupyRealFrames)
{
    PhysMemory pm(32);
    std::size_t before = pm.allocatedFrames();
    HostPageTable t(pm, 1);
    t.set(0, 1);
    t.set(1, 2);  // same leaf
    EXPECT_EQ(pm.allocatedFrames(), before + 1);
    t.set(HostPageTable::kLeafEntries, 3);  // new leaf
    EXPECT_EQ(pm.allocatedFrames(), before + 2);
    EXPECT_EQ(t.leafTables(), 2u);
}

TEST(HostPageTable, ReadRunStopsAtLeafBoundary)
{
    PhysMemory pm(32);
    HostPageTable t(pm, 1);
    const Vpn base = HostPageTable::kLeafEntries - 2;
    t.set(base, 10);
    t.set(base + 1, 11);
    auto run = t.readRun(base, 8);
    ASSERT_EQ(run.size(), 2u);  // truncated at the leaf edge
    EXPECT_EQ(run[0], 10u);
    EXPECT_EQ(run[1], 11u);
}

TEST(HostPageTable, ReadRunMarksInvalidEntries)
{
    PhysMemory pm(32);
    HostPageTable t(pm, 1);
    t.set(10, 1);
    t.set(12, 3);
    auto run = t.readRun(10, 4);
    ASSERT_EQ(run.size(), 4u);
    EXPECT_EQ(run[0], 1u);
    EXPECT_FALSE(run[1].has_value());
    EXPECT_EQ(run[2], 3u);
    EXPECT_FALSE(run[3].has_value());
}

TEST(HostPageTable, ReadRunOfAbsentLeafIsEmpty)
{
    PhysMemory pm(32);
    HostPageTable t(pm, 1);
    EXPECT_TRUE(t.readRun(999999, 4).empty());
}

TEST(HostPageTable, SwapOutAndInPreservesEntries)
{
    PhysMemory pm(32);
    HostPageTable t(pm, 1);
    t.set(5, 50);
    t.set(6, 60);
    std::size_t frames = pm.allocatedFrames();
    EXPECT_TRUE(t.swapOutLeaf(5));
    EXPECT_TRUE(t.leafSwappedOut(5));
    EXPECT_EQ(pm.allocatedFrames(), frames - 1);
    EXPECT_FALSE(t.get(5).has_value());      // not resident
    EXPECT_TRUE(t.readRun(5, 2).empty());
    EXPECT_TRUE(t.swapInLeaf(5));
    EXPECT_EQ(t.get(5), 50u);
    EXPECT_EQ(t.get(6), 60u);
    EXPECT_EQ(t.swapOuts(), 1u);
    EXPECT_EQ(t.swapIns(), 1u);
}

TEST(HostPageTable, SetOnSwappedLeafSwapsItBackIn)
{
    PhysMemory pm(32);
    HostPageTable t(pm, 1);
    t.set(5, 50);
    t.swapOutLeaf(5);
    EXPECT_TRUE(t.set(6, 60));
    EXPECT_FALSE(t.leafSwappedOut(5));
    EXPECT_EQ(t.get(5), 50u);
    EXPECT_EQ(t.get(6), 60u);
}

TEST(HostPageTable, DirectoryClaimsNicSram)
{
    PhysMemory pm(32);
    Sram sram(64 * 1024);
    HostPageTable t(pm, 3, &sram);
    EXPECT_TRUE(sram.regionBase("utlb-dir.3").has_value());
}

TEST(HostPageTable, DestructorFreesLeafFrames)
{
    PhysMemory pm(32);
    std::size_t before = pm.allocatedFrames();
    {
        HostPageTable t(pm, 1);
        t.set(0, 1);
        t.set(HostPageTable::kLeafEntries, 2);
        EXPECT_EQ(pm.allocatedFrames(), before + 2);
    }
    EXPECT_EQ(pm.allocatedFrames(), before);
}

} // namespace
