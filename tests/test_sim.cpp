/**
 * @file
 * Unit tests for the simulation kernel: event queue, RNG,
 * calibration curves, statistics, the table formatter, the
 * open-addressed map, and the Zipf picker.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/calibration.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_map.hpp"
#include "sim/mutex.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/types.hpp"
#include "sim/zeroed_pages.hpp"
#include "sim/zipf.hpp"

namespace {

using namespace utlb::sim;

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_EQ(usToTicks(1.0), kTicksPerUs);
    EXPECT_EQ(usToTicks(0.5), kTicksPerUs / 2);
    EXPECT_EQ(nsToTicks(1.0), kTicksPerNs);
    EXPECT_DOUBLE_EQ(ticksToUs(usToTicks(27.0)), 27.0);
    EXPECT_DOUBLE_EQ(ticksToUs(kTicksPerMs), 1000.0);
}

TEST(Types, PaperConstantsAreExact)
{
    // The cost model relies on representing 0.1 us exactly.
    EXPECT_EQ(usToTicks(0.8), 800000u);
    EXPECT_EQ(usToTicks(0.9) - usToTicks(0.4), usToTicks(0.5));
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.fired(), 3u);
}

TEST(EventQueue, EqualTimesFireInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.after(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearDropsPendingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.clear();
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, MoveOnlyCallableSchedulesAndFires)
{
    EventQueue eq;
    int got = 0;
    auto owned = std::make_unique<int>(42);
    eq.schedule(5, [&got, p = std::move(owned)] { got = *p; });
    eq.after(7, [&got, p = std::make_unique<int>(7)] { got += *p; });
    eq.run();
    EXPECT_EQ(got, 49);
    EXPECT_EQ(eq.now(), 7u);
}

/** Counts its copies and moves. */
struct CopyCounter {
    static inline int copies = 0;
    static inline int moves = 0;
    int *fired;

    explicit CopyCounter(int *f) : fired(f) {}
    CopyCounter(const CopyCounter &o) : fired(o.fired) { ++copies; }
    CopyCounter(CopyCounter &&o) noexcept : fired(o.fired) { ++moves; }
    CopyCounter &operator=(const CopyCounter &) = delete;
    CopyCounter &operator=(CopyCounter &&) = delete;
    void operator()() const { ++*fired; }
};

/** Same, too large for the inline buffer. */
struct BigCopyCounter : CopyCounter {
    char big[2 * EventFn::kInlineBytes] = {};
    using CopyCounter::CopyCounter;
};

TEST(EventQueue, CallablesAreMovedNeverCopied)
{
    static_assert(EventFn::storedInline<CopyCounter>);
    static_assert(!EventFn::storedInline<BigCopyCounter>);
    CopyCounter::copies = CopyCounter::moves = 0;
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, CopyCounter(&fired));
    eq.after(2, CopyCounter(&fired));
    eq.schedule(3, BigCopyCounter(&fired));
    eq.after(4, BigCopyCounter(&fired));
    // Callbacks that schedule from inside a firing event, so slots
    // are reused and the slot array grows under a running callback.
    eq.schedule(0, [&] {
        for (int i = 0; i < 40; ++i)
            eq.after(static_cast<Tick>(i % 3), CopyCounter(&fired));
    });
    while (eq.step()) {
    }
    EXPECT_EQ(fired, 44);
    EXPECT_EQ(CopyCounter::copies, 0);
    EXPECT_GT(CopyCounter::moves, 0);
}

TEST(EventQueue, ClearDestroysPendingCallables)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    eq.schedule(10, [token] {});
    eq.schedule(20, [token, big = std::array<char, 256>{}] {});
    EXPECT_EQ(token.use_count(), 3);
    eq.clear();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(eq.pending(), 0u);
}

/** Deterministic 64-bit mix for the same-tick stress. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x7fb5d329728ea185ull;
    x ^= x >> 27;
    x *= 0x81dadef4bc2dd44dull;
    return x ^ (x >> 33);
}

/** Delays of the events that event @p id schedules when it fires:
 *  mostly 0, so most land on the tick that is firing. */
std::vector<Tick>
childDelays(int id)
{
    std::uint64_t h = mix64(static_cast<std::uint64_t>(id));
    std::vector<Tick> out(1 + h % 2);
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k] = ((h >> (8 + 4 * k)) & 7) == 0 ? 1 + (h >> 20) % 3 : 0;
    return out;
}

TEST(EventQueue, SameTickEventsFromCallbacksFireInScheduleOrder)
{
    constexpr int kEvents = 10000;
    constexpr int kRoots = 8;

    // The queue under test.
    EventQueue eq;
    std::vector<int> got;
    int nextId = kRoots;
    std::function<void(int)> fire = [&](int id) {
        got.push_back(id);
        for (Tick d : childDelays(id)) {
            if (nextId == kEvents)
                break;
            int child = nextId++;
            eq.after(d, [&fire, child] { fire(child); });
        }
    };
    for (int r = 0; r < kRoots; ++r)
        eq.schedule(static_cast<Tick>(r / 3), [&fire, r] { fire(r); });
    eq.run();

    // Reference: pending events in schedule order; the next to fire
    // is the first one holding the smallest time (a stable sort).
    struct Pending {
        Tick when;
        int id;
    };
    std::vector<Pending> pending;
    std::vector<int> want;
    for (int r = 0; r < kRoots; ++r)
        pending.push_back({static_cast<Tick>(r / 3), r});
    int refNext = kRoots;
    while (!pending.empty()) {
        auto it = std::min_element(
            pending.begin(), pending.end(),
            [](const Pending &a, const Pending &b) { return a.when < b.when; });
        Pending p = *it;
        pending.erase(it);
        want.push_back(p.id);
        for (Tick d : childDelays(p.id)) {
            if (refNext == kEvents)
                break;
            pending.push_back({p.when + d, refNext++});
        }
    }

    ASSERT_EQ(want.size(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(got, want);
    EXPECT_EQ(eq.fired(), static_cast<std::uint64_t>(kEvents));
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(CalCurve, ExactAtMeasuredPoints)
{
    CalCurve c{{1, 27.0}, {2, 30.0}, {4, 36.0}, {8, 47.0},
               {16, 70.0}, {32, 115.0}};
    EXPECT_DOUBLE_EQ(c.at(1), 27.0);
    EXPECT_DOUBLE_EQ(c.at(2), 30.0);
    EXPECT_DOUBLE_EQ(c.at(4), 36.0);
    EXPECT_DOUBLE_EQ(c.at(8), 47.0);
    EXPECT_DOUBLE_EQ(c.at(16), 70.0);
    EXPECT_DOUBLE_EQ(c.at(32), 115.0);
}

TEST(CalCurve, InterpolatesBetweenPoints)
{
    CalCurve c{{1, 10.0}, {3, 20.0}};
    EXPECT_DOUBLE_EQ(c.at(2), 15.0);
}

TEST(CalCurve, ExtrapolatesWithFinalSlope)
{
    CalCurve c{{1, 10.0}, {2, 12.0}, {4, 16.0}};
    // Final segment slope: (16-12)/2 = 2 per entry.
    EXPECT_DOUBLE_EQ(c.at(6), 20.0);
}

TEST(CalCurve, ClampsBelowFirstPoint)
{
    CalCurve c{{4, 8.0}, {8, 16.0}};
    EXPECT_DOUBLE_EQ(c.at(1), 8.0);
}

TEST(CalCurve, MonotoneInputStaysMonotone)
{
    CalCurve c{{1, 1.5}, {2, 1.6}, {4, 1.6}, {8, 1.9}, {16, 2.1},
               {32, 2.5}};
    double prev = 0.0;
    for (std::size_t n = 1; n <= 64; ++n) {
        double v = c.at(n);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Stats, CounterAccumulates)
{
    StatGroup g("test");
    Counter c(&g, "c", "a counter");
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageComputesMean)
{
    StatGroup g("test");
    Average a(&g, "a", "an average");
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 9.0);
}

TEST(Stats, AverageOfNothingIsZero)
{
    StatGroup g("test");
    Average a(&g, "a", "empty");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    StatGroup g("test");
    Histogram h(&g, "h", "hist", 10.0, 5);
    h.sample(0.5);   // bucket 0
    h.sample(3.0);   // bucket 1
    h.sample(9.99);  // bucket 4
    h.sample(10.0);  // overflow
    h.sample(-1.0);  // overflow (negative)
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.samples(), 5u);
}

TEST(Stats, GroupDumpContainsAllStats)
{
    StatGroup g("parent");
    StatGroup child("child", &g);
    Counter c1(&g, "alpha", "first");
    Counter c2(&child, "beta", "second");
    ++c1;
    ++c2;
    std::ostringstream oss;
    g.dump(oss);
    auto text = oss.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);
    EXPECT_NE(text.find("child"), std::string::npos);
}

TEST(Stats, FindLocatesByName)
{
    StatGroup g("g");
    Counter c(&g, "needle", "x");
    EXPECT_EQ(g.find("needle"), &c);
    EXPECT_EQ(g.find("missing"), nullptr);
}

TEST(Stats, ResetAllRecurses)
{
    StatGroup g("g");
    StatGroup child("c", &g);
    Counter c1(&g, "a", "x");
    Counter c2(&child, "b", "y");
    c1 += 3;
    c2 += 4;
    g.resetAll();
    EXPECT_EQ(c1.value(), 0u);
    EXPECT_EQ(c2.value(), 0u);
}

TEST(TextTable, AlignsColumnsAndFormatsNumbers)
{
    TextTable t("Title");
    t.setHeader({"name", "value"});
    t.addRow({"x", TextTable::num(1.5, 1)});
    t.addRow({"longer-name", TextTable::num(std::uint64_t{42})});
    auto s = t.str();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumFormatsDecimals)
{
    EXPECT_EQ(TextTable::num(0.25, 2), "0.25");
    EXPECT_EQ(TextTable::num(3.14159, 1), "3.1");
    EXPECT_EQ(TextTable::num(std::uint64_t{8192}), "8192");
}

} // namespace

namespace {

TEST(Stats, HistogramTracksExtremesAndMean)
{
    StatGroup g("g");
    Histogram h(&g, "h", "x", 100.0, 10);
    h.sample(5.0);
    h.sample(95.0);
    h.sample(50.0);
    EXPECT_DOUBLE_EQ(h.minSeen(), 5.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 95.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.0);
    h.reset();
    h.sample(7.0);
    EXPECT_DOUBLE_EQ(h.minSeen(), 7.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 7.0);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
    Rng r2(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r2.chance(0.0));
        EXPECT_TRUE(r2.chance(1.0));
    }
}

TEST(TextTable, RuleSeparatesRows)
{
    TextTable t;
    t.setHeader({"a"});
    t.addRow({"1"});
    t.addRule();
    t.addRow({"2"});
    auto s = t.str();
    // A dashed line appears between the two data rows.
    auto one = s.find("1\n");
    auto two = s.find("2\n");
    auto dash = s.find("--", one);
    ASSERT_NE(one, std::string::npos);
    ASSERT_NE(two, std::string::npos);
    EXPECT_LT(one, dash);
    EXPECT_LT(dash, two);
}

// ---------------------------------------------------------------------
// FlatMap
// ---------------------------------------------------------------------

/** A (pid << 40 | vpn) key, the shape whose low bits repeat. */
std::uint64_t
pageKey(std::uint64_t pid, std::uint64_t vpn)
{
    return pid << 40 | vpn;
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));

    auto [v, inserted] = m.tryEmplace(7);
    ASSERT_TRUE(inserted);
    EXPECT_EQ(*v, 0);  // value-initialized
    *v = 70;
    auto [again, twice] = m.tryEmplace(7);
    EXPECT_FALSE(twice);
    EXPECT_EQ(*again, 70);
    m[8] = 80;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(m.contains(8));

    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.contains(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(*m.find(8), 80);
    EXPECT_EQ(m.size(), 1u);

    // Key 0 and the largest legal key are ordinary keys.
    m[0] = 1;
    m[FlatMap<int>::kMaxKey] = 2;
    EXPECT_EQ(*m.find(0), 1);
    EXPECT_EQ(*m.find(FlatMap<int>::kMaxKey), 2);
}

TEST(FlatMap, EraseKeepsProbeChainsIntact)
{
    // Fill to just under the 3/4 load of 64 slots so probe chains
    // form, then erase every other key: the survivors must still be
    // found after the backward shifts, and erased keys must come back.
    FlatMap<std::uint64_t> m;
    m.reserve(48);
    std::size_t cap = m.capacity();
    for (std::uint64_t k = 0; k < 48; ++k)
        m[pageKey(k % 4, k)] = k;
    for (std::uint64_t k = 0; k < 48; k += 2)
        EXPECT_TRUE(m.erase(pageKey(k % 4, k)));
    EXPECT_EQ(m.size(), 24u);
    for (std::uint64_t k = 0; k < 48; ++k) {
        const std::uint64_t *v = m.find(pageKey(k % 4, k));
        if (k % 2) {
            ASSERT_NE(v, nullptr) << k;
            EXPECT_EQ(*v, k);
        } else {
            EXPECT_EQ(v, nullptr) << k;
        }
    }
    for (std::uint64_t k = 0; k < 48; k += 2)
        EXPECT_TRUE(m.tryEmplace(pageKey(k % 4, k)).second);
    EXPECT_EQ(m.size(), 48u);
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, GrowsAndRehashesKeepingEveryKey)
{
    FlatMap<std::uint64_t> m;
    for (std::uint64_t pid = 0; pid < 8; ++pid)
        for (std::uint64_t vpn = 0; vpn < 2000; ++vpn)
            m[pageKey(pid, vpn)] = pid * 10000 + vpn;
    EXPECT_EQ(m.size(), 16000u);
    EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);  // power of two
    EXPECT_LE(m.size() * 4, m.capacity() * 3);
    for (std::uint64_t pid = 0; pid < 8; ++pid)
        for (std::uint64_t vpn = 0; vpn < 2000; ++vpn)
            ASSERT_EQ(*m.find(pageKey(pid, vpn)), pid * 10000 + vpn);
}

TEST(FlatMap, ChurnAtConstantSizeNeverGrows)
{
    // Insert/erase churn at a constant live count leaves no residue
    // (no tombstones), so the table neither grows nor rebuilds.
    FlatMap<int> m;
    for (std::uint64_t k = 0; k < 6; ++k)
        m[k] = 1;
    EXPECT_EQ(m.capacity(), 16u);
    for (std::uint64_t k = 6; k < 100000; ++k) {
        m[k] = 1;
        ASSERT_TRUE(m.erase(k - 6));
    }
    EXPECT_EQ(m.size(), 6u);
    EXPECT_EQ(m.capacity(), 16u);
    for (std::uint64_t k = 100000 - 6; k < 100000; ++k)
        EXPECT_TRUE(m.contains(k));
}

TEST(FlatMap, EraseShiftsChainsAcrossTheWrap)
{
    // Keys homed on the last slot of a 16-slot table spill over the
    // end into slots 0, 1, ...; keys homed on slot 0 queue behind
    // them. Erasing from the front of that wrapped chain must pull
    // exactly the entries whose probe path crosses the hole.
    FlatMap<std::uint64_t> m;
    m.reserve(12);
    ASSERT_EQ(m.capacity(), 16u);
    auto homedAt = [](std::uint64_t slot, std::size_t n) {
        std::vector<std::uint64_t> keys;
        for (std::uint64_t k = 0; keys.size() < n; ++k)
            if ((k * 0x9E3779B97F4A7C15ull) >> 60 == slot)
                keys.push_back(k);
        return keys;
    };
    std::vector<std::uint64_t> last = homedAt(15, 3);
    std::vector<std::uint64_t> first = homedAt(0, 2);
    for (std::uint64_t k : last)
        m[k] = k + 1;
    for (std::uint64_t k : first)
        m[k] = k + 1;
    std::set<std::uint64_t> live(last.begin(), last.end());
    live.insert(first.begin(), first.end());
    for (std::uint64_t gone : {last[0], first[0], last[2]}) {
        ASSERT_TRUE(m.erase(gone));
        live.erase(gone);
        for (std::uint64_t k : last)
            EXPECT_EQ(m.contains(k), live.count(k) == 1) << k;
        for (std::uint64_t k : first)
            EXPECT_EQ(m.contains(k), live.count(k) == 1) << k;
    }
    for (std::uint64_t k : live)
        EXPECT_EQ(*m.find(k), k + 1);
    EXPECT_EQ(m.size(), live.size());
}

TEST(FlatMap, RandomChurnMatchesAReferenceMap)
{
    // Dense keys in a small table: long, wrapping chains, and erases
    // that shift every kind of neighbour.
    FlatMap<std::uint64_t> m;
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t k = pageKey(rng.below(2), rng.below(40));
        if (ref.size() >= 30 || rng.below(2) == 0) {
            ASSERT_EQ(m.erase(k), ref.erase(k) == 1);
        } else {
            m[k] = i;
            ref[k] = i;
        }
        if (i % 97 == 0) {
            for (std::uint64_t pid = 0; pid < 2; ++pid) {
                for (std::uint64_t vpn = 0; vpn < 40; ++vpn) {
                    auto it = ref.find(pageKey(pid, vpn));
                    const std::uint64_t *v = m.find(pageKey(pid, vpn));
                    ASSERT_EQ(v != nullptr, it != ref.end());
                    if (v) {
                        ASSERT_EQ(*v, it->second);
                    }
                }
            }
        }
    }
    EXPECT_EQ(m.size(), ref.size());
    EXPECT_EQ(m.capacity(), 64u);  // sized by the peak, never rebuilt
}

TEST(FlatMap, ReserveAvoidsRehash)
{
    FlatMap<int> m;
    m.reserve(1000);
    std::size_t cap = m.capacity();
    EXPECT_GE(cap * 3, 1000u * 4);
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[pageKey(k % 3, k)] = 1;
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, IteratesEveryLiveKeyOnce)
{
    FlatMap<std::uint64_t> m;
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t k = pageKey(rng.below(4), rng.below(300));
        if (rng.below(3) == 0) {
            EXPECT_EQ(m.erase(k), ref.erase(k) == 1);
        } else {
            m[k] = k + 1;
            ref[k] = k + 1;
        }
    }
    std::map<std::uint64_t, std::uint64_t> seen;
    for (auto &[key, value] : m)
        EXPECT_TRUE(seen.emplace(key, value).second) << key;
    EXPECT_EQ(seen, ref);
    EXPECT_EQ(m.size(), ref.size());

    const FlatMap<std::uint64_t> &cm = m;
    std::size_t n = 0;
    for (const auto &slot : cm)
        n += slot.value == slot.key + 1;
    EXPECT_EQ(n, ref.size());
}

TEST(FlatMap, MoveOnlyValuesSurviveGrowthAndErase)
{
    FlatMap<std::unique_ptr<int>> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k] = std::make_unique<int>(static_cast<int>(k));
    for (std::uint64_t k = 0; k < 100; k += 3)
        m.erase(k);
    for (std::uint64_t k = 0; k < 100; ++k) {
        auto *p = m.find(k);
        if (k % 3 == 0)
            EXPECT_EQ(p, nullptr);
        else
            EXPECT_EQ(**p, static_cast<int>(k));
    }
    EXPECT_EQ(m.size(), 66u);
}

// ---------------------------------------------------------------------------
// ZeroedPages: lazily zeroed anonymous mappings
// ---------------------------------------------------------------------------

/** Minor plus major page faults this process has taken so far. */
long
pageFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt + ru.ru_majflt;
}

TEST(ZeroedPages, MapsZerosWithoutTouchingThem)
{
    constexpr std::size_t kBytes = 4u << 20;
    for (int round = 0; round < 2; ++round) {
        long before = pageFaults();
        utlb::sim::ZeroedPages z(kBytes);
        [[maybe_unused]] long faults = pageFaults() - before;
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
        // Nothing is memset: none of the 1024 pages is faulted in.
        // (The sanitizers map shadow memory of their own.)
        EXPECT_LT(faults, 16) << round;
#endif
        ASSERT_EQ(z.size(), kBytes);
        EXPECT_EQ(std::count(z.data(), z.data() + kBytes, 0),
                  static_cast<std::ptrdiff_t>(kBytes))
            << round;
        std::fill(z.data(), z.data() + kBytes, 0xA5);
    }
}

TEST(ZeroedPages, EmptyStoreMapsNothingAndMovesTransferTheMapping)
{
    utlb::sim::ZeroedPages empty(0);
    EXPECT_EQ(empty.data(), nullptr);
    EXPECT_EQ(empty.size(), 0u);

    utlb::sim::ZeroedPages a(8192);
    a[100] = 7;
    utlb::sim::ZeroedPages b(std::move(a));
    EXPECT_EQ(b[100], 7);
    b = utlb::sim::ZeroedPages(4096);
    EXPECT_EQ(b.size(), 4096u);
    EXPECT_EQ(b[100], 0);
}

// ---------------------------------------------------------------------------
// Mutex: spin, then park; contention counters
// ---------------------------------------------------------------------------

TEST(Mutex, UncontendedLockTouchesNoCounter)
{
    Mutex mu;
    for (int i = 0; i < 1000; ++i) {
        LockGuard g(mu);
    }
    EXPECT_EQ(mu.contended(), 0u);
    EXPECT_EQ(mu.parked(), 0u);
}

TEST(Mutex, HammeringThreadsKeepMutualExclusionAndCountContention)
{
    // The main thread holds the lock while the hammer threads start
    // and lets go only once one of them has found it held, so the
    // run counts contention however the scheduler places the
    // threads (even all on one CPU).
    constexpr int kThreads = 4;
    constexpr int kIters = 50000;
    Mutex mu;
    long counter = 0; // plain: a lost update means broken exclusion
    std::vector<std::thread> threads;
    {
        LockGuard g(mu);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                for (int i = 0; i < kIters; ++i) {
                    LockGuard h(mu);
                    ++counter;
                }
            });
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (mu.contended() == 0
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
    EXPECT_GT(mu.contended(), 0u);
    EXPECT_LE(mu.parked(), mu.contended());
}

TEST(Mutex, WaiterParksOnceItsSpinRunsOut)
{
    // The holder keeps the lock until the waiter has counted its
    // park (the count precedes the blocking lock), so the waiter
    // records exactly one contended lock and one park.
    Mutex mu;
    std::thread waiter;
    {
        LockGuard g(mu);
        waiter = std::thread([&] { LockGuard w(mu); });
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (mu.parked() == 0
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    }
    waiter.join();
    EXPECT_EQ(mu.contended(), 1u);
    EXPECT_EQ(mu.parked(), 1u);
}

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

} // namespace
