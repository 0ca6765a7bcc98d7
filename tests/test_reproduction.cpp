/**
 * @file
 * Reproduction regression tests: pin the simulated results to the
 * paper's published values (within documented tolerances), so that
 * any change to the generators, the cache, the pin manager, or the
 * cost model that silently degrades fidelity fails CI.
 *
 * Tolerances are deliberately loose where EXPERIMENTS.md documents
 * known deviations and tight where the reproduction is exact.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "tlbsim/simulator.hpp"
#include "trace/workloads.hpp"

namespace {

using utlb::tlbsim::SimConfig;
using utlb::tlbsim::simulateIntr;
using utlb::tlbsim::simulateUtlb;
using utlb::trace::generateTrace;

// A row names its app by index, not by `const char *`: gtest prints a
// parameter that has no PrintTo as its raw bytes, and ctest takes that
// text into the test name. A pointer's bytes differ under every ASLR
// layout, so a pointer member gave these tests a new name per build.
enum App : std::uint64_t { kFft, kLu, kBarnes, kRadix, kRaytrace, kVolrend, kWater };
const char *const kAppNames[] = {"fft",      "lu",      "barnes", "radix",
                                 "raytrace", "volrend", "water"};

struct PaperRow {
    App app;
    double checkMiss;   //!< Table 4, any cache size
    double niMiss1K;    //!< Table 4 @1K entries
    double niMiss16K;   //!< Table 4 @16K entries

    const char *name() const { return kAppNames[app]; }
};

// Transcribed from Table 4 (infinite memory, direct + offsetting).
const PaperRow kTable4[] = {
    {kFft, 0.25, 0.50, 0.38},
    {kLu, 0.49, 0.50, 0.49},
    {kBarnes, 0.04, 0.10, 0.04},
    {kRadix, 0.54, 0.62, 0.54},
    {kRaytrace, 0.43, 0.48, 0.43},
    {kVolrend, 0.25, 0.31, 0.25},
    {kWater, 0.10, 0.35, 0.10},
};

class Table4Fidelity : public ::testing::TestWithParam<PaperRow>
{};

TEST_P(Table4Fidelity, CheckMissRateWithinTolerance)
{
    const auto &row = GetParam();
    SimConfig cfg;
    cfg.cache = {1024, 1, true};
    auto r = simulateUtlb(generateTrace(row.name()), cfg);
    EXPECT_NEAR(r.checkMissPerLookup(), row.checkMiss, 0.02)
        << row.name();
}

TEST_P(Table4Fidelity, NiMissRatesWithinTolerance)
{
    const auto &row = GetParam();
    SimConfig small, big;
    small.cache = {1024, 1, true};
    big.cache = {16384, 1, true};
    auto trace = generateTrace(row.name());
    auto s = simulateUtlb(trace, small);
    auto b = simulateUtlb(trace, big);
    // Documented deviations (EXPERIMENTS.md) are within 0.07.
    EXPECT_NEAR(s.niMissPerLookup(), row.niMiss1K, 0.07) << row.name();
    EXPECT_NEAR(b.niMissPerLookup(), row.niMiss16K, 0.04) << row.name();
}

TEST_P(Table4Fidelity, UtlbNeverUnpinsAndIntrAlwaysDoesAtSmallCaches)
{
    const auto &row = GetParam();
    SimConfig cfg;
    cfg.cache = {1024, 1, true};
    auto trace = generateTrace(row.name());
    auto u = simulateUtlb(trace, cfg);
    auto i = simulateIntr(trace, cfg);
    EXPECT_EQ(u.pagesUnpinned, 0u) << row.name();
    EXPECT_GT(i.pagesUnpinned, 0u) << row.name();
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table4Fidelity, ::testing::ValuesIn(kTable4),
    [](const ::testing::TestParamInfo<PaperRow> &info) {
        return std::string(info.param.name());
    });

TEST(Table6Fidelity, FftLookupCostsMatchPaperClosely)
{
    auto trace = generateTrace("fft");
    struct Cell {
        std::size_t entries;
        double utlb;
        double intr;
    };
    // Table 6, FFT columns.
    const Cell cells[] = {
        {1024, 9.0, 21.7}, {4096, 8.9, 20.9}, {16384, 8.7, 14.8}};
    for (const auto &c : cells) {
        SimConfig cfg;
        cfg.cache = {c.entries, 1, true};
        auto u = simulateUtlb(trace, cfg);
        auto i = simulateIntr(trace, cfg);
        EXPECT_NEAR(u.avgLookupCostUs(), c.utlb, 0.15 * c.utlb)
            << c.entries;
        // The interrupt column runs up to ~17% under the paper at
        // 16K (our FFT evicts slightly less there; EXPERIMENTS.md).
        EXPECT_NEAR(i.avgLookupCostUs(), c.intr, 0.20 * c.intr)
            << c.entries;
        // The structural claim: UTLB wins for FFT at every size.
        EXPECT_LT(u.avgLookupCostUs(), i.avgLookupCostUs());
    }
}

TEST(Table5Fidelity, FourMbLimitMatchesPaperShapes)
{
    // Table 5's distinguishing cells: LU's UTLB unpin rate is 0.33
    // at every cache size; small-footprint apps stay at zero.
    SimConfig cfg;
    cfg.cache = {8192, 1, true};
    cfg.memLimitPages = 1024;
    auto lu = simulateUtlb(generateTrace("lu"), cfg);
    EXPECT_NEAR(lu.unpinsPerLookup(), 0.33, 0.03);
    auto water = simulateUtlb(generateTrace("water"), cfg);
    EXPECT_NEAR(water.unpinsPerLookup(), 0.0, 0.005);
    auto volrend = simulateUtlb(generateTrace("volrend"), cfg);
    EXPECT_NEAR(volrend.unpinsPerLookup(), 0.0, 0.005);
}

TEST(Fig7Fidelity, CompulsoryMissesDominateAtLargeCaches)
{
    for (const char *app : {"fft", "lu", "radix", "raytrace",
                            "volrend", "water"}) {
        SimConfig cfg;
        cfg.cache = {16384, 1, true};
        auto r = simulateUtlb(generateTrace(app), cfg);
        EXPECT_GT(r.compulsoryMisses,
                  r.capacityMisses + r.conflictMisses)
            << app;
    }
}

TEST(Fig8Fidelity, PrefetchWithPrepinSlashesRadixMisses)
{
    auto trace = generateTrace("radix");
    SimConfig base, aggressive;
    base.cache = aggressive.cache = {1024, 1, true};
    aggressive.prefetchEntries = 16;
    aggressive.prepinPages = 16;
    auto b = simulateUtlb(trace, base);
    auto a = simulateUtlb(trace, aggressive);
    // Paper: aggressive prefetch cuts the miss rate several-fold
    // when contiguous translations are available.
    EXPECT_LT(a.probeMissRate(), 0.35 * b.probeMissRate());
    EXPECT_LT(a.avgProbeCostUs(), b.avgProbeCostUs());
}

TEST(Table7Fidelity, PrepinHelpsLuAndBackfiresOnFft)
{
    SimConfig one, sixteen;
    one.cache = sixteen.cache = {8192, 1, true};
    one.memLimitPages = sixteen.memLimitPages = 4096;
    sixteen.prepinPages = 16;

    auto lu = generateTrace("lu");
    auto lu1 = simulateUtlb(lu, one);
    auto lu16 = simulateUtlb(lu, sixteen);
    // Paper: 12.0 -> 2.3 us; require at least a 4x improvement.
    EXPECT_LT(lu16.amortizedPinUs(), lu1.amortizedPinUs() / 4.0);
    EXPECT_LT(lu16.amortizedUnpinUs(), 0.5);

    auto fft = generateTrace("fft");
    auto fft1 = simulateUtlb(fft, one);
    auto fft16 = simulateUtlb(fft, sixteen);
    // Paper: unpin cost explodes (0.1 -> 93 us); require the
    // blow-up to reproduce in direction and magnitude (>10 us).
    EXPECT_LT(fft1.amortizedUnpinUs(), 0.5);
    EXPECT_GT(fft16.amortizedUnpinUs(), 10.0);
}

TEST(Table8Fidelity, OffsettingBeatsNoOffsettingEverywhere)
{
    for (const char *app : {"fft", "lu", "barnes", "water"}) {
        auto trace = generateTrace(app);
        SimConfig with, without;
        with.cache = {4096, 1, true};
        without.cache = {4096, 1, false};
        auto w = simulateUtlb(trace, with);
        auto wo = simulateUtlb(trace, without);
        EXPECT_LT(w.probeMissRate(), wo.probeMissRate()) << app;
    }
}

} // namespace
