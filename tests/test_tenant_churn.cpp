/**
 * @file
 * Tenant attach/teardown churn under load: the regression suite for
 * the fleet-churn resource lifecycles. A storm of short-lived
 * tenants registers, translates, and tears down through the driver
 * while stable tenants keep translating concurrently. Asserts the
 * lifecycles the fleet bench depends on:
 *
 *  - NIC SRAM is fully recycled: every departed tenant's directory
 *    region is freed and reused (the SRAM allocator is sized so a
 *    leak of a handful of regions aborts the test);
 *  - the driver's stat tree drops departed tenants' host_table
 *    groups (no stat-tree leak);
 *  - the pin facility conserves: departed tenants hold no pins, and
 *    the post-storm audits (cache, pins, live pin managers) are
 *    clean.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "nic/sram.hpp"
#include "node_stack.hpp"

namespace {

using utlb::NodeStack;
using namespace utlb::core;
using utlb::mem::kPageSize;
using utlb::mem::ProcId;
using utlb::mem::VirtAddr;
using utlb::nic::Sram;

/**
 * Concurrent fleet stack with a deliberately tight SRAM: the cache
 * claims 4 KB and each registered tenant's directory claims 4 KB, so
 * 32 KB holds the cache, two stable tenants, and a few in-flight
 * churn tenants — but not a leak. Before Sram::free existed, ~5
 * churn cycles exhausted this and the register fataled.
 */
class ChurnStack : public ::testing::Test, protected NodeStack
{
  protected:
    static constexpr unsigned kStableTenants = 2;

    ChurnStack() : NodeStack({1024, 1, true}, 8192, 32u << 10)
    {
        ucfg.prefetchEntries = 8;
        ucfg.concurrent = true;
        for (unsigned i = 0; i < kStableTenants; ++i)
            views.push_back(attach(i + 1, ucfg));
    }

    /** One short-lived tenant: register, translate, tear down. */
    void
    churnCycle(ProcId pid)
    {
        Tenant churn = attach(pid, ucfg);
        for (int w = 0; w < 4; ++w) {
            auto t = churn.utlb->translateRange(
                static_cast<VirtAddr>(w) * 4 * kPageSize, 4 * kPageSize);
            ASSERT_TRUE(t.ok);
        }
        churn.utlb.reset();
        driver.unregisterProcess(pid);
        ASSERT_EQ(pins.pinnedPages(pid), 0u)
            << "departed tenant still holds pins";
    }

    std::size_t
    statTreeTables()
    {
        std::ostringstream os;
        driver.stats().dumpJson(os);
        const std::string dump = os.str();
        std::size_t n = 0;
        for (std::size_t pos = dump.find("\"host_table");
             pos != std::string::npos;
             pos = dump.find("\"host_table", pos + 1))
            ++n;
        return n;
    }

    UtlbConfig ucfg;
    std::vector<Tenant> views;
};

TEST_F(ChurnStack, SequentialChurnRecyclesSramExactly)
{
    const std::size_t baseline = sram.used();
    for (int i = 0; i < 200; ++i) {
        churnCycle(static_cast<ProcId>(100 + i));
        ASSERT_EQ(sram.used(), baseline)
            << "SRAM leak after churn cycle " << i;
    }
    EXPECT_EQ(statTreeTables(), kStableTenants);
    // The allocator's observability: 200 frees of 4 KB regions.
    std::ostringstream os;
    sram.stats().dumpJson(os);
    EXPECT_NE(os.str().find("region_frees"), std::string::npos);
    EXPECT_NE(os.str().find("freed_bytes"), std::string::npos);
}

TEST_F(ChurnStack, TeardownStormUnderConcurrentLoad)
{
    const std::size_t baseline = sram.used();
    std::atomic<bool> stop{false};

    // Stable tenants hammer the shared cache and their pin managers
    // while the storm churns; their lines are invalidated under them
    // whenever a churn tenant collides in the cache.
    std::vector<std::thread> stable;
    for (unsigned i = 0; i < kStableTenants; ++i) {
        stable.emplace_back([this, i, &stop] {
            UserUtlb &view = *views[i].utlb;
            while (!stop.load(std::memory_order_acquire)) {
                for (int w = 0; w < 8; ++w) {
                    auto t = view.translateRange(
                        static_cast<VirtAddr>(w) * 8 * kPageSize,
                        8 * kPageSize);
                    if (!t.ok)
                        return; // surfaces as a failed audit below
                }
            }
        });
    }

    constexpr int kCycles = 1000;
    std::thread storm([this] {
        for (int i = 0; i < kCycles; ++i)
            churnCycle(static_cast<ProcId>(1000 + i));
    });
    storm.join();
    stop.store(true, std::memory_order_release);
    for (auto &t : stable)
        t.join();

    // Quiesce and check every conservation property.
    EXPECT_EQ(audit(views), "");
    EXPECT_EQ(sram.used(), baseline) << "SRAM leaked across "
                                     << kCycles << " churn cycles";
    EXPECT_EQ(statTreeTables(), kStableTenants)
        << "driver stat tree leaked host_table groups";

    // Spot-check departed tenants left nothing pinned.
    for (int i = 0; i < kCycles; i += 97)
        EXPECT_EQ(pins.pinnedPages(static_cast<ProcId>(1000 + i)),
                  0u);
}

TEST_F(ChurnStack, ReRegisterAfterTeardownKeepsWorking)
{
    // The erase-and-reinsert path: a pid that detaches and re-attaches gets a
    // fresh table, fresh SRAM directory, and a clean stat subtree.
    for (int round = 0; round < 3; ++round) {
        Tenant t = attach(777, ucfg);
        ASSERT_TRUE(t.utlb->translateRange(0, 4 * kPageSize).ok);
        t.utlb.reset();
        driver.unregisterProcess(777);
    }
    EXPECT_EQ(statTreeTables(), kStableTenants);
}

TEST_F(ChurnStack, IsRegisteredIsSafeDuringChurn)
{
    // isRegistered() probes the driver directory, which every
    // register/unregister may rehash. A reader thread queries it
    // throughout a churn storm: the stable tenants must always read
    // registered, and the query must not race the rehash (the test
    // runs under TSan in CI).
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> wrong{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (unsigned i = 0; i < kStableTenants; ++i)
                if (!driver.isRegistered(static_cast<ProcId>(i + 1)))
                    wrong.fetch_add(1, std::memory_order_relaxed);
            for (ProcId pid = 2000; pid < 2004; ++pid)
                (void)driver.isRegistered(pid);
        }
    });

    for (int i = 0; i < 300; ++i)
        churnCycle(static_cast<ProcId>(2000 + i % 4));
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(wrong.load(std::memory_order_relaxed), 0u);
    for (ProcId pid = 2000; pid < 2004; ++pid)
        EXPECT_FALSE(driver.isRegistered(pid));
}

} // namespace
