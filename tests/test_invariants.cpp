/**
 * @file
 * Fault-injection tests for the invariant auditors (src/check).
 *
 * Each test corrupts one structure's private redundant state through
 * the TestTamper friend — defined only in this binary — and asserts
 * the structure's auditor reports the damage. A clean audit before
 * every corruption guards against auditors that always fire.
 *
 * Also covers the UTLB_ASSERT failure handler (structured context,
 * throwing handlers) and the BitVector/PinManager boundary cases:
 * a pin budget hit exactly, unpinning a never-pinned page, and
 * out-of-range garbage-page indices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "core/bitvector.hpp"
#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/pin_manager.hpp"
#include "core/shared_cache.hpp"
#include "core/translation_table.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/event_queue.hpp"
#include "spec/spec_runner.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/workloads.hpp"
#include "vmmc/system.hpp"

namespace utlb::check {

/**
 * The fault injector. Audited classes befriend this struct but only
 * the test binary defines it, so production code cannot reach the
 * corruption helpers. Every helper breaks exactly one invariant the
 * matching auditor re-derives.
 */
struct TestTamper {
    /** Flip a raw bitmap bit without updating the cached count. */
    static void
    flipBitmapWord(core::PinBitVector &bv)
    {
        ASSERT_FALSE(bv.words.empty());
        bv.words.front() ^= 1;
    }

    /** Write a live-looking word into NIC SRAM behind the count. */
    static void
    pokeNicSlot(core::NicTranslationTable &t, std::size_t slot)
    {
        t.sram->writeWord(
            t.base + static_cast<nic::SramAddr>(slot * 4),
            static_cast<std::uint32_t>(t.garbagePfn) + 1);
    }

    /** Overstate the host page table's valid-entry count. */
    static void
    bumpHostValidCount(core::HostPageTable &t)
    {
        ++t.numValid;
    }

    /** Move a valid cache way's tags so it indexes to another set.
     *  The packed tag word is retagged along with the cold vpn so
     *  only the home-set invariant fires, not tag/cold coherence. */
    static bool
    misplaceCacheLine(core::SharedUtlbCache &c)
    {
        for (std::size_t set = 0; set < c.numSets; ++set) {
            for (unsigned w = 0; w < c.config.assoc; ++w) {
                std::size_t idx = set * c.config.assoc + w;
                if (c.tagWords[idx] == 0)
                    continue;
                auto &cw = c.cold[idx];
                mem::ProcId pid =
                    core::SharedUtlbCache::pidOfPacked(cw.pidVpn);
                mem::Vpn vpn =
                    core::SharedUtlbCache::vpnOfPacked(cw.pidVpn);
                for (mem::Vpn delta = 1; delta < 64; ++delta) {
                    if (c.setIndex(pid, vpn + delta) != set) {
                        cw.pidVpn = core::SharedUtlbCache::packPidVpn(
                            pid, vpn + delta);
                        c.tagWords[idx] =
                            core::SharedUtlbCache::tagKey(
                                pid, vpn + delta);
                        return true;
                    }
                }
            }
        }
        return false;
    }

    /** Corrupt a valid way's packed tag word so it no longer matches
     *  its cold (pid, vpn) tags (tag/cold coherence violation). */
    static bool
    desyncTagWord(core::SharedUtlbCache &c)
    {
        for (std::size_t idx = 0; idx < c.config.entries; ++idx) {
            if (c.tagWords[idx] != 0) {
                // Flip a middle bit: stays nonzero (still "valid"),
                // no longer the key of the cold tags.
                c.tagWords[idx] ^= std::uint64_t{1} << 17;
                return true;
            }
        }
        return false;
    }

    /** Leave a recency stamp on a dead (invalid) cache way. */
    static bool
    stampDeadLine(core::SharedUtlbCache &c)
    {
        for (std::size_t idx = 0; idx < c.config.entries; ++idx) {
            if (c.tagWords[idx] == 0) {
                c.cold[idx].lastUse = 1;
                return true;
            }
        }
        return false;
    }

    /** Stamp a live way (with the use clock advanced to match, so
     *  only the direct-mapped no-stamp invariant can fire). */
    static bool
    stampLiveLine(core::SharedUtlbCache &c)
    {
        for (std::size_t idx = 0; idx < c.config.entries; ++idx) {
            if (c.tagWords[idx] != 0) {
                c.useClock = std::max<std::uint64_t>(c.useClock, 1);
                c.cold[idx].lastUse = 1;
                return true;
            }
        }
        return false;
    }

    /** The largest recency stamp the cache holds or has issued. */
    static std::uint64_t
    highestStamp(const core::SharedUtlbCache &c)
    {
        std::uint64_t top = c.useClock;
        for (const auto &line : c.cold)
            top = std::max(top, line.lastUse);
        return top;
    }

    /** Leave set 0's seqlock version odd (unclosed write section). */
    static void
    wedgeSeqlock(core::SharedUtlbCache &c)
    {
        ASSERT_NE(c.numStripes, 0u) << "cache is not concurrent";
        c.seqs[0].writeBegin();
    }

    /** Warp the event clock past the earliest pending event. */
    static void
    warpClock(sim::EventQueue &q)
    {
        ASSERT_FALSE(q.heap.empty());
        q.curTick = q.heap.front().when + 1;
    }

    /** Zero one page-table entry's pin count while the facility
     *  still counts the page as pinned. */
    static void
    zeroPinRefcount(mem::PinFacility &pf, mem::ProcId pid)
    {
        mem::PinFacility::Proc *proc = pf.findProc(pid);
        ASSERT_NE(proc, nullptr);
        ASSERT_NE(proc->space, nullptr);
        for (auto &[key, leaf] : proc->space->leaves) {
            for (mem::AddressSpace::Pte &e : leaf->ptes) {
                if (e.pins != 0) {
                    e.pins = 0;
                    return;
                }
            }
        }
        FAIL() << "process " << pid << " has no pinned page";
    }

    /** A pin manager's bit vector, writable. */
    static core::PinBitVector &
    pinBits(core::PinManager &m)
    {
        return m.bits;
    }

    /** Record a zero-count outstanding-send lock. */
    static void
    plantZeroLock(core::PinManager &m, mem::Vpn vpn)
    {
        m.locks[vpn] = 0;
    }
};

} // namespace utlb::check

namespace {

using namespace utlb;
using core::CacheConfig;
using core::HostPageTable;
using core::NicTranslationTable;
using core::PinBitVector;
using core::PinManager;
using core::PinManagerConfig;
using core::SharedUtlbCache;
using mem::AddressSpace;
using mem::PhysMemory;
using mem::PinFacility;
using mem::Vpn;
using nic::NicTimings;
using nic::Sram;

// ---------------------------------------------------------------------
// PinBitVector
// ---------------------------------------------------------------------

TEST(BitVectorAudit, CleanVectorPasses)
{
    PinBitVector bv;
    bv.set(3);
    bv.set(64);
    bv.set(200);
    check::AuditReport report;
    bv.audit(report);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.auditorsRun(), 1u);
}

TEST(BitVectorAudit, CatchesCountWordDisagreement)
{
    PinBitVector bv;
    bv.set(3);
    bv.set(64);
    check::AuditReport before;
    bv.audit(before);
    ASSERT_TRUE(before.ok());

    check::TestTamper::flipBitmapWord(bv);
    check::AuditReport after;
    bv.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("bitvector"), 1u);
}

TEST(BitVectorBoundary, ClearOfNeverSetPageIsHarmless)
{
    PinBitVector bv;
    bv.set(10);
    bv.clear(11);      // same word, never set
    bv.clear(100000);  // word never allocated
    EXPECT_EQ(bv.count(), 1u);
    EXPECT_FALSE(bv.test(100000));

    check::AuditReport report;
    bv.audit(report);
    EXPECT_TRUE(report.ok());
}

TEST(BitVectorBoundary, ForEachSetVisitsAscending)
{
    PinBitVector bv;
    bv.set(200);
    bv.set(3);
    bv.set(64);
    std::vector<Vpn> seen;
    bv.forEachSet([&](Vpn v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<Vpn>{3, 64, 200}));
}

// ---------------------------------------------------------------------
// NicTranslationTable
// ---------------------------------------------------------------------

TEST(NicTableAudit, CatchesSramPokeBehindCount)
{
    Sram sram(1 << 16);
    NicTranslationTable table(sram, 1, 128, /*garbage_frame=*/7);
    table.install(5, 99);
    ASSERT_EQ(table.validEntries(), 1u);

    check::AuditReport before;
    table.audit(before);
    ASSERT_TRUE(before.ok());

    // Slot 9 silently becomes non-garbage: the recount straight from
    // SRAM must disagree with the cached valid count.
    check::TestTamper::pokeNicSlot(table, 9);
    check::AuditReport after;
    table.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("nic-table"), 1u);
}

TEST(NicTableBoundary, OutOfRangeIndexYieldsGarbageFrame)
{
    Sram sram(1 << 16);
    NicTranslationTable table(sram, 1, 64, /*garbage_frame=*/7);
    table.install(0, 42);

    // §4.2: a stale or hostile index must never fault — it reads the
    // always-pinned garbage frame instead.
    EXPECT_EQ(table.entry(64), 7u);
    EXPECT_EQ(table.entry(10000), 7u);
    EXPECT_FALSE(table.isValid(64));
    EXPECT_EQ(table.entry(0), 42u);
}

// ---------------------------------------------------------------------
// HostPageTable
// ---------------------------------------------------------------------

TEST(HostTableAudit, CatchesOverstatedValidCount)
{
    PhysMemory phys(512);
    HostPageTable table(phys, 1);
    ASSERT_TRUE(table.set(3, 17));
    ASSERT_TRUE(table.set(700, 18));

    check::AuditReport before;
    table.audit(before);
    ASSERT_TRUE(before.ok());

    check::TestTamper::bumpHostValidCount(table);
    check::AuditReport after;
    table.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("host-page-table"), 1u);
}

TEST(HostTableAudit, SwappedLeafStillPasses)
{
    PhysMemory phys(512);
    HostPageTable table(phys, 1);
    ASSERT_TRUE(table.set(3, 17));
    ASSERT_TRUE(table.swapOutLeaf(3));

    // The auditor recounts valid entries inside the swapped disk
    // image, so a clean swap is not a false positive.
    check::AuditReport report;
    table.audit(report);
    EXPECT_TRUE(report.ok());
}

// ---------------------------------------------------------------------
// SharedUtlbCache
// ---------------------------------------------------------------------

TEST(SharedCacheAudit, CatchesMisplacedLine)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{64, 2, true}, timings);
    for (mem::ProcId pid = 1; pid <= 3; ++pid)
        for (Vpn v = 0; v < 20; ++v)
            cache.insert(pid, v, 1000 + v);

    check::AuditReport before;
    cache.audit(before);
    ASSERT_TRUE(before.ok());

    ASSERT_TRUE(check::TestTamper::misplaceCacheLine(cache));
    check::AuditReport after;
    cache.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("shared-cache"), 1u);
}

TEST(SharedCacheAudit, CatchesDesyncedTagWord)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{64, 4, true}, timings);
    for (mem::ProcId pid = 1; pid <= 3; ++pid)
        for (Vpn v = 0; v < 20; ++v)
            cache.insert(pid, v, 1000 + v);

    check::AuditReport before;
    cache.audit(before);
    ASSERT_TRUE(before.ok());

    ASSERT_TRUE(check::TestTamper::desyncTagWord(cache));
    check::AuditReport after;
    cache.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("shared-cache"), 1u);
}

TEST(SharedCacheAudit, CatchesStaleStampOnDeadLine)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{64, 1, true}, timings);
    cache.insert(1, 5, 100);
    ASSERT_TRUE(cache.lookup(1, 5).hit);  // one live line, 63 dead

    check::AuditReport before;
    cache.audit(before);
    ASSERT_TRUE(before.ok());

    // A dead line keeping a recency stamp is exactly the state a
    // buggy invalidate path (one that clears `valid` but not
    // `lastUse`) leaves behind; the auditor must flag it.
    ASSERT_TRUE(check::TestTamper::stampDeadLine(cache));
    check::AuditReport after;
    cache.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("shared-cache"), 1u);
}

TEST(SharedCacheAudit, CatchesStampOnDirectMappedLine)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{64, 1, true}, timings);
    cache.insert(1, 5, 100);

    check::AuditReport before;
    cache.audit(before);
    ASSERT_TRUE(before.ok());

    ASSERT_TRUE(check::TestTamper::stampLiveLine(cache));
    check::AuditReport after;
    cache.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("shared-cache"), 1u);
}

TEST(SharedCacheAudit, DirectMappedCacheKeepsNoRecencyStamps)
{
    // A direct-mapped set never picks a victim, so neither lock
    // policy may write a recency stamp on any path: fills, demand
    // and prefetch refreshes, conflict evictions, hits and runs.
    using utlb::core::InsertMode;
    for (bool concurrent : {false, true}) {
        SCOPED_TRACE(concurrent ? "concurrent" : "sequential");
        NicTimings timings;
        SharedUtlbCache cache(CacheConfig{64, 1, true}, timings);
        std::optional<SharedUtlbCache::Shard> shard;
        if (concurrent) {
            cache.enableConcurrent();
            shard.emplace(cache.makeShard());
        }
        SharedUtlbCache::Shard *sh = shard ? &*shard : nullptr;
        for (Vpn v = 0; v < 32; ++v)
            cache.insert(1, v, 100 + v, InsertMode::Demand, sh);
        cache.insert(1, 3, 200, InsertMode::Demand, sh);
        cache.insert(1, 4, 201, InsertMode::Prefetch, sh);
        cache.insert(1, 64 + 9, 400, InsertMode::Demand, sh);
        EXPECT_TRUE(cache.lookup(1, 3, sh).hit);
        std::vector<utlb::mem::Pfn> pfns(8);
        EXPECT_EQ(cache.lookupRun(1, 0, 8, pfns.data(), sh).hits, 8u);
        if (sh)
            cache.absorbShard(*sh);

        EXPECT_EQ(cache.refreshes(), 2u);
        EXPECT_EQ(cache.evictions(), 1u);
        EXPECT_EQ(check::TestTamper::highestStamp(cache), 0u);
        check::AuditReport report;
        cache.audit(report);
        EXPECT_TRUE(report.ok()) << report.summary();
    }
}

TEST(SharedCacheAudit, CatchesWedgedSeqlock)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{64, 2, true}, timings);
    cache.enableConcurrent();
    SharedUtlbCache::Shard sh = cache.makeShard();
    for (Vpn v = 0; v < 20; ++v)
        cache.insert(1, v, 1000 + v, utlb::core::InsertMode::Demand, &sh);
    cache.absorbShard(sh);

    check::AuditReport before;
    cache.audit(before);
    ASSERT_TRUE(before.ok());

    // An odd version at quiescence is what a writer that died (or
    // forgot writeEnd) leaves behind: every future optimistic read
    // of the set would retry to the lock-fallback bound forever.
    check::TestTamper::wedgeSeqlock(cache);
    check::AuditReport after;
    cache.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("shared-cache"), 1u);
}

// ---------------------------------------------------------------------
// Tamper gate: the executable spec sees corruption an auditor sees
// ---------------------------------------------------------------------

/**
 * Plant @p tamper before op 40 of the spec's replay of a 4-way, 2 K
 * entry stack: a call must then differ from the oracle within 200
 * ops, not only at the final audit. A corrupted line shows only if it
 * is referenced again before it is dropped; seed 10 re-references the
 * ones these tampers pick (docs/checking.md has the rates of other
 * seeds and the tampers the oracle cannot see).
 */
void
expectSpecCatches(const std::function<void(spec::Stack &)> &tamper)
{
    const spec::Case c{2048, 4, 4, 0, core::PolicyKind::Lru, 1, 10};
    const std::vector<spec::Op> ops = spec::generate(c);
    ASSERT_EQ(spec::replay(c, true, spec::kReference, ops, nullptr).mismatch,
              "");
    spec::Run run = spec::replay(c, true, spec::kReference, ops, nullptr,
                                 true, [&](std::size_t op, spec::Stack &st) {
                                     if (op == 40)
                                         tamper(st);
                                 });
    EXPECT_GE(run.failedOp, 40u);
    EXPECT_LT(run.failedOp, 240u) << run.mismatch;
}

TEST(SpecTamperGate, CatchesMisplacedCacheLine)
{
    expectSpecCatches([](spec::Stack &st) {
        ASSERT_TRUE(check::TestTamper::misplaceCacheLine(st.cache));
    });
}

TEST(SpecTamperGate, CatchesDesyncedTagWord)
{
    expectSpecCatches([](spec::Stack &st) {
        ASSERT_TRUE(check::TestTamper::desyncTagWord(st.cache));
    });
}

TEST(SpecTamperGate, CatchesFlippedPinBitmapWord)
{
    expectSpecCatches([](spec::Stack &st) {
        check::TestTamper::flipBitmapWord(check::TestTamper::pinBits(
            st.tenants.at(1).utlb->pinManager()));
    });
}

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

TEST(EventQueueAudit, CatchesClockAheadOfPendingEvent)
{
    sim::EventQueue q;
    q.schedule(100, [] {});
    q.schedule(200, [] {});

    check::AuditReport before;
    q.audit(before);
    ASSERT_TRUE(before.ok());

    check::TestTamper::warpClock(q);
    check::AuditReport after;
    q.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("event-queue"), 1u);
}

// ---------------------------------------------------------------------
// PinFacility / PinManager
// ---------------------------------------------------------------------

/** A minimal driver stack for pin-layer fault injection. */
class PinStack : public ::testing::Test, protected NodeStack
{
  protected:
    PinStack() : NodeStack({256, 1, true}, 4096), space(1, physMem)
    {
        driver.registerProcess(space);
    }

    PinManager
    makeManager(const PinManagerConfig &cfg = {})
    {
        return PinManager(driver, 1, cfg);
    }

    AddressSpace space;
};

TEST_F(PinStack, FacilityAuditCatchesZeroRefcount)
{
    ASSERT_TRUE(pins.pinPage(1, 5).has_value());

    check::AuditReport before;
    pins.audit(before);
    ASSERT_TRUE(before.ok());

    check::TestTamper::zeroPinRefcount(pins, 1);
    check::AuditReport after;
    pins.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("pin-facility"), 1u);
}

TEST_F(PinStack, ManagerAuditCatchesKernelUnpinBehindItsBack)
{
    PinManager mgr = makeManager();
    ASSERT_TRUE(mgr.ensurePinned(10, 2).ok);

    check::AuditReport before;
    mgr.audit(before);
    ASSERT_TRUE(before.ok());

    // The kernel drops a page the library still believes pinned —
    // exactly what a refcount bug in the facility would look like.
    EXPECT_EQ(pins.unpinPage(1, 10), mem::PinStatus::Ok);
    check::AuditReport after;
    mgr.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("pin-manager"), 1u);
}

TEST_F(PinStack, ManagerAuditCatchesUnpinnedDmaLock)
{
    PinManager mgr = makeManager();
    ASSERT_TRUE(mgr.ensurePinned(10, 1).ok);
    mgr.lockRange(10, 1);

    check::AuditReport before;
    mgr.audit(before);
    ASSERT_TRUE(before.ok());

    // An in-flight DMA must never target an unpinned frame (§3.1).
    EXPECT_EQ(pins.unpinPage(1, 10), mem::PinStatus::Ok);
    check::AuditReport after;
    mgr.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("pin-manager"), 1u);
}

TEST_F(PinStack, ManagerAuditCatchesZeroCountLock)
{
    PinManager mgr = makeManager();
    ASSERT_TRUE(mgr.ensurePinned(10, 1).ok);

    check::TestTamper::plantZeroLock(mgr, 10);
    check::AuditReport report;
    mgr.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_GE(report.countFor("pin-manager"), 1u);
}

TEST_F(PinStack, PinLimitExactlyReachedStaysWithinBudget)
{
    PinManagerConfig cfg;
    cfg.memLimitPages = 4;
    PinManager mgr = makeManager(cfg);

    // Fill the budget to the brim: legal, and the auditor agrees.
    ASSERT_TRUE(mgr.ensurePinned(10, 4).ok);
    EXPECT_EQ(mgr.pinnedPages(), 4u);
    check::AuditReport at_limit;
    mgr.audit(at_limit);
    EXPECT_TRUE(at_limit.ok());

    // One page over the brim forces an eviction, never an overflow.
    core::EnsureResult r = mgr.ensurePinned(100, 1);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pagesUnpinned, 1u);
    EXPECT_EQ(mgr.pinnedPages(), 4u);
    check::AuditReport after;
    mgr.audit(after);
    EXPECT_TRUE(after.ok());
}

TEST_F(PinStack, UnpinOfNeverPinnedPageIsRejected)
{
    PinManager mgr = makeManager();
    EXPECT_FALSE(mgr.releasePage(999));
    EXPECT_EQ(pins.unpinPage(1, 999), mem::PinStatus::NotPinned);

    check::AuditReport report;
    mgr.audit(report);
    pins.audit(report);
    EXPECT_TRUE(report.ok());
}

// ---------------------------------------------------------------------
// VmmcNode / Cluster
// ---------------------------------------------------------------------

TEST(VmmcAudit, ClusterSweepIsCleanAndCatchesUnpinnedExport)
{
    vmmc::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node.memoryFrames = 2048;
    cfg.node.cache = {512, 1, true};
    vmmc::Cluster cluster(cfg);
    cluster.node(0).createProcess(1);
    cluster.node(1).createProcess(2);

    mem::VirtAddr recv_va = mem::addrOf(20);
    auto exp = cluster.node(1).exportBuffer(2, recv_va, 2 * 4096);
    ASSERT_TRUE(exp.has_value());

    check::AuditReport before;
    cluster.audit(before);
    ASSERT_TRUE(before.ok()) << before.summary();
    EXPECT_GT(before.auditorsRun(), 4u);

    // Unpin an exported page behind the export's back: a standing
    // DMA target now points at a reclaimable frame.
    EXPECT_EQ(cluster.node(1).pinFacility().unpinPage(2, 20),
              mem::PinStatus::Ok);
    check::AuditReport after;
    cluster.audit(after);
    EXPECT_FALSE(after.ok());
    EXPECT_GE(after.countFor("vmmc-node"), 1u);
}

// ---------------------------------------------------------------------
// Simulator integration (--audit-every)
// ---------------------------------------------------------------------

TEST(SimulatorAudit, PeriodicSweepsRunCleanInBothModes)
{
    trace::SyntheticSpec spec;
    spec.processes = 2;
    spec.pages = 64;
    spec.lookups = 300;
    trace::Trace tr = trace::generateSynthetic("uniform", spec, 42);

    tlbsim::SimConfig cfg;
    cfg.cache = {128, 1, true};
    cfg.memLimitPages = 32;
    cfg.auditEvery = 100;

    tlbsim::SimResult u = tlbsim::simulateUtlb(tr, cfg);
    EXPECT_GT(u.audits, 0u);
    tlbsim::SimResult i = tlbsim::simulateIntr(tr, cfg);
    EXPECT_GT(i.audits, 0u);
}

// ---------------------------------------------------------------------
// UTLB_ASSERT failure handling
// ---------------------------------------------------------------------

// These tests trip UTLB_ASSERT deliberately, so they only exist in
// builds where the macro is live.
#if UTLB_CHECK_LEVEL >= 1

TEST(CheckMacros, ThrowingHandlerSeesStructuredContext)
{
    check::setFailureHandler(
        [](const check::Failure &f) { throw f; });

    volatile int four = 4;
    bool caught = false;
    try {
        check::ScopedContext ctx("unit-test", 42);
        UTLB_ASSERT(four == 5, "deliberate failure, four=%d", four);
    } catch (const check::Failure &f) {
        caught = true;
        EXPECT_EQ(f.component, "unit-test");
        EXPECT_EQ(f.pid, 42u);
        EXPECT_NE(f.message.find("deliberate failure"),
                  std::string::npos);
        EXPECT_STREQ(f.expr, "four == 5");
    }
    EXPECT_TRUE(caught);
    check::setFailureHandler(nullptr);
}

TEST(CheckMacros, ScopedContextNestsAndRestores)
{
    check::setFailureHandler(
        [](const check::Failure &f) { throw f; });

    check::ScopedContext outer("outer", 1);
    {
        check::ScopedContext inner("inner", 2);
        try {
            UTLB_ASSERT(false);
        } catch (const check::Failure &f) {
            EXPECT_EQ(f.component, "inner");
            EXPECT_EQ(f.pid, 2u);
        }
    }
    try {
        UTLB_ASSERT(false);
    } catch (const check::Failure &f) {
        EXPECT_EQ(f.component, "outer");
        EXPECT_EQ(f.pid, 1u);
    }
    check::setFailureHandler(nullptr);
}

TEST(CheckMacrosDeathTest, DefaultHandlerPrintsAndAborts)
{
    EXPECT_DEATH(
        {
            check::ScopedContext ctx("doomed-component", 9);
            UTLB_ASSERT(1 + 1 == 3, "the books do not balance");
        },
        "doomed-component");
}

#endif // UTLB_CHECK_LEVEL >= 1

} // namespace
