/**
 * @file
 * sweep_cold: the paper-table grid, cold start, classifier on.
 *
 * All seven traces x {1K, 4K, 16K direct-mapped, 4K 4-way} x {pin
 * budget unlimited, 4 MB}, each replayed through simulateUtlb and
 * simulateIntr on the per-page path. The whole grid is replayed once,
 * untimed and audited, for the checks and the modeled metrics. The
 * untraced run then times a fixed subset of cells over and over, with
 * auditing off as in a user's replay; the traced run instead replays
 * every cell through tlbsim and through the benchmark's own per-page
 * loop (the same public calls minus the miss classifier), once
 * untimed per call and once with spans.
 */

#include <algorithm>
#include <sstream>

#include "common.hpp"
#include "spans.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

namespace {

struct Cell {
    std::string app;
    core::CacheConfig cache;
    std::size_t memLimit;
};

std::vector<Cell>
gridOf(const std::vector<std::string> &apps)
{
    const std::vector<core::CacheConfig> caches{
        {1024, 1, true}, {4096, 1, true}, {16384, 1, true}, {4096, 4, true}};
    std::vector<Cell> cells;
    for (const std::string &app : apps)
        for (const core::CacheConfig &c : caches)
            for (std::size_t limit : {std::size_t{0}, std::size_t{1024}})
                cells.push_back({app, c, limit});
    return cells;
}

/**
 * The cells the untraced run times: per trace, the smallest
 * direct-mapped cache with no pin budget (cold pinning, conflict
 * misses) and the 4-way cache under the 4 MB budget (unpin churn).
 */
bool
timedCell(const Cell &c)
{
    return (c.cache.entries == 1024 && c.cache.assoc == 1 && c.memLimit == 0)
        || (c.cache.assoc == 4 && c.memLimit != 0);
}

std::string
labelOf(const Cell &c)
{
    std::ostringstream os;
    os << c.app << "/" << c.cache.entries << "x" << c.cache.assoc << "/"
       << (c.memLimit ? "4MB" : "unlimited");
    return os.str();
}

/** Records the replay loop sees (tlbsim skips zero-length ones). */
std::size_t
nonEmpty(const trace::Trace &tr)
{
    return static_cast<std::size_t>(std::count_if(
        tr.begin(), tr.end(),
        [](const trace::TraceRecord &r) { return r.nbytes != 0; }));
}

/** With @p audited, one invariant audit at the end of the replay. */
tlbsim::SimConfig
configOf(const Cell &c, const trace::Trace &tr, bool audited)
{
    tlbsim::SimConfig cfg;
    cfg.cache = c.cache;
    cfg.memLimitPages = c.memLimit;
    cfg.auditEvery = audited ? nonEmpty(tr) : 0;
    return cfg;
}

/** Every modeled field of two results agrees. */
bool
sameModeled(const tlbsim::SimResult &a, const tlbsim::SimResult &b)
{
    return a.lookups == b.lookups && a.probes == b.probes
        && a.checkMissLookups == b.checkMissLookups
        && a.niMissLookups == b.niMissLookups
        && a.niMissProbes == b.niMissProbes
        && a.pagesPinned == b.pagesPinned
        && a.pagesUnpinned == b.pagesUnpinned
        && a.pinIoctls == b.pinIoctls && a.interrupts == b.interrupts
        && a.hostTime == b.hostTime && a.pinTime == b.pinTime
        && a.unpinTime == b.unpinTime && a.nicTime == b.nicTime;
}

/** Per-layer accumulators of the traced own-loop replays. */
struct Layers {
    LatHist prepareCheck, nicHit, nicMiss, peek, intrTranslate;
    double preparePinNs = 0;
    std::uint64_t preparePinPages = 0;
    std::uint64_t lookups = 0, probes = 0;  //!< UTLB replays only
    StackCounters counts;                   //!< UTLB stacks only
};

/**
 * The per-page UTLB replay of simulateUtlb, minus the classifier.
 * wallNs covers the loop only; the closing audit runs after it.
 */
template <bool Traced>
tlbsim::SimResult
utlbLoop(const trace::Trace &tr, const Cell &cell, Report &report,
         SpanLog *log, Layers *acc)
{
    UtlbStack st(framesFor(tr), cell.cache, cell.memLimit);
    tlbsim::SimResult res;
    std::uint64_t cellId = 0, peekWrong = 0;
    std::uint64_t start = nowNs();
    if constexpr (Traced)
        cellId = log->nextId();
    for (const trace::TraceRecord &rec : tr) {
        core::UserUtlb &u = st.view(rec.pid);
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        if (npages == 0)
            continue;
        ++res.lookups;
        std::uint64_t op = 0, t0 = 0;
        if constexpr (Traced) {
            op = log->nextId();
            t0 = nowNs();
        }
        core::EnsureResult host = u.prepare(rec.va, rec.nbytes);
        if constexpr (Traced) {
            std::uint64_t t1 = nowNs();
            log->add("core.prepare", log->nextId(), op, op, t0, t1);
            if (host.pagesPinned > 0) {
                acc->preparePinNs += static_cast<double>(t1 - t0);
                acc->preparePinPages += host.pagesPinned;
            } else {
                acc->prepareCheck.add(t1 - t0);
            }
        }
        res.hostTime += st.costs.userCheck() + host.pinCost + host.unpinCost;
        res.pinTime += host.pinCost;
        res.unpinTime += host.unpinCost;
        res.checkMissLookups += host.checkMiss;
        res.pagesPinned += host.pagesPinned;
        res.pagesUnpinned += host.pagesUnpinned;
        res.pinIoctls += host.pinIoctls;
        if (!host.ok) {
            report.ops(0, 1);
            continue;
        }
        bool anyMiss = false;
        mem::Vpn first = mem::pageOf(rec.va);
        for (std::size_t i = 0; i < npages; ++i) {
            std::uint64_t a = 0, b = 0;
            if constexpr (Traced)
                a = nowNs();
            bool hit = st.cache.peek(rec.pid, first + i).has_value();
            if constexpr (Traced) {
                b = nowNs();
                log->add("core.peek", log->nextId(), op, op, a, b);
                acc->peek.add(b - a);
            }
            core::NicLookup nl = u.nicTranslate(first + i);
            if constexpr (Traced) {
                std::uint64_t c = nowNs();
                log->add("core.nic_translate", log->nextId(), op, op, b, c);
                (nl.miss ? acc->nicMiss : acc->nicHit).add(c - b);
            }
            // tlbsim classifies each probe from this peek.
            peekWrong += hit == nl.miss;
            ++res.probes;
            res.nicTime += nl.cost;
            res.niMissProbes += nl.miss;
            anyMiss |= nl.miss;
        }
        res.niMissLookups += anyMiss;
        if constexpr (Traced)
            log->add("bench.op", op, cellId, op, t0, nowNs());
    }
    res.wallNs = static_cast<double>(nowNs() - start);
    check::AuditReport audit;
    st.audit(audit);
    report.expect("sweep.audit_clean", audit.ok(), audit.summary());
    report.expect("sweep.peek_predicts_probe", peekWrong == 0);
    if constexpr (Traced) {
        log->add("tlbsim.cell", cellId, 0, 0, start, nowNs());
        acc->lookups += res.lookups;
        acc->probes += res.probes;
        acc->counts += st.counters();
    }
    return res;
}

/** The per-page interrupt-baseline replay of simulateIntr. */
template <bool Traced>
tlbsim::SimResult
intrLoop(const trace::Trace &tr, const Cell &cell, Report &report,
         SpanLog *log, Layers *acc)
{
    IntrStack st(framesFor(tr), cell.cache, cell.memLimit);
    tlbsim::SimResult res;
    std::uint64_t cellId = 0, peekWrong = 0;
    std::uint64_t start = nowNs();
    if constexpr (Traced)
        cellId = log->nextId();
    for (const trace::TraceRecord &rec : tr) {
        st.ensure(rec.pid);
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        if (npages == 0)
            continue;
        ++res.lookups;
        std::uint64_t op = 0, t0 = 0;
        if constexpr (Traced) {
            op = log->nextId();
            t0 = nowNs();
        }
        bool anyMiss = false;
        mem::Vpn first = mem::pageOf(rec.va);
        for (std::size_t i = 0; i < npages; ++i) {
            std::uint64_t a = 0, b = 0;
            if constexpr (Traced)
                a = nowNs();
            bool hit = st.cache.peek(rec.pid, first + i).has_value();
            if constexpr (Traced) {
                b = nowNs();
                log->add("core.peek", log->nextId(), op, op, a, b);
                acc->peek.add(b - a);
            }
            core::IntrLookup lk = st.intr.translate(rec.pid, first + i);
            if constexpr (Traced) {
                std::uint64_t c = nowNs();
                log->add("core.intr_translate", log->nextId(), op, op, b, c);
                acc->intrTranslate.add(c - b);
            }
            peekWrong += hit == lk.miss;
            ++res.probes;
            res.nicTime += lk.cost;
            if (lk.miss) {
                ++res.niMissProbes;
                anyMiss = true;
                ++res.interrupts;
                ++res.pagesPinned;
                res.pinTime += st.costs.kernelPinCost();
            }
            res.pagesUnpinned += lk.unpins;
            res.unpinTime +=
                static_cast<sim::Tick>(lk.unpins) * st.costs.kernelUnpinCost();
            if (lk.failed)
                report.ops(0, 1);
        }
        res.niMissLookups += anyMiss;
        if constexpr (Traced)
            log->add("bench.op", op, cellId, op, t0, nowNs());
    }
    res.wallNs = static_cast<double>(nowNs() - start);
    check::AuditReport audit;
    st.audit(audit);
    report.expect("sweep.audit_clean", audit.ok(), audit.summary());
    report.expect("sweep.peek_predicts_probe", peekWrong == 0);
    if constexpr (Traced)
        log->add("tlbsim.cell", cellId, 0, 0, start, nowNs());
    return res;
}

/** Checks every simulate result must pass. */
void
checkResult(const tlbsim::SimResult &r, const std::string &label,
            bool audited, Report &report)
{
    report.expect("sweep.three_c", threeCHolds(r), label);
    if (audited)
        report.expect("sweep.audit_ran", r.audits == 1, label);
}

} // namespace

void
runSweepCold(const Options &opt, Report &report)
{
    std::vector<std::string> apps = opt.tiny
        ? std::vector<std::string>{"barnes", "fft"}
        : allTraceNames();

    // Set-up: trace generation. Returns when it ended.
    TraceSet traces;
    auto setUp = [&] {
        std::uint64_t t0 = nowNs();
        TraceSet fresh;
        report.generateSample(generateTraces(apps, opt.seed, fresh));
        traces = std::move(fresh);
        report.setupSample(secondsSince(t0));
        return nowNs();
    };
    std::uint64_t lastSetup = setUp();

    std::vector<Cell> cells = gridOf(apps);
    std::vector<tlbsim::SimResult> utlbRes(cells.size()),
        intrRes(cells.size());

    // The whole grid once, audited: the reference every later replay
    // must reproduce. Its stats trees seed the digest; those of the
    // timed cells are compared with every later replay of them.
    std::uint64_t gridProbes = 0;
    std::vector<std::size_t> timed;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const Cell &c = cells[ci];
        const trace::Trace &tr = traces.at(c.app);
        tlbsim::SimConfig cfg = configOf(c, tr, true);
        utlbRes[ci] = tlbsim::simulateUtlb(tr, cfg);
        intrRes[ci] = tlbsim::simulateIntr(tr, cfg);
        std::string label = labelOf(c);
        checkResult(utlbRes[ci], label + "/utlb", true, report);
        checkResult(intrRes[ci], label + "/intr", true, report);
        report.ops(utlbRes[ci].lookups + intrRes[ci].lookups);
        gridProbes += utlbRes[ci].probes + intrRes[ci].probes;
        report.modeledBase(utlbRes[ci].statsJson);
        report.modeledBase(intrRes[ci].statsJson);
        if (timedCell(c)) {
            timed.push_back(ci);
            report.modeled("rep0", utlbRes[ci].statsJson);
            report.modeled("rep0", intrRes[ci].statsJson);
        }
    }

    // Replay a cell through tlbsim without audits; it must reproduce
    // the reference. With @p group, a timed cell's stats trees go
    // into that digest group. Returns the wall ns of both simulate
    // calls, and the part of it tlbsim spent in its replay loops.
    auto replay = [&](std::size_t ci, const char *group) {
        const Cell &c = cells[ci];
        const trace::Trace &tr = traces.at(c.app);
        tlbsim::SimConfig cfg = configOf(c, tr, false);
        std::uint64_t t0 = nowNs();
        tlbsim::SimResult u = tlbsim::simulateUtlb(tr, cfg);
        tlbsim::SimResult i = tlbsim::simulateIntr(tr, cfg);
        double ns = static_cast<double>(nowNs() - t0);
        std::string label = labelOf(c);
        checkResult(u, label + "/utlb", false, report);
        checkResult(i, label + "/intr", false, report);
        report.expect("sweep.rep_repeats",
                      sameModeled(u, utlbRes[ci])
                          && sameModeled(i, intrRes[ci]),
                      label);
        report.ops(u.lookups + i.lookups);
        if (group && timedCell(c)) {
            report.modeled(group, u.statsJson);
            report.modeled(group, i.statsJson);
        }
        return std::make_pair(ns, u.wallNs + i.wallNs);
    };

    if (!opt.traced) {
        // Timed repetitions until the time is up, generating the
        // traces afresh when a set-up is due; every replay must still
        // reproduce the reference. Only the last repetition's stats
        // trees go into the digest.
        std::uint64_t probesPerRep = 0;
        for (std::size_t ci : timed)
            probesPerRep += utlbRes[ci].probes + intrRes[ci].probes;
        std::vector<std::vector<double>> walls(timed.size());
        std::vector<double> repSamples;
        std::uint64_t start = nowNs();
        for (bool last = false; !last;) {
            if (setupDue(opt, lastSetup))
                lastSetup = setUp();
            last = opt.tiny || secondsSince(start) >= opt.seconds;
            double sum = 0;
            for (std::size_t k = 0; k < timed.size(); ++k) {
                double ns =
                    replay(timed[k], last ? "rep_last" : nullptr).first;
                walls[k].push_back(ns);
                sum += ns;
            }
            repSamples.push_back(sum / static_cast<double>(probesPerRep));
        }
        report.wallSamples(repSamples);
        report.e2e("wall_ns_per_probe", wallPerProbe(walls, probesPerRep));
        recordPeakRss(report);
    }

    // Per-page vs translateRange on sampled direct-mapped cells: the
    // fft 1K cell and one more picked by the seed.
    std::vector<std::size_t> dm;
    std::size_t fft1k = 0;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const Cell &c = cells[ci];
        if (c.cache.assoc == 1)
            dm.push_back(ci);
        if (c.app == "fft" && c.cache.entries == 1024 && c.cache.assoc == 1
            && c.memLimit == 0)
            fft1k = ci;
    }
    for (std::size_t ci : {fft1k, dm[opt.seed % dm.size()]}) {
        const trace::Trace &tr = traces.at(cells[ci].app);
        tlbsim::SimConfig cfg = configOf(cells[ci], tr, true);
        cfg.batchedRange = true;
        tlbsim::SimResult b = tlbsim::simulateUtlb(tr, cfg);
        const tlbsim::SimResult &p = utlbRes[ci];
        report.expect("sweep.range_matches_per_page",
                      sameModeled(b, p) && threeCHolds(b)
                          && b.compulsoryMisses == p.compulsoryMisses
                          && b.conflictMisses == p.conflictMisses,
                      labelOf(cells[ci]));
    }
    // For run.py's cross-check against the tlbsim command line.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", utlbRes[fft1k].avgLookupCostUs());
    report.info("fft_1k_utlb_us", buf);
    std::snprintf(buf, sizeof(buf), "%.17g", utlbRes[fft1k].probeMissRate());
    report.info("fft_1k_probe_miss_rate", buf);

    // Modeled end-to-end numbers, from rep 0.
    sim::Tick modeled = 0;
    std::uint64_t lookups = 0, probes = 0, misses = 0;
    for (const tlbsim::SimResult &u : utlbRes) {
        modeled += u.hostTime + u.nicTime;
        lookups += u.lookups;
        probes += u.probes;
        misses += u.niMissProbes;
    }
    report.e2e("modeled_us_per_op",
               sim::ticksToUs(modeled) / static_cast<double>(lookups));
    report.e2e("ni_miss_rate",
               static_cast<double>(misses) / static_cast<double>(probes));
    report.e2e("paper_err_pct", table6ErrPct([&](const Table6Cell &t) {
                   for (std::size_t ci = 0; ci < cells.size(); ++ci) {
                       const Cell &c = cells[ci];
                       if (c.app == t.app && c.cache.entries == t.entries
                           && c.cache.assoc == 1 && c.memLimit == 0)
                           return (t.utlb ? utlbRes[ci] : intrRes[ci])
                               .avgLookupCostUs();
                   }
                   return 0.0;
               }));

    if (!opt.traced)
        return;

    // Traced run: each cell through tlbsim, then through the
    // benchmark's own loop, first untraced (the classifier and
    // overhead baseline), then traced.
    SpanLog log;
    Layers acc;
    double replayNs = 0, plainNs = 0, tracedNs = 0;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const Cell &c = cells[ci];
        const trace::Trace &tr = traces.at(c.app);
        std::string label = labelOf(c);
        replayNs += replay(ci, "traced_replay").second;

        tlbsim::SimResult u0 = utlbLoop<false>(tr, c, report, nullptr,
                                               nullptr);
        tlbsim::SimResult i0 = intrLoop<false>(tr, c, report, nullptr,
                                               nullptr);
        tlbsim::SimResult u1 = utlbLoop<true>(tr, c, report, &log, &acc);
        tlbsim::SimResult i1 = intrLoop<true>(tr, c, report, &log, &acc);
        plainNs += u0.wallNs + i0.wallNs;
        tracedNs += u1.wallNs + i1.wallNs;
        report.expect("sweep.bench_loop_matches_tlbsim",
                      sameModeled(u0, utlbRes[ci])
                          && sameModeled(i0, intrRes[ci])
                          && sameModeled(u1, utlbRes[ci])
                          && sameModeled(i1, intrRes[ci]),
                      label);
        report.ops(u0.lookups + i0.lookups + u1.lookups + i1.lookups);
    }

    auto perProbe = [&](double ns) {
        return ns / static_cast<double>(gridProbes);
    };
    report.layer("tlbsim.replay_ns_per_probe", perProbe(replayNs));
    report.layer("tlbsim.classify_ns_per_probe",
                 perProbe(replayNs - plainNs));
    report.layer("bench.trace_overhead_pct",
                 100.0 * (tracedNs / plainNs - 1.0));
    report.layer("core.prepare_pin_ns_per_page",
                 acc.preparePinPages
                     ? acc.preparePinNs
                         / static_cast<double>(acc.preparePinPages)
                     : 0.0);
    report.layer("core.prepare_check_ns.p50", acc.prepareCheck.quantile(0.5));
    report.layer("core.prepare_check_ns.p99",
                 acc.prepareCheck.quantile(0.99));
    report.layer("core.nic_hit_ns.p50", acc.nicHit.quantile(0.5));
    report.layer("core.nic_miss_ns.p50", acc.nicMiss.quantile(0.5));
    report.layer("core.nic_miss_ns.p99", acc.nicMiss.quantile(0.99));
    report.layer("core.peek_ns.p50", acc.peek.quantile(0.5));
    report.layer("core.intr_translate_ns.p50",
                 acc.intrTranslate.quantile(0.5));
    report.layer("core.intr_translate_ns.p99",
                 acc.intrTranslate.quantile(0.99));
    reportCounts(report, acc.counts, static_cast<double>(acc.lookups),
                 static_cast<double>(acc.probes));
    report.info("spans_recorded", std::to_string(log.total()));
    report.info("nic_miss_samples", std::to_string(acc.nicMiss.count()));
    report.info("prepare_check_samples",
                std::to_string(acc.prepareCheck.count()));
    if (!opt.chromePath.empty())
        writeChromeFile(opt.chromePath, {&log});
}

} // namespace perfbench
