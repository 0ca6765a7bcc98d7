/**
 * @file
 * replay_warm: the steady-state library path.
 *
 * Each of the seven traces gets its own stack (8K direct-mapped cache
 * with index offsetting, unlimited pin budget). The set-up replays
 * every trace once through UserUtlb::translateRange, so the timed
 * replays run with every page pinned: no pin ioctls, no fresh frames,
 * no classifier.
 */

#include <memory>
#include <sstream>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

const core::CacheConfig kCache{8192, 1, true};

struct Warm {
    std::vector<std::string> names;
    TraceSet traces;
    std::vector<std::unique_ptr<UtlbStack>> stacks;
};

/** Modeled totals of one pass over every trace. */
struct Totals {
    std::uint64_t lookups = 0, probes = 0, misses = 0, checkMisses = 0;
    std::uint64_t pinned = 0, unpinned = 0, ioctls = 0, failed = 0;
    sim::Tick host = 0, nic = 0;

    void
    add(const core::Translation &t, sim::Tick user_check,
        std::size_t npages)
    {
        ++lookups;
        probes += npages;
        misses += t.missPages.size();
        checkMisses += t.checkMiss;
        pinned += t.pagesPinned;
        unpinned += t.pagesUnpinned;
        ioctls += t.pinIoctls;
        failed += !t.ok;
        host += user_check + t.pinCost + t.unpinCost;
        nic += t.nicCost;
    }

    bool operator==(const Totals &) const = default;

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{\"lookups\":" << lookups << ",\"probes\":" << probes
           << ",\"ni_miss_probes\":" << misses
           << ",\"check_miss_lookups\":" << checkMisses
           << ",\"pages_pinned\":" << pinned
           << ",\"pages_unpinned\":" << unpinned
           << ",\"pin_ioctls\":" << ioctls << ",\"host_ticks\":" << host
           << ",\"nic_ticks\":" << nic << "}";
        return os.str();
    }
};

std::unique_ptr<Warm>
setUp(const Options &opt, Report &report)
{
    std::uint64_t t0 = nowNs();
    auto w = std::make_unique<Warm>();
    w->names = opt.tiny ? std::vector<std::string>{"barnes", "fft"}
                        : allTraceNames();
    report.generateSample(generateTraces(w->names, opt.seed, w->traces));
    for (const std::string &n : w->names) {
        const trace::Trace &tr = w->traces.at(n);
        w->stacks.push_back(
            std::make_unique<UtlbStack>(framesFor(tr), kCache, 0));
        UtlbStack &st = *w->stacks.back();
        for (const trace::TraceRecord &rec : tr)
            if (rec.nbytes != 0)
                st.view(rec.pid).translateRange(rec.va, rec.nbytes);
    }
    report.setupSample(secondsSince(t0));
    return w;
}

/**
 * One translateRange pass over every trace; returns wall ns and
 * appends each trace's wall ns to @p walls[trace]. The traced variant
 * records a span per call into @p log and the per-page time into
 * @p per_page.
 */
template <bool Traced>
double
timedPass(Warm &w, Totals &tot, std::vector<std::vector<double>> &walls,
          SpanLog *log, LatHist *per_page)
{
    std::uint64_t t0 = nowNs();
    for (std::size_t k = 0; k < w.names.size(); ++k) {
        std::uint64_t tk = nowNs();
        UtlbStack &st = *w.stacks[k];
        sim::Tick uc = st.costs.userCheck();
        for (const trace::TraceRecord &rec : w.traces.at(w.names[k])) {
            std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
            if (npages == 0)
                continue;
            std::uint64_t a = 0;
            if constexpr (Traced)
                a = nowNs();
            core::Translation t =
                st.view(rec.pid).translateRange(rec.va, rec.nbytes);
            if constexpr (Traced) {
                std::uint64_t b = nowNs();
                std::uint64_t op = log->nextId();
                log->add("core.translate_range", log->nextId(), op, op, a, b);
                log->add("bench.op", op, 0, op, a, b);
                per_page->add((b - a) / npages);
            }
            tot.add(t, uc, npages);
        }
        walls[k].push_back(static_cast<double>(nowNs() - tk));
    }
    return static_cast<double>(nowNs() - t0);
}

} // namespace

void
runReplayWarm(const Options &opt, Report &report)
{
    std::unique_ptr<Warm> w = setUp(opt, report);
    std::uint64_t lastSetup = nowNs();
    for (auto &st : w->stacks)
        report.modeledBase(st->statsJson());

    // Check pass: every translation must name the frame the page is
    // mapped to, and the stacks must audit clean.
    Totals ref;
    for (std::size_t k = 0; k < w->names.size(); ++k) {
        UtlbStack &st = *w->stacks[k];
        for (const trace::TraceRecord &rec : w->traces.at(w->names[k])) {
            std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
            if (npages == 0)
                continue;
            core::Translation t =
                st.view(rec.pid).translateRange(rec.va, rec.nbytes);
            ref.add(t, st.costs.userCheck(), npages);
            bool ok = t.ok && t.pageAddrs.size() == npages;
            mem::Vpn first = mem::pageOf(rec.va);
            for (std::size_t i = 0; ok && i < npages; ++i) {
                auto pfn = st.space(rec.pid).lookup(first + i);
                ok = pfn && t.pageAddrs[i] == mem::frameAddr(*pfn)
                    && st.pins.pinnedFrame(rec.pid, first + i) == pfn;
            }
            report.expect("warm.translation_is_pinned_frame", ok,
                          w->names[k]);
        }
        check::AuditReport audit;
        st.audit(audit);
        report.expect("warm.audit_clean", audit.ok(), audit.summary());
    }
    report.modeled("check_pass", ref.json());
    report.ops(ref.lookups, ref.failed);

    auto counters = [&] {
        StackCounters c;
        for (auto &st : w->stacks)
            c += st->counters();
        return c;
    };
    StackCounters before = counters();

    // Timed passes; the traced run alternates untraced and traced
    // ones, so drift over the run hits both alike. The untraced run
    // builds and warms the stacks afresh when a set-up is due. Every
    // pass must reproduce the check pass exactly.
    SpanLog log;
    LatHist rangePerPage;
    std::vector<double> perProbe;
    std::vector<std::vector<double>> walls(w->names.size()),
        tracedWalls(w->names.size());
    Totals last, tracedLast;
    std::uint64_t start = nowNs();
    do {
        if (setupDue(opt, lastSetup)) {
            w.reset();
            w = setUp(opt, report);
            lastSetup = nowNs();
        }
        last = Totals{};
        double ns = timedPass<false>(*w, last, walls, nullptr, nullptr);
        perProbe.push_back(ns / static_cast<double>(last.probes));
        report.expect("warm.pass_repeats", last == ref);
        report.ops(last.lookups, last.failed);
        if (opt.traced) {
            tracedLast = Totals{};
            timedPass<true>(*w, tracedLast, tracedWalls, &log, &rangePerPage);
            report.expect("warm.pass_repeats", tracedLast == ref);
            report.ops(tracedLast.lookups, tracedLast.failed);
        }
    } while (!opt.tiny && secondsSince(start) < opt.seconds);
    report.modeled("timed_pass", last.json());
    recordPeakRss(report);

    report.e2e("wall_ns_per_probe", wallPerProbe(walls, ref.probes));
    report.wallSamples(perProbe);
    report.e2e("modeled_us_per_op", sim::ticksToUs(ref.host + ref.nic)
                                        / static_cast<double>(ref.lookups));
    report.e2e("ni_miss_rate", static_cast<double>(ref.misses)
                                   / static_cast<double>(ref.probes));
    report.e2e("paper_err_pct", table6Validation(w->traces, opt.seed, report));

    if (!opt.traced)
        return;
    // Traced runs never set up again, so the counters span every
    // timed pass.
    StackCounters c = counters() - before;
    report.modeled("traced_pass", tracedLast.json());

    // The per-page twin (prepare + nicTranslate) on the same stacks.
    LatHist prepareCheck, nicHit, nicMiss;
    double preparePinNs = 0;
    std::uint64_t preparePinPages = 0;

    Totals perPage;
    for (std::size_t k = 0; k < w->names.size(); ++k) {
        UtlbStack &st = *w->stacks[k];
        for (const trace::TraceRecord &rec : w->traces.at(w->names[k])) {
            std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
            if (npages == 0)
                continue;
            core::UserUtlb &u = st.view(rec.pid);
            std::uint64_t op = log.nextId();
            std::uint64_t a = nowNs();
            core::EnsureResult host = u.prepare(rec.va, rec.nbytes);
            std::uint64_t b = nowNs();
            log.add("core.prepare", log.nextId(), op, op, a, b);
            if (host.pagesPinned > 0) {
                preparePinNs += static_cast<double>(b - a);
                preparePinPages += host.pagesPinned;
            } else {
                prepareCheck.add(b - a);
            }
            core::Translation t;
            t.ok = host.ok;
            t.checkMiss = host.checkMiss;
            t.pagesPinned = host.pagesPinned;
            t.pagesUnpinned = host.pagesUnpinned;
            t.pinIoctls = host.pinIoctls;
            t.pinCost = host.pinCost;
            t.unpinCost = host.unpinCost;
            mem::Vpn first = mem::pageOf(rec.va);
            for (std::size_t i = 0; i < npages; ++i) {
                std::uint64_t c = nowNs();
                core::NicLookup nl = u.nicTranslate(first + i);
                std::uint64_t d = nowNs();
                log.add("core.nic_translate", log.nextId(), op, op, c, d);
                (nl.miss ? nicMiss : nicHit).add(d - c);
                t.nicCost += nl.cost;
                if (nl.miss)
                    t.missPages.push_back(static_cast<std::uint32_t>(i));
            }
            log.add("bench.op", op, 0, op, a, nowNs());
            perPage.add(t, st.costs.userCheck(), npages);
        }
    }
    report.expect("warm.per_page_matches_range", perPage == ref);
    report.modeled("per_page_pass", perPage.json());
    report.ops(perPage.lookups, perPage.failed);

    // The counter deltas span every timed pass, traced or not.
    double passes = 2.0 * static_cast<double>(perProbe.size());
    report.layer("bench.trace_overhead_pct",
                 100.0 * (wallPerProbe(tracedWalls, ref.probes)
                              / wallPerProbe(walls, ref.probes)
                          - 1.0));
    report.layer("core.translate_range_ns_per_page.p50",
                 rangePerPage.quantile(0.5));
    report.layer("core.translate_range_ns_per_page.p99",
                 rangePerPage.quantile(0.99));
    report.layer("core.prepare_pin_ns_per_page",
                 preparePinPages ? preparePinNs
                         / static_cast<double>(preparePinPages)
                                 : 0.0);
    report.layer("core.prepare_check_ns.p50", prepareCheck.quantile(0.5));
    report.layer("core.prepare_check_ns.p99", prepareCheck.quantile(0.99));
    report.layer("core.nic_hit_ns.p50", nicHit.quantile(0.5));
    report.layer("core.nic_miss_ns.p50", nicMiss.quantile(0.5));
    report.layer("core.nic_miss_ns.p99", nicMiss.quantile(0.99));
    reportCounts(report, c, static_cast<double>(ref.lookups) * passes,
                 static_cast<double>(ref.probes) * passes);
    report.info("spans_recorded", std::to_string(log.total()));
    report.info("translate_range_samples",
                std::to_string(rangePerPage.count()));
    report.info("nic_miss_samples", std::to_string(nicMiss.count()));
    if (!opt.chromePath.empty())
        writeChromeFile(opt.chromePath, {&log});
}

} // namespace perfbench
