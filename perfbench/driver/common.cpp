#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/json.hpp"
#include "sim/log.hpp"
#include "spans.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

void
Report::expect(const std::string &name, bool ok, const std::string &detail)
{
    CheckTally &c = checks[name];
    ++c.attempted;
    if (ok)
        return;
    ++c.failed;
    if (c.details.size() < 3)
        c.details.push_back(detail);
}

void
Report::write(std::ostream &os) const
{
    sim::JsonWriter w(os, false);
    w.beginObject();
    std::map<std::string, double> e2es = e2eMetrics, layers = layerMetrics;
    e2es["setup_s"] = fastest(setupSamples);
    layers["trace.generate_ms"] = fastest(generateSamples);
    w.beginObject("e2e");
    for (const auto &[k, v] : e2es)
        w.field(k, v);
    w.endObject();
    w.beginObject("layers");
    for (const auto &[k, v] : layers)
        w.field(k, v);
    w.endObject();
    w.beginObject("info");
    for (const auto &[k, v] : infos)
        w.field(k, v);
    w.endObject();
    w.beginObject("checks");
    for (const auto &[name, c] : checks) {
        w.beginObject(name);
        w.field("attempted", c.attempted);
        w.field("failed", c.failed);
        w.beginArray("details");
        for (const std::string &d : c.details)
            w.value(d);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.field("ops_attempted", opsAttempted);
    w.field("ops_failed", opsFailed);
    w.beginArray("setup_s");
    for (double s : setupSamples)
        w.value(s);
    w.endArray();
    w.beginArray("wall_samples");
    for (double s : wallNs)
        w.value(s);
    w.endArray();
    w.beginArray("generate_ms");
    for (double s : generateSamples)
        w.value(s);
    w.endArray();
    w.beginArray("modeled_base");
    for (const std::string &d : baseDocs)
        w.rawValue(d);
    w.endArray();
    w.beginObject("modeled");
    for (const auto &[group, docs] : modeledGroups) {
        w.beginArray(group);
        for (const std::string &d : docs)
            w.rawValue(d);
        w.endArray();
    }
    w.endObject();
    w.endObject();
    os << '\n';
}

bool
setupDue(const Options &opt, std::uint64_t last_ns)
{
    return !opt.traced && !opt.tiny && secondsSince(last_ns) >= 1.0;
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
wallPerProbe(const std::vector<std::vector<double>> &cell_walls,
             std::uint64_t probes_per_rep)
{
    double ns = 0;
    for (const std::vector<double> &w : cell_walls)
        ns += fastest(w);
    return ns / static_cast<double>(probes_per_rep);
}

void
recordPeakRss(Report &report)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    report.e2e("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
}

double
secondsSince(std::uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e9;
}

double
generateTraces(const std::vector<std::string> &names, std::uint64_t seed,
               TraceSet &out)
{
    std::uint64_t t0 = nowNs();
    for (const std::string &n : names)
        out[n] = trace::generateTrace(n, seed);
    return static_cast<double>(nowNs() - t0) / 1e6;
}

std::vector<std::string>
allTraceNames()
{
    std::vector<std::string> names;
    for (const auto &w : trace::allWorkloads())
        names.push_back(w.name);
    return names;
}

std::size_t
framesFor(const trace::Trace &tr)
{
    return trace::measure(tr).distinctPages * 10 + 2048;
}

UtlbStack::UtlbStack(std::size_t frames, const core::CacheConfig &cache_cfg,
                     std::size_t mem_limit_pages, bool concurrent)
    : phys(frames), sram(4u << 20),
      costs(core::HostProfile::PentiumIINT),
      cache(cache_cfg, timings, &sram),
      driver(phys, pins, sram, cache, costs), memLimit(mem_limit_pages),
      concurrentViews(concurrent)
{
    root.adopt(cache.stats());
    root.adopt(driver.stats());
    root.adopt(pins.stats());
    root.adopt(sram.stats());
}

core::UserUtlb &
UtlbStack::view(mem::ProcId pid)
{
    auto it = procs.find(pid);
    if (it == procs.end()) {
        Proc p;
        p.space = std::make_unique<mem::AddressSpace>(pid, phys);
        driver.registerProcess(*p.space);
        core::UtlbConfig ucfg;
        ucfg.pin.memLimitPages = memLimit;
        ucfg.pin.seed = tlbsim::SimConfig{}.seed + pid;
        ucfg.concurrent = concurrentViews;
        p.utlb = std::make_unique<core::UserUtlb>(driver, cache, timings,
                                                  pid, ucfg);
        root.adopt(p.utlb->stats());
        it = procs.emplace(pid, std::move(p)).first;
    }
    return *it->second.utlb;
}

mem::AddressSpace &
UtlbStack::space(mem::ProcId pid)
{
    return *procs.at(pid).space;
}

void
UtlbStack::audit(check::AuditReport &report) const
{
    cache.audit(report);
    driver.audit(report);
    for (const auto &[pid, p] : procs)
        p.utlb->pinManager().audit(report);
}

void
UtlbStack::flushShards()
{
    for (auto &[pid, p] : procs)
        p.utlb->flushShardStats();
}

std::string
UtlbStack::statsJson()
{
    flushShards();
    std::ostringstream os;
    root.dumpJson(os);
    return os.str();
}

StackCounters
UtlbStack::counters() const
{
    StackCounters c;
    c.hits = cache.hits();
    c.misses = cache.misses();
    c.evictions = cache.evictions();
    c.invalidations = cache.invalidations();
    c.crossEvictions = cache.crossTenantEvictions();
    c.ioctls = driver.ioctlCalls();
    c.pinned = driver.pagesPinned();
    c.unpinned = driver.pagesUnpinned();
    c.frameAllocs = phys.totalAllocs();
    for (const auto &[pid, p] : procs) {
        const auto *pf = dynamic_cast<const sim::Counter *>(
            p.utlb->stats().find("prefetch_installs"));
        c.prefetchInstalls += pf ? pf->value() : 0;
        c.checks += p.utlb->pinManager().totalChecks();
        c.checkMisses += p.utlb->pinManager().totalCheckMisses();
    }
    return c;
}

StackCounters &
StackCounters::operator+=(const StackCounters &o)
{
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    invalidations += o.invalidations;
    crossEvictions += o.crossEvictions;
    prefetchInstalls += o.prefetchInstalls;
    checks += o.checks;
    checkMisses += o.checkMisses;
    ioctls += o.ioctls;
    pinned += o.pinned;
    unpinned += o.unpinned;
    frameAllocs += o.frameAllocs;
    return *this;
}

StackCounters
StackCounters::operator-(const StackCounters &o) const
{
    StackCounters d = *this;
    d.hits -= o.hits;
    d.misses -= o.misses;
    d.evictions -= o.evictions;
    d.invalidations -= o.invalidations;
    d.crossEvictions -= o.crossEvictions;
    d.prefetchInstalls -= o.prefetchInstalls;
    d.checks -= o.checks;
    d.checkMisses -= o.checkMisses;
    d.ioctls -= o.ioctls;
    d.pinned -= o.pinned;
    d.unpinned -= o.unpinned;
    d.frameAllocs -= o.frameAllocs;
    return d;
}

void
reportCounts(Report &report, const StackCounters &c, double lookups,
             double probes)
{
    auto ratio = [](std::uint64_t n, double d) {
        return d > 0 ? static_cast<double>(n) / d : 0.0;
    };
    report.layer("core.cache.hit_ratio",
                 ratio(c.hits, static_cast<double>(c.hits + c.misses)));
    report.layer("core.cache.evictions_per_probe",
                 ratio(c.evictions, probes));
    report.layer("core.cache.invalidations_per_probe",
                 ratio(c.invalidations, probes));
    report.layer("core.cache.cross_evictions_per_probe",
                 ratio(c.crossEvictions, probes));
    report.layer("core.prefetch_installs_per_miss",
                 ratio(c.prefetchInstalls, static_cast<double>(c.misses)));
    report.layer("core.pin.check_miss_ratio",
                 ratio(c.checkMisses, static_cast<double>(c.checks)));
    report.layer("core.driver.ioctls_per_lookup", ratio(c.ioctls, lookups));
    report.layer("core.driver.pages_pinned_per_lookup",
                 ratio(c.pinned, lookups));
    report.layer("core.driver.pages_unpinned_per_lookup",
                 ratio(c.unpinned, lookups));
    report.layer("mem.frames_allocated_per_lookup",
                 ratio(c.frameAllocs, lookups));
    // Every allocated frame is zeroed in full.
    report.layer("mem.bytes_zeroed_per_lookup",
                 ratio(c.frameAllocs, lookups) * mem::kPageSize);
}

IntrStack::IntrStack(std::size_t frames, const core::CacheConfig &cache_cfg,
                     std::size_t mem_limit_pages)
    : phys(frames), costs(core::HostProfile::PentiumIINT),
      cache(cache_cfg, timings), intr(pins, cache, costs, timings),
      memLimit(mem_limit_pages)
{}

void
IntrStack::ensure(mem::ProcId pid)
{
    if (spaces.count(pid))
        return;
    auto space = std::make_unique<mem::AddressSpace>(pid, phys);
    pins.registerSpace(*space);
    if (memLimit != 0)
        pins.setPinLimit(pid, memLimit);
    spaces.emplace(pid, std::move(space));
}

void
IntrStack::audit(check::AuditReport &report) const
{
    cache.audit(report);
    pins.audit(report);
}

const std::vector<Table6Cell> &
table6Cells()
{
    static const std::vector<Table6Cell> cells{
        {"barnes", 1024, true, 2.6},   {"barnes", 1024, false, 4.9},
        {"barnes", 4096, true, 2.5},   {"barnes", 4096, false, 2.5},
        {"barnes", 16384, true, 2.5},  {"barnes", 16384, false, 1.9},
        {"fft", 1024, true, 9.0},      {"fft", 1024, false, 21.7},
        {"fft", 4096, true, 8.9},      {"fft", 4096, false, 20.9},
        {"fft", 16384, true, 8.7},     {"fft", 16384, false, 14.8},
    };
    return cells;
}

tlbsim::SimConfig
table6Config(const Table6Cell &cell)
{
    tlbsim::SimConfig cfg;
    cfg.cache = {cell.entries, 1, true};
    return cfg;
}

double
table6Validation(TraceSet &traces, std::uint64_t seed, Report &report)
{
    for (const char *app : {"barnes", "fft"})
        if (!traces.count(app))
            traces[app] = trace::generateTrace(app, seed);
    return table6ErrPct([&](const Table6Cell &c) {
        const trace::Trace &tr = traces.at(c.app);
        tlbsim::SimResult r = c.utlb
            ? tlbsim::simulateUtlb(tr, table6Config(c))
            : tlbsim::simulateIntr(tr, table6Config(c));
        report.expect("table6.three_c", threeCHolds(r), c.app);
        return r.avgLookupCostUs();
    });
}

void
writeChromeFile(const std::string &path,
                const std::vector<const SpanLog *> &logs)
{
    std::ofstream os(path);
    writeChromeTrace(os, logs);
    if (!os)
        sim::fatal("cannot write trace file %s", path.c_str());
}

bool
threeCHolds(const tlbsim::SimResult &r)
{
    return r.compulsoryMisses + r.capacityMisses + r.conflictMisses
        == r.niMissProbes;
}

} // namespace perfbench
