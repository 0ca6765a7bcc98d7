/**
 * @file
 * vmmc_stores: trace prefixes as remote stores through a 2-node VMMC
 * cluster in UTLB mode, one send outstanding at a time.
 *
 * Node 0 runs the trace's processes; node 1 runs one receiver that
 * exports a region per sender. Half the source pages (picked by the
 * seed) carry a per-page byte pattern written before the first send;
 * the rest are never touched, so the frames the pin path hands out
 * for them must read as zeros. Every deposit is read back and
 * compared byte for byte, outside the timed region.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "spans.hpp"
#include "vmmc/system.hpp"

namespace perfbench {

namespace {

namespace net = utlb::net;
namespace vmmc = utlb::vmmc;

constexpr mem::ProcId kRecvPid = 100;
constexpr std::size_t kRegionPages = 512;
constexpr mem::Vpn kRecvBaseVpn = 10000;

/** Records sent per trace (the prefix). */
std::size_t
prefixLen(const Options &opt)
{
    return opt.tiny ? 40 : 300;
}

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    return x ^ (x >> 33);
}

/** Pattern byte at @p off of a pre-written page; never zero. */
std::uint8_t
patternByte(mem::ProcId pid, mem::Vpn vpn, std::size_t off)
{
    return static_cast<std::uint8_t>(
        ((vpn * 2654435761u + pid * 40503u + off * 131u) >> 3) | 1u);
}

/** One trace prefix and the pages the set-up writes. */
struct Prefix {
    std::string name;
    trace::Trace recs;
    std::map<std::pair<mem::ProcId, mem::Vpn>, bool> written;
    std::size_t span = 0;  //!< destination page slots per region

    std::uint64_t
    dstOffset(const trace::TraceRecord &r) const
    {
        return ((mem::pageOf(r.va) % span) << mem::kPageShift)
            | (r.va & (mem::kPageSize - 1));
    }
};

/** A cluster wired for one prefix. */
struct Rig {
    std::unique_ptr<vmmc::Cluster> cl;
    std::map<mem::ProcId, vmmc::ImportSlot> slots;
};

Prefix
prefixOf(const std::string &name, const trace::Trace &tr,
         const Options &opt)
{
    Prefix p;
    p.name = name;
    std::size_t maxPages = 0;
    for (const trace::TraceRecord &r : tr) {
        if (p.recs.size() == prefixLen(opt))
            break;
        std::size_t n = mem::pagesSpanned(r.va, r.nbytes);
        if (n == 0)
            continue;
        p.recs.push_back(r);
        maxPages = std::max(maxPages, n);
        for (std::size_t i = 0; i < n; ++i) {
            mem::Vpn v = mem::pageOf(r.va) + i;
            p.written[{r.pid, v}] =
                mix(opt.seed ^ (std::uint64_t{r.pid} << 40) ^ v) & 1;
        }
    }
    if (maxPages * 2 > kRegionPages)
        sim::fatal("vmmc_stores: a %zu-page record does not fit", maxPages);
    p.span = kRegionPages - maxPages - 1;
    return p;
}

Rig
build(const Prefix &p)
{
    vmmc::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node.mode = vmmc::XlateMode::Utlb;
    Rig rig;
    rig.cl = std::make_unique<vmmc::Cluster>(cfg);
    vmmc::VmmcNode &local = rig.cl->node(0);
    vmmc::VmmcNode &remote = rig.cl->node(1);
    remote.createProcess(kRecvPid);
    for (const trace::TraceRecord &r : p.recs) {
        if (rig.slots.count(r.pid))
            continue;
        local.createProcess(r.pid);
        auto exp = remote.exportBuffer(
            kRecvPid, mem::addrOf(kRecvBaseVpn + r.pid * 2 * kRegionPages),
            kRegionPages * mem::kPageSize);
        if (!exp)
            sim::fatal("vmmc_stores: export failed");
        rig.slots[r.pid] = local.importBuffer(r.pid, 1, *exp);
    }
    std::vector<std::uint8_t> page(mem::kPageSize);
    for (const auto &[key, on] : p.written) {
        if (!on)
            continue;
        for (std::size_t off = 0; off < page.size(); ++off)
            page[off] = patternByte(key.first, key.second, off);
        local.space(key.first).writeBytes(mem::addrOf(key.second), page);
    }
    return rig;
}

/** NIC cache probes on both nodes so far. */
std::uint64_t
probesOf(vmmc::Cluster &cl)
{
    std::uint64_t n = 0;
    for (net::NodeId id = 0; id < cl.size(); ++id)
        n += cl.node(id).nicCache().hits() + cl.node(id).nicCache().misses();
    return n;
}

/** The StackCounters view of both nodes. */
StackCounters
countersOf(vmmc::Cluster &cl, const Rig &rig)
{
    StackCounters c;
    for (net::NodeId id = 0; id < cl.size(); ++id) {
        vmmc::VmmcNode &n = cl.node(id);
        c.hits += n.nicCache().hits();
        c.misses += n.nicCache().misses();
        c.evictions += n.nicCache().evictions();
        c.invalidations += n.nicCache().invalidations();
        c.crossEvictions += n.nicCache().crossTenantEvictions();
        c.ioctls += n.driver().ioctlCalls();
        c.pinned += n.driver().pagesPinned();
        c.unpinned += n.driver().pagesUnpinned();
        c.frameAllocs += n.physMemory().totalAllocs();
    }
    auto add = [&](core::UserUtlb &u) {
        const auto *pf = dynamic_cast<const sim::Counter *>(
            u.stats().find("prefetch_installs"));
        c.prefetchInstalls += pf ? pf->value() : 0;
        c.checks += u.pinManager().totalChecks();
        c.checkMisses += u.pinManager().totalCheckMisses();
    };
    for (const auto &[pid, slot] : rig.slots)
        add(cl.node(0).utlb(pid));
    add(cl.node(1).utlb(kRecvPid));
    return c;
}

/** What one pass over every prefix measured. */
struct Pass {
    double wallNs = 0;
    std::vector<double> prefixNs;  //!< wallNs split by prefix
    std::uint64_t sends = 0, failed = 0, probes = 0, misses = 0;
    std::uint64_t fragments = 0, events = 0;
    /** Payload bytes DMAed: read at the sender plus deposited. */
    std::uint64_t dmaBytes = 0;
    sim::Tick modeled = 0;
    double runNs = 0;
    LatHist post, deliver;
    StackCounters counts;
    std::vector<std::string> docs;

    std::string
    totalsJson() const
    {
        std::ostringstream os;
        os << "{\"sends\":" << sends << ",\"probes\":" << probes
           << ",\"misses\":" << misses << ",\"fragments\":" << fragments
           << ",\"events\":" << events << ",\"modeled_ticks\":" << modeled
           << "}";
        return os.str();
    }
};

/**
 * Send every record of @p p through @p rig, one at a time, checking
 * each deposit. With @p log the post and delivery get spans.
 */
void
runPrefix(const Prefix &p, Rig &rig, Report &report, Pass &pass,
          SpanLog *log, bool plant)
{
    vmmc::Cluster &cl = *rig.cl;
    vmmc::VmmcNode &local = cl.node(0);
    vmmc::VmmcNode &remote = cl.node(1);
    std::uint64_t probes0 = probesOf(cl);
    std::uint64_t misses0 =
        local.nicCache().misses() + remote.nicCache().misses();
    std::uint64_t frags0 = local.fragmentsSent();
    std::uint64_t deposited0 = remote.bytesDeposited();
    StackCounters counts0 = countersOf(cl, rig);
    double wall0 = pass.wallNs;
    std::vector<std::uint8_t> got;
    std::uint64_t cellId = log ? log->nextId() : 0;
    std::uint64_t cellStart = nowNs();
    for (const trace::TraceRecord &r : p.recs) {
        std::uint64_t off = p.dstOffset(r);
        sim::Tick m0 = cl.clock().now();
        std::uint64_t done0 = remote.transfersCompleted();
        std::uint64_t ev0 = cl.clock().fired();
        std::uint64_t a = nowNs();
        bool ok = local.send(r.pid, r.va, r.nbytes, rig.slots.at(r.pid), off);
        std::uint64_t b = nowNs();
        cl.run();
        std::uint64_t c = nowNs();
        pass.wallNs += static_cast<double>(c - a);
        pass.runNs += static_cast<double>(c - b);
        pass.events += cl.clock().fired() - ev0;
        ++pass.sends;
        pass.dmaBytes += ok ? r.nbytes : 0;
        if (log) {
            std::uint64_t op = log->nextId();
            log->add("vmmc.send", log->nextId(), op, op, a, b);
            log->add("vmmc.deliver", log->nextId(), op, op, b, c);
            log->add("bench.op", op, cellId, op, a, c);
            pass.post.add(b - a);
            pass.deliver.add(c - b);
        }
        bool delivered = ok && remote.transfersCompleted() == done0 + 1;
        pass.failed += !delivered;
        pass.modeled += remote.lastDepositTime() - m0;

        // Read the deposit back: pattern bytes for written source
        // pages, zeros for untouched ones.
        mem::VirtAddr dst = mem::addrOf(kRecvBaseVpn
                                        + r.pid * 2 * kRegionPages)
            + off;
        got.resize(r.nbytes);
        if (plant) {
            remote.space(kRecvPid).readBytes(dst, {got.data(), 1});
            got[0] ^= 0x5a;
            remote.space(kRecvPid).writeBytes(dst, {got.data(), 1});
            plant = false;
        }
        remote.space(kRecvPid).readBytes(dst, got);
        std::size_t bad = 0;
        for (std::size_t k = 0; k < got.size(); ++k) {
            mem::VirtAddr va = r.va + k;
            mem::Vpn v = mem::pageOf(va);
            std::uint8_t want = p.written.at({r.pid, v})
                ? patternByte(r.pid, v, va & (mem::kPageSize - 1))
                : 0;
            bad += got[k] != want;
        }
        report.expect("vmmc.payload_matches", delivered && bad == 0,
                      p.name + " va " + std::to_string(r.va) + ": "
                          + std::to_string(bad) + " bad bytes");
    }
    if (log)
        log->add("vmmc.prefix", cellId, 0, 0, cellStart, nowNs());
    pass.probes += probesOf(cl) - probes0;
    pass.misses +=
        local.nicCache().misses() + remote.nicCache().misses() - misses0;
    pass.fragments += local.fragmentsSent() - frags0;
    pass.dmaBytes += remote.bytesDeposited() - deposited0;
    pass.prefixNs.push_back(pass.wallNs - wall0);
    pass.counts += countersOf(cl, rig) - counts0;

    check::AuditReport audit;
    cl.audit(audit);
    report.expect("vmmc.audit_clean", audit.ok(), audit.summary());
}

} // namespace

void
runVmmcStores(const Options &opt, Report &report)
{
    std::vector<std::string> names =
        opt.tiny ? std::vector<std::string>{"barnes", "fft"}
                 : allTraceNames();
    TraceSet traces;
    std::vector<Prefix> prefixes;
    std::vector<Rig> rigs;
    // Clusters no pass has used yet (the set-up's).
    bool rigsFresh = false;
    // Set-up: traces, prefixes and clusters. Returns when it ended.
    auto setUp = [&] {
        std::uint64_t t0 = nowNs();
        rigs.clear();
        TraceSet fresh;
        report.generateSample(generateTraces(names, opt.seed, fresh));
        prefixes.clear();
        for (const std::string &n : names) {
            prefixes.push_back(prefixOf(n, fresh.at(n), opt));
            rigs.push_back(build(prefixes.back()));
        }
        traces = std::move(fresh);
        rigsFresh = true;
        report.setupSample(secondsSince(t0));
        return nowNs();
    };
    std::uint64_t lastSetup = setUp();

    // One pass = every prefix on a fresh cluster.
    auto onePass = [&](SpanLog *log, bool plant) {
        Pass pass;
        for (std::size_t k = 0; k < prefixes.size(); ++k) {
            if (!rigsFresh)
                rigs[k] = build(prefixes[k]);
            runPrefix(prefixes[k], rigs[k], report, pass, log,
                      plant && k == 0);
            for (net::NodeId id = 0; id < rigs[k].cl->size(); ++id) {
                std::ostringstream os;
                rigs[k].cl->node(id).stats().dumpJson(os);
                pass.docs.push_back(os.str());
            }
        }
        rigsFresh = false;
        pass.docs.push_back(pass.totalsJson());
        report.ops(pass.sends, pass.failed);
        return pass;
    };

    // Passes until the time is up, at least two so the digest always
    // compares two. The traced run alternates untraced and traced
    // passes, so drift over the run hits both alike. The untraced run
    // sets up afresh when a set-up is due.
    std::vector<double> perProbe;
    std::vector<std::vector<double>> walls(prefixes.size()),
        tracedWalls(prefixes.size());
    Pass ref, traced;
    SpanLog log;
    int rep = 0;
    std::vector<std::string> lastDocs;
    auto record = [&](Pass &pass, std::vector<std::vector<double>> &into) {
        for (std::size_t k = 0; k < prefixes.size(); ++k)
            into[k].push_back(pass.prefixNs[k]);
        if (rep++ == 0) {
            for (const std::string &d : pass.docs)
                report.modeled("rep0", d);
            ref = std::move(pass);
            return;
        }
        report.expect("vmmc.pass_repeats", pass.docs == ref.docs);
        lastDocs = std::move(pass.docs);
    };
    std::uint64_t start = nowNs();
    do {
        if (setupDue(opt, lastSetup))
            lastSetup = setUp();
        Pass pass = onePass(nullptr, rep == 0 && opt.plant == "payload");
        perProbe.push_back(pass.wallNs / static_cast<double>(pass.probes));
        record(pass, walls);
        if (opt.traced) {
            Pass tp = onePass(&log, false);
            traced.post.merge(tp.post);
            traced.deliver.merge(tp.deliver);
            traced.sends += tp.sends;
            traced.events += tp.events;
            traced.runNs += tp.runNs;
            traced.fragments += tp.fragments;
            traced.dmaBytes += tp.dmaBytes;
            traced.counts += tp.counts;
            traced.probes += tp.probes;
            record(tp, tracedWalls);
        }
    } while (rep < 2 || (!opt.tiny && secondsSince(start) < opt.seconds));
    for (std::string &d : lastDocs)
        report.modeled("rep_last", std::move(d));
    recordPeakRss(report);

    report.e2e("wall_ns_per_probe", wallPerProbe(walls, ref.probes));
    report.wallSamples(perProbe);
    report.e2e("modeled_us_per_op", sim::ticksToUs(ref.modeled)
                                        / static_cast<double>(ref.sends));
    report.e2e("ni_miss_rate", static_cast<double>(ref.misses)
                                   / static_cast<double>(ref.probes));
    report.e2e("paper_err_pct",
               table6Validation(traces, opt.seed, report));

    if (!opt.traced)
        return;

    double sends = static_cast<double>(traced.sends);
    report.layer("bench.trace_overhead_pct",
                 100.0 * (wallPerProbe(tracedWalls, ref.probes)
                              / wallPerProbe(walls, ref.probes)
                          - 1.0));
    report.layer("vmmc.send_post_ns.p50", traced.post.quantile(0.5));
    report.layer("vmmc.deliver_ns.p50", traced.deliver.quantile(0.5));
    report.layer("vmmc.deliver_ns.p99", traced.deliver.quantile(0.99));
    report.layer("sim.events_per_op",
                 static_cast<double>(traced.events) / sends);
    report.layer("sim.ns_per_event",
                 traced.runNs / static_cast<double>(traced.events));
    report.layer("nic.dma_bytes_per_lookup",
                 static_cast<double>(traced.dmaBytes) / sends);
    report.layer("vmmc.fragments_per_send",
                 static_cast<double>(traced.fragments) / sends);
    reportCounts(report, traced.counts, sends,
                 static_cast<double>(traced.probes));
    report.info("spans_recorded", std::to_string(log.total()));
    report.info("deliver_samples", std::to_string(traced.deliver.count()));
    if (!opt.chromePath.empty())
        writeChromeFile(opt.chromePath, {&log});
}

} // namespace perfbench
