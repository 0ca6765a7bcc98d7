/**
 * @file
 * Tenant-fleet harness: thousands of processes, Zipf-skewed buffer
 * popularity, bursty attach/teardown churn, and a global pin budget
 * under pressure — the multi-programmed workload the Shared
 * UTLB-Cache's process tagging and index offsetting exist for
 * (§3.2), at the scale the ROADMAP's fleet item asks for.
 *
 * Each worker thread owns a contiguous block of tenants and replays
 * its own deterministic sim::TenantFleet op stream against the one
 * shared NIC stack: Translate ops run translateRange over the named
 * buffer, Detach ops tear the tenant down through the driver
 * (stat-tree disown, SRAM release, unpin-everything, address-space
 * frames returned under the driver mutex), Attach ops
 * re-register it. Per-tenant modeled latency samples feed
 * p50/p99/p999 cells; cross-tenant pollution (evictions whose victim
 * belonged to another pid) and quota throttles come from the new
 * shared-cache / pin-manager counters.
 *
 * Fairness ablations (scripts/fleet_sweep.py drives the grid):
 *   --offsetting 0|1     process-dependent index offsetting
 *   --budget-mode M      off | hard | weighted (PinBudget quota)
 *
 * JSON ("utlb-bench-v1", bench "fleet"):
 *   mode=summary   fleet-wide totals, percentiles, pollution, audit
 *   mode=tenant    one point per tenant: ops, pages, p50/p99/p999,
 *                  quota_throttles
 *   mode=conservation   cross-checks the sweep script gates on
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/pin_budget.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"
#include "sim/tenant_fleet.hpp"

namespace {

namespace mem = utlb::mem;
namespace core = utlb::core;
namespace nic = utlb::nic;
namespace sim = utlb::sim;

struct FleetOptions {
    std::size_t tenants = 1024;
    std::size_t buffersPerTenant = 4;
    std::size_t pagesPerBuffer = 32;
    double alpha = 1.0;
    double churn = 0.02;
    std::size_t churnBurst = 8;
    unsigned threads = 2;
    std::size_t opsPerWorker = 20000;
    std::string budgetMode = "weighted"; //!< off | hard | weighted
    std::size_t budgetPages = 0;         //!< 0 = tenants * 16
    bool offsetting = true;
    std::size_t entries = 4096;
    unsigned assoc = 1;
    std::uint64_t seed = 42;
    bool perTenantPoints = true;
};

FleetOptions
parseArgs(int argc, char **argv)
{
    FleetOptions o;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            sim::fatal("%s needs a value", argv[i]);
        return std::string(argv[i + 1]);
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--tenants")
            o.tenants = std::stoul(need(i++));
        else if (a == "--buffers")
            o.buffersPerTenant = std::stoul(need(i++));
        else if (a == "--pages-per-buffer")
            o.pagesPerBuffer = std::stoul(need(i++));
        else if (a == "--alpha")
            o.alpha = std::stod(need(i++));
        else if (a == "--churn")
            o.churn = std::stod(need(i++));
        else if (a == "--churn-burst")
            o.churnBurst = std::stoul(need(i++));
        else if (a == "--threads")
            o.threads = static_cast<unsigned>(std::stoul(need(i++)));
        else if (a == "--ops")
            o.opsPerWorker = std::stoul(need(i++));
        else if (a == "--budget-mode")
            o.budgetMode = need(i++);
        else if (a == "--budget-pages")
            o.budgetPages = std::stoul(need(i++));
        else if (a == "--offsetting")
            o.offsetting = std::stoul(need(i++)) != 0;
        else if (a == "--entries")
            o.entries = std::stoul(need(i++));
        else if (a == "--assoc")
            o.assoc = static_cast<unsigned>(std::stoul(need(i++)));
        else if (a == "--seed")
            o.seed = std::stoull(need(i++));
        else if (a == "--no-tenant-points")
            o.perTenantPoints = false;
        else
            sim::fatal("unknown option %s", a.c_str());
    }
    if (o.tenants == 0 || o.threads == 0)
        sim::fatal("need at least one tenant and one thread");
    if (o.budgetMode != "off" && o.budgetMode != "hard"
        && o.budgetMode != "weighted")
        sim::fatal("--budget-mode must be off, hard, or weighted");
    // Default quota: 48 pages/tenant — enough to pin one 32-page
    // buffer, well short of the 128-page per-tenant working set, so
    // every buffer switch under quota evicts (throttles) but ops
    // still complete.
    if (o.budgetPages == 0)
        o.budgetPages = o.tenants * 48;
    return o;
}

/** The one shared NIC stack every tenant attaches to. */
struct FleetStack {
    mem::PhysMemory phys;
    mem::PinFacility pins;
    nic::Sram sram;
    nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;
    std::unique_ptr<core::PinBudget> budget;

    explicit FleetStack(const FleetOptions &o)
        : // Frames for every tenant's full working set (quota off is
          // the worst case), one leaf-table frame per tenant, plus
          // slack for the garbage page and allocator rounding.
          phys(o.tenants
                   * (o.buffersPerTenant * o.pagesPerBuffer + 2)
               + 4096),
          // 4 KB directory per live tenant plus the cache's claim;
          // churn recycles regions via Sram::free, so this does not
          // need headroom for the attach total, only the live peak.
          sram(o.tenants * 4096 + (1u << 20)),
          costs(core::HostProfile::PentiumIINT),
          cache(core::CacheConfig{o.entries, o.assoc, o.offsetting},
                timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {
        if (o.budgetMode == "hard") {
            budget = std::make_unique<core::PinBudget>(
                o.budgetPages / (o.tenants ? o.tenants : 1),
                core::QuotaMode::HardCap);
        } else if (o.budgetMode == "weighted") {
            budget = std::make_unique<core::PinBudget>(
                o.budgetPages, core::QuotaMode::WeightedShare);
        }
    }
};

/** Everything a worker tracks about one of its tenants. */
struct TenantState {
    std::unique_ptr<mem::AddressSpace> space;
    std::unique_ptr<core::UserUtlb> view;
    std::vector<double> latencyUs;
    std::uint64_t ops = 0;
    std::uint64_t pages = 0;
    std::uint64_t failures = 0;
    std::uint64_t attaches = 0;
    std::uint64_t detaches = 0;
    std::uint64_t quotaThrottles = 0;
};

double
percentile(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** One worker: owns tenants [first, first + count). */
class Worker
{
  public:
    Worker(FleetStack &stack, const FleetOptions &o,
           std::size_t first, std::size_t count, std::uint64_t seed)
        : stack(&stack), opts(&o), firstTenant(first)
    {
        tenants.resize(count);
        sim::FleetConfig fc;
        fc.tenants = count;
        fc.buffersPerTenant = o.buffersPerTenant;
        fc.pagesPerBuffer = o.pagesPerBuffer;
        fc.zipfAlpha = o.alpha;
        fc.churnProbability = o.churn;
        fc.churnBurst = o.churnBurst;
        fc.seed = seed;
        fleet = std::make_unique<sim::TenantFleet>(fc);
    }

    mem::ProcId pidOf(std::size_t local) const
    {
        return static_cast<mem::ProcId>(firstTenant + local + 1);
    }

    void
    attach(std::size_t local)
    {
        TenantState &t = tenants[local];
        mem::ProcId pid = pidOf(local);
        t.space = std::make_unique<mem::AddressSpace>(pid,
                                                      stack->phys);
        stack->driver.registerProcess(*t.space);
        core::UtlbConfig ucfg;
        ucfg.prefetchEntries = 8;
        ucfg.concurrent = true;
        ucfg.pin.budget = stack->budget.get();
        t.view = std::make_unique<core::UserUtlb>(
            stack->driver, stack->cache, stack->timings, pid, ucfg);
        ++t.attaches;
    }

    /** Harvest per-tenant counters that die with the view. */
    void
    harvest(std::size_t local)
    {
        TenantState &t = tenants[local];
        if (!t.view)
            return;
        t.quotaThrottles +=
            t.view->pinManager().totalQuotaThrottles();
    }

    void
    detach(std::size_t local)
    {
        TenantState &t = tenants[local];
        harvest(local);
        // Order matters: the view's dtor flushes its stat shard and
        // detaches the quota before the driver invalidates the
        // tenant's cache lines and unpins everything it held.
        t.view.reset();
        stack->driver.unregisterProcess(pidOf(local));
        t.space.reset();
        ++t.detaches;
    }

    void
    translate(std::size_t local, std::uint32_t buffer)
    {
        TenantState &t = tenants[local];
        mem::VirtAddr va = static_cast<mem::VirtAddr>(buffer)
            * opts->pagesPerBuffer * mem::kPageSize;
        core::Translation tr = t.view->translateRange(
            va, opts->pagesPerBuffer * mem::kPageSize);
        ++t.ops;
        t.pages += tr.pageAddrs.size();
        if (!tr.ok)
            ++t.failures; // pin pressure; the op still measured
        t.latencyUs.push_back(
            sim::ticksToUs(tr.hostCost + tr.nicCost));
    }

    void
    run()
    {
        // Every tenant starts attached (the fleet generator's
        // initial state); churn tears some down as the stream runs.
        for (std::size_t l = 0; l < tenants.size(); ++l)
            attach(l);
        for (std::size_t op = 0; op < opts->opsPerWorker; ++op) {
            sim::FleetOp fop = fleet->next();
            switch (fop.kind) {
            case sim::FleetOp::Kind::Translate:
                translate(fop.tenant, fop.buffer);
                break;
            case sim::FleetOp::Kind::Attach:
                attach(fop.tenant);
                break;
            case sim::FleetOp::Kind::Detach:
                detach(fop.tenant);
                break;
            }
        }
    }

    /** Post-run quiesce: flush every live view's stat shard. */
    void
    flush()
    {
        for (std::size_t l = 0; l < tenants.size(); ++l) {
            harvest(l);
            if (tenants[l].view)
                tenants[l].view->flushShardStats();
        }
    }

    /** Tear down every live tenant (post-measurement). */
    void
    teardownAll()
    {
        for (std::size_t l = 0; l < tenants.size(); ++l) {
            if (tenants[l].view) {
                tenants[l].view.reset();
                stack->driver.unregisterProcess(pidOf(l));
                tenants[l].space.reset();
            }
        }
    }

    FleetStack *stack;
    const FleetOptions *opts;
    std::size_t firstTenant;
    std::vector<TenantState> tenants;
    std::unique_ptr<sim::TenantFleet> fleet;
};

/** Count live "host_table<pid>" stat groups in the driver's tree. */
std::size_t
statTreeTableCount(core::UtlbDriver &driver)
{
    std::ostringstream os;
    driver.stats().dumpJson(os);
    const std::string dump = os.str();
    const std::string needle = "\"host_table";
    std::size_t n = 0;
    for (std::size_t pos = dump.find(needle); pos != std::string::npos;
         pos = dump.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    FleetOptions o = parseArgs(argc, argv);
    bench::JsonReporter json("fleet");
    json.setWorkerThreads(o.threads);

    FleetStack stack(o);

    // Partition tenants into contiguous per-worker blocks; each
    // worker replays its own deterministic fleet stream, so the
    // whole run is reproducible for a given (seed, threads).
    std::vector<std::unique_ptr<Worker>> workers;
    std::size_t per = o.tenants / o.threads;
    std::size_t extra = o.tenants % o.threads;
    std::size_t first = 0;
    for (unsigned w = 0; w < o.threads; ++w) {
        std::size_t count = per + (w < extra ? 1 : 0);
        if (count == 0)
            continue;
        workers.push_back(std::make_unique<Worker>(
            stack, o, first, count, o.seed + w));
        first += count;
    }

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (auto &w : workers)
        threads.emplace_back([&wk = *w] { wk.run(); });
    for (auto &t : threads)
        t.join();
    double wallNs = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    // Quiesce: fold every live worker shard, then audit while the
    // fleet is still attached (pin conservation is only interesting
    // with live pins).
    for (auto &w : workers)
        w->flush();
    utlb::check::AuditReport report;
    stack.cache.audit(report);
    stack.pins.audit(report);
    std::size_t liveTenants = 0;
    for (auto &w : workers) {
        for (std::size_t l = 0; l < w->tenants.size(); ++l) {
            if (!w->tenants[l].view)
                continue;
            ++liveTenants;
            w->tenants[l].view->pinManager().audit(report);
        }
    }
    std::size_t statTables = statTreeTableCount(stack.driver);

    if (!report.ok())
        std::cerr << report.summary();

    // Fleet-wide aggregates + per-tenant percentile points.
    std::vector<double> allLat;
    std::uint64_t ops = 0, pages = 0, failures = 0, attaches = 0,
                  detaches = 0, throttles = 0, tenantPages = 0;
    for (auto &w : workers) {
        for (std::size_t l = 0; l < w->tenants.size(); ++l) {
            TenantState &t = w->tenants[l];
            ops += t.ops;
            pages += t.pages;
            failures += t.failures;
            attaches += t.attaches;
            detaches += t.detaches;
            throttles += t.quotaThrottles;
            tenantPages += t.pages;
            allLat.insert(allLat.end(), t.latencyUs.begin(),
                          t.latencyUs.end());
        }
    }
    std::sort(allLat.begin(), allLat.end());

    std::uint64_t evictions = stack.cache.evictions();
    std::uint64_t cross = stack.cache.crossTenantEvictions();

    json.add(
        {{"scenario", "fleet"}, {"mode", "summary"}},
        {{"tenants", static_cast<double>(o.tenants)},
         {"live_tenants", static_cast<double>(liveTenants)},
         {"alpha", o.alpha},
         {"churn", o.churn},
         {"offsetting", o.offsetting ? 1.0 : 0.0},
         {"budget_hard", o.budgetMode == "hard" ? 1.0 : 0.0},
         {"budget_weighted",
          o.budgetMode == "weighted" ? 1.0 : 0.0},
         {"budget_pages", static_cast<double>(o.budgetPages)},
         {"ops", static_cast<double>(ops)},
         {"pages", static_cast<double>(pages)},
         {"failed_ops", static_cast<double>(failures)},
         {"attaches", static_cast<double>(attaches)},
         {"detaches", static_cast<double>(detaches)},
         {"evictions", static_cast<double>(evictions)},
         {"cross_evictions", static_cast<double>(cross)},
         {"pollution_ratio",
          evictions ? static_cast<double>(cross)
                  / static_cast<double>(evictions)
                    : 0.0},
         {"quota_throttles", static_cast<double>(throttles)},
         {"p50_us", percentile(allLat, 0.50)},
         {"p99_us", percentile(allLat, 0.99)},
         {"p999_us", percentile(allLat, 0.999)},
         {"wall_ms", wallNs / 1e6},
         {"audit_clean", report.ok() ? 1.0 : 0.0}});

    if (o.perTenantPoints) {
        for (auto &w : workers) {
            for (std::size_t l = 0; l < w->tenants.size(); ++l) {
                TenantState &t = w->tenants[l];
                std::sort(t.latencyUs.begin(), t.latencyUs.end());
                json.add(
                    {{"scenario", "fleet"},
                     {"mode", "tenant"},
                     {"tenant",
                      std::to_string(w->pidOf(l))}},
                    {{"ops", static_cast<double>(t.ops)},
                     {"pages", static_cast<double>(t.pages)},
                     {"attaches", static_cast<double>(t.attaches)},
                     {"detaches", static_cast<double>(t.detaches)},
                     {"quota_throttles",
                      static_cast<double>(t.quotaThrottles)},
                     {"p50_us", percentile(t.latencyUs, 0.50)},
                     {"p99_us", percentile(t.latencyUs, 0.99)},
                     {"p999_us", percentile(t.latencyUs, 0.999)}});
            }
        }
    }

    // The cells scripts/fleet_sweep.py gates on: per-tenant page
    // sums must re-add to the fleet total, the live stat tree must
    // hold exactly one host_table group per live tenant (stat-tree
    // leak check), and the audits must be clean.
    json.add({{"scenario", "fleet"}, {"mode", "conservation"}},
             {{"sum_tenant_pages", static_cast<double>(tenantPages)},
              {"pages", static_cast<double>(pages)},
              {"live_tenants", static_cast<double>(liveTenants)},
              {"stat_tree_tables", static_cast<double>(statTables)},
              {"audit_violations",
               static_cast<double>(report.all().size())},
              {"audit_clean", report.ok() ? 1.0 : 0.0}});

    std::printf("fleet: %zu tenants (%zu live), %u threads, %llu ops, "
                "%llu pages, %llu attaches, %llu detaches\n",
                o.tenants, liveTenants, o.threads,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(pages),
                static_cast<unsigned long long>(attaches),
                static_cast<unsigned long long>(detaches));
    std::printf(
        "fleet: p50 %.2f us, p99 %.2f us, p999 %.2f us | "
        "evictions %llu (cross %llu), quota throttles %llu\n",
        percentile(allLat, 0.50), percentile(allLat, 0.99),
        percentile(allLat, 0.999),
        static_cast<unsigned long long>(evictions),
        static_cast<unsigned long long>(cross),
        static_cast<unsigned long long>(throttles));

    // Orderly teardown of the remaining fleet: every tenant leaves
    // through the same unregister path churn used, so the final
    // audits double as a teardown-storm regression.
    for (auto &w : workers)
        w->teardownAll();
    utlb::check::AuditReport post;
    stack.cache.audit(post);
    stack.pins.audit(post);
    if (!post.ok()) {
        std::cerr << post.summary();
        sim::fatal("fleet: post-teardown audit failed");
    }
    if (statTreeTableCount(stack.driver) != 0)
        sim::fatal("fleet: stat tree leaked host_table groups after "
                   "full teardown");
    if (!report.ok())
        sim::fatal("fleet: quiescent audit failed");
    return 0;
}
