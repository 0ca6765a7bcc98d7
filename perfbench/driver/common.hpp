/**
 * @file
 * Shared pieces of the benchmark driver: options, the result report,
 * trace generation, the replay stacks the benchmark drives itself,
 * and the Table 6 reference values.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/stats.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/record.hpp"

namespace perfbench {

namespace check = utlb::check;
namespace core = utlb::core;
namespace mem = utlb::mem;
namespace nic = utlb::nic;
namespace sim = utlb::sim;
namespace tlbsim = utlb::tlbsim;
namespace trace = utlb::trace;

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Small inputs and one repetition (the benchmark's own tests). */
    bool tiny = false;
    /** Planted fault for the self-tests: "" or "payload". */
    std::string plant;
    /** Chrome trace-event output of the traced run. */
    std::string chromePath;
};

/**
 * Everything one run measured. Serialized as one JSON document that
 * perfbench/run.py turns into the benchmark's result line.
 */
class Report
{
  public:
    void e2e(const std::string &name, double v) { e2eMetrics[name] = v; }
    void layer(const std::string &name, double v)
    {
        layerMetrics[name] = v;
    }
    void info(const std::string &key, const std::string &v)
    {
        infos[key] = v;
    }

    /** Record one correctness check outcome under @p name. */
    void expect(const std::string &name, bool ok,
                const std::string &detail = "");

    /** Count operations (lookups, sends, windows) attempted/failed. */
    void ops(std::uint64_t attempted, std::uint64_t failed = 0)
    {
        opsAttempted += attempted;
        opsFailed += failed;
    }

    /** One timed repetition of the set-up (seconds). */
    void setupSample(double s) { setupSamples.push_back(s); }

    /** Wall ns per probe of each whole repetition, for inspection. */
    void wallSamples(std::vector<double> v) { wallNs = std::move(v); }

    /** Trace generation time of one set-up repetition (ms). */
    void generateSample(double ms) { generateSamples.push_back(ms); }

    /**
     * Modeled output for the digest. Docs under @p group must hash
     * the same as every other group's once wall-clock fields are
     * stripped; base docs are hashed once, ahead of the groups.
     */
    void modeled(const std::string &group, std::string doc)
    {
        modeledGroups[group].push_back(std::move(doc));
    }
    void modeledBase(std::string doc) { baseDocs.push_back(std::move(doc)); }

    void write(std::ostream &os) const;

  private:
    struct CheckTally {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::vector<std::string> details;
    };

    std::map<std::string, double> e2eMetrics;
    std::map<std::string, double> layerMetrics;
    std::map<std::string, std::string> infos;
    std::map<std::string, CheckTally> checks;
    std::uint64_t opsAttempted = 0;
    std::uint64_t opsFailed = 0;
    std::vector<double> setupSamples;
    std::vector<double> generateSamples;
    std::vector<double> wallNs;
    std::map<std::string, std::vector<std::string>> modeledGroups;
    std::vector<std::string> baseDocs;
};

/**
 * Whether an untraced run should set up again before its next timed
 * repetition: a second or more has passed since the last set-up
 * ended at @p last_ns. Set-up samples then span the run, as wall
 * samples do, and setup_s is their fastest. Never with --tiny.
 */
bool setupDue(const Options &opt, std::uint64_t last_ns);

/**
 * The smallest of @p v, 0 when empty. Wall times use it: other
 * tenants of a shared host slow memory-bound code by up to 2x in
 * stretches from milliseconds to minutes long, which moves any
 * central statistic between runs, while the fastest repetition of a
 * short cell stays put as long as the run sees one quiet window.
 */
double fastest(const std::vector<double> &v);

/**
 * wall_ns_per_probe from per-cell timings: each cell's (trace's,
 * grid cell's) fastest repetition, summed, over the probes of one
 * repetition.
 */
double wallPerProbe(const std::vector<std::vector<double>> &cell_walls,
                    std::uint64_t probes_per_rep);

/**
 * Record peak_rss_mb: the peak resident set size of this process so
 * far, in MB. Workloads call it at the end of their own work, before
 * the Table 6 guard replays.
 */
void recordPeakRss(Report &report);

/** Seconds elapsed since @p t0_ns (a nowNs() reading). */
double secondsSince(std::uint64_t t0_ns);

/** The seven SPLASH-2 traces (or a subset), generated from one seed. */
using TraceSet = std::map<std::string, trace::Trace>;

/**
 * Generate @p names from @p seed; returns the time taken in ms.
 */
double generateTraces(const std::vector<std::string> &names,
                      std::uint64_t seed, TraceSet &out);

/** All seven workload names in the paper's order. */
std::vector<std::string> allTraceNames();

/** Frames the replay stack needs for @p tr (tlbsim's sizing rule). */
std::size_t framesFor(const trace::Trace &tr);

/** Cumulative counters of a UTLB stack, read through public accessors. */
struct StackCounters {
    std::uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
    std::uint64_t crossEvictions = 0, prefetchInstalls = 0;
    std::uint64_t checks = 0, checkMisses = 0;
    std::uint64_t ioctls = 0, pinned = 0, unpinned = 0, frameAllocs = 0;

    StackCounters &operator+=(const StackCounters &o);
    StackCounters operator-(const StackCounters &o) const;
};

/**
 * Report the per-layer count ratios of @p c, taken over @p lookups
 * lookups and @p probes page probes.
 */
void reportCounts(Report &report, const StackCounters &c, double lookups,
                  double probes);

/**
 * The UTLB stack tlbsim::simulateUtlb builds, held by the benchmark
 * so it can drive UserUtlb and SharedUtlbCache calls itself. Views
 * are created on a process' first record, as the simulator does.
 */
class UtlbStack
{
  public:
    UtlbStack(std::size_t frames, const core::CacheConfig &cache_cfg,
              std::size_t mem_limit_pages, bool concurrent = false);

    UtlbStack(const UtlbStack &) = delete;
    UtlbStack &operator=(const UtlbStack &) = delete;

    /** The view of @p pid, registering the process on first use. */
    core::UserUtlb &view(mem::ProcId pid);

    /** Address space of a registered process. */
    mem::AddressSpace &space(mem::ProcId pid);

    /** Audit cache, driver, and every pin manager. */
    void audit(check::AuditReport &report) const;

    /** The stats tree as JSON (flushes concurrent shards first). */
    std::string statsJson();

    /** Counters of every component (concurrent shards must be flushed). */
    StackCounters counters() const;

    /** Fold every concurrent view's buffered stats into the cache. */
    void flushShards();

    mem::PhysMemory phys;
    mem::PinFacility pins;
    nic::Sram sram;
    nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;

  private:
    struct Proc {
        std::unique_ptr<mem::AddressSpace> space;
        std::unique_ptr<core::UserUtlb> utlb;
    };

    std::size_t memLimit;
    bool concurrentViews;
    sim::StatGroup root{"utlb"};
    std::map<mem::ProcId, Proc> procs;
};

/** The interrupt-baseline stack tlbsim::simulateIntr builds. */
class IntrStack
{
  public:
    IntrStack(std::size_t frames, const core::CacheConfig &cache_cfg,
              std::size_t mem_limit_pages);

    IntrStack(const IntrStack &) = delete;
    IntrStack &operator=(const IntrStack &) = delete;

    /** Register @p pid on first use. */
    void ensure(mem::ProcId pid);

    void audit(check::AuditReport &report) const;

    mem::PhysMemory phys;
    mem::PinFacility pins;
    nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::InterruptTlb intr;

  private:
    std::size_t memLimit;
    std::map<mem::ProcId, std::unique_ptr<mem::AddressSpace>> spaces;
};

/** One Table 6 cell: workload, cache entries, UTLB or Intr. */
struct Table6Cell {
    const char *app;
    std::size_t entries;
    bool utlb;
    double paperUs;
};

/** The 12 Table 6 cells (infinite memory, no prefetch, offsetting). */
const std::vector<Table6Cell> &table6Cells();

/** The SimConfig of a Table 6 cell. */
tlbsim::SimConfig table6Config(const Table6Cell &cell);

/**
 * Mean |modeled - paper| / paper over the Table 6 cells, in percent.
 * @p modeled_us returns a cell's modeled µs per lookup.
 */
template <class Fn>
double
table6ErrPct(Fn modeled_us)
{
    double sum = 0.0;
    for (const Table6Cell &c : table6Cells()) {
        double m = modeled_us(c);
        sum += (m > c.paperUs ? m - c.paperUs : c.paperUs - m) / c.paperUs;
    }
    return 100.0 * sum / static_cast<double>(table6Cells().size());
}

/**
 * Replay the Table 6 cells from @p traces (barnes and fft are
 * generated from @p seed when missing) and return table6ErrPct. Used
 * by the workloads whose own run does not include those cells.
 */
double table6Validation(TraceSet &traces, std::uint64_t seed,
                        Report &report);

class SpanLog;

/** Write @p logs to @p path as Chrome trace-event JSON. */
void writeChromeFile(const std::string &path,
                     const std::vector<const SpanLog *> &logs);

/** Three-C conservation: compulsory + capacity + conflict = misses. */
bool threeCHolds(const tlbsim::SimResult &r);

/** The workloads; each fills @p report. */
void runSweepCold(const Options &opt, Report &report);
void runReplayWarm(const Options &opt, Report &report);
void runVmmcStores(const Options &opt, Report &report);
void runMtShared(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
