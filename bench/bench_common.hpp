/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses.
 *
 * Each bench binary regenerates one of the paper's tables or
 * figures: it builds the synthetic workload traces, replays them
 * through the real UTLB / interrupt-baseline stacks, and prints the
 * same rows the paper reports. Paper values are printed alongside
 * where useful so the shape comparison is immediate.
 */

#ifndef UTLB_BENCH_COMMON_HPP
#define UTLB_BENCH_COMMON_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/json.hpp"
#include "sim/simd.hpp"
#include "sim/table.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/workloads.hpp"

namespace bench {

/** Cache sizes swept by Tables 4, 5, 8 and Figure 7. */
inline const std::vector<std::size_t> kCacheSizes{1024, 2048, 4096,
                                                  8192, 16384};

/** Short label for a cache size ("1K".."16K"). */
inline std::string
sizeLabel(std::size_t entries)
{
    return std::to_string(entries / 1024) + "K";
}

/** Two-decimal format used by the paper's per-lookup tables. */
inline std::string
rate(double v)
{
    return utlb::sim::TextTable::num(v, 2);
}

/** Cache of generated traces (one per workload) for one binary. */
class TraceSet
{
  public:
    const utlb::trace::Trace &
    get(const std::string &name)
    {
        auto it = traces.find(name);
        if (it == traces.end()) {
            it = traces
                     .emplace(name, utlb::trace::generateTrace(name))
                     .first;
        }
        return it->second;
    }

  private:
    std::map<std::string, utlb::trace::Trace> traces;
};

/**
 * Machine-readable results sink for the bench harnesses.
 *
 * A binary constructs one reporter and records one point per
 * (configuration, workload) cell it prints; the points are written
 * as a "utlb-bench-v1" JSON document to BENCH_<name>.json in the
 * current directory — or under $UTLB_BENCH_JSON_DIR when set — so
 * CI and plotting scripts can collect every harness's numbers
 * without scraping the text tables.
 */
class JsonReporter
{
  public:
    explicit JsonReporter(std::string bench)
        : benchName(std::move(bench)),
          start(std::chrono::steady_clock::now())
    {}

    JsonReporter(const JsonReporter &) = delete;
    JsonReporter &operator=(const JsonReporter &) = delete;

    ~JsonReporter() { write(); }

    /**
     * Record one data point: @p labels identify the cell (workload,
     * cache size, ...), @p metrics carry its numbers.
     */
    void
    add(std::initializer_list<std::pair<const char *, std::string>>
            labels,
        std::initializer_list<std::pair<const char *, double>> metrics)
    {
        Point p;
        p.labels.assign(labels.begin(), labels.end());
        p.metrics.assign(metrics.begin(), metrics.end());
        points.push_back(std::move(p));
    }

    /** add() overload for metric lists assembled at run time. */
    void
    add(std::initializer_list<std::pair<const char *, std::string>>
            labels,
        std::vector<std::pair<const char *, double>> metrics)
    {
        Point p;
        p.labels.assign(labels.begin(), labels.end());
        p.metrics = std::move(metrics);
        points.push_back(std::move(p));
    }

    /**
     * Record how many worker threads the harness actually drove.
     * host_info reports this alongside the machine's core count so a
     * reader can tell an undersubscribed run from an oversubscribed
     * one without guessing (defaults to 1: every harness is
     * single-threaded unless it says otherwise).
     */
    void setWorkerThreads(unsigned n) { workerThreads = n; }

    /** Record the command line (settings included) that reproduces
     *  this document; written as a top-level "command" field. */
    void setCommand(std::string cmd) { command = std::move(cmd); }

    /** Where the document will be (or was) written. */
    std::string
    path() const
    {
        const char *dir = std::getenv("UTLB_BENCH_JSON_DIR");
        return std::string(dir ? dir : ".") + "/BENCH_" + benchName
            + ".json";
    }

    /** Write the document now (the destructor calls this too). */
    void
    write()
    {
        if (written)
            return;
        written = true;
        // The 1-core-container caveat, in-band: when the harness's
        // worker threads exceed the machine,
        // wall-clock figures measure the scheduler's time-slicing,
        // so the document carries an explicit warning cell instead
        // of leaving the caveat to the docs.
        unsigned hostCores = std::thread::hardware_concurrency();
        if (hostCores > 0 && workerThreads > hostCores) {
            Point warn;
            warn.labels = {{"scenario", "host"},
                           {"mode", "oversubscribed_warning"}};
            warn.metrics = {
                {"cores", static_cast<double>(hostCores)},
                {"worker_threads",
                 static_cast<double>(workerThreads)},
                {"oversubscribed", 1.0}};
            points.push_back(std::move(warn));
        }
        std::string file = path();
        std::ofstream ofs(file);
        if (!ofs) {
            std::cerr << "bench: cannot write " << file << "\n";
            return;
        }
        utlb::sim::JsonWriter w(ofs);
        w.beginObject();
        w.field("schema", "utlb-bench-v1");
        w.field("bench", benchName);
        if (!command.empty())
            w.field("command", command);
        // Wall-clock from reporter construction to write(): how long
        // the harness itself took (not a modeled quantity).
        w.field("wall_ns",
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        w.beginObject("host_info");
        w.field("cores",
                static_cast<std::uint64_t>(
                    std::thread::hardware_concurrency()));
        w.field("worker_threads",
                static_cast<std::uint64_t>(workerThreads));
#ifdef NDEBUG
        w.field("build_type", "optimized");
#else
        w.field("build_type", "debug");
#endif
        // The set probe's tag-compare kernel ("scalar").
        w.field("simd", utlb::simd::activePathName());
        w.endObject();
        w.beginArray("points");
        for (const auto &p : points) {
            w.beginObject();
            w.beginObject("labels");
            for (const auto &[k, v] : p.labels)
                w.field(k, v);
            w.endObject();
            w.beginObject("metrics");
            for (const auto &[k, v] : p.metrics)
                w.field(k, v);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        ofs << '\n';
        std::cout << "\n[bench json: " << file << "]\n";
    }

  private:
    struct Point {
        std::vector<std::pair<const char *, std::string>> labels;
        std::vector<std::pair<const char *, double>> metrics;
    };

    std::string benchName;
    std::chrono::steady_clock::time_point start;
    std::vector<Point> points;
    unsigned workerThreads = 1;
    std::string command;
    bool written = false;
};

/** Names of all workloads, paper order. */
inline std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : utlb::trace::allWorkloads())
        names.push_back(w.name);
    return names;
}

} // namespace bench

#endif // UTLB_BENCH_COMMON_HPP
