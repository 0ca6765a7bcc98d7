/**
 * @file
 * utlb_bench: the measuring half of the repository benchmark.
 *
 * Runs one workload and writes everything it measured as one JSON
 * document; perfbench/run.py builds this program, runs it, and turns
 * that document into the benchmark's result line.
 *
 * Usage: utlb_bench --workload W --seed N --seconds S --trace 0|1
 *                   --out FILE [--tiny]
 *                   [--chrome FILE] [--plant payload]
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "sim/log.hpp"
#include "sim/simd.hpp"

namespace {

[[noreturn]] void
usage()
{
    std::cerr << "usage: utlb_bench --workload "
                 "sweep_cold|replay_warm|vmmc_stores|mt_shared --seed N "
                 "--seconds S --trace 0|1 --out FILE [--tiny] "
                 "[--chrome FILE] [--plant payload]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::stoull(next());
        else if (a == "--seconds")
            opt.seconds = std::stod(next());
        else if (a == "--trace")
            opt.traced = next() == "1";
        else if (a == "--tiny")
            opt.tiny = true;
        else if (a == "--chrome")
            opt.chromePath = next();
        else if (a == "--plant")
            opt.plant = next();
        else if (a == "--out")
            out = next();
        else
            usage();
    }
    if (out.empty() || opt.seconds <= 0)
        usage();

    Report report;
    report.info("workload", opt.workload);
    report.info("seed", std::to_string(opt.seed));
    report.info("simd", utlb::simd::activePathName());
    report.info("hw_threads",
                std::to_string(std::thread::hardware_concurrency()));
#ifdef __OPTIMIZE__
    report.info("optimized", "1");
#else
    report.info("optimized", "0");
#endif

    if (opt.workload == "sweep_cold")
        runSweepCold(opt, report);
    else if (opt.workload == "replay_warm")
        runReplayWarm(opt, report);
    else if (opt.workload == "vmmc_stores")
        runVmmcStores(opt, report);
    else if (opt.workload == "mt_shared")
        runMtShared(opt, report);
    else
        usage();

    std::ofstream os(out);
    report.write(os);
    os.close();
    if (!os) {
        std::cerr << "utlb_bench: cannot write " << out << "\n";
        return 1;
    }
    return 0;
}
