/**
 * @file
 * rtdc_perfbench — the repository benchmark's measuring binary.
 *
 *   rtdc_perfbench --workload sim-cc1|sweep-cold|serve-warm
 *                  [--seed N] [--seconds S] [--trace 0|1] [--smoke]
 *                  [--commit ID]
 *
 * Prints a stamp line (host cores, build type, compiler, commit, seed)
 * and then, as the last line, one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics untraced, the
 * per-layer ledger with --trace 1 (which also writes a Chrome trace to
 * .bench_out/). Exits 1 when a correctness check failed. perfbench/run.py
 * builds this binary and is the supported entry point.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "support/logging.h"
#include "trace.h"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload sim-cc1|sweep-cold|serve-warm "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
                 "[--commit ID]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = next();
        else if (arg == "--seed")
            opts.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(next().c_str());
        else if (arg == "--trace")
            opts.trace = next() != "0";
        else if (arg == "--smoke")
            opts.smoke = true;
        else if (arg == "--commit")
            opts.commit = next();
        else
            usage(argv[0]);
    }
    void (*run)(const Options &, Report &) = nullptr;
    if (opts.workload == "sim-cc1")
        run = runSimCc1;
    else if (opts.workload == "sweep-cold")
        run = runSweepCold;
    else if (opts.workload == "serve-warm")
        run = runServeWarm;
    else
        usage(argv[0]);
    if (opts.seconds <= 0.0)
        usage(argv[0]);
    if (std::strlen(RTDC_PERFBENCH_SANITIZE) != 0 && !opts.smoke) {
        std::fprintf(stderr,
                     "rtdc_perfbench: refusing to report timings from an "
                     "RTDC_SANITIZE=%s build (--smoke still runs)\n",
                     RTDC_PERFBENCH_SANITIZE);
        return 2;
    }

    rtd::setInformEnabled(false);
    std::filesystem::create_directories(kOutDir);
    Report report(opts.trace);
    try {
        run(opts, report);
    } catch (const std::exception &e) {
        report.fail(std::string("exception: ") + e.what());
        ++report.failed;
        report.attempted = std::max<uint64_t>(report.attempted, 1);
    }
    if (report.attempted == 0)
        report.fail("no operation completed");

    std::printf("stamp %s\n", runStamp(opts).dump().c_str());
    std::printf("%s\n", report.resultLine().c_str());
    std::fflush(stdout);
    return report.correct && report.failed == 0 && report.attempted > 0
               ? 0
               : 1;
}
