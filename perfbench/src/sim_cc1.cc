/**
 * @file
 * Workload `sim-cc1`: System::run, single-threaded and in-process on
 * the default engine, over prebuilt images of the cc1 stand-in under
 * four scenarios — native, dictionary, codepack (code compressed, the
 * software I-miss handler runs) and dataonly (data region compressed
 * with the LZRW1 data codec, the D-miss handler runs).
 *
 * One operation is a round: a fresh System per scenario, constructed
 * around the shared BuiltImage and run to halt. Closed loop, one
 * client, no harness or serve code.
 *
 * Checks: every run halts with no machine check and the native v0
 * checksum, and its RunStats equal an untimed one-off run of the same
 * scenario on the scalar predecode engine.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/experiment.h"
#include "core/system.h"
#include "serve/wire.h"
#include "trace.h"
#include "workload/benchmarks.h"

namespace perfbench {

namespace {

using rtd::core::DataCompression;
using rtd::compress::Scheme;

/** Dynamic-length scale of the cc1 stand-in (paper-benchmark units). */
constexpr double kScale = 1.0;
constexpr double kSmokeScale = 0.05;
constexpr int kSetupRepeats = 5;
constexpr int kNumScenarios = 4;
/** Rounds after which max_rss_mb is read. */
constexpr size_t kRssMarkRounds = 3;

struct Scenario
{
    const char *name;
    Scheme scheme;
    DataCompression data;
};

constexpr Scenario kScenarios[kNumScenarios] = {
    {"native", Scheme::None, DataCompression::Off},
    {"dictionary", Scheme::Dictionary, DataCompression::Off},
    {"codepack", Scheme::CodePack, DataCompression::Off},
    {"dataonly", Scheme::None, DataCompression::DataOnly},
};

rtd::core::SystemConfig
scenarioConfig(const Scenario &scenario)
{
    rtd::core::SystemConfig config;
    config.cpu = rtd::core::paperMachine();
    // Time the simulator, not its ground-truth self-check (as
    // bench_simperf does).
    config.cpu.verifyDecompression = false;
    config.scheme = scenario.scheme;
    config.dataCompression = scenario.data;
    config.dmem.scheme = rtd::dmem::DataScheme::Lzrw1;
    return config;
}

/** Everything setup produces: the program's images per scenario. */
struct Images
{
    std::shared_ptr<const rtd::core::BuiltImage> built[kNumScenarios];
};

/** Generate cc1 and build all four images; spans on @p tracer. */
Images
setUp(const rtd::workload::WorkloadSpec &spec, Tracer &tracer)
{
    rtd::prog::Program program;
    {
        Span span(tracer, "workload::WorkloadGenerator::generate");
        program = rtd::workload::WorkloadGenerator(spec).generate();
    }
    Images images;
    for (int s = 0; s < kNumScenarios; ++s) {
        Span span(tracer, "core::buildImage", kScenarios[s].name);
        images.built[s] = std::make_shared<const rtd::core::BuiltImage>(
            rtd::core::buildImage(program, scenarioConfig(kScenarios[s])));
    }
    return images;
}

std::string
statsKey(const rtd::cpu::RunStats &stats)
{
    return rtd::serve::encodeRunStats(stats).dump();
}

/**
 * Per-scenario correctness tally: the first run becomes the reference,
 * every run is compared with it, and the reference with the oracle.
 */
struct Check
{
    rtd::cpu::RunStats ref;
    bool haveRef = false;
    uint64_t runs = 0;
    uint64_t mismatches = 0;
};

/** Timings gathered by one measuring phase. */
struct Phase
{
    std::vector<double> roundSeconds;
    std::vector<double> rate[kNumScenarios];  ///< insns per host second
    RssMark rss{kRssMarkRounds};
    double wall = 0.0;
};

/**
 * Closed loop of rounds for @p seconds (at least @p min_rounds),
 * tallying every run into @p checks.
 */
Phase
measure(const Images &images, double seconds, int min_rounds,
        Tracer &tracer, Check checks[])
{
    Phase phase;
    Clock::time_point start = Clock::now();
    Span root(tracer, "bench::sim-cc1");
    int64_t job = 0;
    while (static_cast<int>(phase.roundSeconds.size()) < min_rounds ||
           secondsSince(start) < seconds) {
        Clock::time_point round_start = Clock::now();
        for (int s = 0; s < kNumScenarios; ++s, ++job) {
            const char *name = kScenarios[s].name;
            rtd::core::SystemConfig config = scenarioConfig(kScenarios[s]);
            std::unique_ptr<rtd::core::System> system;
            {
                Span span(tracer, "core::System::System", name, job);
                system = std::make_unique<rtd::core::System>(
                    images.built[s], config);
            }
            rtd::core::SystemResult result;
            Clock::time_point run_start = Clock::now();
            {
                Span span(tracer, "core::System::run", name, job);
                result = system->run();
            }
            double run_seconds = secondsSince(run_start);
            const rtd::cpu::RunStats &stats = result.stats;
            uint64_t insns = stats.userInsns + stats.handlerInsns;
            phase.rate[s].push_back(static_cast<double>(insns) /
                                    run_seconds);
            Check &check = checks[s];
            if (!check.haveRef) {
                check.ref = stats;
                check.haveRef = true;
            }
            ++check.runs;
            if (statsKey(stats) != statsKey(check.ref))
                ++check.mismatches;
        }
        phase.roundSeconds.push_back(secondsSince(round_start));
        phase.rss.done(phase.roundSeconds.size());
    }
    phase.wall = secondsSince(start);
    return phase;
}

double
throughput(const Phase &phase)
{
    std::vector<double> best;
    for (int s = 0; s < kNumScenarios; ++s)
        best.push_back(*std::max_element(phase.rate[s].begin(),
                                         phase.rate[s].end()));
    return geomean(best);
}

/**
 * The oracle: one untimed run per scenario on the scalar predecode
 * engine. A run counts as failed unless it matched its scenario's
 * reference and the reference matches the oracle, halted cleanly and
 * carries the native v0 checksum.
 */
void
checkAgainstOracle(const Images &images, const Check checks[],
                   Report &report)
{
    uint32_t native_checksum = 0;
    for (int s = 0; s < kNumScenarios; ++s) {
        const char *name = kScenarios[s].name;
        rtd::core::SystemConfig config = scenarioConfig(kScenarios[s]);
        config.cpu.predecode = true;
        config.cpu.blockExec = false;
        config.cpu.superblockExec = false;
        rtd::core::System system(images.built[s], config);
        rtd::cpu::RunStats oracle = system.run().stats;
        if (s == 0)
            native_checksum = oracle.resultValue;
        const Check &check = checks[s];
        bool ref_ok = true;
        if (!oracle.halted || oracle.machineCheckHalt) {
            report.fail(std::string(name) + ": run did not halt cleanly");
            ref_ok = false;
        }
        if (oracle.resultValue != native_checksum) {
            report.fail(std::string(name) +
                        ": v0 checksum differs from native");
            ref_ok = false;
        }
        if (statsKey(check.ref) != statsKey(oracle)) {
            report.fail(std::string(name) + ": RunStats differ from the "
                                            "scalar predecode engine");
            ref_ok = false;
        }
        if (check.mismatches)
            report.fail(std::string(name) + ": " +
                        std::to_string(check.mismatches) +
                        " run(s) differ from the first");
        report.attempted += check.runs;
        report.failed += ref_ok ? check.mismatches : check.runs;
    }
}

} // namespace

void
runSimCc1(const Options &opts, Report &report)
{
    rtd::workload::WorkloadSpec spec = rtd::workload::scaledSpec(
        rtd::workload::paperBenchmark("cc1"),
        opts.smoke ? kSmokeScale : kScale);
    spec.seed = perturbSeed(spec.seed, opts.seed);

    Tracer tracer(opts.trace);
    Tracer untraced(false);

    // Set up several times; keep the last images, report the median.
    std::vector<double> setup_seconds;
    Images images;
    int repeats = opts.smoke ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        Clock::time_point start = Clock::now();
        images = setUp(spec, tracer);
        setup_seconds.push_back(secondsSince(start));
    }

    Check checks[kNumScenarios];
    int min_rounds = opts.smoke ? 1 : 3;
    if (!opts.trace) {
        Phase phase =
            measure(images, opts.seconds, min_rounds, untraced, checks);
        checkAgainstOracle(images, checks, report);
        report.set("throughput_per_s", throughput(phase));
        report.set("setup_s", median(setup_seconds));
        report.set("max_rss_mb", phase.rss.mb());
        return;
    }

    // Traced run: the same loop untraced, then traced, for half the
    // time each; the difference is the tracing overhead.
    Phase plain =
        measure(images, opts.seconds / 2, min_rounds, untraced, checks);
    Phase traced =
        measure(images, opts.seconds / 2, min_rounds, tracer, checks);
    checkAgainstOracle(images, checks, report);
    setLatencyLedger(report, plain.roundSeconds);
    report.set("bench.rss_growth_kib_per_op",
               plain.rss.growthKibPerOp(plain.roundSeconds.size()));

    for (int s = 0; s < kNumScenarios; ++s) {
        const char *name = kScenarios[s].name;
        const rtd::cpu::RunStats &stats = checks[s].ref;
        double run_s = median(tracer.selfTimes("core::System::run", name));
        uint64_t insns = stats.userInsns + stats.handlerInsns;
        std::string sfx = std::string(".") + name;
        report.set("cpu.run_s" + sfx, run_s);
        report.set("cpu.host_ns_per_insn" + sfx,
                   run_s * 1e9 / static_cast<double>(insns));
        report.set("cpu.cycles" + sfx, static_cast<double>(stats.cycles));
        report.set("runtime.handler_insns" + sfx,
                   static_cast<double>(stats.handlerInsns));
        report.set("runtime.compressed_misses" + sfx,
                   static_cast<double>(stats.compressedMisses));
        report.set("cache.icache_misses" + sfx,
                   static_cast<double>(stats.icacheMisses));
        report.set("cache.dcache_misses" + sfx,
                   static_cast<double>(stats.dcacheMisses));
        report.set("core.build_image_ms" + sfx,
                   median(tracer.selfTimes("core::buildImage", name)) *
                       1000.0);
        report.set("core.system_ctor_ms" + sfx,
                   median(tracer.selfTimes("core::System::System", name)) *
                       1000.0);
    }
    report.set("dmem.faults.dataonly",
               static_cast<double>(checks[3].ref.dmemFaults));
    report.set("workload.generate_ms",
               median(tracer.selfTimes(
                   "workload::WorkloadGenerator::generate")) *
                   1000.0);

    double unattributed = tracer.selfTotal("bench::sim-cc1") / traced.wall;
    report.set("trace.unattributed_pct", unattributed * 100.0);
    report.set("trace.overhead_pct",
               (throughput(plain) / throughput(traced) - 1.0) * 100.0);
    // Layer self times must account for the traced wall time.
    if (unattributed > 0.05)
        report.fail("sim-cc1: layer self times leave " +
                    std::to_string(unattributed * 100.0) +
                    "% of the traced wall time unattributed");
    std::string trace_path = std::string(kOutDir) + "/trace-sim-cc1-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.writeChromeTrace(trace_path, runStamp(opts)))
        report.fail("cannot write " + trace_path);
}

} // namespace perfbench
