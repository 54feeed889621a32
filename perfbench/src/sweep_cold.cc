/**
 * @file
 * Workload `sweep-cold`: the stock 576-job matrix
 * (harness::MatrixAxes::defaults()) submitted once to a freshly
 * started in-process serve::Server — empty cache directory, a fleet of
 * fleetSize() worker processes. One operation is one cold sweep,
 * submit to last row fetched; closed loop, one client, one connection.
 * Every layer runs once per job, plus the write path: journal appends,
 * disk-store writes and result-index inserts.
 *
 * The traced run adds a serial in-process pass over the same jobs
 * with a span around every layer call (generate, buildImage, System,
 * run, encodeJobResult); its summed self time over (cold wall x
 * workers) is serve.fleet_efficiency.
 *
 * Checks: every row is ok, and every sweep's rows are byte-identical
 * (canonicalised) to the first sweep's.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "harness/artifact_cache.h"
#include "serve/disk_cache.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "sweep.h"
#include "trace.h"

namespace perfbench {

namespace {

/** What one cold sweep measured. */
struct ColdSweep
{
    double setupSeconds = 0.0;
    double coldSeconds = 0.0;
    uint64_t artifactHits = 0;
    uint64_t artifactBuilds = 0;
    std::vector<rtd::harness::JobResult> rows;
};

/**
 * Start a fresh fleet daemon in a new directory, run the matrix cold
 * and stop it. False (with @p error) when the daemon or the transport
 * failed; row-level failures are left for the caller's checks.
 */
bool
coldSweep(const ScratchDir &scratch,
          const std::vector<rtd::harness::Job> &jobs, Tracer &tracer,
          ColdSweep &out, std::string &error)
{
    Clock::time_point start = Clock::now();
    std::string dir = scratch.fresh("daemon");
    rtd::serve::ServerConfig config = daemonConfig(dir);
    rtd::serve::Server server(config);
    {
        Span span(tracer, "serve::Server::start");
        if (!server.start(error))
            return false;
    }
    rtd::serve::Client client;
    {
        Span span(tracer, "serve::Client::connect");
        if (!client.connect(config.socketPath, error, 5000))
            return false;
    }
    out.setupSeconds = secondsSince(start);

    start = Clock::now();
    RoundTrip trip;
    if (!roundTrip(client, "sweep-cold", jobs, tracer, trip, error))
        return false;
    out.coldSeconds = secondsSince(start);
    out.rows = std::move(trip.rows);
    for (const rtd::serve::WorkerStats &w : server.fleet()->stats()) {
        out.artifactHits += w.artifactHits;
        out.artifactBuilds += w.artifactBuilds;
    }
    {
        Span span(tracer, "serve::Server::stop");
        server.stop();
    }
    std::filesystem::remove_all(dir);
    return true;
}

/** Cold sweeps for @p seconds (at least @p min_sweeps), with checks. */
struct Phase
{
    std::vector<ColdSweep> sweeps;
    RssMark rss{2};
    double wall = 0.0;
};

Phase
measure(const ScratchDir &scratch, const std::vector<rtd::harness::Job> &jobs,
        double seconds, int min_sweeps, Tracer &tracer,
        std::vector<std::string> &reference, Report &report)
{
    Phase phase;
    Clock::time_point start = Clock::now();
    Span root(tracer, "bench::sweep-cold");
    while (static_cast<int>(phase.sweeps.size()) < min_sweeps ||
           secondsSince(start) < seconds) {
        ColdSweep sweep;
        std::string error;
        if (!coldSweep(scratch, jobs, tracer, sweep, error)) {
            report.fail("sweep-cold: " + error);
            report.attempted += jobs.size();
            report.failed += jobs.size();
            break;
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
            std::string canon = canonicalRow(sweep.rows[i]);
            if (reference.size() < jobs.size())
                reference.push_back(canon);
            bool ok = sweep.rows[i].ok && canon == reference[i];
            if (!ok)
                report.fail("sweep-cold: row " + jobs[i].tag + ": " +
                            (sweep.rows[i].ok ? "differs from the first "
                                                "sweep"
                                              : sweep.rows[i].error));
            report.op(ok);
        }
        // Only the newest sweep's rows are kept (for the probes), so the
        // benchmark's own memory does not grow with the sweep count.
        if (!phase.sweeps.empty())
            phase.sweeps.back().rows.clear();
        phase.sweeps.push_back(std::move(sweep));
        phase.rss.done(phase.sweeps.size());
    }
    phase.wall = secondsSince(start);
    return phase;
}

std::vector<double>
coldTimes(const Phase &phase)
{
    std::vector<double> cold;
    for (const ColdSweep &sweep : phase.sweeps)
        cold.push_back(sweep.coldSeconds);
    return cold;
}

/** Matrix jobs per second of the fastest cold sweep. */
double
throughput(const Phase &phase, size_t jobs)
{
    std::vector<double> cold = coldTimes(phase);
    return static_cast<double>(jobs) /
           *std::min_element(cold.begin(), cold.end());
}

/**
 * The serial in-process pass: every job's layers on this thread, with
 * programs and images memoized under the ArtifactCache's own content
 * keys (per benchmark; jobs come benchmark-outermost). Fills the
 * per-scenario ledger and returns the summed layer self time.
 */
double
serialProbe(const std::vector<rtd::harness::Job> &jobs, Tracer &tracer,
            Report &report)
{
    struct Tally
    {
        rtd::cpu::RunStats sum;
        uint64_t insns = 0;
    };
    Tally tally[5];
    std::map<std::string, std::shared_ptr<const rtd::prog::Program>>
        programs;
    std::map<std::string, std::shared_ptr<const rtd::core::BuiltImage>>
        images;
    std::string benchmark;
    {
        Span root(tracer, "bench::sweep-cold.serial");
        for (size_t i = 0; i < jobs.size(); ++i) {
            const rtd::harness::Job &job = jobs[i];
            int64_t id = static_cast<int64_t>(i);
            int bucket = scenarioBucket(job);
            const char *scenario = kScenarioNames[bucket];
            if (job.workload.name != benchmark) {
                benchmark = job.workload.name;
                programs.clear();
                images.clear();
            }
            std::string program_key =
                rtd::harness::ArtifactCache::workloadKey(job.workload);
            auto &program = programs[program_key];
            if (!program) {
                Span span(tracer, "workload::WorkloadGenerator::generate",
                          "", id);
                program = std::make_shared<const rtd::prog::Program>(
                    rtd::workload::WorkloadGenerator(job.workload)
                        .generate());
            }
            std::string image_key = rtd::harness::ArtifactCache::imageKey(
                job.workload, job.config);
            auto &built = images[image_key];
            if (!built) {
                Span span(tracer, "core::buildImage", scenario, id);
                built = std::make_shared<const rtd::core::BuiltImage>(
                    rtd::core::buildImage(*program, job.config));
            }
            rtd::harness::JobResult row;
            std::unique_ptr<rtd::core::System> system;
            {
                Span span(tracer, "core::System::System", scenario, id);
                system =
                    std::make_unique<rtd::core::System>(built, job.config);
            }
            {
                Span span(tracer, "core::System::run", scenario, id);
                row.result = system->run();
            }
            {
                Span span(tracer, "serve::encodeJobResult", scenario, id);
                rtd::serve::encodeJobResult(row);
            }
            const rtd::cpu::RunStats &s = row.result.stats;
            Tally &t = tally[bucket];
            t.insns += s.userInsns + s.handlerInsns;
            t.sum.cycles += s.cycles;
            t.sum.handlerInsns += s.handlerInsns;
            t.sum.compressedMisses += s.compressedMisses;
            t.sum.icacheMisses += s.icacheMisses;
            t.sum.dcacheMisses += s.dcacheMisses;
            t.sum.dmemFaults += s.dmemFaults;
        }
    }

    for (int b = 0; b < 5; ++b) {
        const char *name = kScenarioNames[b];
        std::string sfx = std::string(".") + name;
        const Tally &t = tally[b];
        double run_s = tracer.selfTotal("core::System::run", name);
        report.set("cpu.run_s" + sfx, run_s);
        report.set("cpu.host_ns_per_insn" + sfx,
                   t.insns ? run_s * 1e9 / static_cast<double>(t.insns)
                           : 0.0);
        report.set("cpu.cycles" + sfx, static_cast<double>(t.sum.cycles));
        report.set("runtime.handler_insns" + sfx,
                   static_cast<double>(t.sum.handlerInsns));
        report.set("runtime.compressed_misses" + sfx,
                   static_cast<double>(t.sum.compressedMisses));
        report.set("cache.icache_misses" + sfx,
                   static_cast<double>(t.sum.icacheMisses));
        report.set("cache.dcache_misses" + sfx,
                   static_cast<double>(t.sum.dcacheMisses));
        report.set("core.build_image_ms" + sfx,
                   tracer.selfTotal("core::buildImage", name) * 1000.0);
        report.set("core.system_ctor_ms" + sfx,
                   tracer.selfTotal("core::System::System", name) * 1000.0);
    }
    report.set("dmem.faults.dataonly",
               static_cast<double>(tally[3].sum.dmemFaults));
    report.set("dmem.faults.both",
               static_cast<double>(tally[4].sum.dmemFaults));
    double generate_s =
        tracer.selfTotal("workload::WorkloadGenerator::generate");
    report.set("workload.generate_ms", generate_s * 1000.0);
    return generate_s + tracer.selfTotal("core::buildImage") +
           tracer.selfTotal("core::System::System") +
           tracer.selfTotal("core::System::run") +
           tracer.selfTotal("serve::encodeJobResult");
}

/**
 * The write path a cold sweep adds, timed per call on this thread over
 * the sweep's rows: a JobDone journal append and a result-index store
 * into scratch copies of the daemon's journal and disk store.
 */
void
probeWritePath(const ScratchDir &scratch,
               const std::vector<rtd::harness::Job> &jobs,
               const std::vector<rtd::harness::JobResult> &rows,
               Tracer &tracer, Report &report)
{
    std::string dir = scratch.fresh("write-probe");
    rtd::serve::Journal journal;
    std::string error;
    if (!journal.open(dir + "/journal.rtdj", {}, error)) {
        report.fail("sweep-cold: journal probe: " + error);
        return;
    }
    rtd::serve::DiskArtifactCache store(dir + "/store", 0);
    bool appended = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        rtd::harness::Json payload = rtd::harness::Json::object();
        payload.set("id", "sweep-cold");
        payload.set("index", uint64_t(i));
        payload.set("cached", false);
        payload.set("result", rtd::serve::encodeJobResult(rows[i]));
        std::string key = "result|" + rtd::serve::jobContentKey(jobs[i]);
        std::string blob = rtd::serve::encodeJobResult(rows[i]).dump();
        {
            Span span(tracer, "serve::Journal::append", "",
                      static_cast<int64_t>(i));
            appended = journal.append(rtd::serve::Journal::kJobDone,
                                      payload) && appended;
        }
        {
            Span span(tracer, "serve::DiskArtifactCache::store", "",
                      static_cast<int64_t>(i));
            store.store(key, blob);
        }
    }
    if (!appended)
        report.fail("sweep-cold: journal probe append failed");
    double n = static_cast<double>(rows.size());
    report.set("serve.journal_append_us",
               tracer.selfTotal("serve::Journal::append") * 1e6 / n);
    report.set("serve.disk_store_ms",
               tracer.selfTotal("serve::DiskArtifactCache::store") * 1000.0);
    report.set("serve.encode_result_us",
               tracer.selfTotal("serve::encodeJobResult") * 1e6 / n);
}

} // namespace

void
runSweepCold(const Options &opts, Report &report)
{
    Clock::time_point start = Clock::now();
    std::vector<rtd::harness::Job> jobs = matrixJobs(opts);
    double jobs_seconds = secondsSince(start);
    ScratchDir scratch("sweep-cold");
    Tracer tracer(opts.trace);
    Tracer untraced(false);
    std::vector<std::string> reference;
    int min_sweeps = opts.smoke ? 1 : 2;

    auto setupSeconds = [&](const Phase &phase) {
        std::vector<double> setups;
        for (const ColdSweep &sweep : phase.sweeps)
            setups.push_back(sweep.setupSeconds);
        return jobs_seconds + median(setups);
    };

    if (!opts.trace) {
        Phase phase = measure(scratch, jobs, opts.seconds, min_sweeps,
                              untraced, reference, report);
        report.set("throughput_per_s", throughput(phase, jobs.size()));
        report.set("setup_s", setupSeconds(phase));
        report.set("max_rss_mb", phase.rss.mb());
        return;
    }

    int min_traced = 1;
    Phase plain = measure(scratch, jobs, opts.seconds / 2, min_traced,
                          untraced, reference, report);
    Phase traced = measure(scratch, jobs, opts.seconds / 2, min_traced,
                           tracer, reference, report);
    if (plain.sweeps.empty() || traced.sweeps.empty())
        return;
    const ColdSweep &last = traced.sweeps.back();

    double serial = serialProbe(jobs, tracer, report);
    probeWritePath(scratch, jobs, last.rows, tracer, report);
    probeJobCodecs(jobs, last.rows, tracer, report);

    double lookups = static_cast<double>(last.artifactHits +
                                         last.artifactBuilds);
    report.set("harness.artifact_hit_ratio",
               lookups > 0.0 ? static_cast<double>(last.artifactHits) /
                                   lookups
                             : 0.0);
    // Serial layer time over the fleet's capacity in the fastest sweep.
    report.set("serve.fleet_efficiency",
               serial * throughput(plain, jobs.size()) /
                   (static_cast<double>(jobs.size()) * fleetSize()));
    setLatencyLedger(report, coldTimes(plain));
    report.set("bench.rss_growth_kib_per_op",
               plain.rss.growthKibPerOp(plain.sweeps.size()));
    report.set("serve.worker_peak_rss_mb", childPeakRssMb());
    report.set("serve.start_ms",
               median(tracer.selfTimes("serve::Server::start")) * 1000.0);
    report.set("serve.submit_ms.cold",
               median(tracer.selfTimes("serve::Client::submit")) * 1000.0);
    report.set("serve.fetch_wait_s.cold",
               median(tracer.selfTimes("serve::Client::fetchResults")));
    report.set("trace.unattributed_pct",
               tracer.selfTotal("bench::sweep-cold") / traced.wall * 100.0);
    report.set("trace.overhead_pct", (throughput(plain, jobs.size()) /
                                          throughput(traced, jobs.size()) -
                                      1.0) *
                                         100.0);
    std::string trace_path = std::string(kOutDir) + "/trace-sweep-cold-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.writeChromeTrace(trace_path, runStamp(opts)))
        report.fail("cannot write " + trace_path);
}

} // namespace perfbench
