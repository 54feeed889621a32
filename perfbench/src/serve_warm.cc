/**
 * @file
 * Workload `serve-warm`: the read-side counterpart of sweep-cold.
 *
 * Set-up runs the matrix once cold on a fleet daemon (which fills the
 * disk result index), stops it, writes a journal through
 * serve::Journal's public API holding the completed rows of several
 * matrix sweeps, uncompacted, and restarts a daemon over it — the
 * restart's Server::start() is the recovery time. One operation is a
 * warm resubmit of the same matrix, submit to last row fetched; closed
 * loop, one client, one connection. No simulation runs: wire
 * encode/decode, content keys, JSON and result-index reads do the work.
 *
 * Checks: every warm row is byte-identical to the cold row after
 * canonicalising with serve::encodeSystemResult, and every row comes
 * from the result index.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/disk_cache.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "sweep.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr int kHistorySweeps = 8;
constexpr int kSmokeHistorySweeps = 2;
constexpr int kSetupRepeats = 3;
/** The daemon's journal file name inside its cache dir (server.h). */
constexpr const char *kJournalName = "/journal.rtdj";
/** Result-index key prefix inside the daemon's disk store (server.h). */
constexpr const char *kResultPrefix = "result|";

/**
 * Write @p sweeps finished matrix sweeps to a new journal at @p path:
 * per sweep a SweepBegin and one JobDone per row, exactly as a daemon
 * logs them. Returns the number of records written (0 on failure).
 */
uint64_t
writeHistory(const std::string &path,
             const std::vector<rtd::harness::Job> &jobs,
             const std::vector<rtd::harness::JobResult> &rows, int sweeps,
             std::string &error)
{
    using rtd::harness::Json;
    std::filesystem::remove(path);
    rtd::serve::Journal journal;
    if (!journal.open(path, {}, error))
        return 0;
    Json encoded = Json::array();
    for (const rtd::harness::Job &job : jobs)
        encoded.push(rtd::serve::encodeJob(job));
    std::vector<Json> results;
    for (const rtd::harness::JobResult &row : rows)
        results.push_back(rtd::serve::encodeJobResult(row));
    uint64_t records = 0;
    for (int k = 0; k < sweeps; ++k) {
        std::string label = "history-" + std::to_string(k);
        std::string id = rtd::serve::sweepContentId(label, encoded);
        Json begin = Json::object();
        begin.set("id", id);
        begin.set("label", label);
        begin.set("priority", int64_t(0));
        begin.set("jobs", encoded);
        bool ok = journal.append(rtd::serve::Journal::kSweepBegin, begin);
        for (size_t i = 0; ok && i < results.size(); ++i) {
            Json done = Json::object();
            done.set("id", id);
            done.set("index", uint64_t(i));
            done.set("cached", false);
            done.set("result", results[i]);
            ok = journal.append(rtd::serve::Journal::kJobDone, done);
        }
        if (!ok) {
            error = "journal append failed";
            return 0;
        }
        records += results.size() + 1;
    }
    journal.close();
    return records;
}

/** Latencies and index hits of one measuring phase. */
struct Phase
{
    std::vector<double> latency;
    uint64_t cachedRows = 0;
    RssMark rss{5};
    double wall = 0.0;
};

/** One warm round trip with its checks; false on transport failure. */
bool
warmTrip(rtd::serve::Client &client,
         const std::vector<rtd::harness::Job> &jobs,
         const std::vector<std::string> &reference, Tracer &tracer,
         Phase &phase, Report &report)
{
    RoundTrip trip;
    std::string error;
    Clock::time_point start = Clock::now();
    bool ok = roundTrip(client, "serve-warm", jobs, tracer, trip, error);
    double seconds = secondsSince(start);
    if (!ok) {
        report.fail("serve-warm: " + error);
        report.op(false);
        return false;
    }
    phase.latency.push_back(seconds);
    phase.rss.done(phase.latency.size());
    phase.cachedRows += trip.cachedRows;
    size_t mismatched = 0;
    for (size_t i = 0; i < jobs.size(); ++i)
        mismatched += canonicalRow(trip.rows[i]) != reference[i];
    if (mismatched)
        report.fail("serve-warm: " + std::to_string(mismatched) +
                    " row(s) differ from the cold rows");
    if (trip.cachedRows != jobs.size())
        report.fail("serve-warm: only " + std::to_string(trip.cachedRows) +
                    " row(s) came from the result index");
    report.op(mismatched == 0 && trip.cachedRows == jobs.size());
    return true;
}

Phase
measure(rtd::serve::Client &client,
        const std::vector<rtd::harness::Job> &jobs,
        const std::vector<std::string> &reference, double seconds,
        int min_trips, Tracer &tracer, Report &report)
{
    Phase phase;
    Clock::time_point start = Clock::now();
    Span root(tracer, "bench::serve-warm");
    while (static_cast<int>(phase.latency.size()) < min_trips ||
           secondsSince(start) < seconds) {
        if (!warmTrip(client, jobs, reference, tracer, phase, report))
            break;
    }
    phase.wall = secondsSince(start);
    return phase;
}

/** Matrix rows per second of the fastest warm round trip. */
double
throughput(const Phase &phase, size_t jobs)
{
    return static_cast<double>(jobs) /
           *std::min_element(phase.latency.begin(), phase.latency.end());
}

} // namespace

void
runServeWarm(const Options &opts, Report &report)
{
    Tracer tracer(opts.trace);
    Tracer untraced(false);
    std::string error;

    // Set-up, part one (once): the matrix cold, which fills the disk
    // result index and yields the reference rows.
    Clock::time_point start = Clock::now();
    std::vector<rtd::harness::Job> jobs = matrixJobs(opts);
    ScratchDir scratch("serve-warm");
    rtd::serve::ServerConfig config = daemonConfig(scratch.fresh("d"));
    std::vector<rtd::harness::JobResult> cold_rows;
    {
        rtd::serve::Server server(config);
        rtd::serve::Client client;
        RoundTrip trip;
        if (!server.start(error) ||
            !client.connect(config.socketPath, error, 5000) ||
            !roundTrip(client, "serve-warm", jobs, untraced, trip, error)) {
            report.fail("serve-warm: cold population: " + error);
            report.op(false);
            return;
        }
        cold_rows = std::move(trip.rows);
    }
    std::vector<std::string> reference;
    for (const rtd::harness::JobResult &row : cold_rows) {
        if (!row.ok) {
            report.fail("serve-warm: cold row failed: " + row.error);
            report.op(false);
            return;
        }
        reference.push_back(canonicalRow(row));
    }
    double population_seconds = secondsSince(start);

    // Set-up, part two (repeated): journal, restart (recovery), prime.
    int history = opts.smoke ? kSmokeHistorySweeps : kHistorySweeps;
    int repeats = opts.smoke ? 1 : kSetupRepeats;
    std::vector<double> setup_seconds;
    std::unique_ptr<rtd::serve::Server> server;
    rtd::serve::Client client;
    Phase priming;
    for (int i = 0; i < repeats; ++i) {
        if (server) {
            server->stop();
            server.reset();
        }
        start = Clock::now();
        if (!writeHistory(config.cacheDir + kJournalName, jobs, cold_rows,
                          history, error)) {
            report.fail("serve-warm: journal: " + error);
            return;
        }
        server = std::make_unique<rtd::serve::Server>(config);
        {
            Span span(tracer, "serve::Server::start");
            if (!server->start(error)) {
                report.fail("serve-warm: restart: " + error);
                return;
            }
        }
        if (!client.connect(config.socketPath, error, 5000)) {
            report.fail("serve-warm: connect: " + error);
            return;
        }
        if (!warmTrip(client, jobs, reference, untraced, priming, report))
            return;
        setup_seconds.push_back(secondsSince(start));
    }
    double setup = population_seconds + median(setup_seconds);

    int min_trips = opts.smoke ? 1 : 5;
    if (!opts.trace) {
        Phase phase = measure(client, jobs, reference, opts.seconds,
                              min_trips, untraced, report);
        report.set("throughput_per_s", throughput(phase, jobs.size()));
        report.set("setup_s", setup);
        report.set("max_rss_mb", phase.rss.mb());
        return;
    }

    Phase plain = measure(client, jobs, reference, opts.seconds / 2,
                          min_trips, untraced, report);
    Phase traced = measure(client, jobs, reference, opts.seconds / 2,
                           min_trips, tracer, report);
    server->stop();
    server.reset();

    // The read path's layers, each over the whole matrix on this
    // thread: journal replay (what recovery parses), result-index
    // loads from the disk store (a restarted daemon's first lookups)
    // and the per-job codecs.
    std::string replay_path = scratch.path() + "/replay.rtdj";
    uint64_t written =
        writeHistory(replay_path, jobs, cold_rows, history, error);
    rtd::serve::Journal journal;
    uint64_t replayed = 0;
    if (!written || !journal.open(replay_path, {}, error)) {
        report.fail("serve-warm: replay probe: " + error);
    } else {
        Span span(tracer, "serve::Journal::replay");
        journal.replay([&](uint32_t, const rtd::harness::Json &) {
            ++replayed;
        }, error);
    }
    if (replayed != written)
        report.fail("serve-warm: replayed " + std::to_string(replayed) +
                    " of " + std::to_string(written) + " records");
    {
        rtd::serve::DiskArtifactCache store(config.cacheDir,
                                            config.cacheMaxBytes);
        size_t missing = 0;
        for (size_t i = 0; i < jobs.size(); ++i) {
            std::string key =
                kResultPrefix + rtd::serve::jobContentKey(jobs[i]);
            std::string bytes;
            Span span(tracer, "serve::DiskArtifactCache::load", "",
                      static_cast<int64_t>(i));
            missing += !store.load(key, bytes);
        }
        if (missing)
            report.fail("serve-warm: " + std::to_string(missing) +
                        " result row(s) missing from the disk store");
    }
    probeJobCodecs(jobs, cold_rows, tracer, report);

    setLatencyLedger(report, plain.latency);
    report.set("bench.rss_growth_kib_per_op",
               plain.rss.growthKibPerOp(plain.latency.size()));
    report.set("serve.start_ms",
               median(tracer.selfTimes("serve::Server::start")) * 1000.0);
    report.set("serve.submit_ms.warm",
               median(tracer.selfTimes("serve::Client::submit")) * 1000.0);
    report.set("serve.fetch_ms.warm",
               median(tracer.selfTimes("serve::Client::fetchResults")) *
                   1000.0);
    report.set("serve.journal_replay_ms",
               tracer.selfTotal("serve::Journal::replay") * 1000.0);
    report.set("serve.disk_load_ms",
               tracer.selfTotal("serve::DiskArtifactCache::load") * 1000.0);
    report.set("serve.cached_fraction",
               static_cast<double>(traced.cachedRows) /
                   static_cast<double>(jobs.size() * traced.latency.size()));
    report.set("trace.unattributed_pct",
               tracer.selfTotal("bench::serve-warm") / traced.wall * 100.0);
    report.set("trace.overhead_pct", (throughput(plain, jobs.size()) /
                                          throughput(traced, jobs.size()) -
                                      1.0) *
                                         100.0);
    std::string trace_path = std::string(kOutDir) + "/trace-serve-warm-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.writeChromeTrace(trace_path, runStamp(opts)))
        report.fail("cannot write " + trace_path);
}

} // namespace perfbench
