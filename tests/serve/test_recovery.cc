/**
 * @file
 * Crash-recovery suite for the serve daemon (DESIGN.md section 17):
 * a Server started over a journal a dead predecessor left behind must
 * rebuild the sweep, answer finished rows from the journal/result
 * index, re-run exactly the missing ones, and stream a row set
 * byte-identical to local execution; content-derived sweep ids make
 * the client's resubmit attach to the recovered sweep. Also here: the
 * socket lock that keeps a second daemon off a live socket, the
 * request-line length bound, the EINTR-resilience of the stream under
 * a signal storm, and journal compaction under warm-only traffic and
 * at start-up.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/runner.h"
#include "serve/client.h"
#include "serve/disk_cache.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"

using namespace rtd;
using harness::Job;
using harness::JobResult;
using harness::Json;

namespace {

std::string
tempDir()
{
    char tmpl[] = "/tmp/rtdc_recovery_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

/** A small deterministic job; @p seed varies the simulation point. */
Job
tinyJob(uint64_t seed)
{
    Job job;
    job.tag = "recovery-test/" + std::to_string(seed);
    job.workload = workload::tinySpec(seed);
    job.config.cpu = core::paperMachine(4 * 1024);
    return job;
}

std::vector<Job>
tinyJobs(uint64_t base, size_t count)
{
    std::vector<Job> jobs;
    for (size_t i = 0; i < count; ++i)
        jobs.push_back(tinyJob(base + i));
    return jobs;
}

std::vector<JobResult>
localReference(const std::vector<Job> &jobs)
{
    harness::ArtifactCache cache;
    std::vector<JobResult> results;
    for (const Job &job : jobs)
        results.push_back(harness::executeJob(job, cache));
    return results;
}

std::string
rowKey(const JobResult &row)
{
    JobResult masked = row;
    masked.wallSeconds = 0.0;
    return serve::encodeJobResult(masked).dump();
}

void
expectSameRows(const std::vector<JobResult> &got,
               const std::vector<JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].ok) << "row " << i << ": " << got[i].error;
        EXPECT_EQ(rowKey(got[i]), rowKey(want[i])) << "row " << i;
    }
}

/**
 * Write the journal a kill -9'd daemon would leave behind: one
 * SweepBegin for @p jobs plus a JobDone for the first @p done_count
 * rows (their results taken from @p done_rows). Returns the
 * content-derived sweep id.
 */
std::string
plantJournal(const std::string &cache_dir, const std::string &label,
             const std::vector<Job> &jobs,
             const std::vector<JobResult> &done_rows, size_t done_count)
{
    ::mkdir(cache_dir.c_str(), 0775);
    Json encoded = Json::array();
    for (const Job &job : jobs)
        encoded.push(serve::encodeJob(job));
    std::string id = serve::sweepContentId(label, encoded);
    serve::Journal journal;
    std::string error;
    EXPECT_TRUE(journal.open(cache_dir + "/journal.rtdj", {}, error))
        << error;
    Json begin = Json::object();
    begin.set("id", id);
    begin.set("label", label);
    begin.set("priority", int64_t(0));
    begin.set("jobs", std::move(encoded));
    EXPECT_TRUE(journal.append(serve::Journal::kSweepBegin, begin));
    for (size_t i = 0; i < done_count; ++i) {
        Json done = Json::object();
        done.set("id", id);
        done.set("index", uint64_t(i));
        done.set("cached", false);
        done.set("result", serve::encodeJobResult(done_rows[i]));
        EXPECT_TRUE(journal.append(serve::Journal::kJobDone, done));
    }
    return id;
}

/** Submit-or-attach @p jobs and fetch every row. */
std::vector<JobResult>
submitAndFetch(const std::string &socket, const std::string &label,
               const std::vector<Job> &jobs, bool *attached = nullptr,
               uint64_t *cached = nullptr)
{
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connect(socket, error)) << error;
    // Raw submit (not Client::submit) so the reply's "attached" flag is
    // visible to the assertions.
    Json request = Json::object();
    request.set("op", "submit");
    request.set("label", label);
    Json encoded = Json::array();
    for (const Job &job : jobs)
        encoded.push(serve::encodeJob(job));
    request.set("jobs", std::move(encoded));
    Json reply;
    EXPECT_TRUE(client.call(request, reply, error)) << error;
    const Json *ok = reply.find("ok");
    EXPECT_TRUE(ok && ok->kind() == Json::Kind::Bool && ok->asBool())
        << reply.dump();
    const Json *id = reply.find("sweep_id");
    EXPECT_TRUE(id && id->kind() == Json::Kind::String);
    if (attached) {
        const Json *flag = reply.find("attached");
        *attached = flag && flag->kind() == Json::Kind::Bool &&
                    flag->asBool();
    }
    if (cached) {
        const Json *n = reply.find("cached");
        *cached = n && n->isNumber()
                      ? static_cast<uint64_t>(n->asInt())
                      : 0;
    }
    std::vector<JobResult> results(jobs.size());
    EXPECT_TRUE(client.fetchResults(id ? id->asString() : "", results,
                                    nullptr, error))
        << error;
    return results;
}

Json
serverStats(const std::string &socket)
{
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connect(socket, error)) << error;
    Json request = Json::object();
    request.set("op", "stats");
    Json reply;
    EXPECT_TRUE(client.call(request, reply, error)) << error;
    return reply;
}

int64_t
statNum(const Json &stats, const char *key)
{
    const Json *v = stats.find(key);
    return v && v->isNumber() ? v->asInt() : -1;
}

} // namespace

TEST(RecoveryTest, ReplaysJournalAndFinishesTheSweep)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(1000, 12);
    std::vector<JobResult> local = localReference(jobs);
    // The dead daemon got through 5 of 12 rows.
    plantJournal(dir + "/cache", "crashed", jobs, local, 5);

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 1);
    EXPECT_EQ(statNum(stats, "replayed_records"), 6);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 7);

    // The resuming client's resubmit attaches to the recovered sweep
    // (same label + jobs → same content id) and gets every row: the 5
    // journaled ones verbatim, the 7 requeued ones freshly executed.
    bool attached = false;
    std::vector<JobResult> rows = submitAndFetch(
        config.socketPath, "crashed", jobs, &attached);
    EXPECT_TRUE(attached);
    expectSameRows(rows, local);
    server.stop();
}

TEST(RecoveryTest, ResolvesLostJournalRowsFromTheResultIndex)
{
    // A crash window exists between indexResult() and the JobDone
    // append: the row is on disk in the result index, but the journal
    // never heard. Recovery must resolve such rows from the index
    // instead of re-running them.
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(2000, 8);
    std::vector<JobResult> local = localReference(jobs);

    // First daemon runs the full sweep (populating the result index),
    // then "crashes": we plant a journal that claims nothing finished.
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    {
        serve::Server first(config);
        std::string error;
        ASSERT_TRUE(first.start(error)) << error;
        expectSameRows(
            submitAndFetch(config.socketPath, "warm", jobs), local);
        first.stop();
    }
    plantJournal(dir + "/cache", "warm", jobs, local, 0);

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 1);
    // Every row came back from the index — nothing requeued.
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 0);
    expectSameRows(submitAndFetch(config.socketPath, "warm", jobs),
                   local);
    server.stop();
}

TEST(RecoveryTest, TornJournalTailIsTruncatedNotFatal)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(3000, 6);
    std::vector<JobResult> local = localReference(jobs);
    plantJournal(dir + "/cache", "torn", jobs, local, 2);
    {
        std::FILE *f = std::fopen(
            (dir + "/cache/journal.rtdj").c_str(), "ab");
        ASSERT_NE(f, nullptr);
        // A plausible torn record: good magic, then a cut-off header.
        static const char kTorn[] = "RTDJ\x01\x00\x00\x00 torn";
        std::fwrite(kTorn, 1, sizeof kTorn - 1, f);
        std::fclose(f);
    }

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 1);
    EXPECT_EQ(statNum(stats, "replayed_records"), 3);
    const Json *journal = stats.find("journal");
    ASSERT_NE(journal, nullptr);
    EXPECT_GT(statNum(*journal, "torn_bytes"), 0);
    expectSameRows(submitAndFetch(config.socketPath, "torn", jobs),
                   local);
    server.stop();
}

TEST(RecoveryTest, CancelRecordErasesTheSweepFromRecovery)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(4000, 4);
    std::vector<JobResult> local = localReference(jobs);
    std::string id =
        plantJournal(dir + "/cache", "cancelled", jobs, local, 1);
    {
        serve::Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(dir + "/cache/journal.rtdj", {},
                                 error));
        // replay() then append: the journal is append-only and open()
        // does not seek; replay positions the write offset.
        ASSERT_TRUE(journal.replay([](uint32_t, const Json &) {},
                                   error))
            << error;
        Json cancel = Json::object();
        cancel.set("id", id);
        ASSERT_TRUE(
            journal.append(serve::Journal::kSweepCancel, cancel));
    }

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 0);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 0);
    server.stop();
}

TEST(RecoveryTest, CleanShutdownCompactsTheJournalToEmpty)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(5000, 6);
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    {
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        submitAndFetch(config.socketPath, "clean", jobs);
        server.stop();
    }
    // Everything finished before the stop, so the checkpoint snapshot
    // is empty and a successor daemon recovers nothing.
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 0);
    EXPECT_EQ(statNum(stats, "replayed_records"), 0);
    server.stop();
}

TEST(RecoverySocketLock, SecondDaemonRefusesWhileFirstIsLive)
{
    // fcntl record locks never conflict within one process, so the
    // "first" daemon must really be another process: fork (while this
    // process is still single-threaded) and run it in the child.
    std::string dir = tempDir();
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.workers = 1;

    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        serve::Server first(config);
        std::string child_error;
        char byte = first.start(child_error) ? '1' : '0';
        (void)!::write(ready[1], &byte, 1);
        if (byte == '0')
            ::_exit(1);
        for (;;)  // hold the lock until the parent kills us
            ::pause();
    }
    ::close(ready[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    ASSERT_EQ(byte, '1') << "child daemon failed to start";

    serve::Server second(config);
    std::string second_error;
    EXPECT_FALSE(second.start(second_error));
    EXPECT_NE(second_error.find("live"), std::string::npos)
        << second_error;
    // The loser must not have unlinked the winner's socket.
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connect(config.socketPath, error)) << error;
    EXPECT_TRUE(client.ping(error)) << error;

    // Kill -9 the holder: record locks die with the process, so a
    // successor takes over the very same socket path without help.
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    serve::Server third(config);
    ASSERT_TRUE(third.start(error)) << error;
    third.stop();
}

TEST(WarmJournal, AllCachedResubmitsKeepTheJournalBounded)
{
    // Every submit appends a SweepBegin, even one the result index
    // answers whole. A daemon serving only such resubmits never runs a
    // job, so the submit path itself must compact.
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(4000, 6);
    std::vector<JobResult> local = localReference(jobs);
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    config.journalCompactBytes = 32 << 10;
    auto journalBytes = [&] {
        Json stats = serverStats(config.socketPath);
        const Json *journal = stats.find("journal");
        return journal ? statNum(*journal, "bytes") : -1;
    };
    const int kResubmits = 40;
    {
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        expectSameRows(submitAndFetch(config.socketPath, "warm", jobs),
                       local);
        int64_t begin_bytes = -1;
        for (int i = 0; i < kResubmits; ++i) {
            int64_t before = journalBytes();
            uint64_t cached = 0;
            expectSameRows(submitAndFetch(config.socketPath, "warm", jobs,
                                          nullptr, &cached),
                           local);
            EXPECT_EQ(cached, jobs.size());
            int64_t after = journalBytes();
            if (after > before)
                begin_bytes = after - before;
            ASSERT_LT(after, int64_t(config.journalCompactBytes)) << i;
        }
        // Unbounded, the journal would hold kResubmits Begin records.
        ASSERT_GT(begin_bytes, 0);
        EXPECT_GT(begin_bytes * kResubmits,
                  2 * int64_t(config.journalCompactBytes));
        Json stats = serverStats(config.socketPath);
        const Json *journal = stats.find("journal");
        ASSERT_NE(journal, nullptr);
        EXPECT_GE(statNum(*journal, "compactions"), 2);

        // A kill -9 now leaves this journal and store behind: copy
        // them while the daemon is idle and recover from the copy.
        std::filesystem::copy(config.cacheDir, dir + "/crashed",
                              std::filesystem::copy_options::recursive);
        server.stop();
    }
    serve::ServerConfig crashed = config;
    crashed.socketPath = dir + "/crashed.sock";
    crashed.cacheDir = dir + "/crashed";
    serve::Server server(crashed);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(crashed.socketPath);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 0);
    uint64_t cached = 0;
    expectSameRows(submitAndFetch(crashed.socketPath, "warm", jobs,
                                  nullptr, &cached),
                   local);
    EXPECT_EQ(cached, jobs.size());
    server.stop();
}

TEST(JournalCheckpoint, FreshDirSkipsItAndAnyJournalBytesCompact)
{
    // Recovery checkpoints the journal it replayed. An empty journal
    // has nothing to checkpoint, so a fresh cache dir starts without
    // the temp-file write, fsync and rename; a journal with any bytes,
    // a torn tail alone included, still compacts.
    auto startAndCount = [](const std::string &dir, int64_t &torn) {
        serve::ServerConfig config;
        config.socketPath = dir + "/d.sock";
        config.cacheDir = dir + "/cache";
        config.workers = 1;
        serve::Server server(config);
        std::string error;
        EXPECT_TRUE(server.start(error)) << error;
        Json stats = serverStats(config.socketPath);
        const Json *journal = stats.find("journal");
        EXPECT_NE(journal, nullptr);
        int64_t compactions =
            journal ? statNum(*journal, "compactions") : -1;
        torn = journal ? statNum(*journal, "torn_bytes") : -1;
        server.stop();
        return compactions;
    };
    int64_t torn = 0;
    const std::string fresh = tempDir();
    EXPECT_EQ(startAndCount(fresh, torn), 0);
    // The clean stop left an empty journal: still nothing to compact.
    EXPECT_EQ(startAndCount(fresh, torn), 0);

    const std::string planted = tempDir();
    std::vector<Job> jobs = tinyJobs(6000, 2);
    plantJournal(planted + "/cache", "planted", jobs,
                 localReference(jobs), jobs.size());
    EXPECT_EQ(startAndCount(planted, torn), 1);

    const std::string garbage = tempDir();
    ::mkdir((garbage + "/cache").c_str(), 0775);
    FILE *file = std::fopen((garbage + "/cache/journal.rtdj").c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("not a record", file);
    std::fclose(file);
    EXPECT_EQ(startAndCount(garbage, torn), 1);
    EXPECT_EQ(torn, 12);
}

TEST(RecoveryLineLimit, OverlongRequestLineGetsStructuredErrorAndClose)
{
    std::string dir = tempDir();
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.workers = 1;
    config.maxLineBytes = 1024;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = serve::connectUnix(config.socketPath, error);
    ASSERT_GE(fd, 0) << error;
    serve::LineChannel channel(fd);
    // 8 KiB of almost-JSON on one line: past the daemon's bound.
    std::string big = "{\"op\":\"ping\",\"pad\":\"";
    big.append(8192, 'x');
    big += "\"}";
    ASSERT_TRUE(channel.writeLine(big));
    Json reply;
    ASSERT_TRUE(channel.readJson(reply, error)) << error;
    const Json *ok = reply.find("ok");
    ASSERT_TRUE(ok && ok->kind() == Json::Kind::Bool);
    EXPECT_FALSE(ok->asBool());
    const Json *code = reply.find("code");
    ASSERT_TRUE(code && code->kind() == Json::Kind::String);
    EXPECT_EQ(code->asString(), "line_too_long");
    // Framing cannot resynchronize inside an unread line, so the
    // daemon closes; the next read is EOF.
    EXPECT_FALSE(channel.readJson(reply, error));

    // The daemon itself is unharmed: a fresh connection works.
    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, error)) << error;
    EXPECT_TRUE(client.ping(error)) << error;
    server.stop();
}

namespace {
void
sigusr1Noop(int)
{
}
} // namespace

TEST(RecoveryEintr, SignalStormDoesNotCorruptTheResultStream)
{
    // Install SIGUSR1 *without* SA_RESTART so blocking reads/writes on
    // the client thread really return EINTR; the channel loops must
    // retry, and the LDJSON stream must come through intact.
    struct sigaction sa = {};
    sa.sa_handler = sigusr1Noop;
    sa.sa_flags = 0;
    struct sigaction old;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(6000, 24);
    std::vector<JobResult> local = localReference(jobs);
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    std::atomic<bool> done{false};
    pthread_t victim = ::pthread_self();
    std::thread storm([&] {
        while (!done.load()) {
            ::pthread_kill(victim, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });
    std::vector<JobResult> rows =
        submitAndFetch(config.socketPath, "eintr", jobs);
    done.store(true);
    storm.join();
    ::sigaction(SIGUSR1, &old, nullptr);

    expectSameRows(rows, local);
    server.stop();
}
