/**
 * @file
 * Serve-subsystem suite: the DiskArtifactCache's integrity contract
 * (full-key verification, CRC rejection, LRU bound, restart
 * persistence), the wire codecs' exact round-trip, and the daemon
 * itself — submit/results/status/cancel/stats over a real unix socket,
 * incremental resubmits, warm restarts from disk, and failure-row
 * containment for poisoned jobs. The EncodeOnce suite pins the bytes
 * the daemon derives from each job's and row's single encoding to the
 * harness::Json-built ones (and to the values an earlier build wrote),
 * and the LineChannel suite the framing of multi-MiB lines.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/matrix.h"
#include "harness/runner.h"
#include "serve/client.h"
#include "serve/disk_cache.h"
#include "serve/journal.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"

#include "json_built.h"

using namespace rtd;
using harness::Job;
using harness::JobResult;
using harness::Json;
using reference::jsonBuiltKey;
using reference::jsonBuiltWorkload;

namespace {

/** Fresh private directory under /tmp; leaked on purpose (tests are
 *  short-lived and the dir aids post-mortem debugging). */
std::string
tempDir()
{
    char tmpl[] = "/tmp/rtdc_serve_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

/** The blob file DiskArtifactCache uses for @p key. */
std::string
blobPath(const std::string &dir, const std::string &key)
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(
                      harness::stableHash64(key)));
    return dir + "/" + name + ".blob";
}

/** A small deterministic job; @p seed varies the simulation point. */
Job
tinyJob(uint64_t seed, compress::Scheme scheme = compress::Scheme::None)
{
    Job job;
    job.tag = "serve-test/" + std::to_string(seed) + "/" +
              compress::schemeName(scheme);
    job.workload = workload::tinySpec(seed);
    job.config.cpu = core::paperMachine(4 * 1024);
    job.config.scheme = scheme;
    return job;
}

} // namespace

// ---------------------------------------------------------------------
// DiskArtifactCache
// ---------------------------------------------------------------------

TEST(DiskCache, RoundTripAndRestartPersistence)
{
    std::string dir = tempDir();
    const std::string key = "workload|some-canonical-key";
    const std::string payload = "payload bytes \x01\x02\x00 ok";

    {
        serve::DiskArtifactCache cache(dir, 0);
        cache.store(key, payload);
        std::string back;
        ASSERT_TRUE(cache.load(key, back));
        EXPECT_EQ(back, payload);
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_EQ(cache.stats().stores, 1u);
    }

    // A new instance on the same directory revives the blob: this is
    // the daemon-restart path.
    serve::DiskArtifactCache reopened(dir, 0);
    std::string back;
    ASSERT_TRUE(reopened.load(key, back));
    EXPECT_EQ(back, payload);
    EXPECT_EQ(reopened.stats().bytes, payload.size());

    std::string missing;
    EXPECT_FALSE(reopened.load("no such key", missing));
    EXPECT_EQ(reopened.stats().misses, 1u);
}

TEST(DiskCache, CorruptPayloadRejectedAsMiss)
{
    std::string dir = tempDir();
    serve::DiskArtifactCache cache(dir, 0);
    const std::string key = "image|corruptible";
    cache.store(key, "sixteen byte pay");

    // Flip one payload byte behind the cache's back.
    std::string path = blobPath(dir, key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(-3, std::ios::end);
        file.put('X');
    }

    std::string back;
    EXPECT_FALSE(cache.load(key, back));
    EXPECT_EQ(cache.stats().rejects, 1u);
    // The poisoned file is gone, so a rebuild-and-store round-trips.
    cache.store(key, "rebuilt");
    ASSERT_TRUE(cache.load(key, back));
    EXPECT_EQ(back, "rebuilt");
}

TEST(DiskCache, StoredKeyMismatchRejectedAndRebuilt)
{
    // Force the hash-collision case the embedded full key exists to
    // catch: a blob whose *filename* matches the requested key's hash
    // but whose stored key string is different must never be revived.
    std::string dir = tempDir();
    const std::string key_a = "workload|victim-a";
    const std::string key_b = "workload|impostor-b";

    serve::DiskArtifactCache cache(dir, 0);
    cache.store(key_a, "payload of a");
    // Masquerade a's blob as b's by renaming it to b's hash filename.
    ASSERT_EQ(std::rename(blobPath(dir, key_a).c_str(),
                          blobPath(dir, key_b).c_str()),
              0);

    serve::DiskArtifactCache reopened(dir, 0);
    std::string back;
    // The embedded key says "victim-a", the request says "impostor-b":
    // reject, delete, miss.
    EXPECT_FALSE(reopened.load(key_b, back));
    EXPECT_EQ(reopened.stats().rejects, 1u);
    EXPECT_EQ(reopened.stats().hits, 0u);

    // The caller's natural next step (rebuild + store) wins cleanly.
    reopened.store(key_b, "payload of b");
    ASSERT_TRUE(reopened.load(key_b, back));
    EXPECT_EQ(back, "payload of b");
}

TEST(DiskCache, LruEvictionKeepsRecentBlobs)
{
    std::string dir = tempDir();
    serve::DiskArtifactCache cache(dir, 64);  // tiny payload budget
    const std::string payload(30, 'x');       // two fit, three don't

    cache.store("a", payload);
    cache.store("b", payload);
    std::string back;
    ASSERT_TRUE(cache.load("a", back));  // a is now MRU
    cache.store("c", payload);  // over budget: evict LRU == b

    EXPECT_TRUE(cache.load("a", back));
    EXPECT_FALSE(cache.load("b", back));
    EXPECT_TRUE(cache.load("c", back));
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, 64u);
}

TEST(DiskCache, FsckFindsTailCorruptionAndRepairSweepsIt)
{
    std::string dir = tempDir();
    serve::DiskArtifactCache cache(dir, 0);
    cache.store("fsck|good-1", "healthy payload one");
    cache.store("fsck|good-2", "healthy payload two");
    cache.store("fsck|victim", "this blob will rot");

    // Rot the victim's tail (CRC covers the payload, so this is the
    // bit-rot an fsck exists to find) and drop an orphan .tmp from a
    // "crashed mid-store" daemon.
    {
        std::fstream file(blobPath(dir, "fsck|victim"),
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(-1, std::ios::end);
        file.put('~');
    }
    {
        std::ofstream tmp(dir + "/deadbeef.tmp");
        tmp << "half-written";
    }

    // Audit-only pass: reports, removes nothing.
    serve::FsckReport audit = cache.fsck(false);
    EXPECT_EQ(audit.scanned, 3u);
    EXPECT_EQ(audit.intact, 2u);
    EXPECT_EQ(audit.corrupt, 1u);
    EXPECT_EQ(audit.removed, 0u);
    EXPECT_EQ(audit.tmpSwept, 0u);

    // Repair pass: the corrupt blob and the orphan .tmp are unlinked.
    serve::FsckReport repair = cache.fsck(true);
    EXPECT_EQ(repair.corrupt, 1u);
    EXPECT_EQ(repair.removed, 1u);
    EXPECT_EQ(repair.tmpSwept, 1u);

    std::string back;
    EXPECT_FALSE(cache.load("fsck|victim", back));
    EXPECT_TRUE(cache.load("fsck|good-1", back));
    EXPECT_TRUE(cache.load("fsck|good-2", back));
    // And a clean store is clean: nothing left to report.
    serve::FsckReport clean = cache.fsck(true);
    EXPECT_EQ(clean.scanned, 2u);
    EXPECT_EQ(clean.corrupt, 0u);
    EXPECT_EQ(clean.tmpSwept, 0u);
}

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

TEST(Wire, JobRoundTripsExactly)
{
    Job job = tinyJob(7, compress::Scheme::Dictionary);
    job.workload.hotTextFraction = 0.1 + 0.2;  // not representable exactly
    job.timeoutSeconds = 1.5;
    job.maxAttempts = 3;

    Json encoded = serve::encodeJob(job);
    // Through a dump/parse cycle, as on the socket.
    Json parsed;
    ASSERT_TRUE(Json::parse(encoded.dump(), &parsed));
    Job decoded;
    ASSERT_TRUE(serve::decodeJob(parsed, decoded));

    EXPECT_EQ(decoded.tag, job.tag);
    EXPECT_EQ(decoded.workload.hotTextFraction, job.workload.hotTextFraction);
    EXPECT_EQ(decoded.timeoutSeconds, job.timeoutSeconds);
    EXPECT_EQ(decoded.maxAttempts, job.maxAttempts);
    EXPECT_EQ(serve::jobContentKey(decoded), serve::jobContentKey(job));
}

TEST(Wire, ContentKeyIgnoresTagAndPolicy)
{
    Job a = tinyJob(1);
    Job b = a;
    b.tag = "different tag";
    b.timeoutSeconds = 99.0;
    b.maxAttempts = 7;
    EXPECT_EQ(serve::jobContentKey(a), serve::jobContentKey(b));

    Job c = a;
    c.workload.seed += 1;
    EXPECT_NE(serve::jobContentKey(a), serve::jobContentKey(c));
    Job d = a;
    d.config.scheme = compress::Scheme::Dictionary;
    EXPECT_NE(serve::jobContentKey(a), serve::jobContentKey(d));
}

TEST(Wire, JobResultRoundTripsThroughExecution)
{
    harness::ArtifactCache cache;
    JobResult result = harness::executeJob(tinyJob(3), cache, nullptr);
    ASSERT_TRUE(result.ok);

    Json parsed;
    ASSERT_TRUE(
        Json::parse(serve::encodeJobResult(result).dump(), &parsed));
    JobResult decoded;
    ASSERT_TRUE(serve::decodeJobResult(parsed, decoded));

    EXPECT_EQ(decoded.ok, result.ok);
    EXPECT_EQ(decoded.wallSeconds, result.wallSeconds);
    EXPECT_EQ(decoded.result.stats.cycles, result.result.stats.cycles);
    EXPECT_EQ(decoded.result.stats.userInsns,
              result.result.stats.userInsns);
    EXPECT_EQ(decoded.result.compressedPayloadBytes,
              result.result.compressedPayloadBytes);
}

TEST(Wire, SeedsAcrossTheFullUInt64RangeRoundTrip)
{
    for (uint64_t seed : {uint64_t{1} << 63, (uint64_t{1} << 63) + 12345,
                          std::numeric_limits<uint64_t>::max()}) {
        Job job = tinyJob(1);
        job.workload.seed = seed;
        job.config.fault.plans.push_back({seed, fault::Site::Stream, 1});
        Json parsed;
        ASSERT_TRUE(Json::parse(serve::encodeJob(job).dump(), &parsed));
        Job decoded;
        ASSERT_TRUE(serve::decodeJob(parsed, decoded)) << seed;
        EXPECT_EQ(decoded.workload.seed, seed);
        ASSERT_EQ(decoded.config.fault.plans.size(), 1u);
        EXPECT_EQ(decoded.config.fault.plans[0].seed, seed);
        EXPECT_EQ(serve::jobContentKey(decoded), serve::jobContentKey(job));
        std::string text;
        serve::appendWorkloadJson(text, job.workload);
        EXPECT_NE(text.find("\"seed\":" + std::to_string(seed) + ","),
                  std::string::npos);
    }
    // Below 2^63 the bytes are the int64 ones they always were.
    workload::WorkloadSpec spec = workload::tinySpec(5);
    spec.seed = 9223372036854775807ull;
    std::string text;
    serve::appendWorkloadJson(text, spec);
    EXPECT_NE(text.find("\"seed\":9223372036854775807,"),
              std::string::npos);
}

TEST(Wire, NegativeIntegersAreRejectedNotWrapped)
{
    Json workload = jsonBuiltWorkload(workload::tinySpec(5));
    workload.set("seed", int64_t{-1});
    workload::WorkloadSpec spec;
    EXPECT_FALSE(serve::decodeWorkload(workload, spec));
    workload.set("seed", 2.5);
    EXPECT_FALSE(serve::decodeWorkload(workload, spec));
    workload.set("seed", uint64_t{7});
    ASSERT_TRUE(serve::decodeWorkload(workload, spec));
    EXPECT_EQ(spec.seed, 7u);
}

// ---------------------------------------------------------------------
// Encode once: bytes derived from a job's or row's single encoding
// ---------------------------------------------------------------------

namespace {

std::string
hex64(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

TEST(EncodeOnce, MatrixKeysIdsAndSweepBeginMatchTheJsonBuiltBytes)
{
    std::vector<Job> jobs =
        harness::buildMatrixJobs(harness::MatrixAxes::defaults());
    ASSERT_EQ(jobs.size(), 576u);
    std::vector<std::string> dumps;
    Json encoded = Json::array();
    std::string keys;
    for (const Job &job : jobs) {
        dumps.push_back(serve::encodeJob(job).dump());
        encoded.push(serve::encodeJob(job));
        std::string key = serve::jobContentKeyFromDump(dumps.back());
        ASSERT_EQ(key, jsonBuiltKey(job)) << job.tag;
        ASSERT_EQ(key, serve::jobContentKey(job)) << job.tag;
        keys += key + "\n";
    }
    // The sweep id: the canonical string hashed the way it always was.
    std::string canon = "matrix";
    for (size_t i = 0; i < encoded.size(); ++i)
        canon += "\n" + encoded.at(i).dump();
    const std::string id = serve::sweepContentId("matrix", dumps);
    EXPECT_EQ(id, hex64(harness::stableHash64(canon)));
    EXPECT_EQ(id, serve::sweepContentId("matrix", encoded));

    Json begin = Json::object();
    begin.set("id", id);
    begin.set("label", "matrix");
    begin.set("priority", int64_t(0));
    begin.set("jobs", encoded);
    const std::string payload =
        serve::sweepBeginPayload(id, "matrix", 0, dumps);
    EXPECT_EQ(payload, begin.dump());

    // The values a build before the single-encoding daemon computed
    // for this matrix: its disk result index and its journals still
    // hit.
    EXPECT_EQ(hex64(harness::stableHash64(keys)), "e16c4f8f49a487e1");
    EXPECT_EQ(id, "f654153d88f23f24");
    EXPECT_EQ(hex64(harness::stableHash64(payload)), "c5df78c39cc53354");
    EXPECT_EQ(payload.size(), 666328u);
}

TEST(EncodeOnce, KeySlicingSurvivesHostileTagsAndLabels)
{
    Job job = tinyJob(3, compress::Scheme::Dictionary);
    for (const char *tag :
         {"", ",\"workload\":{}", "a\\\",\"timeout\":1,\"x\":\"",
          "\\", "\"", "tab\tnew\nline", ",\"config\":,\"timeout\":"}) {
        job.tag = tag;
        std::string dump = serve::encodeJob(job).dump();
        EXPECT_EQ(serve::jobContentKeyFromDump(dump), jsonBuiltKey(job))
            << tag;
        Json encoded = Json::array();
        encoded.push(serve::encodeJob(job));
        Json begin = Json::object();
        begin.set("id", "0123456789abcdef");
        begin.set("label", tag);
        begin.set("priority", int64_t(-3));
        begin.set("jobs", encoded);
        EXPECT_EQ(serve::sweepBeginPayload("0123456789abcdef", tag, -3,
                                           {dump}),
                  begin.dump());
    }
    Json empty = Json::object();
    empty.set("id", "id");
    empty.set("label", "l");
    empty.set("priority", int64_t(0));
    empty.set("jobs", Json::array());
    EXPECT_EQ(serve::sweepBeginPayload("id", "l", 0, {}), empty.dump());
}

TEST(EncodeOnce, RowRecordsAndStreamLinesMatchTheJsonBuiltBytes)
{
    harness::ArtifactCache cache;
    JobResult result = harness::executeJob(tinyJob(3), cache, nullptr);
    ASSERT_TRUE(result.ok);
    result.result.faultReports.push_back(
        {{uint64_t{1} << 63, fault::Site::Stream, 2},
         {{"text", 12, 0x10, 0}}});
    const std::string row = serve::encodeJobResult(result).dump();
    for (bool cached : {false, true}) {
        Json done = Json::object();
        done.set("id", "f654153d88f23f24");
        done.set("index", uint64_t(575));
        done.set("cached", cached);
        done.set("result", serve::encodeJobResult(result));
        EXPECT_EQ(serve::jobDonePayload("f654153d88f23f24", 575, cached,
                                        row),
                  done.dump());

        Json line = serve::okReply();
        line.set("job", uint64_t(575));
        line.set("cached", cached);
        line.set("result", serve::encodeJobResult(result));
        EXPECT_EQ(serve::resultRowLine(575, cached, row), line.dump());
    }
}

// ---------------------------------------------------------------------
// LineChannel framing
// ---------------------------------------------------------------------

namespace {

/** A connected socketpair: [0] for a LineChannel, [1] for raw writes. */
struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~SocketPair()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
    SocketPair(const SocketPair &) = delete;
    SocketPair &operator=(const SocketPair &) = delete;

    /** Write @p bytes in @p chunk-sized pieces, then close the writer
     *  end; on its own thread, so the reader drains concurrently. */
    std::thread writeInChunks(std::string bytes, size_t chunk)
    {
        int fd = fds[1];
        fds[1] = -1;
        return std::thread([fd, bytes = std::move(bytes), chunk] {
            for (size_t sent = 0; sent < bytes.size();) {
                ssize_t n = ::write(fd, bytes.data() + sent,
                                    std::min(chunk, bytes.size() - sent));
                if (n <= 0)
                    break;
                sent += static_cast<size_t>(n);
            }
            ::close(fd);
        });
    }
};

} // namespace

TEST(LineChannel, MultiMiBLineInSmallWritesReadsIntact)
{
    // A 3 MiB line in 1000-byte writes, a CRLF line, and a short one.
    std::string big(3u << 20, '\0');
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 26);
    SocketPair pair;
    serve::LineChannel channel(pair.fds[0]);
    std::thread writer =
        pair.writeInChunks(big + "\n{\"x\":1}\r\nlast\n", 1000);
    std::string line;
    ASSERT_TRUE(channel.readLine(line));
    EXPECT_EQ(line.size(), big.size());
    EXPECT_TRUE(line == big);
    ASSERT_TRUE(channel.readLine(line));
    EXPECT_EQ(line, "{\"x\":1}");
    ASSERT_TRUE(channel.readLine(line));
    EXPECT_EQ(line, "last");
    EXPECT_FALSE(channel.readLine(line));  // EOF
    EXPECT_FALSE(channel.lineTooLong());
    writer.join();
}

TEST(LineChannel, LineTooLongTripsExactlyPastTheBound)
{
    const size_t bound = 100000;
    {
        // Exactly at the bound, twice in a row: both read.
        SocketPair pair;
        serve::LineChannel channel(pair.fds[0], bound);
        std::string at(bound, 'y');
        std::thread writer = pair.writeInChunks(at + "\n" + at + "\n", 777);
        std::string line;
        ASSERT_TRUE(channel.readLine(line));
        EXPECT_EQ(line.size(), bound);
        ASSERT_TRUE(channel.readLine(line));
        EXPECT_EQ(line.size(), bound);
        EXPECT_FALSE(channel.lineTooLong());
        writer.join();
    }
    {
        // One byte past it, terminated: trips.
        SocketPair pair;
        serve::LineChannel channel(pair.fds[0], bound);
        std::thread writer = pair.writeInChunks(
            "ok\n" + std::string(bound + 1, 'z') + "\n", 4096);
        std::string line;
        ASSERT_TRUE(channel.readLine(line));
        EXPECT_EQ(line, "ok");
        EXPECT_FALSE(channel.readLine(line));
        EXPECT_TRUE(channel.lineTooLong());
        writer.join();
    }
    {
        // Past it and never terminated: trips without waiting for EOF
        // (the writer keeps its end open until the reader gives up).
        SocketPair pair;
        serve::LineChannel channel(pair.fds[0], bound);
        std::string unterminated(bound + 1, 'w');
        ASSERT_EQ(::write(pair.fds[1], unterminated.data(),
                          unterminated.size()),
                  static_cast<ssize_t>(unterminated.size()));
        std::string line;
        EXPECT_FALSE(channel.readLine(line));
        EXPECT_TRUE(channel.lineTooLong());
    }
}

// ---------------------------------------------------------------------
// The daemon over a real socket
// ---------------------------------------------------------------------

namespace {

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = tempDir();
        config_.socketPath = dir_ + "/daemon.sock";
        config_.cacheDir = dir_ + "/cache";
        config_.workers = 2;
        startServer();
    }

    void startServer()
    {
        server_ = std::make_unique<serve::Server>(config_);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
    }

    serve::Client connectedClient()
    {
        serve::Client client;
        std::string error;
        EXPECT_TRUE(client.connect(config_.socketPath, error)) << error;
        return client;
    }

    /** Submit + fetch, asserting transport success. */
    std::vector<JobResult>
    runRemote(serve::Client &client, const std::vector<Job> &jobs,
              uint64_t *cached_rows = nullptr)
    {
        std::string error;
        std::string sweep_id;
        uint64_t cached = 0;
        EXPECT_TRUE(client.submit("test", jobs, sweep_id, cached, error))
            << error;
        std::vector<JobResult> results(jobs.size());
        EXPECT_TRUE(client.fetchResults(sweep_id, results, cached_rows,
                                        error))
            << error;
        return results;
    }

    std::string dir_;
    serve::ServerConfig config_;
    std::unique_ptr<serve::Server> server_;
};

} // namespace

TEST_F(ServeTest, SweepMatchesLocalExecutionRowForRow)
{
    std::vector<Job> jobs = {tinyJob(1), tinyJob(2),
                             tinyJob(1, compress::Scheme::Dictionary)};

    harness::ArtifactCache local;
    std::vector<JobResult> expected;
    for (const Job &job : jobs)
        expected.push_back(harness::executeJob(job, local, nullptr));

    serve::Client client = connectedClient();
    std::vector<JobResult> remote = runRemote(client, jobs);

    ASSERT_EQ(remote.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(remote[i].ok) << remote[i].error;
        EXPECT_EQ(remote[i].result.stats.cycles,
                  expected[i].result.stats.cycles)
            << "job " << i;
        EXPECT_EQ(remote[i].result.stats.userInsns,
                  expected[i].result.stats.userInsns)
            << "job " << i;
        EXPECT_EQ(remote[i].result.compressedPayloadBytes,
                  expected[i].result.compressedPayloadBytes)
            << "job " << i;
    }
}

TEST_F(ServeTest, ResubmitIsAnsweredFromTheResultIndex)
{
    std::vector<Job> jobs = {tinyJob(10), tinyJob(11)};
    serve::Client client = connectedClient();

    uint64_t cached = 0;
    std::vector<JobResult> first = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, 0u);

    std::vector<JobResult> second = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, jobs.size());
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].result.stats.cycles,
                  first[i].result.stats.cycles);
    }
}

TEST_F(ServeTest, RestartedDaemonServesResultsFromDisk)
{
    std::vector<Job> jobs = {tinyJob(20), tinyJob(21)};
    {
        serve::Client client = connectedClient();
        runRemote(client, jobs);
    }

    // Cold process, warm directory.
    server_.reset();
    startServer();

    serve::Client client = connectedClient();
    uint64_t cached = 0;
    std::vector<JobResult> again = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, jobs.size());
    for (const JobResult &row : again)
        EXPECT_TRUE(row.ok) << row.error;
    EXPECT_GT(server_->diskCache()->stats().hits, 0u);
}

TEST_F(ServeTest, PoisonedJobFailsStructurallyAmongHealthySiblings)
{
    std::vector<Job> jobs = {tinyJob(30), tinyJob(31), tinyJob(32)};
    jobs[1].workload.hotProcs = 0;  // the generator rejects this

    serve::Client client = connectedClient();
    std::vector<JobResult> rows = runRemote(client, jobs);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_TRUE(rows[0].ok) << rows[0].error;
    EXPECT_FALSE(rows[1].ok);
    EXPECT_FALSE(rows[1].error.empty());
    EXPECT_TRUE(rows[2].ok) << rows[2].error;

    // Failed rows are never indexed: the poisoned job re-runs (and
    // fails again) on resubmit while its siblings are index hits.
    uint64_t cached = 0;
    rows = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, 2u);
    EXPECT_FALSE(rows[1].ok);
}

TEST_F(ServeTest, ConcurrentClientsIsolatePoisonedAndHungJobs)
{
    // Client A's sweep carries a poisoned job (generator rejects) and a
    // hung one (big workload, tiny watchdog timeout); client B runs a
    // healthy sweep at the same time over the same worker pool. B must
    // complete normally while A gets structured failure rows for
    // exactly the bad jobs.
    std::vector<Job> bad = {tinyJob(50), tinyJob(51), tinyJob(52)};
    bad[0].workload.hotProcs = 0;
    bad[1].workload.targetDynamicInsns = 500'000'000;
    bad[1].timeoutSeconds = 0.05;
    std::vector<Job> good = {tinyJob(60), tinyJob(61)};

    std::vector<JobResult> bad_rows, good_rows;
    std::thread a([&] {
        serve::Client client = connectedClient();
        bad_rows = runRemote(client, bad);
    });
    std::thread b([&] {
        serve::Client client = connectedClient();
        good_rows = runRemote(client, good);
    });
    a.join();
    b.join();

    ASSERT_EQ(bad_rows.size(), 3u);
    EXPECT_FALSE(bad_rows[0].ok);
    EXPECT_FALSE(bad_rows[0].error.empty());
    EXPECT_FALSE(bad_rows[1].ok);
    EXPECT_TRUE(bad_rows[1].timedOut);
    EXPECT_TRUE(bad_rows[2].ok) << bad_rows[2].error;

    ASSERT_EQ(good_rows.size(), 2u);
    for (const JobResult &row : good_rows)
        EXPECT_TRUE(row.ok) << row.error;
}

TEST_F(ServeTest, ProtocolErrorsKeepTheConnectionUsable)
{
    serve::Client client = connectedClient();
    std::string error;
    harness::Json reply;

    // Unknown op.
    harness::Json bad = harness::Json::object();
    bad.set("op", "frobnicate");
    ASSERT_TRUE(client.call(bad, reply, error)) << error;
    EXPECT_FALSE(reply.get("ok").asBool());

    // Malformed line (not even JSON).
    ASSERT_TRUE(client.channel()->writeLine("this is not json"));
    ASSERT_TRUE(client.channel()->readJson(reply, error)) << error;
    EXPECT_FALSE(reply.get("ok").asBool());

    // Status of a sweep that never existed.
    harness::Json status = harness::Json::object();
    status.set("op", "status");
    status.set("sweep_id", uint64_t{999});
    ASSERT_TRUE(client.call(status, reply, error)) << error;
    EXPECT_FALSE(reply.get("ok").asBool());

    // The same connection still works for real traffic.
    EXPECT_TRUE(client.ping(error)) << error;
}

TEST_F(ServeTest, StatsReportServiceMetricsAndDiskCounters)
{
    serve::Client client = connectedClient();
    std::vector<Job> jobs = {tinyJob(40)};
    runRemote(client, jobs);

    std::string error;
    harness::Json request = harness::Json::object();
    request.set("op", "stats");
    harness::Json reply;
    ASSERT_TRUE(client.call(request, reply, error)) << error;
    ASSERT_TRUE(reply.get("ok").asBool());

    EXPECT_GE(reply.get("jobs_done").asInt(), 1);
    EXPECT_EQ(reply.get("sweeps_submitted").asInt(), 1);
    EXPECT_GE(reply.get("jobs_per_second").asDouble(), 0.0);
    // The registry JSON carries the gauges the daemon maintains.
    const harness::Json &metrics = reply.get("metrics");
    ASSERT_NE(metrics.find("gauges"), nullptr);
    ASSERT_NE(metrics.get("gauges").find("connections"), nullptr);
    // Disk store wired in and active.
    ASSERT_NE(reply.find("disk_cache"), nullptr);
    EXPECT_GE(reply.get("disk_cache").get("stores").asInt(), 1);
}

TEST_F(ServeTest, ShutdownOpStopsTheDaemonCleanly)
{
    serve::Client client = connectedClient();
    std::string error;
    ASSERT_TRUE(client.shutdown(error)) << error;
    EXPECT_TRUE(
        server_->waitForShutdownFor(std::chrono::milliseconds(5000)));
    server_.reset();

    // The socket is gone: a fresh connect fails.
    serve::Client refused;
    EXPECT_FALSE(refused.connect(config_.socketPath, error));
}
