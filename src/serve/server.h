/**
 * @file
 * The rtdc_serve daemon core (DESIGN.md section 14).
 *
 * A Server owns four long-lived things:
 *
 *  - the listening unix socket and one thread per accepted connection
 *    (the protocol is synchronous per connection; concurrency comes
 *    from many connections),
 *  - the execution engine: a bounded, prioritized JobQueue drained by
 *    one dispatcher thread per execution slot. With
 *    workerProcesses == 0 each dispatcher runs jobs in-process through
 *    harness::executeJob (the batch SweepRunner's path, crash traps
 *    and watchdogs included); with workerProcesses > 0 each dispatcher
 *    owns one forked WorkerFleet slot and ships jobs to it over a
 *    socketpair (DESIGN.md section 16 — full process isolation, jobs
 *    retried across worker crashes),
 *  - one harness::ArtifactCache backed (optionally) by a
 *    DiskArtifactCache, so programs and built images persist across
 *    jobs, sweeps, clients, and daemon restarts — and, in fleet mode,
 *    the same disk directory is shared by every worker process,
 *  - the incremental result index: finished ok rows keyed by
 *    wire::jobContentKey, held in memory as their encoded bytes and
 *    persisted through the same disk store under a "result|" prefix.
 *    A resubmitted sweep re-runs only jobs whose content key has no
 *    indexed row; everything else streams back immediately.
 *
 * Failure containment: a job that panics or hangs becomes a structured
 * failure row (ok=false) in its sweep — the worker pool, the other
 * sweeps, and every connection keep going. Failed rows are never
 * indexed, so a poisoned job re-runs on resubmit instead of caching its
 * failure.
 *
 * Encode once (DESIGN.md section 14): each submitted job is encoded
 * and dumped once, and its content key, the sweep id and the
 * SweepBegin record all derive from those bytes; each row is encoded
 * once and spliced into the stream, the journal and the index.
 *
 * Determinism: results stream strictly in submission order and carry
 * the exact values executeJob produced, so a client rendering a
 * registered sweep through RemoteExecutor produces byte-identical
 * tables and BENCH JSON to the local batch run — with or without the
 * worker fleet (jobs are pure functions of their value, so where they
 * execute cannot change the rows).
 *
 * Backpressure: the queue has a high-water mark; a submit whose
 * uncached jobs would cross it is rejected whole with a structured
 * "backpressure" error (queue depth + mark included) so clients back
 * off instead of ballooning daemon memory. Submits carry an optional
 * priority — interactive probes (rtdc_explore) overtake bulk matrix
 * sweeps without starving them (equal priority stays strictly FIFO).
 *
 * Durability (DESIGN.md section 17): with a cacheDir, submissions and
 * completions are write-ahead journaled (journal.h) and replayed at
 * start() against the disk result index — a daemon killed -9 mid-sweep
 * re-enqueues exactly the unfinished jobs and finishes the sweep after
 * restart, with zero lost and zero duplicated rows. Sweep ids are
 * content-derived (wire::sweepContentId), making submits idempotent:
 * a resuming client re-submits and attaches to the live sweep. A
 * `<socket>.lock` fcntl lock keeps two daemons off one socket while
 * letting a crashed daemon's successor start immediately.
 */

#ifndef RTDC_SERVE_SERVER_H
#define RTDC_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/job_queue.h"
#include "obs/metrics.h"
#include "serve/disk_cache.h"
#include "serve/journal.h"
#include "serve/proto.h"
#include "serve/worker.h"

namespace rtd::serve {

/** Daemon configuration. */
struct ServerConfig
{
    std::string socketPath;
    /** Disk store directory; empty = memory-only (no warm restarts). */
    std::string cacheDir;
    /** Disk store payload bound (0 = unbounded). */
    uint64_t cacheMaxBytes = 512ull << 20;
    /**
     * Simulation worker threads (in-process execution); 0 = one per
     * hardware thread. Ignored when workerProcesses > 0.
     */
    unsigned workers = 0;
    /**
     * Forked worker processes (DESIGN.md section 16); 0 = run jobs
     * in-process on `workers` threads. With N > 0 the daemon forks N
     * single-threaded children at start() and every job executes in
     * one of them — full crash isolation, jobs retried across worker
     * deaths.
     */
    unsigned workerProcesses = 0;
    /**
     * Queue high-water mark: a submit whose uncached jobs would push
     * the queue past this many entries is rejected with a structured
     * "backpressure" error. 0 = unbounded.
     */
    size_t queueHighWater = 100000;
    /**
     * Write-ahead journal (journal.h): submissions and completions are
     * logged to `<cacheDir>/journal.rtdj` and replayed at start(), so
     * a daemon killed -9 mid-sweep finishes the sweep after restart.
     * Requires cacheDir (a memory-only daemon has nothing durable to
     * recover against); set false to disable.
     */
    bool journal = true;
    /** Journal fsync policy: "none" | "always" | "every=N". */
    std::string journalFsync = "none";
    /** Compact the journal when it crosses this many bytes. */
    uint64_t journalCompactBytes = 16ull << 20;
    /** Per-connection request line bound (anti-OOM; see proto.h). */
    size_t maxLineBytes = LineChannel::kDefaultMaxLine;
};

/** One sweep daemon instance. Thread-safe; one per process normally. */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the accept + worker machinery. */
    bool start(std::string &error);

    /** Block until a client's shutdown op (or stop()). */
    void waitForShutdown();

    /**
     * waitForShutdown with a timeout, for mains that also poll a signal
     * flag. True when shutdown was requested within @p timeout.
     */
    bool waitForShutdownFor(std::chrono::milliseconds timeout);

    /**
     * Stop serving: close the listening socket, unblock and join every
     * connection thread, cancel in-flight jobs, and drain the pool.
     * Idempotent; also run by the destructor.
     */
    void stop();

    const ServerConfig &config() const { return config_; }

    /// @name Test hooks
    /// @{
    harness::ArtifactCache &artifacts() { return artifacts_; }
    DiskArtifactCache *diskCache() { return diskCache_.get(); }
    WorkerFleet *fleet() { return fleet_.get(); }
    /// @}

  private:
    /** One submitted job and its (eventual) result row. */
    struct SweepJob
    {
        harness::Job job;
        std::string key;  ///< wire::jobContentKey(job)
        /** External-cancel token handed to executeJob's watchdog. */
        std::shared_ptr<std::atomic<bool>> cancel;
        bool done = false;
        bool fromCache = false;  ///< answered by the result index
        /** The row as encodeJobResult(row).dump(), encoded once when
         *  the row is produced or revived and shared with the result
         *  index; streamed and journaled as these bytes. */
        std::shared_ptr<const std::string> row;
    };

    /** One submitted sweep. Guarded by Server::sweepMutex_. */
    struct Sweep
    {
        /** Content-derived id (wire::sweepContentId). */
        std::string id;
        std::string label;
        int priority = 0;
        std::vector<SweepJob> jobs;
        size_t completed = 0;
        size_t cached = 0;
        size_t failed = 0;
        bool cancelled = false;
        /** The SweepBegin payload, for compaction snapshots; released
         *  once every job is done (snapshots skip finished sweeps). */
        std::string beginPayload;
    };

    /** One queued unit of work: sweep job @p index of @p sweep. */
    struct QueuedJob
    {
        std::shared_ptr<Sweep> sweep;
        size_t index = 0;
    };

    void acceptLoop();
    void serveConnection(int fd);
    /** Dispatcher thread body: drain the queue into slot @p slot. */
    void dispatchLoop(unsigned slot);

    /// @name Op handlers (reply is what goes back on the wire)
    /// @{
    harness::Json handleSubmit(const harness::Json &request);
    harness::Json handleStatus(const harness::Json &request);
    harness::Json handleCancel(const harness::Json &request);
    harness::Json handleStats();
    /** Streams rows itself; returns false when the peer went away. */
    bool handleResults(const harness::Json &request,
                       LineChannel &channel);
    /// @}

    /**
     * Decode the wire @p jobs into @p sweep's entries, encoding and
     * dumping each decoded job once into @p dumps: the content keys
     * here, and the sweep id and SweepBegin payload at the caller,
     * come from those bytes. False with @p bad set on a malformed job.
     */
    static bool decodeSweepJobs(const harness::Json &jobs, Sweep &sweep,
                                std::vector<std::string> &dumps,
                                size_t &bad);

    /** Run sweep job @p index on slot @p slot and publish its row. */
    void runSweepJob(const std::shared_ptr<Sweep> &sweep, size_t index,
                     unsigned slot);

    /// @name Durability (journal.h; see DESIGN.md section 17)
    /// @{
    /** Take the fcntl lock beside the socket; false = live daemon. */
    bool acquireSocketLock(std::string &error);
    void releaseSocketLock();
    /** Replay the journal into sweeps_, resolve replayed-but-unlogged
     *  rows from the result index, and force-requeue the remainder.
     *  Runs single-threaded, between journal open and thread start. */
    bool recoverFromJournal(std::string &error);
    /** Append a record (no-ops when the journal is off/broken). */
    void journalSweepBegin(const std::string &payload);
    void journalJobDone(const Sweep &sweep, size_t index);
    void journalSweepCancel(const std::string &id);
    /** Rewrite the journal to the live-sweep snapshot when it crossed
     *  the size threshold (@p force skips the threshold check). */
    void maybeCompactJournal(bool force);
    /** The compaction snapshot; takes sweepMutex_ (callers hold
     *  journalMutex_ — that nesting order is the lock hierarchy). */
    std::vector<JournalRecord> snapshotJournalRecords();
    /// @}

    /**
     * Result-index lookup for @p key: memory first, then the disk
     * store ("result|" prefix). The row's encoded bytes, or null when
     * no valid ok row is indexed.
     */
    std::shared_ptr<const std::string> lookupResult(const std::string &key);
    /** Index an ok row's encoded bytes under @p key (memory + disk). */
    void indexResult(const std::string &key,
                     const std::shared_ptr<const std::string> &row);

    ServerConfig config_;
    std::unique_ptr<DiskArtifactCache> diskCache_;
    harness::ArtifactCache artifacts_;
    /** Forked execution fleet (fleet mode only). */
    std::unique_ptr<WorkerFleet> fleet_;
    /** Pending jobs, drained by the dispatchers. Constructed with the
     *  config high-water mark; closed by stop(). */
    harness::JobQueue<QueuedJob> queue_;
    std::vector<std::thread> dispatchThreads_;
    /** Per-slot completed-job counters for in-process mode (fleet mode
     *  reads WorkerFleet::stats() instead). Guarded by metricsMutex_. */
    std::vector<uint64_t> slotJobs_;

    /** Listening socket; stop() exchanges it to -1 while acceptLoop
     *  reads it, hence atomic. */
    std::atomic<int> listenFd_{-1};
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};

    std::mutex connMutex_;
    std::vector<std::thread> connThreads_;
    std::vector<int> connFds_;  ///< open fds, for shutdown() on stop

    /** Guards sweeps_ and every Sweep it owns; cv signals row
     *  completion to streaming `results` handlers. */
    std::mutex sweepMutex_;
    std::condition_variable sweepCv_;
    std::map<std::string, std::shared_ptr<Sweep>> sweeps_;

    /** The write-ahead journal and its serialization. Lock order:
     *  journalMutex_ strictly before sweepMutex_ (compaction snapshots
     *  sweep state under both); never append while holding
     *  sweepMutex_. */
    std::mutex journalMutex_;
    Journal journal_;
    /** Journal size right after the last compaction, to keep repeated
     *  above-threshold compactions from going quadratic. */
    uint64_t journalCompactFloor_ = 0;
    /** `<socketPath>.lock` fd; holds the fcntl record lock that makes
     *  a second daemon on the same socket refuse to start. fcntl (not
     *  flock) deliberately: record locks are per-process and are NOT
     *  inherited across fork, so a dead daemon's lingering worker
     *  children can never hold the next daemon out. */
    int socketLockFd_ = -1;
    /// @name Recovery accounting (set once in start(), read by stats)
    /// @{
    uint64_t recoveredSweeps_ = 0;
    uint64_t replayedRecords_ = 0;
    uint64_t requeuedJobs_ = 0;
    /// @}

    std::mutex indexMutex_;
    std::unordered_map<std::string, std::shared_ptr<const std::string>>
        resultIndex_;

    /** Shutdown-op latch for waitForShutdown(). */
    std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;

    /** Service metrics (obs::MetricsRegistry is single-threaded by
     *  design; the daemon guards it with metricsMutex_). */
    std::mutex metricsMutex_;
    obs::MetricsRegistry metrics_;
    obs::Counter *jobsDone_ = nullptr;
    obs::Counter *jobsFailed_ = nullptr;
    obs::Counter *jobsCached_ = nullptr;
    obs::Counter *sweepsSubmitted_ = nullptr;
    obs::Counter *requests_ = nullptr;
    obs::Gauge *queueDepth_ = nullptr;
    obs::Gauge *runningJobs_ = nullptr;
    obs::Gauge *connections_ = nullptr;
    obs::Log2Histogram *jobWallMs_ = nullptr;
    /** start() time, for the jobs/sec rate in `stats`. */
    std::chrono::steady_clock::time_point started_;
};

} // namespace rtd::serve

#endif // RTDC_SERVE_SERVER_H
