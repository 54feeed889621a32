#include "serve/server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "harness/runner.h"
#include "harness/thread_pool.h"
#include "serve/wire.h"
#include "support/logging.h"

namespace rtd::serve {

namespace {

/** Disk-store namespace prefix of the result index. Artifact keys
 *  ("workload|...", "image|...") and result rows share one store; the
 *  prefix keeps the two key spaces disjoint by construction. */
const char kResultPrefix[] = "result|";

/** Journal file name under the cache directory. */
const char kJournalName[] = "journal.rtdj";

} // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), queue_(config_.queueHighWater)
{
    if (!config_.cacheDir.empty()) {
        diskCache_ = std::make_unique<DiskArtifactCache>(
            config_.cacheDir, config_.cacheMaxBytes);
        artifacts_.setStore(diskCache_.get());
    }
    jobsDone_ = metrics_.counter("jobs_done");
    jobsFailed_ = metrics_.counter("jobs_failed");
    jobsCached_ = metrics_.counter("jobs_cached");
    sweepsSubmitted_ = metrics_.counter("sweeps_submitted");
    requests_ = metrics_.counter("requests");
    queueDepth_ = metrics_.gauge("queue_depth");
    runningJobs_ = metrics_.gauge("running_jobs");
    connections_ = metrics_.gauge("connections");
    jobWallMs_ = metrics_.histogram("job_wall_ms");
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &error)
{
    // Socket hygiene first: hold `<socket>.lock` before touching the
    // socket path. A live daemon makes this fail fast; a crashed one
    // left only a stale socket file, which listenUnix() (safely, now
    // that we hold the lock) unlinks.
    if (!acquireSocketLock(error))
        return false;
    // Fleet next: workers must fork from a process that has not
    // created its accept/dispatch threads yet (see worker.h). One
    // dispatcher per execution slot either way.
    unsigned slots;
    if (config_.workerProcesses > 0) {
        WorkerFleet::Config fleet_config;
        fleet_config.count = config_.workerProcesses;
        fleet_config.cacheDir = config_.cacheDir;
        fleet_config.cacheMaxBytes = config_.cacheMaxBytes;
        fleet_ = std::make_unique<WorkerFleet>(fleet_config);
        if (!fleet_->start(error)) {
            fleet_.reset();
            releaseSocketLock();
            return false;
        }
        slots = config_.workerProcesses;
    } else {
        slots = config_.workers
                    ? config_.workers
                    : harness::ThreadPool::defaultThreadCount();
    }
    // Journal replay, still single-threaded: rebuild the sweeps a
    // killed predecessor left unfinished and queue their pending jobs.
    // The dispatchers started below drain them exactly like fresh
    // submissions.
    if (config_.journal && !config_.cacheDir.empty()) {
        JournalFsyncPolicy policy;
        if (!JournalFsyncPolicy::parse(config_.journalFsync, policy)) {
            error = "bad journal fsync policy: " + config_.journalFsync;
        } else if (journal_.open(config_.cacheDir + "/" + kJournalName,
                                 policy, error)) {
            if (!recoverFromJournal(error))
                journal_.close();  // degrade: serve without a journal
        }
        if (!error.empty())
            std::fprintf(stderr, "rtdc_serve: journal disabled: %s\n",
                         error.c_str());
        error.clear();
    }
    int fd = listenUnix(config_.socketPath, error);
    if (fd < 0) {
        if (fleet_) {
            fleet_->stop();
            fleet_.reset();
        }
        journal_.close();
        releaseSocketLock();
        return false;
    }
    listenFd_.store(fd);
    started_ = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        slotJobs_.assign(slots, 0);
    }
    for (unsigned i = 0; i < slots; ++i)
        dispatchThreads_.emplace_back([this, i] { dispatchLoop(i); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::dispatchLoop(unsigned slot)
{
    QueuedJob item;
    while (queue_.pop(item))
        runSweepJob(item.sweep, item.index, slot);
}

void
Server::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
}

bool
Server::waitForShutdownFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    if (!shutdownCv_.wait_for(lock, timeout,
                              [this] { return shutdownRequested_; }))
        return false;
    lock.unlock();
    stop();
    return true;
}

void
Server::stop()
{
    bool was_stopping = stopping_.exchange(true);
    if (!was_stopping) {
        // Unblock waitForShutdown() callers.
        {
            std::lock_guard<std::mutex> lock(shutdownMutex_);
            shutdownRequested_ = true;
        }
        shutdownCv_.notify_all();
        // Close the listener: accept() fails and the accept loop exits.
        int listen_fd = listenFd_.exchange(-1);
        if (listen_fd >= 0) {
            ::shutdown(listen_fd, SHUT_RDWR);
            ::close(listen_fd);
        }
        // Kick every connection out of its blocking read.
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            for (int fd : connFds_)
                ::shutdown(fd, SHUT_RDWR);
        }
        // Cancel in-flight jobs so the dispatchers finish their current
        // job quickly, and close the queue: still-queued jobs are
        // discarded and stay not-done, which is fine — with every
        // connection gone nobody is waiting on their rows.
        {
            std::lock_guard<std::mutex> lock(sweepMutex_);
            for (auto &[id, sweep] : sweeps_) {
                sweep->cancelled = true;
                for (SweepJob &job : sweep->jobs)
                    job.cancel->store(true, std::memory_order_relaxed);
            }
        }
        queue_.close();
        sweepCv_.notify_all();
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Joining under connMutex_ would deadlock with a connection thread
    // trying to deregister itself; swap the list out instead.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        threads.swap(connThreads_);
    }
    for (std::thread &thread : threads)
        thread.join();
    for (std::thread &thread : dispatchThreads_)
        thread.join();
    dispatchThreads_.clear();
    // Only after the dispatchers are gone is it safe to tear the fleet
    // down — nobody is mid-conversation with a worker anymore.
    if (fleet_) {
        fleet_->stop();
        fleet_.reset();
    }
    if (!was_stopping) {
        // Clean shutdown: every sweep above was cancelled, so the
        // compaction snapshot is empty and the journal collapses to
        // zero records — a clean stop leaves nothing to recover.
        {
            std::lock_guard<std::mutex> lock(journalMutex_);
            if (journal_.isOpen()) {
                journal_.compact(snapshotJournalRecords());
                journal_.close();
            }
        }
        ::unlink(config_.socketPath.c_str());
        releaseSocketLock();
    }
}

void
Server::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        int listen_fd = listenFd_.load();
        if (listen_fd < 0)
            break;
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                break;
            if (errno == EINTR)
                continue;
            break;  // listener broken; daemon keeps running jobs
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            break;
        }
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
Server::serveConnection(int fd)
{
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        connections_->add(1);
    }
    {
        LineChannel channel(fd, config_.maxLineBytes);
        std::string line;
        while (!stopping_.load(std::memory_order_relaxed) &&
               channel.readLine(line)) {
            harness::Json request;
            std::string parse_error;
            if (!harness::Json::parse(line, &request, &parse_error)) {
                // Malformed line: reply and keep the connection — one
                // bad request must not kill a client's other traffic.
                if (!channel.writeJson(errorReply("parse error: " +
                                                  parse_error)))
                    break;
                continue;
            }
            const harness::Json *op = request.find("op");
            if (!op || op->kind() != harness::Json::Kind::String) {
                if (!channel.writeJson(errorReply("missing op")))
                    break;
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(metricsMutex_);
                requests_->add(1);
            }
            const std::string &name = op->asString();
            bool alive = true;
            if (name == "ping") {
                alive = channel.writeJson(okReply());
            } else if (name == "submit") {
                alive = channel.writeJson(handleSubmit(request));
            } else if (name == "status") {
                alive = channel.writeJson(handleStatus(request));
            } else if (name == "results") {
                alive = handleResults(request, channel);
            } else if (name == "cancel") {
                alive = channel.writeJson(handleCancel(request));
            } else if (name == "stats") {
                alive = channel.writeJson(handleStats());
            } else if (name == "shutdown") {
                channel.writeJson(okReply());
                {
                    std::lock_guard<std::mutex> lock(shutdownMutex_);
                    shutdownRequested_ = true;
                }
                shutdownCv_.notify_all();
                break;
            } else {
                alive =
                    channel.writeJson(errorReply("unknown op: " + name));
            }
            if (!alive)
                break;
        }
        if (channel.lineTooLong()) {
            // The peer streamed a line past the bound; tell it why
            // before hanging up (framing cannot resynchronize inside
            // an unread line, so the connection is done).
            harness::Json reply = errorReply(
                "request line exceeds " +
                std::to_string(config_.maxLineBytes) + " bytes");
            reply.set("code", "line_too_long");
            reply.set("max_line_bytes", uint64_t(config_.maxLineBytes));
            channel.writeJson(reply);
        }
    }
    // Deregister our fd (LineChannel already closed it).
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connFds_.erase(std::remove(connFds_.begin(), connFds_.end(), fd),
                       connFds_.end());
    }
    std::lock_guard<std::mutex> lock(metricsMutex_);
    connections_->add(-1);
}

harness::Json
Server::handleSubmit(const harness::Json &request)
{
    const harness::Json *label = request.find("label");
    const harness::Json *jobs = request.find("jobs");
    if (!label || label->kind() != harness::Json::Kind::String ||
        !jobs || jobs->kind() != harness::Json::Kind::Array)
        return errorReply("submit needs label + jobs[]");
    int priority = 0;
    if (const harness::Json *p = request.find("priority");
        p && p->kind() == harness::Json::Kind::Int)
        priority = static_cast<int>(p->asInt());

    auto sweep = std::make_shared<Sweep>();
    sweep->label = label->asString();
    sweep->priority = priority;
    std::vector<std::string> dumps;
    size_t bad = 0;
    if (!decodeSweepJobs(*jobs, *sweep, dumps, bad))
        return errorReply("malformed job at index " + std::to_string(bad));
    const std::string id = sweepContentId(sweep->label, dumps);
    sweep->id = id;

    // Idempotent submits: the same content id while the first instance
    // is still live *attaches* — the resuming (or racing) client
    // shares the running sweep's rows instead of re-running them. A
    // finished or cancelled instance is not attached to; the fresh
    // instance below answers from the result index (the warm-resubmit
    // path) or re-runs what the cancel threw away.
    auto attachReply = [](const Sweep &live) {
        harness::Json reply = okReply();
        reply.set("sweep_id", live.id);
        reply.set("jobs", uint64_t(live.jobs.size()));
        reply.set("cached", uint64_t(live.cached));
        reply.set("attached", true);
        return reply;
    };
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        auto it = sweeps_.find(id);
        if (it != sweeps_.end() && !it->second->cancelled &&
            it->second->completed < it->second->jobs.size())
            return attachReply(*it->second);
    }

    // Incremental answering: every job whose content key already has an
    // indexed ok row is done before it ever touches the queue.
    size_t cached = 0;
    for (SweepJob &entry : sweep->jobs) {
        entry.row = lookupResult(entry.key);
        if (entry.row) {
            entry.done = true;
            entry.fromCache = true;
            ++cached;
        }
    }
    sweep->completed = cached;
    sweep->cached = cached;

    // WAL ordering: the submission must be durable before any of its
    // jobs can run — a dispatcher could otherwise journal a JobDone
    // whose SweepBegin never landed.
    std::string begin =
        sweepBeginPayload(id, sweep->label, priority, dumps);
    journalSweepBegin(begin);
    if (cached < sweep->jobs.size())
        sweep->beginPayload = std::move(begin);

    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        // Re-check under the lock: a racing submit of the same content
        // may have won the insert since the check above. Its duplicate
        // SweepBegin is harmless — replay folds repeated Begins of one
        // id into the last.
        auto it = sweeps_.find(id);
        if (it != sweeps_.end() && !it->second->cancelled &&
            it->second->completed < it->second->jobs.size())
            return attachReply(*it->second);
        sweeps_[id] = sweep;
    }

    // Queue the remaining jobs, in submission order, as one batch at
    // the request's priority. QueuedJobs hold the Sweep alive via
    // shared_ptr. The push is all-or-nothing against the high-water
    // mark: on rejection the sweep is withdrawn and the client gets a
    // structured backpressure error to back off on — never a
    // half-enqueued sweep.
    std::vector<QueuedJob> pending;
    for (size_t i = 0; i < sweep->jobs.size(); ++i) {
        if (!sweep->jobs[i].done)
            pending.push_back(QueuedJob{sweep, i});
    }
    size_t queued = pending.size();
    // Gauge bumped before the push so it never dips negative while
    // dispatchers start pulling (rolled back on rejection).
    if (queued) {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        queueDepth_->add(static_cast<int64_t>(queued));
    }
    if (!queue_.pushBatch(priority, std::move(pending))) {
        {
            std::lock_guard<std::mutex> lock(sweepMutex_);
            sweeps_.erase(id);
        }
        // The rejected sweep must not resurrect at recovery: cancel it
        // in the journal too.
        journalSweepCancel(id);
        if (queued) {
            std::lock_guard<std::mutex> lock(metricsMutex_);
            queueDepth_->add(-static_cast<int64_t>(queued));
        }
        harness::Json reply = errorReply(
            "queue backpressure: " + std::to_string(queued) +
            " job(s) would exceed the high-water mark");
        reply.set("code", "backpressure");
        reply.set("queue_depth", uint64_t(queue_.depth()));
        reply.set("high_water", uint64_t(queue_.highWater()));
        return reply;
    }
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        sweepsSubmitted_->add(1);
        jobsCached_->add(cached);
        jobsDone_->add(cached);
    }
    sweepCv_.notify_all();
    // Every submit appends a SweepBegin, so a daemon answering only
    // from the result index must compact here too: runSweepJob never
    // runs for it. The sweep is in sweeps_ by now, so a snapshot taken
    // here keeps its Begin whenever it still has jobs to run.
    maybeCompactJournal(false);

    harness::Json reply = okReply();
    reply.set("sweep_id", id);
    reply.set("jobs", uint64_t(sweep->jobs.size()));
    reply.set("cached", uint64_t(cached));
    return reply;
}

bool
Server::decodeSweepJobs(const harness::Json &jobs, Sweep &sweep,
                        std::vector<std::string> &dumps, size_t &bad)
{
    sweep.jobs.reserve(jobs.size());
    dumps.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SweepJob entry;
        if (!decodeJob(jobs.at(i), entry.job)) {
            bad = i;
            return false;
        }
        // The canonical re-encoding of the *decoded* job, so any
        // client JSON that means the same job derives the same key and
        // the same sweep id.
        appendJobJson(dumps.emplace_back(), entry.job);
        entry.key = jobContentKeyFromDump(dumps.back());
        entry.cancel = std::make_shared<std::atomic<bool>>(false);
        sweep.jobs.push_back(std::move(entry));
    }
    return true;
}

void
Server::runSweepJob(const std::shared_ptr<Sweep> &sweep, size_t index,
                    unsigned slot)
{
    SweepJob &entry = sweep->jobs[index];
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        queueDepth_->add(-1);
        runningJobs_->add(1);
    }
    harness::JobResult result;
    if (entry.cancel->load(std::memory_order_relaxed)) {
        // Cancelled while still queued: synthesize the row the
        // executor would produce instead of burning a slot on it.
        result.ok = false;
        result.timedOut = true;
        result.error = "cancelled";
    } else if (fleet_) {
        // Fleet mode: this dispatcher owns worker `slot`; the fleet
        // relays the cancel token, retries across worker crashes, and
        // turns an unrecoverable job into a structured failure row.
        result = fleet_->execute(slot, entry.job, entry.cancel.get());
    } else {
        // In-process: executeJob never throws and never crashes the
        // process — panics become structured failure rows, hangs are
        // cancelled by the watchdog (the daemon wires its own cancel
        // token in as well, so `cancel`/shutdown stop even jobs with
        // no timeout of their own).
        result = executeJob(entry.job, artifacts_, entry.cancel.get());
    }

    const bool ok = result.ok;
    auto row = std::make_shared<const std::string>(
        encodeJobResult(result).dump());
    bool journal_row;
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        entry.row = row;
        entry.done = true;
        if (++sweep->completed == sweep->jobs.size())
            std::string().swap(sweep->beginPayload);  // free, not clear
        if (!ok)
            ++sweep->failed;
        // Rows produced while stopping or after a cancel are artifacts
        // of the interruption ("cancelled" failures), not results —
        // journaling them would persist wrong rows across a restart.
        // Genuine failures ARE journaled: recovery must restore the
        // exact row (original wallSeconds included) for byte identity.
        journal_row = !sweep->cancelled &&
                      !stopping_.load(std::memory_order_relaxed);
    }
    if (ok)
        indexResult(entry.key, row);
    if (journal_row) {
        journalJobDone(*sweep, index);
        maybeCompactJournal(false);
    }
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        runningJobs_->add(-1);
        jobsDone_->add(1);
        if (slot < slotJobs_.size())
            ++slotJobs_[slot];
        if (!ok)
            jobsFailed_->add(1);
        jobWallMs_->record(
            static_cast<uint64_t>(result.wallSeconds * 1000.0));
    }
    sweepCv_.notify_all();
}

std::shared_ptr<const std::string>
Server::lookupResult(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        auto it = resultIndex_.find(key);
        if (it != resultIndex_.end())
            return it->second;
    }
    if (!diskCache_)
        return nullptr;
    std::string bytes;
    if (!diskCache_->load(kResultPrefix + key, bytes))
        return nullptr;
    // Revive once per daemon: validate, then keep the canonical
    // re-encoding, so the bytes streamed are the ones a fresh run of
    // the job would produce.
    harness::Json parsed;
    harness::JobResult row;
    if (!harness::Json::parse(bytes, &parsed) ||
        !decodeJobResult(parsed, row) || !row.ok)
        return nullptr;  // stale/corrupt row degrades to a rerun
    auto encoded =
        std::make_shared<const std::string>(encodeJobResult(row).dump());
    std::lock_guard<std::mutex> lock(indexMutex_);
    return resultIndex_.emplace(key, std::move(encoded)).first->second;
}

void
Server::indexResult(const std::string &key,
                    const std::shared_ptr<const std::string> &row)
{
    if (diskCache_)
        diskCache_->store(kResultPrefix + key, *row);
    std::lock_guard<std::mutex> lock(indexMutex_);
    resultIndex_[key] = row;
}

harness::Json
Server::handleStatus(const harness::Json &request)
{
    const harness::Json *id_json = request.find("sweep_id");
    if (!id_json || id_json->kind() != harness::Json::Kind::String)
        return errorReply("status needs sweep_id");
    const std::string id = id_json->asString();

    std::lock_guard<std::mutex> lock(sweepMutex_);
    auto it = sweeps_.find(id);
    if (it == sweeps_.end())
        return errorReply("unknown sweep_id");
    const Sweep &sweep = *it->second;
    harness::Json reply = okReply();
    reply.set("state", sweep.cancelled ? "cancelled"
              : sweep.completed == sweep.jobs.size() ? "done"
                                                     : "running");
    reply.set("total", uint64_t(sweep.jobs.size()));
    reply.set("done", uint64_t(sweep.completed));
    reply.set("cached", uint64_t(sweep.cached));
    reply.set("failed", uint64_t(sweep.failed));
    return reply;
}

bool
Server::handleResults(const harness::Json &request, LineChannel &channel)
{
    const harness::Json *id_json = request.find("sweep_id");
    if (!id_json || id_json->kind() != harness::Json::Kind::String)
        return channel.writeJson(errorReply("results needs sweep_id"));
    const std::string id = id_json->asString();
    std::shared_ptr<Sweep> sweep;
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        auto it = sweeps_.find(id);
        if (it != sweeps_.end())
            sweep = it->second;
    }
    if (!sweep)
        return channel.writeJson(errorReply("unknown sweep_id"));

    // Stream rows in submission order, each as soon as it is done —
    // index hits flow immediately, live jobs as they finish. Submission
    // order (not completion order) keeps the stream deterministic.
    for (size_t i = 0; i < sweep->jobs.size(); ++i) {
        std::shared_ptr<const std::string> row;
        bool cached = false;
        {
            std::unique_lock<std::mutex> lock(sweepMutex_);
            sweepCv_.wait(lock, [&] {
                return sweep->jobs[i].done ||
                       (sweep->cancelled && stopping_.load());
            });
            if (!sweep->jobs[i].done)
                return channel.writeJson(errorReply("daemon stopping"));
            row = sweep->jobs[i].row;
            cached = sweep->jobs[i].fromCache;
        }
        if (!channel.writeLine(resultRowLine(i, cached, *row)))
            return false;  // peer went away; jobs keep running
    }
    harness::Json done = okReply();
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        done.set("complete", true);
        done.set("total", uint64_t(sweep->jobs.size()));
        done.set("cached", uint64_t(sweep->cached));
        done.set("failed", uint64_t(sweep->failed));
    }
    return channel.writeJson(done);
}

harness::Json
Server::handleCancel(const harness::Json &request)
{
    const harness::Json *id_json = request.find("sweep_id");
    if (!id_json || id_json->kind() != harness::Json::Kind::String)
        return errorReply("cancel needs sweep_id");
    const std::string id = id_json->asString();

    size_t cancelled = 0;
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        auto it = sweeps_.find(id);
        if (it == sweeps_.end())
            return errorReply("unknown sweep_id");
        Sweep &sweep = *it->second;
        sweep.cancelled = true;
        for (SweepJob &job : sweep.jobs) {
            if (!job.done) {
                job.cancel->store(true, std::memory_order_relaxed);
                ++cancelled;
            }
        }
    }
    // A cancelled sweep must stay cancelled across a restart.
    journalSweepCancel(id);
    sweepCv_.notify_all();
    harness::Json reply = okReply();
    reply.set("cancelled", uint64_t(cancelled));
    return reply;
}

harness::Json
Server::handleStats()
{
    harness::Json reply = okReply();
    double uptime = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started_)
                        .count();
    reply.set("queue_depth", uint64_t(queue_.depth()));
    reply.set("high_water", uint64_t(queue_.highWater()));
    reply.set("workers", uint64_t(fleet_ ? fleet_->count() : 0));
    reply.set("worker_threads", uint64_t(dispatchThreads_.size()));
    reply.set("worker_restarts", fleet_ ? fleet_->restarts() : 0);
    // Recovery accounting: what this daemon revived from its journal
    // at start() (all zero after a clean start).
    reply.set("recovered_sweeps", recoveredSweeps_);
    reply.set("replayed_records", replayedRecords_);
    reply.set("requeued_jobs", requeuedJobs_);
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        if (journal_.isOpen()) {
            const JournalStats &js = journal_.stats();
            harness::Json journal_json = harness::Json::object();
            journal_json.set("bytes", js.sizeBytes);
            journal_json.set("appended", js.appended);
            journal_json.set("append_failures", js.appendFailures);
            journal_json.set("compactions", js.compactions);
            journal_json.set("torn_bytes", js.tornBytes);
            reply.set("journal", std::move(journal_json));
        }
    }
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        reply.set("uptime_seconds", uptime);
        reply.set("running_jobs", uint64_t(std::max<int64_t>(
                                      0, runningJobs_->value)));
        reply.set("jobs_done", jobsDone_->value);
        reply.set("jobs_failed", jobsFailed_->value);
        reply.set("jobs_cached", jobsCached_->value);
        reply.set("sweeps_submitted", sweepsSubmitted_->value);
        reply.set("jobs_per_second",
                  uptime > 0
                      ? static_cast<double>(jobsDone_->value) / uptime
                      : 0.0);
        reply.set("metrics", metrics_.toJson());
    }
    // Per-slot execution accounting: the fleet's snapshot in fleet
    // mode (pids, crash counts, each worker's own cache telemetry),
    // the dispatcher counters otherwise.
    harness::Json per_worker = harness::Json::array();
    if (fleet_) {
        for (const WorkerStats &w : fleet_->stats()) {
            harness::Json row = harness::Json::object();
            row.set("worker", uint64_t(w.worker));
            row.set("pid", int64_t(w.pid));
            row.set("jobs_completed", w.jobsCompleted);
            row.set("restarts", w.restarts);
            row.set("disk_hits", w.diskHits);
            row.set("disk_misses", w.diskMisses);
            row.set("artifact_hits", w.artifactHits);
            row.set("artifact_builds", w.artifactBuilds);
            per_worker.push(std::move(row));
        }
    } else {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        for (size_t i = 0; i < slotJobs_.size(); ++i) {
            harness::Json row = harness::Json::object();
            row.set("worker", uint64_t(i));
            row.set("jobs_completed", slotJobs_[i]);
            per_worker.push(std::move(row));
        }
    }
    reply.set("per_worker", std::move(per_worker));
    reply.set("artifact_hits", artifacts_.hits());
    reply.set("artifact_builds", artifacts_.builds());
    reply.set("artifact_store_hits", artifacts_.storeHits());
    if (diskCache_) {
        DiskCacheStats disk = diskCache_->stats();
        harness::Json disk_json = harness::Json::object();
        disk_json.set("hits", disk.hits);
        disk_json.set("misses", disk.misses);
        disk_json.set("stores", disk.stores);
        disk_json.set("evictions", disk.evictions);
        disk_json.set("rejects", disk.rejects);
        disk_json.set("bytes", disk.bytes);
        reply.set("disk_cache", std::move(disk_json));
    }
    return reply;
}

// ---------------------------------------------------------------------
// Durability: socket lock, journal, recovery (DESIGN.md section 17)
// ---------------------------------------------------------------------

bool
Server::acquireSocketLock(std::string &error)
{
    if (config_.socketPath.empty()) {
        error = "no socket path";
        return false;
    }
    std::string lock_path = config_.socketPath + ".lock";
    int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0664);
    if (fd < 0) {
        error = "open " + lock_path + ": " + std::strerror(errno);
        return false;
    }
    // fcntl record lock, deliberately not flock: record locks die with
    // the owning *process* and are not inherited by forked children,
    // so neither a kill -9'd daemon nor its orphaned workers can hold
    // a successor out — while a genuinely live daemon always does.
    struct flock lk;
    std::memset(&lk, 0, sizeof lk);
    lk.l_type = F_WRLCK;
    lk.l_whence = SEEK_SET;
    if (::fcntl(fd, F_SETLK, &lk) != 0) {
        error = "another daemon is live on " + config_.socketPath +
                " (lock " + lock_path + " is held)";
        ::close(fd);
        return false;
    }
    // Advisory: record our pid for operators poking at a stuck host.
    char pid[32];
    int n = std::snprintf(pid, sizeof pid, "%ld\n",
                          static_cast<long>(::getpid()));
    if (::ftruncate(fd, 0) == 0 && n > 0)
        (void)!::write(fd, pid, static_cast<size_t>(n));
    socketLockFd_ = fd;
    return true;
}

void
Server::releaseSocketLock()
{
    if (socketLockFd_ >= 0) {
        ::close(socketLockFd_);  // closing drops the record lock
        socketLockFd_ = -1;
        ::unlink((config_.socketPath + ".lock").c_str());
    }
}

void
Server::journalSweepBegin(const std::string &payload)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (journal_.isOpen())
        journal_.appendDumped(Journal::kSweepBegin, payload);
}

void
Server::journalJobDone(const Sweep &sweep, size_t index)
{
    // entry.done was published under sweepMutex_ before this call;
    // after that no writer touches the row, so the lock-free read of
    // the result here is safe (this thread wrote it).
    const SweepJob &entry = sweep.jobs[index];
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (journal_.isOpen())
        journal_.appendDumped(
            Journal::kJobDone,
            jobDonePayload(sweep.id, index, entry.fromCache, *entry.row));
}

void
Server::journalSweepCancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    harness::Json payload = harness::Json::object();
    payload.set("id", id);
    journal_.append(Journal::kSweepCancel, payload);
}

std::vector<JournalRecord>
Server::snapshotJournalRecords()
{
    // Caller holds journalMutex_; taking sweepMutex_ inside it is the
    // documented lock order. The snapshot is exactly what recovery
    // would need: a Begin per live unfinished sweep plus a Done per
    // already-settled row.
    std::vector<JournalRecord> records;
    std::lock_guard<std::mutex> lock(sweepMutex_);
    for (const auto &[id, sweep] : sweeps_) {
        if (sweep->cancelled || sweep->completed >= sweep->jobs.size())
            continue;
        records.push_back({Journal::kSweepBegin, sweep->beginPayload});
        for (size_t i = 0; i < sweep->jobs.size(); ++i) {
            const SweepJob &entry = sweep->jobs[i];
            if (entry.done)
                records.push_back(
                    {Journal::kJobDone,
                     jobDonePayload(sweep->id, i, entry.fromCache,
                                    *entry.row)});
        }
    }
    return records;
}

void
Server::maybeCompactJournal(bool force)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    uint64_t size = journal_.stats().sizeBytes;
    if (!force) {
        // Size threshold plus a growth gate over the last compaction's
        // floor: when the *live* state itself is near the threshold,
        // compacting after every completed job would go quadratic.
        if (size < config_.journalCompactBytes ||
            size < journalCompactFloor_ * 2)
            return;
    }
    if (journal_.compact(snapshotJournalRecords()))
        journalCompactFloor_ = journal_.stats().sizeBytes;
}

bool
Server::recoverFromJournal(std::string &error)
{
    // Single-threaded (no dispatchers, no accept loop yet), so the
    // replay can build sweep state without locks — they are taken
    // anyway for uniformity with the running daemon.
    const bool fresh = journal_.stats().sizeBytes == 0;
    std::map<std::string, std::shared_ptr<Sweep>> live;
    bool ok = journal_.replay(
        [&](uint32_t type, const harness::Json &payload) {
            const harness::Json *id_json = payload.find("id");
            if (!id_json ||
                id_json->kind() != harness::Json::Kind::String)
                return;
            const std::string &id = id_json->asString();
            if (type == Journal::kSweepBegin) {
                const harness::Json *label = payload.find("label");
                const harness::Json *jobs = payload.find("jobs");
                if (!label ||
                    label->kind() != harness::Json::Kind::String ||
                    !jobs ||
                    jobs->kind() != harness::Json::Kind::Array)
                    return;
                auto sweep = std::make_shared<Sweep>();
                sweep->id = id;
                sweep->label = label->asString();
                if (const harness::Json *p = payload.find("priority");
                    p && p->kind() == harness::Json::Kind::Int)
                    sweep->priority = static_cast<int>(p->asInt());
                std::vector<std::string> dumps;
                size_t bad = 0;
                if (!decodeSweepJobs(*jobs, *sweep, dumps, bad))
                    return;  // foreign/stale record: skip sweep
                sweep->beginPayload = sweepBeginPayload(
                    id, sweep->label, sweep->priority, dumps);
                // Last Begin of an id wins (a duplicate from a racing
                // attach, or a fresh instance after a cancel).
                live[id] = std::move(sweep);
            } else if (type == Journal::kJobDone) {
                auto it = live.find(id);
                const harness::Json *index = payload.find("index");
                const harness::Json *result = payload.find("result");
                if (it == live.end() || !index ||
                    index->kind() != harness::Json::Kind::Int ||
                    !result)
                    return;
                Sweep &sweep = *it->second;
                size_t i = static_cast<size_t>(index->asInt());
                if (i >= sweep.jobs.size() || sweep.jobs[i].done)
                    return;
                SweepJob &entry = sweep.jobs[i];
                harness::JobResult row;
                if (!decodeJobResult(*result, row))
                    return;  // undecodable row: the job just re-runs
                entry.row = std::make_shared<const std::string>(
                    encodeJobResult(row).dump());
                entry.done = true;
                if (const harness::Json *c = payload.find("cached");
                    c && c->kind() == harness::Json::Kind::Bool &&
                    c->asBool()) {
                    entry.fromCache = true;
                    ++sweep.cached;
                }
                ++sweep.completed;
                if (!row.ok)
                    ++sweep.failed;
            } else if (type == Journal::kSweepCancel) {
                live.erase(id);
            }
        },
        error);
    if (!ok)
        return false;
    replayedRecords_ = journal_.stats().replayedRecords;

    // Adopt the recovered sweeps: resolve rows the journal lost (a
    // crash between indexResult and the JobDone append, or an append
    // the fault shim failed) from the disk result index, then requeue
    // exactly what is still missing. forcePush: these jobs were
    // admitted once — the high-water mark only refuses *new* work.
    size_t requeued_total = 0;
    for (auto &[id, sweep] : live) {
        for (SweepJob &entry : sweep->jobs) {
            if (entry.done)
                continue;
            entry.row = lookupResult(entry.key);
            if (entry.row) {
                entry.done = true;
                entry.fromCache = true;
                ++sweep->cached;
                ++sweep->completed;
            }
        }
        if (sweep->completed == sweep->jobs.size())
            std::string().swap(sweep->beginPayload);
        std::vector<QueuedJob> pending;
        for (size_t i = 0; i < sweep->jobs.size(); ++i) {
            if (!sweep->jobs[i].done)
                pending.push_back(QueuedJob{sweep, i});
        }
        size_t queued = pending.size();
        if (queued)
            queue_.forcePush(sweep->priority, std::move(pending));
        requeued_total += queued;
        {
            std::lock_guard<std::mutex> lock(sweepMutex_);
            sweeps_[id] = sweep;
        }
        ++recoveredSweeps_;
    }
    requeuedJobs_ = requeued_total;
    if (requeued_total) {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        queueDepth_->add(static_cast<int64_t>(requeued_total));
    }
    if (recoveredSweeps_)
        std::fprintf(stderr,
                     "rtdc_serve: recovered %llu sweep(s) from the "
                     "journal (%llu record(s) replayed, %llu job(s) "
                     "requeued)\n",
                     static_cast<unsigned long long>(recoveredSweeps_),
                     static_cast<unsigned long long>(replayedRecords_),
                     static_cast<unsigned long long>(requeued_total));

    // Checkpoint what we just rebuilt: the journal restarts from the
    // compacted live set instead of re-growing the whole history. An
    // empty file (a fresh cache dir) has no history, so its checkpoint
    // would only write, fsync and rename an empty file; any bytes at
    // all, a torn tail included, still compact.
    if (!fresh)
        maybeCompactJournal(true);
    return true;
}

} // namespace rtd::serve
