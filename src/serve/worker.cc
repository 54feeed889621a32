#include "serve/worker.h"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "harness/artifact_cache.h"
#include "harness/runner.h"
#include "serve/disk_cache.h"
#include "serve/wire.h"

namespace rtd::serve {

namespace {

/** How often execute() retries a job whose worker died under it. */
constexpr unsigned kCrashAttempts = 3;

/// @name Worker-side signal state
/// Set from async handlers, read by the simulator's cooperative
/// cancellation poll — hence lock-free atomics, not sig_atomic_t.
/// @{
std::atomic<bool> g_cancel{false};        ///< combined token for executeJob
std::atomic<bool> g_parentCancel{false};  ///< SIGUSR1 (daemon cancel relay)
std::atomic<bool> g_deadlineFired{false}; ///< SIGALRM (job deadline)
/// @}

extern "C" void
workerCancelHandler(int)
{
    g_parentCancel.store(true, std::memory_order_relaxed);
    g_cancel.store(true, std::memory_order_relaxed);
}

extern "C" void
workerAlarmHandler(int)
{
    g_deadlineFired.store(true, std::memory_order_relaxed);
    g_cancel.store(true, std::memory_order_relaxed);
}

/**
 * Close every inherited fd except stdio and @p keep. A freshly forked
 * worker inherits the daemon's listening socket, the other workers'
 * parent-side channel fds, client connections, and the disk store's
 * lock fd; any of them held open here would e.g. keep a sibling's
 * channel from ever reaching EOF at shutdown.
 */
void
closeInheritedFds(int keep)
{
    DIR *d = ::opendir("/proc/self/fd");
    if (!d) {
        for (int fd = 3; fd < 1024; ++fd) {
            if (fd != keep)
                ::close(fd);
        }
        return;
    }
    std::vector<int> fds;
    int self = ::dirfd(d);
    while (dirent *e = ::readdir(d)) {
        int fd = std::atoi(e->d_name);
        if (fd > 2 && fd != keep && fd != self)
            fds.push_back(fd);
    }
    ::closedir(d);
    for (int fd : fds)
        ::close(fd);
}

void
armDeadline(double seconds)
{
    itimerval timer{};
    timer.it_value.tv_sec = static_cast<time_t>(seconds);
    timer.it_value.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(timer.it_value.tv_sec)) * 1e6);
    if (timer.it_value.tv_sec == 0 && timer.it_value.tv_usec == 0)
        timer.it_value.tv_usec = 1;
    ::setitimer(ITIMER_REAL, &timer, nullptr);
}

void
disarmDeadline()
{
    itimerval timer{};
    ::setitimer(ITIMER_REAL, &timer, nullptr);
}

/**
 * Worker-side job execution. Jobs without a deadline wire the parent's
 * relayed cancel token straight into executeJob. Jobs *with* a
 * deadline cannot use the runner's watchdog (that is a thread, and a
 * worker forked from the threaded daemon after a crash must stay
 * single-threaded), so the deadline becomes a SIGALRM that fires the
 * same cooperative token — and this function replays the runner's own
 * attempt loop so retries, attempt counts, and error strings match the
 * in-process path.
 */
harness::JobResult
runWorkerJob(const harness::Job &job, harness::ArtifactCache &artifacts)
{
    if (job.timeoutSeconds <= 0)
        return harness::executeJob(job, artifacts, &g_cancel);

    harness::Job one_attempt = job;
    one_attempt.timeoutSeconds = 0;
    one_attempt.maxAttempts = 1;
    one_attempt.backoffSeconds = 0;

    auto start = std::chrono::steady_clock::now();
    harness::JobResult out;
    unsigned max_attempts = std::max(1u, job.maxAttempts);
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        // A deadline is per attempt; a parent cancel is forever.
        g_deadlineFired.store(false, std::memory_order_relaxed);
        g_cancel.store(g_parentCancel.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
        armDeadline(job.timeoutSeconds);
        out = harness::executeJob(one_attempt, artifacts, &g_cancel);
        disarmDeadline();
        out.attempts = attempt;
        if (out.timedOut &&
            g_deadlineFired.load(std::memory_order_relaxed) &&
            !g_parentCancel.load(std::memory_order_relaxed)) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "timed out after %.3gs",
                          job.timeoutSeconds);
            out.error = buf;
        }
        if (out.ok || attempt == max_attempts ||
            g_parentCancel.load(std::memory_order_relaxed))
            break;
        if (job.backoffSeconds > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                job.backoffSeconds * attempt));
        }
    }
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
}

} // namespace

[[noreturn]] void
workerMain(int fd, const std::string &cacheDir, uint64_t cacheMaxBytes)
{
    // The daemon coordinates shutdown (EOF, then SIGTERM): a terminal
    // ^C must not kill workers out from under in-flight jobs, and a
    // dead parent-side channel must be an error return, not SIGPIPE.
    ::signal(SIGINT, SIG_IGN);
    ::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_flags = SA_RESTART;
    sa.sa_handler = workerCancelHandler;
    ::sigaction(SIGUSR1, &sa, nullptr);
    sa.sa_handler = workerAlarmHandler;
    ::sigaction(SIGALRM, &sa, nullptr);

    LineChannel channel(fd);
    std::unique_ptr<DiskArtifactCache> disk;
    if (!cacheDir.empty())
        disk = std::make_unique<DiskArtifactCache>(cacheDir,
                                                   cacheMaxBytes);
    harness::ArtifactCache artifacts;
    if (disk)
        artifacts.setStore(disk.get());

    harness::Json request;
    std::string parse_error;
    while (channel.readJson(request, parse_error)) {
        const harness::Json *op = request.find("op");
        const harness::Json *job_json = request.find("job");
        harness::Job job;
        if (!op || op->kind() != harness::Json::Kind::String ||
            op->asString() != "job" || !job_json ||
            !decodeJob(*job_json, job)) {
            if (!channel.writeJson(errorReply("malformed worker job")))
                break;
            continue;
        }
        g_parentCancel.store(false, std::memory_order_relaxed);
        g_cancel.store(false, std::memory_order_relaxed);
        harness::JobResult result = runWorkerJob(job, artifacts);

        harness::Json reply = okReply();
        reply.set("result", encodeJobResult(result));
        harness::Json telemetry = harness::Json::object();
        if (disk) {
            DiskCacheStats ds = disk->stats();
            telemetry.set("disk_hits", ds.hits);
            telemetry.set("disk_misses", ds.misses);
        }
        telemetry.set("artifact_hits", artifacts.hits());
        telemetry.set("artifact_builds", artifacts.builds());
        reply.set("telemetry", telemetry);
        if (!channel.writeJson(reply))
            break;
    }
    // EOF (daemon closed the channel) or a dead socket: exit without
    // running atexit/static destructors — the parent's inherited state
    // is not ours to tear down, and leak checkers are parent-side.
    ::_exit(0);
}

WorkerFleet::WorkerFleet(Config config) : config_(std::move(config)) {}

WorkerFleet::~WorkerFleet()
{
    stop();
}

bool
WorkerFleet::start(std::string &error)
{
    slots_.clear();
    stopped_ = false;
    for (unsigned i = 0; i < config_.count; ++i)
        slots_.push_back(std::make_unique<Slot>());
    for (unsigned i = 0; i < config_.count; ++i) {
        if (!spawnSlot(i, error)) {
            stop();
            return false;
        }
    }
    return true;
}

bool
WorkerFleet::spawnSlot(unsigned index, std::string &error)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        error = std::string("socketpair: ") + std::strerror(errno);
        return false;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        ::close(sv[0]);
        ::close(sv[1]);
        return false;
    }
    if (pid == 0) {
        ::close(sv[0]);
        closeInheritedFds(sv[1]);
#ifdef __linux__
        // A daemon killed with SIGKILL can't run stop(); the kernel
        // reaps the fleet for it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() == 1)
            ::_exit(0);
#endif
        workerMain(sv[1], config_.cacheDir, config_.cacheMaxBytes);
    }
    ::close(sv[1]);
    Slot &slot = *slots_[index];
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        slot.pid = pid;
    }
    slot.channel = std::make_unique<LineChannel>(sv[0]);
    return true;
}

void
WorkerFleet::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    // Phase 1: EOF every channel — an idle worker exits on its own.
    for (auto &slot : slots_)
        slot->channel.reset();
    // Phase 2: reap with escalation for stragglers.
    for (auto &slot : slots_) {
        if (slot->pid <= 0)
            continue;
        ::kill(slot->pid, SIGTERM);
        bool reaped = false;
        for (int i = 0; i < 200; ++i) {  // ~2s grace
            int status = 0;
            pid_t r = ::waitpid(slot->pid, &status, WNOHANG);
            if (r == slot->pid || (r < 0 && errno == ECHILD)) {
                reaped = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!reaped) {
            ::kill(slot->pid, SIGKILL);
            int status = 0;
            ::waitpid(slot->pid, &status, 0);
        }
        std::lock_guard<std::mutex> lock(statsMutex_);
        slot->pid = -1;
    }
}

void
WorkerFleet::reapSlot(Slot &slot)
{
    slot.channel.reset();
    if (slot.pid <= 0)
        return;
    ::kill(slot.pid, SIGKILL);  // no-op if already dead; frees a wedge
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
    std::lock_guard<std::mutex> lock(statsMutex_);
    slot.pid = -1;
}

WorkerFleet::RunOutcome
WorkerFleet::runOnSlot(Slot &slot, const harness::Job &job,
                       const std::atomic<bool> *cancel,
                       harness::JobResult &out)
{
    harness::Json request = harness::Json::object();
    request.set("op", "job");
    std::string job_json;
    appendJobJson(job_json, job);
    if (!slot.channel->writeLine(request.dumpWithRaw("job", job_json)))
        return RunOutcome::Crashed;

    // Wait for the reply, relaying the first cancel edge as SIGUSR1.
    bool signalled = false;
    while (!slot.channel->hasBufferedLine()) {
        if (!signalled && cancel &&
            cancel->load(std::memory_order_relaxed)) {
            if (slot.pid > 0)
                ::kill(slot.pid, SIGUSR1);
            signalled = true;
        }
        pollfd pfd{};
        pfd.fd = slot.channel->fd();
        pfd.events = POLLIN;
        int rc = ::poll(&pfd, 1, 50);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return RunOutcome::Crashed;
        }
        if (rc == 0)
            continue;
        if (pfd.revents & (POLLERR | POLLNVAL))
            return RunOutcome::Crashed;
        if (pfd.revents & (POLLIN | POLLHUP))
            break;  // readable, or EOF for readJson to report
    }

    harness::Json reply;
    std::string error;
    if (!slot.channel->readJson(reply, error))
        return RunOutcome::Crashed;
    const harness::Json *ok = reply.find("ok");
    if (!ok || ok->kind() != harness::Json::Kind::Bool)
        return RunOutcome::Crashed;
    if (!ok->asBool()) {
        // The worker rejected the request (protocol-level failure, not
        // a crash): deterministic, so report instead of retrying.
        out = harness::JobResult{};
        out.ok = false;
        const harness::Json *msg = reply.find("error");
        out.error = msg && msg->kind() == harness::Json::Kind::String
                        ? msg->asString()
                        : "worker rejected job";
        return RunOutcome::Done;
    }
    const harness::Json *result = reply.find("result");
    if (!result || !decodeJobResult(*result, out))
        return RunOutcome::Crashed;

    if (const harness::Json *telemetry = reply.find("telemetry")) {
        auto counter = [&](const char *key, uint64_t &into) {
            const harness::Json *v = telemetry->find(key);
            if (v && v->isNumber())
                into = static_cast<uint64_t>(v->asInt());
        };
        std::lock_guard<std::mutex> lock(statsMutex_);
        counter("disk_hits", slot.diskHits);
        counter("disk_misses", slot.diskMisses);
        counter("artifact_hits", slot.artifactHits);
        counter("artifact_builds", slot.artifactBuilds);
    }
    return RunOutcome::Done;
}

harness::JobResult
WorkerFleet::execute(unsigned slot_index, const harness::Job &job,
                     const std::atomic<bool> *cancel)
{
    Slot &slot = *slots_.at(slot_index);
    std::string error;
    for (unsigned attempt = 1; attempt <= kCrashAttempts; ++attempt) {
        if (!slot.channel || !slot.channel->valid()) {
            if (stopped_ || !spawnSlot(slot_index, error))
                break;
        }
        harness::JobResult out;
        if (runOnSlot(slot, job, cancel, out) == RunOutcome::Done) {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++slot.jobsCompleted;
            return out;
        }
        // The child died mid-job. Reap it; the next loop iteration
        // respawns the slot and retries — unless the daemon is
        // stopping or the job itself was cancelled, where a synthetic
        // row beats burning another worker on a doomed job.
        reapSlot(slot);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++slot.restarts;
        }
        totalRestarts_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "[serve] worker %u died running job %s "
                     "(attempt %u/%u)\n",
                     slot_index, job.tag.c_str(), attempt,
                     kCrashAttempts);
        if (stopped_ ||
            (cancel && cancel->load(std::memory_order_relaxed)))
            break;
    }

    harness::JobResult out;
    out.ok = false;
    if (cancel && cancel->load(std::memory_order_relaxed)) {
        out.timedOut = true;
        out.error = "cancelled";
    } else {
        out.error = "worker process died while running job";
    }
    return out;
}

std::vector<WorkerStats>
WorkerFleet::stats() const
{
    std::vector<WorkerStats> out;
    out.reserve(slots_.size());
    std::lock_guard<std::mutex> lock(statsMutex_);
    for (unsigned i = 0; i < slots_.size(); ++i) {
        const Slot &slot = *slots_[i];
        WorkerStats stats;
        stats.worker = i;
        stats.pid = slot.pid;
        stats.jobsCompleted = slot.jobsCompleted;
        stats.restarts = slot.restarts;
        stats.diskHits = slot.diskHits;
        stats.diskMisses = slot.diskMisses;
        stats.artifactHits = slot.artifactHits;
        stats.artifactBuilds = slot.artifactBuilds;
        out.push_back(stats);
    }
    return out;
}

} // namespace rtd::serve
