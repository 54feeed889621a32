/**
 * @file
 * Client side of the serve protocol: a thin connection wrapper plus
 * RemoteExecutor, the harness::JobExecutor that ships a sweep's jobs to
 * the daemon and collects the rows back in submission order.
 *
 * RemoteExecutor is the byte-identity seam: SweepOptions::executor
 * pointed at one makes every registered sweep build its job list and
 * render its tables locally exactly as always, while the simulation
 * itself happens in the daemon (against the daemon's persistent
 * artifact cache and result index). Because jobs are pure functions of
 * their values and rows stream back in submission order, the output is
 * byte-identical to the local batch run.
 */

#ifndef RTDC_SERVE_CLIENT_H
#define RTDC_SERVE_CLIENT_H

#include <memory>
#include <string>
#include <vector>

#include "harness/job.h"
#include "harness/json.h"
#include "harness/runner.h"
#include "serve/proto.h"

namespace rtd::serve {

/** One connection to a serve daemon. Not thread-safe. */
class Client
{
  public:
    Client() = default;

    /**
     * Connect to the daemon at @p socket_path. @p retry_ms > 0 keeps
     * retrying failed connects for up to that many milliseconds with a
     * bounded exponential backoff (10ms doubling to 200ms) — the cure
     * for the race between forking a daemon and its bind() finishing.
     */
    bool connect(const std::string &socket_path, std::string &error,
                 unsigned retry_ms = 0);

    /**
     * True while the transport looks alive. Every op that hits a
     * transport failure (write error, EOF, stream desync) drops the
     * channel, so `!connected()` after a failed op means "the daemon
     * went away" — the reconnect()-and-resubmit path — while a failure
     * with connected() still true is a protocol-level refusal.
     */
    bool connected() const { return channel_ != nullptr; }

    /**
     * Drop the (possibly dead) channel and connect to the same socket
     * path again; @p retry_ms as in connect(). The daemon-death
     * recovery path: content-derived sweep ids make the subsequent
     * resubmit idempotent.
     */
    bool reconnect(std::string &error, unsigned retry_ms = 0);

    /**
     * One request/reply round trip. False on transport/parse failure
     * (with @p error filled); a protocol-level {"ok":false} reply still
     * returns true — the caller inspects @p reply.
     */
    bool call(const harness::Json &request, harness::Json &reply,
              std::string &error);

    /** {"op":"ping"} round trip; true when the daemon answered ok. */
    bool ping(std::string &error);

    /** Why a submit was refused (when the daemon said, structurally). */
    struct SubmitReject
    {
        bool backpressure = false;  ///< queue high-water rejection
        uint64_t queueDepth = 0;
        uint64_t highWater = 0;
    };

    /**
     * Submit @p jobs as one sweep at @p priority (higher runs first;
     * 0 is the bulk default). On success fills @p sweep_id (the
     * daemon's content-derived id — resubmitting the same jobs yields
     * the same id and attaches to the live sweep) and @p cached (jobs
     * answered from the result index without queueing). On failure,
     * @p reject (when non-null) says whether this was a backpressure
     * rejection the caller should back off and retry on.
     */
    bool submit(const std::string &label,
                const std::vector<harness::Job> &jobs,
                std::string &sweep_id, uint64_t &cached,
                std::string &error, int priority = 0,
                SubmitReject *reject = nullptr);

    /**
     * Stream the rows of @p sweep_id into @p results (submission
     * order, resized to the sweep's job count). @p cached_rows, when
     * non-null, receives how many rows the daemon marked as
     * index-answered.
     */
    bool fetchResults(const std::string &sweep_id,
                      std::vector<harness::JobResult> &results,
                      uint64_t *cached_rows, std::string &error);

    /** Request daemon shutdown (fire-and-confirm). */
    bool shutdown(std::string &error);

    /** Raw access for status/stats/cancel subcommands. */
    LineChannel *channel() { return channel_.get(); }

  private:
    /** call() with the request already written as one compact JSON
     *  @p line. */
    bool callLine(std::string line, harness::Json &reply,
                  std::string &error);

    std::unique_ptr<LineChannel> channel_;
    std::string socketPath_;  ///< remembered for reconnect()
};

/** Runs every job list on a serve daemon (see file comment). */
class RemoteExecutor : public harness::JobExecutor
{
  public:
    /** @param client a connected Client; borrowed, not owned. */
    explicit RemoteExecutor(Client &client) : client_(client) {}

    /**
     * Ship @p jobs, wait for the rows, and return them in submission
     * order. The local @p cache is untouched (the daemon has its own).
     *
     * Daemon death mid-sweep is survivable: the executor reconnects
     * with backoff and resubmits, and because sweep ids are
     * content-derived and the daemon journals progress, the resubmit
     * attaches to the recovered sweep and already-finished rows come
     * back from the result index — output stays byte-identical to an
     * uninterrupted run. Only when the resume budget is exhausted (or
     * the daemon refuses structurally) do the pending rows fail
     * structurally (ok=false, error set) rather than aborting — the
     * caller's tables still render and runSweep exits nonzero.
     */
    std::vector<harness::JobResult>
    run(const std::string &label, const std::vector<harness::Job> &jobs,
        harness::ArtifactCache &cache) override;

    /** Totals across every run() call (for the CLI's summary line). */
    uint64_t totalJobs() const { return totalJobs_; }
    uint64_t totalCached() const { return totalCached_; }

    /** Submit priority for subsequent run() calls (default 0). */
    void setPriority(int priority) { priority_ = priority; }

  private:
    Client &client_;
    uint64_t totalJobs_ = 0;
    uint64_t totalCached_ = 0;
    int priority_ = 0;
};

} // namespace rtd::serve

#endif // RTDC_SERVE_CLIENT_H
