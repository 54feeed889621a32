/**
 * @file
 * Helpers shared by the two daemon workloads (sweep-cold, serve-warm):
 * the seeded 576-job matrix, the canonical row encoding both compare
 * on, one timed submit+fetch round trip, and the job/result codec
 * probes of the traced run.
 */

#ifndef RTDC_PERFBENCH_SWEEP_H
#define RTDC_PERFBENCH_SWEEP_H

#include <string>
#include <vector>

#include "common.h"
#include "harness/job.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {

/**
 * harness::MatrixAxes::defaults() at the benchmark's scale, every
 * WorkloadSpec seed perturbed by opts.seed.
 */
std::vector<rtd::harness::Job> matrixJobs(const Options &opts);

/** Index into kScenarioNames of a matrix job's scenario. */
int scenarioBucket(const rtd::harness::Job &job);

/** One row's simulated outcome (no wall times), or its failure. */
std::string canonicalRow(const rtd::harness::JobResult &row);

/** Worker processes of the benchmark's daemons: nproc, at most 4. */
unsigned fleetSize();

/** A fleet daemon on socket + cache dir inside @p dir. */
rtd::serve::ServerConfig daemonConfig(const std::string &dir);

/** Rows of one submit+fetch round trip. */
struct RoundTrip
{
    uint64_t cachedRows = 0;
    std::vector<rtd::harness::JobResult> rows;
};

/** Submit @p jobs as @p label and fetch every row, with spans. */
bool roundTrip(rtd::serve::Client &client, const std::string &label,
               const std::vector<rtd::harness::Job> &jobs, Tracer &tracer,
               RoundTrip &out, std::string &error);

/**
 * Time the codecs a round trip runs per job, each over the whole job
 * list on the benchmark's thread: encodeJob (client submit),
 * jobContentKey (daemon submit) and decodeJobResult (client fetch).
 * Sets serve.encode_jobs_ms, serve.job_content_key_ms and
 * serve.decode_results_ms.
 */
void probeJobCodecs(const std::vector<rtd::harness::Job> &jobs,
                    const std::vector<rtd::harness::JobResult> &rows,
                    Tracer &tracer, Report &report);

} // namespace perfbench

#endif // RTDC_PERFBENCH_SWEEP_H
