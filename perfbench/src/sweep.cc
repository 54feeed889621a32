#include "sweep.h"

#include <algorithm>

#include "harness/matrix.h"
#include "serve/wire.h"

namespace perfbench {

namespace {

/** Dynamic-length scale of the matrix (rtdc_sweepscale's default). */
constexpr double kMatrixScale = 0.02;
constexpr double kSmokeMatrixScale = 0.002;

} // namespace

std::vector<rtd::harness::Job>
matrixJobs(const Options &opts)
{
    rtd::harness::MatrixAxes axes = rtd::harness::MatrixAxes::defaults();
    axes.scale = opts.smoke ? kSmokeMatrixScale : kMatrixScale;
    std::vector<rtd::harness::Job> jobs = rtd::harness::buildMatrixJobs(axes);
    for (rtd::harness::Job &job : jobs)
        job.workload.seed = perturbSeed(job.workload.seed, opts.seed);
    return jobs;
}

int
scenarioBucket(const rtd::harness::Job &job)
{
    using rtd::compress::Scheme;
    using rtd::core::DataCompression;
    switch (job.config.dataCompression) {
    case DataCompression::DataOnly:
        return 3;
    case DataCompression::Both:
        return 4;
    case DataCompression::Off:
        break;
    }
    switch (job.config.scheme) {
    case Scheme::Dictionary:
        return 1;
    case Scheme::CodePack:
        return 2;
    default:
        return 0;
    }
}

std::string
canonicalRow(const rtd::harness::JobResult &row)
{
    if (!row.ok)
        return "FAIL:" + row.error;
    return rtd::serve::encodeSystemResult(row.result).dump();
}

unsigned
fleetSize()
{
    return std::min(hostCores(), 4u);
}

rtd::serve::ServerConfig
daemonConfig(const std::string &dir)
{
    rtd::serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workerProcesses = fleetSize();
    return config;
}

bool
roundTrip(rtd::serve::Client &client, const std::string &label,
          const std::vector<rtd::harness::Job> &jobs, Tracer &tracer,
          RoundTrip &out, std::string &error)
{
    std::string sweep_id;
    uint64_t cached_at_submit = 0;
    {
        Span span(tracer, "serve::Client::submit");
        if (!client.submit(label, jobs, sweep_id, cached_at_submit, error))
            return false;
    }
    out.rows.assign(jobs.size(), rtd::harness::JobResult{});
    {
        Span span(tracer, "serve::Client::fetchResults");
        if (!client.fetchResults(sweep_id, out.rows, &out.cachedRows,
                                 error))
            return false;
    }
    if (out.rows.size() != jobs.size()) {
        error = "fetched " + std::to_string(out.rows.size()) + " of " +
                std::to_string(jobs.size()) + " rows";
        return false;
    }
    return true;
}

void
probeJobCodecs(const std::vector<rtd::harness::Job> &jobs,
               const std::vector<rtd::harness::JobResult> &rows,
               Tracer &tracer, Report &report)
{
    for (size_t i = 0; i < jobs.size(); ++i) {
        Span span(tracer, "serve::encodeJob", "", static_cast<int64_t>(i));
        rtd::serve::encodeJob(jobs[i]);
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
        Span span(tracer, "serve::jobContentKey", "",
                  static_cast<int64_t>(i));
        rtd::serve::jobContentKey(jobs[i]);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
        rtd::harness::Json encoded = rtd::serve::encodeJobResult(rows[i]);
        rtd::harness::JobResult decoded;
        Span span(tracer, "serve::decodeJobResult", "",
                  static_cast<int64_t>(i));
        rtd::serve::decodeJobResult(encoded, decoded);
    }
    report.set("serve.encode_jobs_ms",
               tracer.selfTotal("serve::encodeJob") * 1000.0);
    report.set("serve.job_content_key_ms",
               tracer.selfTotal("serve::jobContentKey") * 1000.0);
    report.set("serve.decode_results_ms",
               tracer.selfTotal("serve::decodeJobResult") * 1000.0);
}

} // namespace perfbench
