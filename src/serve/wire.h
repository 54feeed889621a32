/**
 * @file
 * JSON wire codecs for the serve protocol (DESIGN.md section 14).
 *
 * Everything the daemon and client exchange beyond the protocol
 * envelope — jobs going in, results coming out — round-trips through
 * these encoders. Two properties carry the subsystem's guarantees:
 *
 *  - **Exactness.** A decoded Job must describe the *same* simulation
 *    point as the submitted one, or the daemon silently simulates a
 *    different machine. Doubles are therefore emitted as
 *    Json::exactDouble dumps them (17 significant digits, bit-exact
 *    round-trip) and integers ride the harness Json's exact 64-bit
 *    path. Enums travel as integers and are range-checked on decode.
 *
 *  - **Determinism.** appendJobJson's member order is fixed, so the
 *    bytes it writes for a job are a canonical string. jobContentKey
 *    builds on that: the key of a job is the compact JSON of its
 *    {workload, config} pair — everything that determines the
 *    SystemResult, and nothing that doesn't (tag, timeout, retry
 *    policy are excluded). The daemon's incremental result index and
 *    the DiskArtifactCache both key on it.
 *
 * Decoders return false on malformed/mistyped/out-of-range input and
 * leave the output in an unspecified-but-safe state; the caller replies
 * with a protocol error instead of crashing.
 */

#ifndef RTDC_SERVE_WIRE_H
#define RTDC_SERVE_WIRE_H

#include <string>
#include <string_view>
#include <vector>

#include "harness/job.h"
#include "harness/json.h"

namespace rtd::serve {

/// @name Job direction (client -> daemon)
/// A job is written straight to compact JSON bytes, member by member,
/// with pre-escaped literal keys and harness::Json's number and string
/// formatting: the bytes a Json tree of the same members would dump
/// (tests/serve/test_job_writer.cc holds the two together). This is the
/// one job encoder; the daemon reads jobs back through Json::parse and
/// the decoders below.
/// @{
void appendWorkloadJson(std::string &out,
                        const workload::WorkloadSpec &spec);
bool decodeWorkload(const harness::Json &json,
                    workload::WorkloadSpec &spec);

/**
 * SystemConfig codec. The two runtime-only pointers (cpu.cancel,
 * cpu.observer) are not wire state: they encode as absent and decode
 * as null — the daemon installs its own cancellation token per job.
 */
void appendConfigJson(std::string &out, const core::SystemConfig &config);
bool decodeConfig(const harness::Json &json, core::SystemConfig &config);

/** Append @p job's canonical bytes: {tag, workload, config, timeout,
 *  maxAttempts, backoff}. */
void appendJobJson(std::string &out, const harness::Job &job);
/** appendJobJson's bytes as a Json::raw value, for callers that splice
 *  a job into a tree; dump() gives those bytes back. */
harness::Json encodeJob(const harness::Job &job);
bool decodeJob(const harness::Json &json, harness::Job &job);
/// @}

/// @name Result direction (daemon -> client)
/// @{
harness::Json encodeRunStats(const cpu::RunStats &stats);
bool decodeRunStats(const harness::Json &json, cpu::RunStats &stats);

harness::Json encodeSystemResult(const core::SystemResult &result);
bool decodeSystemResult(const harness::Json &json,
                        core::SystemResult &result);

harness::Json encodeJobResult(const harness::JobResult &result);
bool decodeJobResult(const harness::Json &json,
                     harness::JobResult &result);
/// @}

/**
 * Canonical content key of a job: compact JSON of {workload, config}.
 * Two jobs with equal keys produce byte-identical SystemResults (the
 * determinism contract of harness::Job), which is what licenses the
 * daemon's result index to answer a resubmitted job from the previous
 * sweep's row. Tag and robustness policy (timeout/attempts/backoff)
 * are deliberately excluded: they affect *whether* a result is
 * obtained, never its value.
 */
std::string jobContentKey(const harness::Job &job);

/**
 * jobContentKey from a job's canonical bytes (appendJobJson):
 * the workload and config members sliced out and re-wrapped as an
 * object, which is how jobContentKey itself is computed. A daemon that
 * already dumped a job derives its key without encoding it again.
 */
std::string jobContentKeyFromDump(std::string_view jobDump);

/**
 * Content-derived sweep id: 16 hex digits of a stable hash over the
 * label and the canonical (appendJobJson) encoding of every job, in
 * submission order. Submitting the same label + job list always yields
 * the same id, which is what makes submits idempotent — a client that
 * lost its connection (or its daemon) re-submits and *attaches* to the
 * still-live sweep instead of re-running it, and a daemon recovering
 * from its journal re-derives the same id the client will ask for.
 * @p encodedJobs is a JSON array of encodeJob values.
 */
std::string sweepContentId(const std::string &label,
                           const harness::Json &encodedJobs);

/** sweepContentId over each job's canonical bytes, in submission
 *  order: the same id without re-dumping the jobs, and hashed piece by
 *  piece, with no concatenated copy. */
std::string sweepContentId(const std::string &label,
                           const std::vector<std::string> &jobDumps);

} // namespace rtd::serve

#endif // RTDC_SERVE_WIRE_H
