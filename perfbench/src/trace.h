/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark wraps each call it makes into a module's public
 * function (WorkloadGenerator::generate, core::buildImage, System's
 * constructor and run(), the serve codecs, Journal, DiskArtifactCache,
 * Client and Server) in a Span. A span has a name, a category (the
 * scenario, when there is one), start and end, the span that was open
 * when it began (its parent) and a job id. Spans stay in memory and are
 * written once, at exit, as Chrome-trace JSON that Perfetto opens.
 *
 * A layer's self time is its spans' durations minus the time their
 * child spans cover. With tracing off every Span is a no-op.
 * Single-threaded: only the benchmark's own thread records spans.
 */

#ifndef RTDC_PERFBENCH_TRACE_H
#define RTDC_PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "harness/json.h"

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Open a span; returns its id (-1 when tracing is off). */
    int32_t begin(const char *name, const char *category, int64_t job);
    /** Close span @p id (must be the innermost open span). */
    void end(int32_t id);

    /** Self seconds of each closed span named @p name in @p category
     *  (nullptr category = any). */
    std::vector<double> selfTimes(const char *name,
                                  const char *category = nullptr) const;
    /** Sum of selfTimes(). */
    double selfTotal(const char *name,
                     const char *category = nullptr) const;

    /** Write Chrome-trace JSON; @p metadata lands under "metadata". */
    bool writeChromeTrace(const std::string &path,
                          rtd::harness::Json metadata) const;

  private:
    struct Record
    {
        const char *name;
        const char *category;
        int64_t job;
        int32_t parent;
        int64_t startNs;
        int64_t endNs = -1;
    };

    int64_t nowNs() const;
    /** Per-span self nanoseconds, indexed like spans_. */
    std::vector<int64_t> selfNs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Record> spans_;
    std::vector<int32_t> open_;
};

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, const char *category = "",
         int64_t job = -1)
        : tracer_(tracer), id_(tracer.begin(name, category, job))
    {
    }
    ~Span() { tracer_.end(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int32_t id_;
};

/** Stamp shared by the trace file and the stamp line on stdout. */
rtd::harness::Json runStamp(const Options &opts);

} // namespace perfbench

#endif // RTDC_PERFBENCH_TRACE_H
