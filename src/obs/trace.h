/**
 * @file
 * TraceBuffer: a bounded ring of typed simulator events, with a
 * Chrome-trace (chrome://tracing / Perfetto "traceEvents") exporter.
 *
 * Events are tiny POD records stamped with the simulated cycle; the
 * ring keeps the most recent `capacity` of them and counts what it
 * dropped, so tracing a long run degrades to "the last N events"
 * instead of unbounded memory. The exporter maps each traced run to
 * one Chrome process (pid) so a whole sweep renders as parallel
 * timelines: miss-service and handler spans as B/E duration events
 * (they nest: miss-begin → handler-enter → handler-iret → miss-end),
 * swic writes and machine checks as instants, with one simulated cycle
 * shown as one microsecond.
 */

#ifndef RTDC_OBS_TRACE_H
#define RTDC_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness/json.h"

namespace rtd::obs {

/** What happened (see the exporter for the timeline semantics). */
enum class EventKind : uint8_t
{
    JobBegin,       ///< System::run() entered; addr unused
    JobEnd,         ///< System::run() leaving; arg = user insns
    MissBegin,      ///< user I-miss at addr; arg = 1 if compressed
    MissEnd,        ///< fill done; arg = service cycles
    HandlerEnter,   ///< exception entry for the miss at addr
    HandlerIret,    ///< handler returned; arg = dynamic insns executed
    ProcFaultBegin, ///< whole-procedure fault at addr (Kirovski)
    ProcFaultEnd,   ///< procedure resident; arg = service cycles
    Swic,           ///< handler installed a word at addr
    MachineCheck,   ///< corruption detected; arg = McKind
    DmissBegin,      ///< D-miss data fault at addr (src/dmem/)
    DmissEnd,        ///< page materialized; arg = service cycles
};

const char *eventKindName(EventKind kind);

/** One trace record (POD; 24 bytes). */
struct TraceEvent
{
    uint64_t cycle = 0; ///< simulated cycle at emission
    uint64_t arg = 0;   ///< kind-specific payload (see EventKind)
    uint32_t addr = 0;  ///< kind-specific address
    EventKind kind = EventKind::JobBegin;
};

/** Bounded most-recent-N event ring. */
class TraceBuffer
{
  public:
    explicit TraceBuffer(size_t capacity);

    void push(const TraceEvent &event);

    size_t capacity() const { return buf_.size(); }
    size_t size() const { return size_; }
    /** Events evicted to make room (0 = the trace is complete). */
    uint64_t dropped() const { return dropped_; }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

  private:
    std::vector<TraceEvent> buf_;
    size_t start_ = 0; ///< index of the oldest retained event
    size_t size_ = 0;
    uint64_t dropped_ = 0;
};

/** One traced run's contribution to a combined Chrome trace. */
struct TraceProcess
{
    std::string name;          ///< shown as the Chrome process name
    const TraceBuffer *trace;  ///< must outlive the export call
};

/**
 * Export @p processes as one Chrome JSON trace document
 * ({"traceEvents":[...]}), pid = index into @p processes, tid 0.
 * Load the dumped text in chrome://tracing or https://ui.perfetto.dev.
 */
harness::Json chromeTraceJson(const std::vector<TraceProcess> &processes);

} // namespace rtd::obs

#endif // RTDC_OBS_TRACE_H
