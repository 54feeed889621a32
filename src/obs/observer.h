/**
 * @file
 * Observer: the single hook surface the simulator reports events to.
 *
 * One Observer belongs to one core::System run. It owns the three
 * observability stores — a MetricsRegistry (counters + log2 histograms),
 * an optional TraceBuffer (timeline events), and a HeatProfile (per-line
 * miss heat) — and exposes one cheap method per simulator event. The
 * Cpu reaches it through `CpuConfig::observer`, a raw pointer that is
 * null by default: every hook site is guarded by one predictable branch,
 * which is the whole zero-overhead-when-off story (same pattern as
 * CpuConfig::cancel). Nothing in here mutates simulator state, so
 * RunStats are byte-identical with observation on or off — asserted by
 * tests/obs/ and the trace_smoke ctest.
 *
 * Metric names (reconciled against RunStats in tests/obs/):
 *  - counter   "native_fills"        == RunStats::nativeMisses
 *  - counter   "swic_writes"         (words installed by handlers)
 *  - counter   "machine_checks"      == RunStats::machineChecks
 *  - counter   "proc_faults"         == RunStats::procFaults
 *  - histogram "miss_service_cycles" count == compressedMisses
 *  - histogram "handler_insns_per_invocation"
 *                                    count == exceptions,
 *                                    sum == handlerInsns
 *  - histogram "fill_retries"        sum == integrityRetries
 *  - histogram "proc_fault_service_cycles" count == procFaults
 *  - counter   "dmem_faults"         == RunStats::dmemFaults
 *  - histogram "dmiss_service_cycles" count == dmemFaults
 *  - histogram "block_len_insns"     (blocks engine only)
 */

#ifndef RTDC_OBS_OBSERVER_H
#define RTDC_OBS_OBSERVER_H

#include <cstdint>
#include <memory>
#include <string>

#include "harness/json.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtd::obs {

/** What to collect (SystemConfig::observe; everything off by default). */
struct ObserveConfig
{
    /**
     * Master switch. Off = no Observer is created and the simulator
     * runs exactly as before this subsystem existed (byte-identical
     * stdout, JSON, and RunStats).
     */
    bool enabled = false;
    /** Also record timeline events into a bounded ring buffer. */
    bool trace = false;
    /** Ring capacity in events (most recent kept; 24 B each). */
    size_t traceCapacity = 1 << 16;
    /** Also accumulate the per-line miss heat profile. */
    bool heatmap = true;
};

/** Event sink for one simulated run. */
class Observer
{
  public:
    /**
     * @param config          what to collect
     * @param icache_line_bytes the run's I-line size (heat granularity)
     */
    Observer(const ObserveConfig &config, uint32_t icache_line_bytes);

    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;

    /// @name Simulator hooks (cheap; called only when observing)
    /// @{
    void jobBegin(const std::string &name, uint64_t cycle);
    void jobEnd(uint64_t cycle, uint64_t user_insns);
    /** User I-miss at @p addr; @p compressed = decompressor services it. */
    void missBegin(uint32_t addr, uint64_t cycle, bool compressed);
    /**
     * The miss at @p addr is done (filled, halted, or cancelled).
     * @p handler_insns / @p retries are 0 for hardware fills.
     */
    void missEnd(uint32_t addr, uint64_t cycle, uint64_t service_cycles,
                 uint64_t handler_insns, uint64_t retries,
                 bool compressed);
    void handlerEnter(uint32_t addr, uint64_t cycle);
    void handlerIret(uint64_t cycle, uint64_t insns);
    void procFaultBegin(uint32_t addr, uint64_t cycle);
    void procFaultEnd(uint32_t addr, uint64_t cycle,
                      uint64_t service_cycles);
    /** D-miss data fault at @p addr (src/dmem/ page decompression). */
    void dmissBegin(uint32_t addr, uint64_t cycle);
    /** The data fault at @p addr is done (resident, halted, or
     *  cancelled). Also feeds the per-page data heat profile. */
    void dmissEnd(uint32_t addr, uint64_t cycle,
                  uint64_t service_cycles);
    void swicWrite(uint32_t addr, uint64_t cycle);
    /** @p kind is a cpu::McKind (kept numeric: no cpu dependency). */
    void machineCheck(uint8_t kind, uint32_t addr, uint64_t cycle);
    /** A block of @p len instructions entered the block cache. */
    void blockBuilt(uint32_t len);
    /// @}

    /// @name Post-run access
    /// @{
    const MetricsRegistry &registry() const { return registry_; }
    MetricsRegistry &registry() { return registry_; }
    /** nullptr unless ObserveConfig::trace. */
    const TraceBuffer *trace() const { return trace_.get(); }
    const HeatProfile &heat() const { return heat_; }
    uint32_t lineBytes() const { return lineBytes_; }
    /**
     * Everything as one JSON object: the registry plus "trace" and
     * "heat" summaries — the value SystemResult::metrics carries and
     * rtdc_sweep rolls into BENCH_*.json under "metrics".
     */
    harness::Json metricsJson() const;
    /// @}

  private:
    ObserveConfig config_;
    uint32_t lineBytes_;
    MetricsRegistry registry_;
    std::unique_ptr<TraceBuffer> trace_;
    HeatProfile heat_;

    // Hot-path handles, resolved once at construction.
    Counter *nativeFills_;
    Counter *swicWrites_;
    Counter *machineChecks_;
    Counter *procFaults_;
    Log2Histogram *missService_;
    Log2Histogram *handlerInsns_;
    Log2Histogram *fillRetries_;
    Log2Histogram *procFaultCycles_;
    Counter *dmemFaults_;
    Log2Histogram *dmissService_;
    Log2Histogram *blockLen_;
};

} // namespace rtd::obs

#endif // RTDC_OBS_OBSERVER_H
