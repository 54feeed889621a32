#include "obs/observer.h"

namespace rtd::obs {

Observer::Observer(const ObserveConfig &config,
                   uint32_t icache_line_bytes)
    : config_(config), lineBytes_(icache_line_bytes),
      nativeFills_(registry_.counter("native_fills")),
      swicWrites_(registry_.counter("swic_writes")),
      machineChecks_(registry_.counter("machine_checks")),
      procFaults_(registry_.counter("proc_faults")),
      missService_(registry_.histogram("miss_service_cycles")),
      handlerInsns_(registry_.histogram("handler_insns_per_invocation")),
      fillRetries_(registry_.histogram("fill_retries")),
      procFaultCycles_(registry_.histogram("proc_fault_service_cycles")),
      dmemFaults_(registry_.counter("dmem_faults")),
      dmissService_(registry_.histogram("dmiss_service_cycles")),
      blockLen_(registry_.histogram("block_len_insns"))
{
    if (config_.trace)
        trace_ = std::make_unique<TraceBuffer>(config_.traceCapacity);
}

void
Observer::jobBegin(const std::string &name, uint64_t cycle)
{
    (void)name;  // named by the exporter's process metadata
    if (trace_)
        trace_->push({cycle, 0, 0, EventKind::JobBegin});
}

void
Observer::jobEnd(uint64_t cycle, uint64_t user_insns)
{
    if (trace_)
        trace_->push({cycle, user_insns, 0, EventKind::JobEnd});
}

void
Observer::missBegin(uint32_t addr, uint64_t cycle, bool compressed)
{
    if (trace_) {
        trace_->push(
            {cycle, compressed ? uint64_t(1) : 0, addr,
             EventKind::MissBegin});
    }
}

void
Observer::missEnd(uint32_t addr, uint64_t cycle, uint64_t service_cycles,
                  uint64_t handler_insns, uint64_t retries,
                  bool compressed)
{
    if (compressed) {
        missService_->record(service_cycles);
        fillRetries_->record(retries);
    } else {
        nativeFills_->add();
    }
    if (config_.heatmap) {
        heat_.record(addr & ~(lineBytes_ - 1), service_cycles,
                     handler_insns);
    }
    if (trace_)
        trace_->push({cycle, service_cycles, addr, EventKind::MissEnd});
}

void
Observer::handlerEnter(uint32_t addr, uint64_t cycle)
{
    if (trace_)
        trace_->push({cycle, 0, addr, EventKind::HandlerEnter});
}

void
Observer::handlerIret(uint64_t cycle, uint64_t insns)
{
    handlerInsns_->record(insns);
    if (trace_)
        trace_->push({cycle, insns, 0, EventKind::HandlerIret});
}

void
Observer::procFaultBegin(uint32_t addr, uint64_t cycle)
{
    procFaults_->add();
    if (trace_)
        trace_->push({cycle, 0, addr, EventKind::ProcFaultBegin});
}

void
Observer::procFaultEnd(uint32_t addr, uint64_t cycle,
                       uint64_t service_cycles)
{
    procFaultCycles_->record(service_cycles);
    if (trace_) {
        trace_->push(
            {cycle, service_cycles, addr, EventKind::ProcFaultEnd});
    }
}

void
Observer::dmissBegin(uint32_t addr, uint64_t cycle)
{
    dmemFaults_->add();
    if (trace_)
        trace_->push({cycle, 0, addr, EventKind::DmissBegin});
}

void
Observer::dmissEnd(uint32_t addr, uint64_t cycle,
                   uint64_t service_cycles)
{
    dmissService_->record(service_cycles);
    if (config_.heatmap) {
        // Per-page data heat, alongside the per-line code heat (the
        // address spaces are disjoint, so one profile holds both).
        heat_.record(addr & ~(lineBytes_ - 1), service_cycles, 0);
    }
    if (trace_)
        trace_->push({cycle, service_cycles, addr, EventKind::DmissEnd});
}

void
Observer::swicWrite(uint32_t addr, uint64_t cycle)
{
    swicWrites_->add();
    if (trace_)
        trace_->push({cycle, 0, addr, EventKind::Swic});
}

void
Observer::machineCheck(uint8_t kind, uint32_t addr, uint64_t cycle)
{
    machineChecks_->add();
    if (trace_)
        trace_->push({cycle, kind, addr, EventKind::MachineCheck});
}

void
Observer::blockDispatched(uint32_t len)
{
    blockLen_->record(len);
}

harness::Json
Observer::metricsJson() const
{
    harness::Json out = registry_.toJson();
    if (trace_) {
        harness::Json t = harness::Json::object();
        t.set("retained", static_cast<uint64_t>(trace_->size()));
        t.set("dropped", trace_->dropped());
        out.set("trace", std::move(t));
    }
    if (config_.heatmap)
        out.set("heat", heat_.summaryJson());
    return out;
}

} // namespace rtd::obs
