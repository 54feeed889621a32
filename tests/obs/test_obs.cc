/**
 * @file
 * Tests for the observability subsystem (src/obs/): histogram and
 * registry mechanics, the trace ring and its Chrome-trace exporter, the
 * per-line heat profile, and — the load-bearing part — exact
 * reconciliation of every observed metric against the RunStats the
 * simulator reports for the same run, across all five schemes and all
 * three execution engines, with the RunStats themselves byte-identical
 * whether or not anyone is watching.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "harness/json.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "program/linker.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::obs {
namespace {

using compress::Scheme;

// ---------------------------------------------------------------------
// Log2Histogram
// ---------------------------------------------------------------------

TEST(Log2Histogram, EmptyHasNoSamples)
{
    Log2Histogram h("empty");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(Log2Histogram, ZeroLandsInTheZeroBucket)
{
    Log2Histogram h("h");
    h.record(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucketLo(0), 0u);
    EXPECT_EQ(h.bucketHi(0), 0u);
}

TEST(Log2Histogram, PowersOfTwoOpenNewBuckets)
{
    Log2Histogram h("h");
    h.record(1); // bucket 1: [1,1]
    h.record(2); // bucket 2: [2,3]
    h.record(3); // bucket 2
    h.record(1024); // bucket 11: [1024,2047]
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucketLo(1), 1u);
    EXPECT_EQ(h.bucketHi(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucketLo(2), 2u);
    EXPECT_EQ(h.bucketHi(2), 3u);
    EXPECT_EQ(h.bucket(11), 1u);
    EXPECT_EQ(h.bucketLo(11), 1024u);
    EXPECT_EQ(h.bucketHi(11), 2047u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1u + 2 + 3 + 1024);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 1024u);
}

TEST(Log2Histogram, JsonListsOnlyOccupiedBuckets)
{
    Log2Histogram h("h");
    h.record(5);
    h.record(6);
    h.record(200);
    harness::Json doc = h.toJson();
    EXPECT_EQ(doc.get("count").asInt(), 3u);
    EXPECT_EQ(doc.get("sum").asInt(), 211u);
    EXPECT_EQ(doc.get("min").asInt(), 5u);
    EXPECT_EQ(doc.get("max").asInt(), 200u);
    const harness::Json &buckets = doc.get("buckets");
    ASSERT_EQ(buckets.size(), 2u); // [4,7] and [128,255]
    EXPECT_EQ(buckets.at(0).get("lo").asInt(), 4u);
    EXPECT_EQ(buckets.at(0).get("hi").asInt(), 7u);
    EXPECT_EQ(buckets.at(0).get("count").asInt(), 2u);
    EXPECT_EQ(buckets.at(1).get("lo").asInt(), 128u);
    EXPECT_EQ(buckets.at(1).get("count").asInt(), 1u);
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles)
{
    MetricsRegistry reg;
    Counter *a = reg.counter("a");
    Log2Histogram *h = reg.histogram("h");
    a->add(3);
    h->record(7);
    // Second lookup is the same object, even after more registrations.
    for (int i = 0; i < 64; ++i)
        reg.counter("filler_" + std::to_string(i));
    EXPECT_EQ(reg.counter("a"), a);
    EXPECT_EQ(reg.histogram("h"), h);
    EXPECT_EQ(reg.findCounter("a")->value, 3u);
    EXPECT_EQ(reg.findHistogram("h")->sum(), 7u);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.findHistogram("missing"), nullptr);
}

TEST(MetricsRegistry, JsonKeepsRegistrationOrder)
{
    MetricsRegistry reg;
    reg.counter("zulu")->add(1);
    reg.counter("alpha")->add(2);
    reg.histogram("hist")->record(4);
    harness::Json doc = reg.toJson();
    const auto &counters = doc.get("counters").members();
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0].first, "zulu");
    EXPECT_EQ(counters[1].first, "alpha");
    EXPECT_EQ(doc.get("histograms").get("hist").get("count").asInt(),
              1u);
}

// ---------------------------------------------------------------------
// TraceBuffer + Chrome exporter
// ---------------------------------------------------------------------

TraceEvent
event(EventKind kind, uint64_t cycle, uint32_t addr = 0,
      uint64_t arg = 0)
{
    TraceEvent e;
    e.kind = kind;
    e.cycle = cycle;
    e.addr = addr;
    e.arg = arg;
    return e;
}

TEST(TraceBuffer, RingKeepsTheMostRecentEvents)
{
    TraceBuffer ring(4);
    for (uint64_t i = 0; i < 6; ++i)
        ring.push(event(EventKind::Swic, i));
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);
    std::vector<TraceEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].cycle, i + 2) << "oldest-first order";
}

TEST(TraceBuffer, CompleteTraceReportsNoDrops)
{
    TraceBuffer ring(8);
    ring.push(event(EventKind::JobBegin, 0));
    ring.push(event(EventKind::JobEnd, 10));
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ChromeTrace, ExportsSpansInstantsAndProcessNames)
{
    TraceBuffer ring(16);
    ring.push(event(EventKind::JobBegin, 0));
    ring.push(event(EventKind::MissBegin, 10, 0x400020, 1));
    ring.push(event(EventKind::HandlerEnter, 12, 0x400020));
    ring.push(event(EventKind::Swic, 20, 0x400020));
    ring.push(event(EventKind::HandlerIret, 90, 0, 75));
    ring.push(event(EventKind::MissEnd, 95, 0x400020, 85));
    ring.push(event(EventKind::JobEnd, 200, 0, 123));

    harness::Json doc = chromeTraceJson({{"tiny/dictionary", &ring}});
    const harness::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // 1 process_name metadata event + 7 payload events.
    ASSERT_EQ(events->size(), 8u);

    const harness::Json &meta = events->at(0);
    EXPECT_EQ(meta.get("ph").asString(), "M");
    EXPECT_EQ(meta.get("name").asString(), "process_name");
    EXPECT_EQ(meta.get("args").get("name").asString(),
              "tiny/dictionary");

    // Span phases must alternate B/E in nesting order; instants are i.
    const char *phases[] = {"B", "B", "B", "i", "E", "E", "E"};
    for (size_t i = 0; i < 7; ++i) {
        const harness::Json &e = events->at(i + 1);
        EXPECT_EQ(e.get("ph").asString(), phases[i]) << "event " << i;
        EXPECT_EQ(e.get("pid").asInt(), 0u);
    }
    // Timestamps are the simulated cycles.
    EXPECT_EQ(events->at(2).get("ts").asInt(), 10u);
    EXPECT_EQ(events->at(7).get("ts").asInt(), 200u);
    // The document must survive a dump/parse round trip.
    harness::Json parsed;
    std::string error;
    ASSERT_TRUE(harness::Json::parse(doc.dump(), &parsed, &error))
        << error;
}

// ---------------------------------------------------------------------
// HeatProfile
// ---------------------------------------------------------------------

TEST(HeatProfile, AccumulatesPerLineAndRendersCsv)
{
    HeatProfile heat;
    heat.record(0x00400040, 100, 75);
    heat.record(0x00400040, 120, 75);
    heat.record(0x00400000, 10, 0);
    EXPECT_EQ(heat.totalMisses(), 3u);
    std::string csv = heat.toCsv();
    EXPECT_EQ(csv,
              "line_addr,misses,service_cycles,handler_insns\n"
              "0x00400000,1,10,0\n"
              "0x00400040,2,220,150\n"); // address-sorted
    harness::Json summary = heat.summaryJson();
    EXPECT_EQ(summary.get("lines").asInt(), 2u);
    EXPECT_EQ(summary.get("misses").asInt(), 3u);
}

// ---------------------------------------------------------------------
// End-to-end reconciliation
// ---------------------------------------------------------------------

prog::Program
tinyProgram()
{
    workload::WorkloadGenerator gen(workload::tinySpec());
    return gen.generate();
}

/** Observation must never change what the simulator computes. */
void
expectStatsParity(const cpu::RunStats &off, const cpu::RunStats &on,
                  const char *what)
{
    EXPECT_EQ(off.cycles, on.cycles) << what;
    EXPECT_EQ(off.userInsns, on.userInsns) << what;
    EXPECT_EQ(off.handlerInsns, on.handlerInsns) << what;
    EXPECT_EQ(off.icacheAccesses, on.icacheAccesses) << what;
    EXPECT_EQ(off.icacheMisses, on.icacheMisses) << what;
    EXPECT_EQ(off.compressedMisses, on.compressedMisses) << what;
    EXPECT_EQ(off.nativeMisses, on.nativeMisses) << what;
    EXPECT_EQ(off.dcacheAccesses, on.dcacheAccesses) << what;
    EXPECT_EQ(off.dcacheMisses, on.dcacheMisses) << what;
    EXPECT_EQ(off.writebacks, on.writebacks) << what;
    EXPECT_EQ(off.branchLookups, on.branchLookups) << what;
    EXPECT_EQ(off.branchMispredicts, on.branchMispredicts) << what;
    EXPECT_EQ(off.loadUseStalls, on.loadUseStalls) << what;
    EXPECT_EQ(off.exceptions, on.exceptions) << what;
    EXPECT_EQ(off.procFaults, on.procFaults) << what;
    EXPECT_EQ(off.procEvictions, on.procEvictions) << what;
    EXPECT_EQ(off.machineChecks, on.machineChecks) << what;
    EXPECT_EQ(off.integrityRetries, on.integrityRetries) << what;
    EXPECT_EQ(off.halted, on.halted) << what;
}

/** The invariant table from obs/observer.h, asserted exactly. */
void
expectReconciled(const Observer &obs, const cpu::RunStats &stats,
                 const char *what)
{
    const MetricsRegistry &reg = obs.registry();
    ASSERT_NE(reg.findCounter("native_fills"), nullptr) << what;
    EXPECT_EQ(reg.findCounter("native_fills")->value,
              stats.nativeMisses)
        << what;
    EXPECT_EQ(reg.findCounter("machine_checks")->value,
              stats.machineChecks)
        << what;
    EXPECT_EQ(reg.findCounter("proc_faults")->value, stats.procFaults)
        << what;
    EXPECT_EQ(reg.findHistogram("miss_service_cycles")->count(),
              stats.compressedMisses)
        << what;
    EXPECT_EQ(reg.findHistogram("handler_insns_per_invocation")->count(),
              stats.exceptions)
        << what;
    EXPECT_EQ(reg.findHistogram("handler_insns_per_invocation")->sum(),
              stats.handlerInsns)
        << what;
    EXPECT_EQ(reg.findHistogram("fill_retries")->sum(),
              stats.integrityRetries)
        << what;
    EXPECT_EQ(reg.findHistogram("proc_fault_service_cycles")->count(),
              stats.procFaults)
        << what;
    EXPECT_EQ(obs.heat().totalMisses(), stats.icacheMisses) << what;
}

TEST(Reconciliation, AllFiveSchemesMatchRunStats)
{
    prog::Program program = tinyProgram();
    for (Scheme scheme :
         {Scheme::None, Scheme::Dictionary, Scheme::CodePack,
          Scheme::HuffmanLine, Scheme::ProcLzrw1}) {
        const char *name = compress::schemeName(scheme);
        core::SystemConfig config;
        config.cpu = core::paperMachine();
        config.scheme = scheme;

        core::System plain(program, config);
        core::SystemResult off = plain.run();
        ASSERT_TRUE(off.stats.halted) << name;
        EXPECT_EQ(off.metrics.kind(), harness::Json::Kind::Null) << name;

        config.observe.enabled = true;
        core::System watched(program, config);
        core::SystemResult on = watched.run();
        ASSERT_TRUE(on.stats.halted) << name;

        expectStatsParity(off.stats, on.stats, name);
        ASSERT_NE(watched.observer(), nullptr) << name;
        expectReconciled(*watched.observer(), on.stats, name);
        EXPECT_EQ(on.metrics.kind(), harness::Json::Kind::Object)
            << name;
    }
}

TEST(Reconciliation, HoldsOnEveryExecutionEngine)
{
    prog::Program program = tinyProgram();
    struct Engine
    {
        const char *name;
        bool predecode, blockExec;
    };
    for (const Engine &engine :
         {Engine{"legacy", false, false},
          Engine{"predecode", true, false},
          Engine{"blocks", true, true}}) {
        core::SystemConfig config;
        config.cpu = core::paperMachine();
        config.cpu.predecode = engine.predecode;
        config.cpu.blockExec = engine.blockExec;
        config.scheme = Scheme::Dictionary;
        config.observe.enabled = true;
        core::System system(program, config);
        core::SystemResult result = system.run();
        ASSERT_TRUE(result.stats.halted) << engine.name;
        expectReconciled(*system.observer(), result.stats, engine.name);
        const Log2Histogram *blocks =
            system.observer()->registry().findHistogram(
                "block_len_insns");
        ASSERT_NE(blocks, nullptr) << engine.name;
        if (engine.blockExec)
            EXPECT_GT(blocks->count(), 0u) << engine.name;
        else
            EXPECT_EQ(blocks->count(), 0u) << engine.name;
    }
}

TEST(Reconciliation, HeatProfileFeedsSelectionWithMeasuredMisses)
{
    prog::Program program = tinyProgram();
    core::SystemConfig config;
    config.cpu = core::paperMachine();
    config.scheme = Scheme::None;
    config.observe.enabled = true;
    core::System system(program, config);
    core::SystemResult result = system.run();
    ASSERT_TRUE(result.stats.halted);

    const HeatProfile &heat = system.observer()->heat();
    ASSERT_GT(heat.totalMisses(), 0u);
    prog::LoadedImage image = prog::link(program);
    profile::ProcedureProfile profile = heat.toProfile(image);
    ASSERT_EQ(profile.missCounts.size(), program.procs.size());
    // Every observed miss lands on some procedure of the image.
    EXPECT_EQ(profile.totalMisses(), heat.totalMisses());
    EXPECT_EQ(profile.totalMisses(), result.stats.icacheMisses);
}

TEST(Reconciliation, TracedRunDropsOnlyWhenTheRingOverflows)
{
    prog::Program program = tinyProgram();
    core::SystemConfig config;
    config.cpu = core::paperMachine();
    config.scheme = Scheme::Dictionary;
    config.observe.enabled = true;
    config.observe.trace = true;
    config.observe.traceCapacity = 64;
    core::System system(program, config);
    core::SystemResult result = system.run();
    ASSERT_TRUE(result.stats.halted);
    const TraceBuffer *trace = system.observer()->trace();
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->size(), 64u);
    EXPECT_GT(trace->dropped(), 0u);
}

} // namespace
} // namespace rtd::obs
