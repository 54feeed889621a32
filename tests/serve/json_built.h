/**
 * @file
 * Reference job encoding for the wire tests: a harness::Json tree built
 * member by member and dumped. serve::wire writes jobs straight to
 * bytes; these trees are what those bytes must equal, so the writer's
 * member order, key spelling and number formatting are checked against
 * an encoder that shares none of its code paths but Json itself.
 */

#ifndef RTDC_TESTS_SERVE_JSON_BUILT_H
#define RTDC_TESTS_SERVE_JSON_BUILT_H

#include <string>
#include <utility>

#include "harness/job.h"
#include "harness/json.h"

namespace rtd::reference {

inline harness::Json
jsonBuiltCache(const cache::CacheConfig &config)
{
    harness::Json json = harness::Json::object();
    json.set("size", config.sizeBytes);
    json.set("line", config.lineBytes);
    json.set("assoc", config.assoc);
    return json;
}

inline harness::Json
jsonBuiltCpu(const cpu::CpuConfig &config)
{
    harness::Json json = harness::Json::object();
    json.set("icache", jsonBuiltCache(config.icache));
    json.set("dcache", jsonBuiltCache(config.dcache));
    json.set("predEntries", config.predictorEntries);
    json.set("predKind", static_cast<unsigned>(config.predictorKind));
    json.set("mispredict", config.mispredictPenalty);
    json.set("redirect", config.redirectPenalty);
    json.set("excEntry", config.exceptionEntryPenalty);
    json.set("excReturn", config.exceptionReturnPenalty);
    json.set("secondRegFile", config.secondRegFile);
    json.set("handlerDataUncached", config.handlerDataUncached);
    json.set("predecode", config.predecode);
    json.set("blockExec", config.blockExec);
    json.set("superblockExec", config.superblockExec);
    json.set("verify", config.verifyDecompression);
    json.set("memFirst", config.memTiming.firstAccessCycles);
    json.set("memBurst", config.memTiming.burstRateCycles);
    json.set("memBus", config.memTiming.busBytes);
    json.set("maxUserInsns", config.maxUserInsns);
    json.set("traceInsns", config.traceInsns);
    json.set("mcRetryLimit", config.mcRetryLimit);
    json.set("handlerBudget", config.handlerInsnBudget);
    json.set("l2Enabled", config.l2.enabled);
    json.set("l2Size", config.l2.sizeBytes);
    json.set("l2Line", config.l2.lineBytes);
    json.set("l2Assoc", config.l2.assoc);
    json.set("l2Hit", config.l2.hitCycles);
    json.set("l2Decomp", config.l2.decompressCycles);
    return json;
}

inline harness::Json
jsonBuiltWorkload(const workload::WorkloadSpec &spec)
{
    using harness::Json;
    Json json = Json::object();
    json.set("name", spec.name);
    json.set("seed", spec.seed);
    json.set("text", spec.targetTextBytes);
    json.set("hotProcs", spec.hotProcs);
    json.set("coldProcs", spec.coldProcs);
    json.set("hotFrac", Json::exactDouble(spec.hotTextFraction));
    json.set("uniq", Json::exactDouble(spec.uniqueFraction));
    json.set("reuse", Json::exactDouble(spec.reuseSkew));
    json.set("br", Json::exactDouble(spec.branchDensity));
    json.set("mem", Json::exactDouble(spec.memDensity));
    json.set("dyn", spec.targetDynamicInsns);
    json.set("iters", spec.hotLoopIters);
    json.set("calls", spec.coldCallsPerIter);
    json.set("zipf", Json::exactDouble(spec.coldZipfTheta));
    json.set("burst", spec.coldBurst);
    json.set("dataB", spec.dataBytesPerProc);
    return json;
}

inline harness::Json
jsonBuiltConfig(const core::SystemConfig &config)
{
    using harness::Json;
    Json json = Json::object();
    json.set("cpu", jsonBuiltCpu(config.cpu));
    json.set("scheme", static_cast<unsigned>(config.scheme));
    json.set("secondRegFile", config.secondRegFile);
    std::string regions;
    for (prog::Region region : config.regions)
        regions += region == prog::Region::Native ? 'N' : 'C';
    json.set("regions", regions);
    Json order = Json::array();
    for (int32_t index : config.order)
        order.push(index);
    json.set("order", std::move(order));
    json.set("dataCompression",
             static_cast<unsigned>(config.dataCompression));
    json.set("dmemScheme", static_cast<unsigned>(config.dmem.scheme));
    json.set("dmemPage", config.dmem.pageBytes);
    json.set("dmemStaging", config.dmem.stagingPages);
    json.set("profiling", config.profiling);
    json.set("pcCapacity", config.procCache.capacityBytes);
    json.set("pcDispatch", config.procCache.dispatchCycles);
    json.set("integrity", config.integrity);
    Json plans = Json::array();
    for (const fault::FaultPlan &plan : config.fault.plans) {
        Json planJson = Json::object();
        planJson.set("seed", plan.seed);
        planJson.set("site", static_cast<unsigned>(plan.site));
        planJson.set("count", plan.count);
        plans.push(std::move(planJson));
    }
    json.set("fault", std::move(plans));
    json.set("obsEnabled", config.observe.enabled);
    json.set("obsTrace", config.observe.trace);
    json.set("obsTraceCap", uint64_t(config.observe.traceCapacity));
    json.set("obsHeatmap", config.observe.heatmap);
    return json;
}

inline harness::Json
jsonBuiltJob(const harness::Job &job)
{
    using harness::Json;
    Json json = Json::object();
    json.set("tag", job.tag);
    json.set("workload", jsonBuiltWorkload(job.workload));
    json.set("config", jsonBuiltConfig(job.config));
    json.set("timeout", Json::exactDouble(job.timeoutSeconds));
    json.set("maxAttempts", job.maxAttempts);
    json.set("backoff", Json::exactDouble(job.backoffSeconds));
    return json;
}

/** The content key as one Json tree: {workload, config}. */
inline std::string
jsonBuiltKey(const harness::Job &job)
{
    harness::Json key = harness::Json::object();
    key.set("workload", jsonBuiltWorkload(job.workload));
    key.set("config", jsonBuiltConfig(job.config));
    return key.dump();
}

} // namespace rtd::reference

#endif // RTDC_TESTS_SERVE_JSON_BUILT_H
