/**
 * @file
 * The wire's direct job writer (serve::appendJobJson and its workload/
 * config parts) against a Json tree built by hand (json_built.h): for
 * random jobs with hostile strings, full-range integers and extreme
 * doubles, the writer's bytes are the tree's dump, the content key and
 * sweep framing built on them match their tree-built forms, and the
 * bytes decode back to the same job.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "serve/journal.h"
#include "serve/wire.h"

#include "json_built.h"

using namespace rtd;
using harness::Job;
using harness::Json;

namespace {

/** Random job state in every wire field's full range. */
class JobGen
{
  public:
    explicit JobGen(uint64_t seed) : rng_(seed) {}

    Job
    job()
    {
        Job job;
        job.tag = hostileString();
        job.workload.name = hostileString();
        job.workload.seed = u64();
        job.workload.targetTextBytes = static_cast<uint32_t>(u64());
        job.workload.hotProcs = u32();
        job.workload.coldProcs = u32();
        job.workload.hotTextFraction = real();
        job.workload.uniqueFraction = real();
        job.workload.reuseSkew = real();
        job.workload.branchDensity = real();
        job.workload.memDensity = real();
        job.workload.targetDynamicInsns = u64();
        job.workload.hotLoopIters = u32();
        job.workload.coldCallsPerIter = u32();
        job.workload.coldZipfTheta = real();
        job.workload.coldBurst = u32();
        job.workload.dataBytesPerProc = u32();

        core::SystemConfig &config = job.config;
        cpu::CpuConfig &cpu = config.cpu;
        for (cache::CacheConfig *cache : {&cpu.icache, &cpu.dcache}) {
            cache->sizeBytes = u32();
            cache->lineBytes = u32();
            cache->assoc = u32();
        }
        cpu.predictorEntries = u32();
        cpu.predictorKind = enumIn(cpu::PredictorKind::StaticNotTaken);
        cpu.mispredictPenalty = u32();
        cpu.redirectPenalty = u32();
        cpu.exceptionEntryPenalty = u32();
        cpu.exceptionReturnPenalty = u32();
        cpu.secondRegFile = flip();
        cpu.handlerDataUncached = flip();
        cpu.predecode = flip();
        cpu.blockExec = flip();
        cpu.superblockExec = flip();
        cpu.verifyDecompression = flip();
        cpu.memTiming.firstAccessCycles = u32();
        cpu.memTiming.burstRateCycles = u32();
        cpu.memTiming.busBytes = u32();
        cpu.maxUserInsns = u64();
        cpu.traceInsns = u64();
        cpu.mcRetryLimit = u32();
        cpu.handlerInsnBudget = u64();
        cpu.l2.enabled = flip();
        cpu.l2.sizeBytes = u32();
        cpu.l2.lineBytes = u32();
        cpu.l2.assoc = u32();
        cpu.l2.hitCycles = u32();
        cpu.l2.decompressCycles = u32();

        config.scheme = enumIn(compress::Scheme::HuffmanLine);
        config.secondRegFile = flip();
        config.regions.resize(rng_() % 40);
        for (prog::Region &region : config.regions)
            region = flip() ? prog::Region::Native : prog::Region::Compressed;
        config.order.resize(rng_() % 12);
        for (int32_t &index : config.order) {
            uint64_t pick = rng_() % 4;
            index = pick == 0   ? std::numeric_limits<int32_t>::min()
                    : pick == 1 ? std::numeric_limits<int32_t>::max()
                                : static_cast<int32_t>(u32());
        }
        config.dataCompression = enumIn(core::DataCompression::Both);
        config.dmem.scheme = enumIn(dmem::DataScheme::Lzrw1);
        config.dmem.pageBytes = u32();
        config.dmem.stagingPages = u32();
        config.profiling = flip();
        config.procCache.capacityBytes = u32();
        config.procCache.dispatchCycles = u32();
        config.integrity = flip();
        config.fault.plans.resize(rng_() % 4);
        for (fault::FaultPlan &plan : config.fault.plans) {
            plan.seed = u64();
            plan.site = enumIn(fault::Site::DataTruncate);
            plan.count = u32();
        }
        config.observe.enabled = flip();
        config.observe.trace = flip();
        config.observe.traceCapacity = static_cast<size_t>(u64());
        config.observe.heatmap = flip();

        job.timeoutSeconds = real();
        job.maxAttempts = u32();
        job.backoffSeconds = real();
        return job;
    }

  private:
    bool flip() { return rng_() & 1; }

    /** Half the draws at or above 2^63, where uint64 leaves int64. */
    uint64_t
    u64()
    {
        uint64_t value = rng_();
        return flip() ? value | (uint64_t{1} << 63) : value >> (rng_() % 64);
    }

    uint32_t
    u32()
    {
        return flip() ? std::numeric_limits<uint32_t>::max()
                      : static_cast<uint32_t>(rng_() >> (rng_() % 64));
    }

    template <typename E>
    E
    enumIn(E last)
    {
        return static_cast<E>(rng_() % (static_cast<uint64_t>(last) + 1));
    }

    /** Finite doubles only: the wire has no NaN or infinity. -0.0 is
     *  left out here; the parser reads "-0" as the integer 0, so it is
     *  checked on its own below. */
    double
    real()
    {
        static const double kEdges[] = {
            DBL_MAX,  -DBL_MAX, DBL_MIN,   -DBL_MIN,
            std::numeric_limits<double>::denorm_min(),
            -std::numeric_limits<double>::denorm_min(),
            2.2250738585072009e-308,  // largest subnormal
            0.1 + 0.2, 1.0 / 3.0, 0.0, 1.0, -1.0, 1e21, 1e-7, 123456789.0,
        };
        if (flip())
            return kEdges[rng_() % std::size(kEdges)];
        for (;;) {
            uint64_t bits = rng_();
            double value;
            std::memcpy(&value, &bits, sizeof value);
            if (std::isfinite(value) && value != 0.0)
                return value;
        }
    }

    /** Quotes, backslashes, every control byte, DEL and high bytes, and
     *  the member-key fragments content-key slicing looks for. */
    std::string
    hostileString()
    {
        static const char *kFragments[] = {
            "\"", "\\", ",\"workload\":", ",\"timeout\":", "{", "}", "\\u",
            "plain",
        };
        std::string text;
        size_t pieces = rng_() % 8;
        for (size_t i = 0; i < pieces; ++i) {
            if (flip())
                text += kFragments[rng_() % std::size(kFragments)];
            else
                text += static_cast<char>(rng_() % 256);
        }
        return text;
    }

    std::mt19937_64 rng_;
};

std::string
jobBytes(const Job &job)
{
    std::string text;
    serve::appendJobJson(text, job);
    return text;
}

std::string
hex64(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

TEST(JobWriter, RandomJobsWriteTheJsonBuiltBytesAndDecodeBack)
{
    JobGen gen(0x0b5e55edull);
    for (int i = 0; i < 2000; ++i) {
        const Job job = gen.job();
        const std::string bytes = jobBytes(job);
        ASSERT_EQ(bytes, reference::jsonBuiltJob(job).dump()) << i;
        ASSERT_EQ(serve::encodeJob(job).dump(), bytes) << i;
        const std::string key = reference::jsonBuiltKey(job);
        ASSERT_EQ(serve::jobContentKey(job), key) << i;
        ASSERT_EQ(serve::jobContentKeyFromDump(bytes), key) << i;

        Json parsed;
        ASSERT_TRUE(Json::parse(bytes, &parsed)) << i;
        Job decoded;
        ASSERT_TRUE(serve::decodeJob(parsed, decoded)) << i;
        ASSERT_EQ(jobBytes(decoded), bytes) << i;
    }
}

TEST(JobWriter, NegativeZeroAndPartsMatchTheJsonBuiltBytes)
{
    Job job = JobGen(7).job();
    job.workload.hotTextFraction = -0.0;
    job.timeoutSeconds = -0.0;
    EXPECT_EQ(jobBytes(job), reference::jsonBuiltJob(job).dump());
    std::string workload;
    serve::appendWorkloadJson(workload, job.workload);
    EXPECT_EQ(workload, reference::jsonBuiltWorkload(job.workload).dump());
    std::string config;
    serve::appendConfigJson(config, job.config);
    EXPECT_EQ(config, reference::jsonBuiltConfig(job.config).dump());
}

TEST(JobWriter, SweepIdAndBeginPayloadMatchTheirJsonBuiltForms)
{
    JobGen gen(99);
    for (size_t count : {0, 1, 2, 17}) {
        std::vector<std::string> dumps;
        Json encoded = Json::array();
        std::string canon = "label\n\"x\"";
        for (size_t i = 0; i < count; ++i) {
            Job job = gen.job();
            dumps.push_back(jobBytes(job));
            encoded.push(reference::jsonBuiltJob(job));
            canon += "\n" + dumps.back();
        }
        const std::string id = serve::sweepContentId("label\n\"x\"", dumps);
        EXPECT_EQ(id, hex64(harness::stableHash64(canon))) << count;
        EXPECT_EQ(id, serve::sweepContentId("label\n\"x\"", encoded));

        Json begin = Json::object();
        begin.set("id", id);
        begin.set("label", "label\n\"x\"");
        begin.set("priority", int64_t(-7));
        begin.set("jobs", encoded);
        EXPECT_EQ(serve::sweepBeginPayload(id, "label\n\"x\"", -7, dumps),
                  begin.dump())
            << count;
    }
}
