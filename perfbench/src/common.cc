#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "harness/json.h"
#include "support/logging.h"

namespace perfbench {

const char *const kScenarioNames[5] = {"native", "dictionary", "codepack",
                                       "dataonly", "both"};

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"throughput_per_s", "1/s"},
        {"setup_s", "s"},
        {"max_rss_mb", "MiB"},
    };
    return list;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        [] {
            std::vector<std::pair<std::string, std::string>> out;
            const std::pair<const char *, const char *> perScenario[] = {
                {"cpu.run_s", "s"},
                {"cpu.host_ns_per_insn", "ns"},
                {"cpu.cycles", "count"},
                {"runtime.handler_insns", "count"},
                {"runtime.compressed_misses", "count"},
                {"cache.icache_misses", "count"},
                {"cache.dcache_misses", "count"},
                {"core.build_image_ms", "ms"},
                {"core.system_ctor_ms", "ms"},
            };
            for (const auto &[name, unit] : perScenario)
                for (const char *scenario : kScenarioNames)
                    out.emplace_back(std::string(name) + "." + scenario,
                                     unit);
            const std::pair<const char *, const char *> rest[] = {
                {"bench.op_p50_ms", "ms"},
                {"bench.op_p90_ms", "ms"},
                {"bench.rss_growth_kib_per_op", "KiB"},
                {"dmem.faults.dataonly", "count"},
                {"dmem.faults.both", "count"},
                {"workload.generate_ms", "ms"},
                {"harness.artifact_hit_ratio", "ratio"},
                {"serve.fleet_efficiency", "ratio"},
                {"serve.start_ms", "ms"},
                {"serve.worker_peak_rss_mb", "MiB"},
                {"serve.encode_result_us", "us"},
                {"serve.journal_append_us", "us"},
                {"serve.disk_store_ms", "ms"},
                {"serve.submit_ms.cold", "ms"},
                {"serve.fetch_wait_s.cold", "s"},
                {"serve.encode_jobs_ms", "ms"},
                {"serve.job_content_key_ms", "ms"},
                {"serve.decode_results_ms", "ms"},
                {"serve.submit_ms.warm", "ms"},
                {"serve.fetch_ms.warm", "ms"},
                {"serve.journal_replay_ms", "ms"},
                {"serve.disk_load_ms", "ms"},
                {"serve.cached_fraction", "ratio"},
                {"trace.overhead_pct", "%"},
                {"trace.unattributed_pct", "%"},
            };
            for (const auto &[name, unit] : rest)
                out.emplace_back(name, unit);
            return out;
        }();
    return list;
}

Report::Report(bool trace)
{
    for (const auto &[name, unit] :
         trace ? perLayerMetrics() : endToEndMetrics())
        metrics_.push_back(Metric{name, unit, 0.0});
}

void
Report::set(const std::string &name, double value)
{
    for (Metric &metric : metrics_) {
        if (metric.name == name) {
            metric.value = value;
            return;
        }
    }
    rtd::panic("perfbench: undeclared metric %s", name.c_str());
}

void
Report::fail(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string
Report::resultLine() const
{
    using rtd::harness::Json;
    Json metrics = Json::object();
    for (const Metric &metric : metrics_) {
        Json entry = Json::object();
        entry.set("value", Json::exactDouble(metric.value));
        entry.set("unit", metric.unit);
        metrics.set(metric.name, std::move(entry));
    }
    Json line = Json::object();
    line.set("correct", correct && failed == 0);
    line.set("attempted", attempted);
    line.set("failed", failed);
    line.set("metrics", std::move(metrics));
    return line.dump();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = p * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
setLatencyLedger(Report &report, const std::vector<double> &op_seconds)
{
    report.set("bench.op_p50_ms", median(op_seconds) * 1000.0);
    // p90 only while at least ten samples lie beyond it.
    report.set("bench.op_p90_ms", op_seconds.size() >= 100
                                      ? quantile(op_seconds, 0.9) * 1000.0
                                      : 0.0);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

uint64_t
perturbSeed(uint64_t spec_seed, uint64_t bench_seed)
{
    // splitmix64 of the pair: distinct bench seeds give unrelated
    // program seeds for every benchmark. Kept below 2^63, the largest
    // integer the serve wire format carries.
    uint64_t z = spec_seed ^ (bench_seed * 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) >> 1;
}

unsigned
hostCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

double
rssMb(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

double
peakRssMb()
{
    return rssMb(RUSAGE_SELF);
}

double
childPeakRssMb()
{
    return rssMb(RUSAGE_CHILDREN);
}

double
RssMark::growthKibPerOp(size_t completed) const
{
    if (completed <= ops_ || mb_ <= 0.0)
        return 0.0;
    return (peakRssMb() - mb_) * 1024.0 /
           static_cast<double>(completed - ops_);
}

ScratchDir::ScratchDir(const std::string &tag)
{
    path_ = std::string(kOutDir) + "/tmp-" + tag + "-" +
            std::to_string(static_cast<long>(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
}

std::string
ScratchDir::fresh(const std::string &name) const
{
    std::string dir = path_ + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace perfbench
