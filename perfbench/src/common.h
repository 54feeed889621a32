/**
 * @file
 * Shared plumbing of the repository benchmark: command-line options,
 * the metric report every workload fills, timing and statistics
 * helpers, and the per-run scratch directory.
 *
 * Every run reports the full metric set declared in BENCHMARK.json:
 * the end-to-end set untraced (--trace 0), the per-layer ledger traced
 * (--trace 1). Layers a workload does not exercise stay 0 in its
 * ledger, which is itself the "no change here" prediction.
 *
 * Throughput is taken from the run's fastest operation (best of N, as
 * bench_simperf does): on a shared host, interference only ever slows
 * an operation down, and the median of a run drifts with it.
 */

#ifndef RTDC_PERFBENCH_COMMON_H
#define RTDC_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny lengths, schema + correctness checks only. */
    bool smoke = false;
    /** Source identity stamped on every result (set by run.py). */
    std::string commit = "unknown";
};

/** Where traces go and per-run scratch dirs live (relative to cwd). */
constexpr const char *kOutDir = ".bench_out";

/** One named metric value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * What one run reports. The metric list is pre-populated with every
 * declared name (in BENCHMARK.json order); workloads set() values.
 */
class Report
{
  public:
    explicit Report(bool trace);

    /** Set a declared metric; panics on an undeclared name. */
    void set(const std::string &name, double value);

    /** Count one operation; @p ok false counts it as failed. */
    void op(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** Record a correctness failure message (also sets correct=false). */
    void fail(const std::string &what);

    /** The final stdout line: {"correct","attempted","failed","metrics"}. */
    std::string resultLine() const;

    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    std::vector<Metric> metrics_;
};

/** Metric declarations, mirrored by BENCHMARK.json (run.py checks). */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** The sim-cc1 scenario names, which also key the per-layer ledger. */
extern const char *const kScenarioNames[5];

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The p-quantile (0..1) by linear interpolation between order
 * statistics (0 when empty).
 */
double quantile(std::vector<double> values, double p);

/**
 * Set bench.op_p50_ms and bench.op_p90_ms from the untraced op times;
 * p90 stays 0 below 100 samples.
 */
void setLatencyLedger(Report &report, const std::vector<double> &op_seconds);

/** Geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * The benchmark's seed applied to a workload seed: every WorkloadSpec
 * the benchmark builds passes through here, so one --seed perturbs
 * every generated program while the program itself sees only the
 * resulting jobs.
 */
uint64_t perturbSeed(uint64_t spec_seed, uint64_t bench_seed);

/** Cores this process may run on (sched affinity). */
unsigned hostCores();

/** Peak RSS in MiB of this process. */
double peakRssMb();

/** Peak RSS in MiB of the largest reaped child process. */
double childPeakRssMb();

/**
 * Peak RSS at a fixed amount of work. max_rss_mb is read right after
 * the mark-th operation of a measuring loop, so it does not drift with
 * how many operations host speed allowed; growth past the mark goes to
 * the ledger per operation.
 */
class RssMark
{
  public:
    explicit RssMark(size_t ops) : ops_(ops) {}

    /** Call after each operation with the number completed so far. */
    void done(size_t completed)
    {
        if (completed == ops_)
            mb_ = peakRssMb();
    }
    /** The peak at the mark (now, when the loop stopped short of it). */
    double mb() const { return mb_ > 0.0 ? mb_ : peakRssMb(); }
    /** KiB of peak growth per operation after the mark. */
    double growthKibPerOp(size_t completed) const;

  private:
    size_t ops_;
    double mb_ = 0.0;
};

/**
 * A private scratch directory under kOutDir, created empty and
 * removed (with everything in it) on destruction. Paths inside it are
 * relative to the working directory, which keeps unix socket paths
 * short wherever the checkout lives.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }
    /** A fresh, empty subdirectory path (created). */
    std::string fresh(const std::string &name) const;

  private:
    std::string path_;
};

/// @name Workloads (one translation unit each)
/// @{
void runSimCc1(const Options &opts, Report &report);
void runSweepCold(const Options &opts, Report &report);
void runServeWarm(const Options &opts, Report &report);
/// @}

} // namespace perfbench

#endif // RTDC_PERFBENCH_COMMON_H
