#include "trace.h"

#include <unistd.h>

#include <cstring>
#include <fstream>

#include "support/logging.h"

namespace perfbench {

using rtd::harness::Json;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int32_t
Tracer::begin(const char *name, const char *category, int64_t job)
{
    if (!enabled_)
        return -1;
    int32_t id = static_cast<int32_t>(spans_.size());
    int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Record{name, category, job, parent, nowNs()});
    open_.push_back(id);
    return id;
}

void
Tracer::end(int32_t id)
{
    if (id < 0)
        return;
    if (open_.empty() || open_.back() != id)
        rtd::panic("perfbench: span %d closed out of order", id);
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    open_.pop_back();
}

std::vector<int64_t>
Tracer::selfNs() const
{
    std::vector<int64_t> self(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        if (r.endNs < 0)
            continue;
        int64_t duration = r.endNs - r.startNs;
        self[i] += duration;
        if (r.parent >= 0)
            self[static_cast<size_t>(r.parent)] -= duration;
    }
    return self;
}

std::vector<double>
Tracer::selfTimes(const char *name, const char *category) const
{
    std::vector<int64_t> self = selfNs();
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        if (r.endNs < 0 || std::strcmp(r.name, name) != 0)
            continue;
        if (category && std::strcmp(r.category, category) != 0)
            continue;
        out.push_back(static_cast<double>(self[i]) * 1e-9);
    }
    return out;
}

double
Tracer::selfTotal(const char *name, const char *category) const
{
    double total = 0.0;
    for (double s : selfTimes(name, category))
        total += s;
    return total;
}

bool
Tracer::writeChromeTrace(const std::string &path, Json metadata) const
{
    std::vector<int64_t> self = selfNs();
    Json events = Json::array();
    int64_t pid = static_cast<int64_t>(::getpid());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        if (r.endNs < 0)
            continue;
        Json event = Json::object();
        event.set("name", r.name);
        event.set("cat", r.category[0] ? r.category : "bench");
        event.set("ph", "X");
        event.set("ts", Json::exactDouble(static_cast<double>(r.startNs) /
                                          1000.0));
        event.set("dur", Json::exactDouble(
                             static_cast<double>(r.endNs - r.startNs) /
                             1000.0));
        event.set("pid", pid);
        event.set("tid", int64_t(1));
        Json args = Json::object();
        args.set("id", static_cast<int64_t>(i));
        args.set("parent", static_cast<int64_t>(r.parent));
        args.set("job", r.job);
        args.set("self_us", Json::exactDouble(
                                static_cast<double>(self[i]) / 1000.0));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    doc.set("metadata", std::move(metadata));
    std::ofstream out(path, std::ios::binary);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

Json
runStamp(const Options &opts)
{
    Json stamp = Json::object();
    stamp.set("workload", opts.workload);
    stamp.set("seed", opts.seed);
    stamp.set("seconds", opts.seconds);
    stamp.set("trace", opts.trace);
    stamp.set("smoke", opts.smoke);
    stamp.set("host_cores", static_cast<uint64_t>(hostCores()));
    stamp.set("build_type", RTDC_PERFBENCH_BUILD_TYPE);
    stamp.set("sanitize", RTDC_PERFBENCH_SANITIZE);
    stamp.set("compiler", RTDC_PERFBENCH_COMPILER);
    stamp.set("commit", opts.commit);
    return stamp;
}

} // namespace perfbench
