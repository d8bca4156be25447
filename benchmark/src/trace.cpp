#include <sched.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <optional>
#include <string>

#include "bench.hpp"
#include "common/stats.hpp"

namespace mmbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Small stable per-thread index for trace output. */
int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int idx = next.fetch_add(1);
    return idx;
}

/** Spans currently open on this thread, innermost last. */
thread_local std::vector<int64_t> openSpans;

/** Keeps pinToQuickestCpus's probe from being optimised away. */
volatile uint64_t probeSink;

/** Length of the union of @p iv clipped to [lo, hi]. */
double
coveredSec(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, runEnd = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, runEnd);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            runEnd = b;
        }
    }
    return covered;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::string
escaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

double
nowSec()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

uint64_t
deriveSeed(uint64_t base, uint64_t a, uint64_t b)
{
    uint64_t z = base;
    for (uint64_t v : {a, b}) {
        z += 0x9E3779B97F4A7C15ULL + v;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
    }
    return z;
}

bool
roundsDone(const Options &opt, int roundsRun, int minRounds,
           double elapsedSec, double roundSec)
{
    return roundsRun >= minRounds && elapsedSec + roundSec > opt.seconds;
}

void
pinToQuickestCpus(size_t lanes)
{
    // The vCPUs the process was started on; later calls narrow the
    // calling thread's own mask.
    static const std::optional<cpu_set_t> all = [] {
        cpu_set_t s;
        return sched_getaffinity(0, sizeof(s), &s) == 0
                   ? std::optional<cpu_set_t>(s)
                   : std::nullopt;
    }();
    if (!all.has_value() || size_t(CPU_COUNT(&*all)) <= lanes)
        return;
    // Eight independent splitmix streams: throughput-bound like the
    // cost model, ~0.3 ms on an idle core.
    auto probe = [] {
        uint64_t s[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        const double t0 = nowSec();
        for (int i = 0; i < 50000; ++i)
            for (uint64_t &x : s) {
                uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
                z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
                x ^= z >> 27;
            }
        probeSink = s[0] ^ s[7];
        return nowSec() - t0;
    };
    std::vector<std::pair<double, int>> speed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &*all))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        speed.emplace_back(std::min({probe(), probe(), probe()}), cpu);
    }
    std::sort(speed.begin(), speed.end());
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    for (size_t i = 0; i < std::min(lanes, speed.size()); ++i)
        CPU_SET(speed[i].second, &chosen);
    if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0)
        sched_setaffinity(0, sizeof(*all), &*all);
}

double
takePeakRssMb()
{
    double kib = 0.0;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            kib = std::stod(line.substr(6));
    // "5" resets the high-water mark (Linux >= 4.0). Where that fails the
    // mark only grows, and each phase reports the peak so far.
    std::ofstream("/proc/self/clear_refs") << "5";
    return kib / 1024.0;
}

void
Report::op(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(why);
    }
}

void
Report::jobsFromPartLatencies()
{
    jobSec.clear();
    for (const auto &[cls, parts] : partSec) {
        double job = 0.0;
        size_t reps = 0;
        for (const auto &[part, secs] : parts) {
            job += *std::min_element(secs.begin(), secs.end());
            reps = std::max(reps, secs.size());
        }
        jobSec.insert(jobSec.end(), reps, job);
    }
    double total = 0.0;
    for (double s : jobSec)
        total += s;
    jobsPerSec = double(jobSec.size()) / total;
}

Tracer::Span
Tracer::span(const std::string &name)
{
    if (!on)
        return Span(nullptr, -1);
    Record r;
    r.name = name;
    r.parent = openSpans.empty() ? -1 : openSpans.back();
    r.tid = threadIndex();
    int64_t id = 0;
    {
        mm::MutexLock lock(mtx);
        id = int64_t(spans.size());
        r.start = nowSec();
        spans.push_back(std::move(r));
    }
    openSpans.push_back(id);
    return Span(this, id);
}

void
Tracer::Span::end()
{
    if (tracer != nullptr)
        tracer->close(spanId);
    tracer = nullptr;
}

void
Tracer::close(int64_t id)
{
    double t = nowSec();
    auto it = std::find(openSpans.rbegin(), openSpans.rend(), id);
    if (it != openSpans.rend())
        openSpans.erase(std::next(it).base());
    mm::MutexLock lock(mtx);
    spans[size_t(id)].end = t;
}

void
Tracer::mark(int64_t id, const std::string &name)
{
    if (!on || id < 0)
        return;
    double t = nowSec();
    mm::MutexLock lock(mtx);
    marks.push_back({id, {name, t}});
}

size_t
Tracer::spanCount() const
{
    mm::MutexLock lock(mtx);
    return spans.size();
}

std::map<std::string, double>
Tracer::selfTimeByLayer() const
{
    mm::MutexLock lock(mtx);
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Record &r : spans)
        if (r.parent >= 0 && r.end >= r.start)
            kids[size_t(r.parent)].push_back({r.start, r.end});
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        if (r.end < r.start)
            continue;
        self[layerOf(r.name)] +=
            (r.end - r.start) - coveredSec(kids[i], r.start, r.end);
    }
    return self;
}

double
Tracer::untracedSec(double t0, double t1) const
{
    mm::MutexLock lock(mtx);
    std::vector<std::pair<double, double>> top;
    for (const Record &r : spans)
        if (r.parent < 0 && r.end >= r.start)
            top.push_back({r.start, r.end});
    return (t1 - t0) - coveredSec(std::move(top), t0, t1);
}

void
Tracer::writeChrome(const std::string &path, const std::string &workload,
                    uint64_t seed) const
{
    std::ofstream os(path);
    os << std::setprecision(15) << "{\"otherData\":{\"workload\":\""
       << escaped(workload) << "\",\"seed\":" << seed
       << "},\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    mm::MutexLock lock(mtx);
    bool first = true;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        if (r.end < r.start)
            continue;
        os << (first ? "" : ",") << "\n{\"name\":\"" << escaped(r.name)
           << "\",\"cat\":\"" << escaped(layerOf(r.name))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
           << ",\"ts\":" << r.start * 1e6 << ",\"dur\":"
           << (r.end - r.start) * 1e6 << ",\"args\":{\"id\":" << i
           << ",\"parent\":" << r.parent << ",\"workload\":\""
           << escaped(workload) << "\",\"seed\":" << seed << "}}";
        first = false;
    }
    for (const auto &[id, m] : marks) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << escaped(m.first)
           << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
           << spans[size_t(id)].tid << ",\"ts\":" << m.second * 1e6
           << ",\"args\":{\"span\":" << id << "}}";
        first = false;
    }
    os << "\n]}\n";
}

} // namespace mmbench
