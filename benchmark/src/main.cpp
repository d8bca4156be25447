/**
 * @file
 * mmbench: the repository benchmark program.
 *
 *   mmbench --workload W --seed S [--seconds T] [--trace 0|1]
 *           [--trace-file F] [--smoke] [--work-dir D] [--spec FILE]
 *
 * Runs one workload (phase1_outofcore, paper_iso_iter, blackbox_bb,
 * serve_mixed) with inputs derived from the seed, checks its outputs,
 * and prints each metric as "name value unit", a provenance line, and
 * last a JSON object {"correct", "attempted", "failed", "metrics"}.
 * Untraced runs report the end-to-end metrics of the spec
 * (BENCHMARK.json); traced runs report its per-layer metrics, write
 * Chrome trace-event JSON and print each layer's self time. Exits
 * non-zero when any check failed.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "serve/json.hpp"

using namespace mmbench;
using mm::serve::jsonQuote;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mmbench: " << why
              << "\nusage: mmbench --workload W --seed S [--seconds T] "
                 "[--trace 0|1] [--trace-file F] [--smoke] [--work-dir D] "
                 "[--spec BENCHMARK.json]\n";
    std::exit(2);
}

/** Metric names and units, in spec order. */
using MetricList = std::vector<std::pair<std::string, std::string>>;

/** The end_to_end and per_layer lists of BENCHMARK.json. */
std::pair<MetricList, MetricList>
loadSpec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = mm::serve::parseJson(ss.str(), &err);
    if (!doc)
        usage(path + ": " + err);
    auto list = [&](const char *key) {
        MetricList out;
        const mm::serve::JsonValue *arr = doc->find(key);
        if (arr == nullptr || !arr->isArray())
            usage(path + ": no " + key + " list");
        for (const auto &m : arr->array)
            out.emplace_back(m.getStr("name", ""), m.getStr("unit", ""));
        return out;
    };
    return {list("end_to_end"), list("per_layer")};
}

std::string
trim(const std::string &s)
{
    const size_t b = s.find_first_not_of(" \t");
    const size_t e = s.find_last_not_of(" \t");
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/** First /proc/cpuinfo value of @p key ("" when absent). */
std::string
cpuinfo(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0 && line.find(':') != std::string::npos)
            return trim(line.substr(line.find(':') + 1));
    return "";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

std::string
provenance(const Options &opt)
{
    const std::string flags = mm::strCat(" ", cpuinfo("flags"), " ");
    auto has = [&](const char *f) {
        return flags.find(mm::strCat(" ", f, " ")) != std::string::npos
                   ? "true"
                   : "false";
    };
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return mm::strCat(
        "{\"git_sha\":", jsonQuote(envOr("MMBENCH_GIT_SHA", "unknown")),
        ",\"git_dirty\":", jsonQuote(envOr("MMBENCH_GIT_DIRTY", "unknown")),
        ",\"tree_sha256\":", jsonQuote(envOr("MMBENCH_TREE_HASH", "unknown")),
        ",\"compiler\":", jsonQuote(compiler),
        ",\"build_type\":", jsonQuote(MMBENCH_BUILD_TYPE),
        ",\"cxx_flags\":", jsonQuote(trim(MMBENCH_CXX_FLAGS)),
        ",\"cpu_model\":", jsonQuote(cpuinfo("model name")),
        ",\"nproc\":", std::thread::hardware_concurrency(),
        ",\"lanes\":", opt.lanes,
        ",\"cpu_flags\":{\"avx2\":", has("avx2"), ",\"avx512f\":",
        has("avx512f"), ",\"fma\":", has("fma"), "}",
        ",\"gemm_path\":\"not exposed by src/tensor/gemm; the dispatched "
        "ISA path waits for the telemetry spine\"",
        ",\"workload\":", jsonQuote(opt.workload), ",\"seed\":", opt.seed,
        ",\"seconds\":", opt.seconds, ",\"trace\":", opt.trace ? 1 : 0,
        ",\"smoke\":", opt.smoke ? "true" : "false", "}");
}

/** Full-precision JSON number. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Seconds one enabled span costs (open + close), measured. */
double
spanCostSec()
{
    Tracer probe(true);
    const int n = 20000;
    const double t0 = nowSec();
    for (int i = 0; i < n; ++i)
        probe.span("probe.span");
    return (nowSec() - t0) / n;
}

/** Layers whose self time the traced run reports as a share of wall. */
const char *const kSelfLayers[] = {"dataset", "shard_store", "nn", "cache",
                                   "search", "bound", "serve"};

/** Per-layer metrics derived from the trace, and the trace report. */
void
traceReport(const Options &opt, const Tracer &tr, double t0, Report &rep)
{
    const double wall = rep.endSec - t0;
    const std::map<std::string, double> self = tr.selfTimeByLayer();
    std::cerr << "\nself time by layer (" << opt.workload << ", seed "
              << opt.seed << ", wall " << mm::fmtDouble(wall, 3) << " s)\n";
    for (const auto &[layer, sec] : self)
        std::cerr << "  " << layer << std::string(14 - std::min<size_t>(
                                                      13, layer.size()), ' ')
                  << mm::fmtDouble(sec, 4) << " s  "
                  << mm::fmtDouble(100.0 * sec / wall, 2) << " %\n";
    for (const char *layer : kSelfLayers) {
        auto it = self.find(layer);
        rep.set(std::string(layer) + ".self_pct",
                it == self.end() ? 0.0 : 100.0 * it->second / wall, "%");
    }

    const double evalNs = rep.layer.at("costmodel.eval_ns").value;
    rep.set("costmodel.evals", rep.costEvals, "count");
    rep.set("costmodel.share_pct", 100.0 * rep.costEvals * evalNs * 1e-9 / wall,
            "%");

    const double untraced = tr.untracedSec(t0, rep.endSec);
    const double spans = double(tr.spanCount());
    rep.set("trace.wall_s", wall, "s");
    rep.set("trace.untraced_s", untraced, "s");
    rep.set("trace.untraced_pct", 100.0 * untraced / wall, "%");
    rep.set("trace.overhead_pct", 100.0 * spans * spanCostSec() / wall, "%");
    rep.set("trace.spans", spans, "count");
    rep.op(untraced <= 0.05 * wall,
           mm::strCat("untraced time ", untraced, " s exceeds 5 % of wall"));

    tr.writeChrome(opt.traceFile, opt.workload, opt.seed);
    std::cerr << "trace: " << opt.traceFile << " (" << spans << " spans)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string spec = "BENCHMARK.json";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        auto numeric = [&](auto parse) {
            const std::string v = value();
            try {
                return parse(v);
            } catch (const std::logic_error &) {
                usage(a + " needs a number, not '" + v + "'");
            }
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = numeric(
                [](const std::string &v) { return std::stoull(v); });
        else if (a == "--seconds")
            opt.seconds = numeric(
                [](const std::string &v) { return std::stod(v); });
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--trace-file")
            opt.traceFile = value();
        else if (a == "--smoke")
            opt.smoke = true;
        else if (a == "--work-dir")
            opt.workDir = value();
        else if (a == "--spec")
            spec = value();
        else
            usage("unknown argument " + a);
    }
    const std::map<std::string, void (*)(const Options &, Tracer &, Report &)>
        workloads = {{"phase1_outofcore", runPhase1OutOfCore},
                     {"paper_iso_iter", runPaperIsoIter},
                     {"blackbox_bb", runBlackboxBB},
                     {"serve_mixed", runServeMixed}};
    if (workloads.count(opt.workload) == 0)
        usage("unknown workload '" + opt.workload + "'");
    const auto [endToEnd, perLayer] = loadSpec(spec);

    opt.lanes = std::clamp<size_t>(std::thread::hardware_concurrency() / 2,
                                   1, 4);
    const std::string runDir = mm::strCat(opt.workDir, "/", opt.workload,
                                          "-", ::getpid());
    if (opt.traceFile.empty())
        opt.traceFile = mm::strCat(".bench_build/traces/", opt.workload,
                                   "-seed", opt.seed, ".json");
    std::filesystem::create_directories(runDir);
    if (opt.trace)
        std::filesystem::create_directories(
            std::filesystem::absolute(opt.traceFile).parent_path());
    Options runOpt = opt;
    runOpt.workDir = runDir;

    Tracer tr(opt.trace);
    Report rep;
    const double t0 = nowSec();
    try {
        workloads.at(opt.workload)(runOpt, tr, rep);
    } catch (const std::exception &e) {
        std::filesystem::remove_all(runDir);
        std::cerr << "mmbench: " << opt.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    std::filesystem::remove_all(runDir);

    std::map<std::string, Metric> metrics;
    if (opt.trace) {
        traceReport(opt, tr, t0, rep);
        metrics = rep.layer;
    } else if (rep.jobSec.empty() || rep.quality.empty()
               || rep.setupRssMb.empty() || rep.runRssMb.empty()) {
        rep.op(false, "the workload completed no job");
    } else {
        metrics["setup_s"] = {mm::quantile(rep.setupSec, 0.5), "s"};
        metrics["job_p50_s"] = {mm::quantile(rep.jobSec, 0.5), "s"};
        metrics["job_p95_s"] = {mm::quantile(rep.jobSec, 0.95), "s"};
        metrics["jobs_per_s"] = {rep.jobsPerSec, "1/s"};
        metrics["quality_x"] = {mm::geomean(rep.quality), "x"};
        metrics["peak_rss_mb"] = {std::max(mm::quantile(rep.setupRssMb, 0.5),
                                           mm::quantile(rep.runRssMb, 0.5)),
                                  "MiB"};
    }

    // Print exactly the spec's list for this mode, in its order. A layer
    // the workload leaves idle reads 0; every other gap is a bug.
    const MetricList &wanted = opt.trace ? perLayer : endToEnd;
    std::string json;
    for (const auto &[name, unit] : wanted) {
        auto it = metrics.find(name);
        Metric m = it != metrics.end() ? it->second : Metric{0.0, unit};
        if (!opt.trace && it == metrics.end())
            rep.op(false, "end-to-end metric " + name + " not measured");
        if (m.unit != unit)
            rep.op(false, name + " measured in " + m.unit + ", spec says "
                              + unit);
        if (!std::isfinite(m.value)) {
            rep.op(false, name + " is not finite");
            m.value = 0.0;
        }
        std::cout << name << " " << number(m.value) << " " << unit << "\n";
        json += mm::strCat(json.empty() ? "" : ",", jsonQuote(name),
                           ":{\"value\":", number(m.value),
                           ",\"unit\":", jsonQuote(unit), "}");
    }
    for (const auto &[name, m] : metrics)
        if (std::none_of(wanted.begin(), wanted.end(),
                         [&](const auto &w) { return w.first == name; }))
            rep.op(false, name + " is measured but missing from " + spec);
    for (const std::string &why : rep.failures)
        std::cerr << "CHECK FAILED: " << why << "\n";
    std::cout << "provenance " << provenance(opt) << "\n";
    std::cout << "{\"correct\":" << (rep.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << rep.attempted
              << ",\"failed\":" << rep.failed << ",\"metrics\":{" << json
              << "}}" << std::endl;
    return rep.failed == 0 ? 0 : 1;
}
