#include "bench/bench_util.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "common/clock.hpp"
#include "serve/json.hpp"
#include "tensor/gemm.hpp"

namespace mm::bench {

const std::vector<std::string> &
methodNames()
{
    static const std::vector<std::string> names = {"MM", "SA", "GA", "RL",
                                                   "Random"};
    return names;
}

MindMappingsOptions
benchOptions(const BenchEnv &env)
{
    MindMappingsOptions opts;
    opts.phase1.preset = env.paperPreset ? SurrogatePreset::Paper
                                         : SurrogatePreset::Fast;
    opts.phase1.resolve();
    opts.phase1.data.samples =
        envSize("MM_TRAIN_SAMPLES", opts.phase1.data.samples);
    opts.phase1.train.epochs =
        int(envInt("MM_EPOCHS", opts.phase1.train.epochs));
    opts.useCache = !SurrogateCache::disabled();
    opts.phase1.threads = int(envInt("MM_TRAIN_THREADS", 0));
    opts.phase1.data.streamDir = env.streamDir;
    opts.phase1.data.shardSize =
        envSize("MM_SHARD_ROWS", opts.phase1.data.shardSize);
    opts.phase1.train.shuffleWindow = envSize("MM_SHUFFLE_WINDOW", 0);
    opts.phase1.data.labelBlock =
        envSize("MM_EVAL_BATCH", opts.phase1.data.labelBlock);
    return opts;
}

double
peakRssMb()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return double(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    // Linux (and the BSDs) report ru_maxrss in KiB.
    return double(ru.ru_maxrss) / 1024.0;
#endif
}

std::unique_ptr<MindMappings>
provisionSurrogate(const AlgorithmSpec &algo, const BenchEnv &env)
{
    auto mapper = std::make_unique<MindMappings>(
        AcceleratorSpec::paperDefault(), algo, benchOptions(env));
    std::cerr << "[phase1] preparing surrogate for " << algo.name
              << " (samples=" << mapper->options().phase1.data.samples
              << ", epochs=" << mapper->options().phase1.train.epochs
              << ") ..." << std::endl;
    WallTimer timer;
    bool cached = mapper->prepare();
    std::cerr << "[phase1] " << (cached ? "cache hit" : "trained") << " in "
              << fmtDouble(timer.elapsedSec(), 3) << " s" << std::endl;
    return mapper;
}

DdpgConfig
benchDdpgConfig(const BenchEnv &env)
{
    DdpgConfig cfg;
    if (env.paperPreset) {
        cfg.hiddenWidth = 300; // Appendix A
        cfg.updateEvery = 1;
    } else {
        cfg.hiddenWidth = int(envInt("MM_RL_WIDTH", 96));
        cfg.batchSize = 24;
        cfg.updateEvery = 2;
    }
    return cfg;
}

std::vector<std::string>
activeMethods(const BenchEnv &env, bool includeParallel)
{
    std::vector<std::string> out;
    if (env.methods.empty()) {
        out = methodNames();
        if (includeParallel)
            out.push_back("MM-P");
        return out;
    }
    const SearcherRegistry &reg = SearcherRegistry::instance();
    for (const std::string &key : split(env.methods, ',')) {
        if (key.empty())
            continue;
        (void)reg.at(key); // fatal with the known keys when unknown
        out.push_back(key);
    }
    if (out.empty())
        fatal("MM_METHODS is set but names no methods");
    return out;
}

std::string
methodSpec(const std::string &method, const BenchEnv &env)
{
    if (method == "MM-P")
        return strCat("MM-P:chains=", env.chains, ",threads=",
                      env.threads);
    if (method == "RL") {
        DdpgConfig cfg = benchDdpgConfig(env);
        return strCat("RL:width=", cfg.hiddenWidth, ",batch=",
                      cfg.batchSize, ",updateEvery=", cfg.updateEvery);
    }
    return method;
}

bool
handleBenchArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--list") {
            std::cout << "registered searchers (spec: KEY or "
                         "KEY:opt=v,opt=v; MM_METHODS takes keys):\n\n"
                      << SearcherRegistry::instance().describe();
            return true;
        }
    }
    return false;
}

namespace {

double
geomeanBy(const std::vector<SearchResult> &runs,
          const std::function<double(const SearchResult &)> &pick)
{
    std::vector<double> vals;
    for (const auto &r : runs) {
        double v = pick(r);
        if (std::isfinite(v))
            vals.push_back(v);
    }
    return vals.empty() ? std::numeric_limits<double>::infinity()
                        : geomean(vals);
}

} // namespace

double
geomeanAtStep(const std::vector<SearchResult> &runs, int64_t step)
{
    return geomeanBy(runs,
                     [&](const SearchResult &r) { return r.bestAtStep(step); });
}

double
geomeanAtTime(const std::vector<SearchResult> &runs, double sec)
{
    return geomeanBy(runs, [&](const SearchResult &r) {
        return r.bestAtVirtualTime(sec);
    });
}

double
geomeanFinal(const std::vector<SearchResult> &runs)
{
    return geomeanBy(runs,
                     [](const SearchResult &r) { return r.bestNormEdp; });
}

std::vector<SearchResult>
runMethod(const std::string &method, const CostModel &model,
          Surrogate *surrogate, const SearchBudget &budget,
          const BenchEnv &env, uint64_t baseSeed)
{
    SearcherBuildContext ctx{model, surrogate,
                             TimingModel::paperCalibrated()};
    MultiRunOptions opts;
    opts.runs = env.runs;
    // MM_SEED=0 preserves the historical per-problem seeds bitwise; a
    // non-zero seed shifts every repetition into a fresh stream.
    opts.baseSeed = env.seed == 0
                        ? baseSeed
                        : baseSeed + env.seed * 0x9E3779B97F4A7C15ULL;
    opts.threads = env.runThreads;
    return runMany(methodSpec(method, env), ctx, budget, opts).runs;
}

void
banner(const std::string &title, const std::string &paperRef)
{
    std::cout << "=== " << title << "\n=== reproduces: " << paperRef
              << "\n"
              << std::endl;
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream ss;
    ss << std::setprecision(12) << v;
    return ss.str();
}

} // namespace

JsonObject &
JsonObject::set(const std::string &key, const std::string &v)
{
    fields.emplace_back(key, serve::jsonQuote(v));
    return *this;
}

JsonObject &
JsonObject::set(const std::string &key, const char *v)
{
    return set(key, std::string(v));
}

JsonObject &
JsonObject::set(const std::string &key, double v)
{
    fields.emplace_back(key, jsonNumber(v));
    return *this;
}

JsonObject &
JsonObject::set(const std::string &key, int64_t v)
{
    fields.emplace_back(key, std::to_string(v));
    return *this;
}

JsonObject &
JsonObject::setRaw(const std::string &key, std::string rawJson)
{
    fields.emplace_back(key, std::move(rawJson));
    return *this;
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serve::jsonQuote(fields[i].first);
        out += ": ";
        out += fields[i].second;
    }
    out += '}';
    return out;
}

JsonArray &
JsonArray::add(const JsonObject &obj)
{
    items.push_back(obj.str());
    return *this;
}

JsonArray &
JsonArray::addRaw(std::string rawJson)
{
    items.push_back(std::move(rawJson));
    return *this;
}

std::string
JsonArray::str() const
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += items[i];
    }
    out += ']';
    return out;
}

namespace {

/** First /proc/cpuinfo value of @p key ("" when absent). */
std::string
cpuinfoValue(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const size_t colon = line.find(':');
        if (line.rfind(key, 0) != 0 || colon == std::string::npos)
            continue;
        const size_t begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
    }
    return "";
}

std::string
compilerVersion()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

JsonObject
benchJsonHeader(const std::string &bench, const BenchEnv &env)
{
    const std::string flags = strCat(" ", cpuinfoValue("flags"), " ");
    JsonObject cpuFlags;
    for (const char *f : {"avx2", "avx512f", "fma"}) {
        const bool has = flags.find(strCat(" ", f, " ")) != std::string::npos;
        cpuFlags.setRaw(f, has ? "true" : "false");
    }
    JsonObject obj;
    obj.set("bench", bench)
        .set("preset", env.paperPreset ? "paper" : "fast")
        .set("runs", env.runs)
        .set("iters", env.iters)
        .set("vtime", env.vtime)
        .set("wall", env.wallSecs)
        .set("seed", int64_t(env.seed))
        .set("chains", env.chains)
        .set("threads", env.threads)
        .set("train_threads", env.trainThreads)
        .set("run_threads", env.runThreads)
        .set("git_sha", MM_BENCH_GIT_SHA)
        .set("compiler", compilerVersion())
        .set("build_type", MM_BENCH_BUILD_TYPE)
        .set("cxx_flags", MM_BENCH_CXX_FLAGS)
        .set("cpu_model", cpuinfoValue("model name"))
        .set("nproc", int64_t(std::thread::hardware_concurrency()))
        .setRaw("cpu_flags", cpuFlags.str())
        .set("gemm_path", gemmIsaPath());
    return obj;
}

std::string
writeBenchJson(const std::string &name, const JsonObject &obj)
{
    std::string dir = envStr("MM_BENCH_JSON_DIR", ".");
    std::string path = dir + "/BENCH_" + name + ".json";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "[bench] cannot write " << path << std::endl;
        return path;
    }
    os << obj.str() << "\n";
    std::cerr << "[bench] wrote " << path << std::endl;
    return path;
}

} // namespace mm::bench
