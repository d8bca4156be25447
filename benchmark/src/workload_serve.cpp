/**
 * @file
 * serve_mixed: mapping-as-a-service under a closed loop.
 *
 * An in-process SearchServer (2 workers, queue 8) answers clients that
 * each wait for a mapping before asking for the next, as a compiler or
 * autotuner would. Requests cycle through five methods and the eight
 * Table-1 problems. This is the only workload that exercises admission,
 * the queue, the JSON wire path and the surrogate pool's memory tier;
 * set-up is the pool's cold single-flight training, stored to its disk
 * tier.
 */
#include <bit>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace mmbench {

using namespace mm;
using namespace mm::serve;

namespace {

constexpr size_t kWorkers = 2;

/** One request as the client saw it. */
struct Served
{
    size_t method = 0, problem = 0;
    uint64_t seed = 0;
    bool quality = false;
    double sentAt = 0.0;
    double latency = 0.0, accepted = 0.0, firstProgress = 0.0;
    std::optional<JsonValue> result;
    std::string error;
};

/** Send one request and read its events up to the terminal one. */
Served
roundTrip(ServeClient &client, Tracer &tr, const ServeRequest &req)
{
    Served s;
    auto span = tr.span("serve.request");
    s.sentAt = nowSec();
    if (!client.sendRequest(req)) {
        s.error = "send failed";
        return s;
    }
    for (;;) {
        std::optional<JsonValue> ev = client.readEvent();
        if (!ev.has_value()) {
            s.error = "connection closed";
            return s;
        }
        const std::string type = ev->getStr("type", "");
        const double at = nowSec() - s.sentAt;
        tr.mark(span.id(), type);
        if (type == "accepted") {
            s.accepted = at;
        } else if (type == "progress") {
            if (s.firstProgress == 0.0)
                s.firstProgress = at;
        } else {
            s.latency = at;
            if (type == "result")
                s.result = std::move(*ev);
            else
                s.error = type + ": " + ev->getStr("reason",
                                                   ev->getStr("message", ""));
            return s;
        }
    }
}

/** "" when a served result honours the search gate; else why not. */
std::string
checkServed(const Served &s, const CostModel &model, int64_t steps)
{
    if (!s.error.empty())
        return s.error;
    const JsonValue *runs = s.result->find("runs");
    if (runs == nullptr || runs->array.size() != 1)
        return "result without exactly one run";
    const JsonValue &run = runs->array.front();
    SearchResult r;
    r.method = run.getStr("method", "?");
    r.steps = run.getInt("steps", -1);
    r.error = run.getStr("error", "");
    std::optional<double> best =
        parseHexDouble(run.getStr("bestNormEdp", ""));
    const JsonValue *mapping = run.find("best");
    std::optional<Mapping> m =
        mapping ? mappingFromJson(*mapping) : std::nullopt;
    if (!best.has_value() || !m.has_value())
        return r.method + ": result without a best mapping";
    r.bestNormEdp = *best;
    r.best = std::move(*m);
    return checkSearchResult(model, r, steps);
}

} // namespace

void
runServeMixed(const Options &opt, Tracer &tr, Report &rep)
{
    struct
    {
        size_t samples;
        int epochs;
        int64_t steps, progressEvery;
        int minPerClient, setupReps;
    } sc = opt.smoke ? decltype(sc){1500, 1, 100, 25, 5, 1}
                     : decltype(sc){10000, 5, 1000, 250, 150, 3};
    const std::vector<std::string> methods = {
        strCat("MM-P:chains=4,threads=", opt.lanes), "MM", "SA", "GA",
        "Random"};
    // Two workers, each searching on opt.lanes threads, fill the vCPUs;
    // the clients mostly wait on their sockets.
    const size_t clients =
        std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 3);
    const double deadline = nowSec() + opt.seconds;
    const Targets t(table1All());
    const std::vector<Problem> &problems = t.problems;

    // Set-up: a fresh server whose pool trains both surrogates cold and
    // stores them in its disk tier.
    Phase1Config p1;
    p1.data.samples = sc.samples;
    p1.data.eliteFraction = 0.25;
    p1.data.seed = deriveSeed(opt.seed, 0xDA7A);
    p1.train.epochs = sc.epochs;
    p1.threads = int(opt.lanes);
    p1.seed = deriveSeed(opt.seed, 0x7EA1);
    std::unique_ptr<SearchServer> server;
    std::shared_ptr<Surrogate> cnnMaster, mttMaster;
    for (int r = 0; r < sc.setupReps; ++r) {
        cnnMaster.reset();
        mttMaster.reset();
        server.reset();
        ServeConfig cfg;
        cfg.workers = int(kWorkers);
        cfg.queueCap = 8;
        cfg.phase1 = p1;
        cfg.cacheDir = strCat(opt.workDir, "/serve-cache-", r);
        auto span = tr.span("setup.server");
        takePeakRssMb();
        const double t0 = nowSec();
        server = std::make_unique<SearchServer>(cfg);
        server->start();
        cnnMaster = server->pool().acquire(t.arch, cnnLayerAlgo());
        mttMaster = server->pool().acquire(t.arch, mttkrpAlgo());
        rep.setupSec.push_back(nowSec() - t0);
        rep.setupRssMb.push_back(takePeakRssMb());
    }

    // Gauges sampled every 10 ms while the load runs (traced runs).
    double depthSum = 0.0, busySum = 0.0, samples = 0.0;
    std::jthread sampler;
    if (tr.enabled()) {
        sampler = std::jthread([&](std::stop_token stop) {
            while (!stop.stop_requested()) {
                depthSum += double(server->metrics().queueDepth.load());
                busySum += double(server->metrics().activeWorkers.load());
                samples += 1.0;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        });
    }

    const double start = nowSec();
    std::vector<std::vector<Served>> perClient(clients);
    std::vector<std::jthread> load;
    for (size_t c = 0; c < clients; ++c) {
        load.emplace_back([&, c] {
            ServeClient client;
            std::string err;
            if (!client.connectTo(server->port(), &err)) {
                Served s;
                s.error = "connect: " + err;
                perClient[c].push_back(s);
                return;
            }
            // Each client walks the methods in its own seeded order, a
            // fresh permutation every block, so that clients started
            // together never lock into sending the same method at once.
            Rng order(deriveSeed(opt.seed, 0xC11E, c));
            std::vector<size_t> block(methods.size());
            for (int i = 0; i < sc.minPerClient || nowSec() < deadline;
                 ++i) {
                const size_t k = size_t(i);
                if (k % block.size() == 0) {
                    std::iota(block.begin(), block.end(), size_t(0));
                    order.shuffle(block);
                }
                ServeRequest req;
                req.id = strCat("c", c, "-", i);
                const size_t mi = block[k % block.size()];
                const size_t pi = (k / methods.size() + 3 * c)
                                  % problems.size();
                const Problem &p = problems[pi];
                req.algo = p.algo == &cnnLayerAlgo() ? "cnn" : "mttkrp";
                req.problemName = p.name;
                req.bounds = p.bounds;
                req.method = methods[mi];
                req.steps = sc.steps;
                // The wire carries seeds as int64; parseRequest replaces
                // larger ones with the default seed (README).
                req.seed = deriveSeed(opt.seed, c, k) >> 1;
                req.progressEvery = sc.progressEvery;
                Served s = roundTrip(client, tr, req);
                s.method = mi;
                s.problem = pi;
                s.seed = req.seed;
                s.quality = i < sc.minPerClient;
                perClient[c].push_back(std::move(s));
            }
        });
    }
    takePeakRssMb();
    while (nowSec() + 1.0 <= deadline) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        rep.runRssMb.push_back(takePeakRssMb());
    }
    load.clear(); // joins every client
    rep.runRssMb.push_back(takePeakRssMb());
    sampler.request_stop();
    if (sampler.joinable())
        sampler.join();
    rep.endSec = nowSec();

    // Gate and quality, after the load so checks never delay a client.
    double lastDone = start;
    std::vector<double> accepted, firstProgress;
    std::vector<std::vector<double>> methodQuality(methods.size());
    for (const auto &served : perClient) {
        for (const Served &s : served) {
            const std::string bad =
                checkServed(s, *t.models[s.problem], sc.steps);
            rep.op(bad.empty(), bad);
            if (!bad.empty())
                continue;
            rep.jobSec.push_back(s.latency);
            accepted.push_back(s.accepted);
            firstProgress.push_back(s.firstProgress);
            lastDone = std::max(lastDone, s.sentAt + s.latency);
            rep.costEvals += double(sc.steps);
            if (s.quality) {
                const double edp =
                    *parseHexDouble(s.result->getStr("bestNormEdp", ""));
                rep.quality.push_back(edp);
                methodQuality[s.method].push_back(edp);
            }
        }
    }
    rep.jobsPerSec = double(rep.jobSec.size()) / (lastDone - start);

    // One served request per method must equal an offline runMany of
    // the same spec, seed and surrogate copy, bitwise.
    for (size_t mi = 0; mi < methods.size(); ++mi) {
        const Served *first = nullptr;
        for (const Served &s : perClient.front())
            if (s.method == mi && s.error.empty()) {
                first = &s;
                break;
            }
        if (first == nullptr) {
            rep.op(false, "no served request for " + methods[mi]);
            continue;
        }
        const bool cnn = problems[first->problem].algo == &cnnLayerAlgo();
        Surrogate copy = cnn ? *cnnMaster : *mttMaster;
        MultiRunOptions mo;
        mo.baseSeed = first->seed;
        const double t0 = nowSec();
        MultiRunResult offline = [&] {
            auto s = tr.span("check.offline." + methods[mi]);
            return runMany(methods[mi],
                           SearcherBuildContext{*t.models[first->problem],
                                                &copy},
                           SearchBudget::bySteps(sc.steps), mo);
        }();
        const std::string key = methods[mi].substr(0, methods[mi].find(':'));
        rep.set(strCat("search.", key, ".steps_per_s"),
                double(offline.runs.front().steps) / (nowSec() - t0), "1/s");
        rep.set(strCat("search.", key, ".edp_geomean"),
                geomean(methodQuality[mi]), "x");
        const double served =
            *parseHexDouble(first->result->getStr("bestNormEdp", ""));
        const bool same = std::bit_cast<uint64_t>(served)
                          == std::bit_cast<uint64_t>(offline.bestNormEdp);
        rep.op(same, methods[mi] + ": served result differs from offline");
    }

    if (!tr.enabled())
        return;
    const ServeMetrics &m = server->metrics();
    const double p50 = quantile(rep.jobSec, 0.5);
    rep.set("serve.accept_pct", 100.0 * quantile(accepted, 0.5) / p50, "%");
    rep.set("serve.first_progress_pct",
            100.0 * quantile(firstProgress, 0.5) / p50, "%");
    const double depth = depthSum / std::max(samples, 1.0);
    rep.set("serve.queue_depth_mean", depth, "count");
    rep.set("serve.workers_busy_pct",
            100.0 * busySum / std::max(samples, 1.0) / double(kWorkers), "%");
    // Little's law: mean wait = mean queue length / arrival rate.
    rep.set("serve.queue_wait_pct",
            100.0 * (depth / rep.jobsPerSec) / mean(rep.jobSec), "%");
    rep.set("serve.rejected", double(m.rejected.load()), "count");
    rep.set("serve.progress_events", double(m.progressEvents.load()),
            "count");
    rep.set("serve.pool_warm_hits", double(m.poolWarmHits.load()), "count");
    rep.set("serve.pool_disk_hits", double(m.poolDiskHits.load()), "count");
    rep.set("serve.pool_trainings", double(m.poolTrainings.load()), "count");
    Surrogate probe = *cnnMaster;
    runProbes(opt, problems, probe, true, rep);
}

} // namespace mmbench
