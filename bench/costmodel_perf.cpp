/**
 * @file
 * Cost-model evaluation throughput: the batched descriptor pipeline
 * (CostModel::evaluateBatch / edpBatch) against the historical
 * per-call implementation (costmodel/reference_eval.hpp — full
 * isMember walk plus allocated scratch on every evaluation, exactly
 * the loop every consumer ran before the pipeline rewrite), and
 * against today's scalar evaluate (a batch of one).
 *
 * Each variant is verified bitwise against the reference before
 * anything is timed, then measured as ns/mapping over a pre-sampled
 * pool (sampling cost is excluded — this isolates evaluation).
 *
 * The map-space rows time the work that feeds evaluation: randomValid,
 * project (on valid mappings, and with one L1 factor doubled as after a
 * gradient step), randomNeighborInto and crossoverInto (which reuse
 * their output mapping), at 1 and 4 threads on one shared MapSpace.
 * The pool splits into four slices, each with its own seeded stream;
 * every row must reproduce the serial reference stream bitwise before
 * it is timed. Their ns/op is per thread (wall time over the ops one
 * thread runs), so lock contention shows as growth from the 1-thread
 * row. Writes BENCH_costmodel.json so the perf trajectory is tracked.
 *
 * Knobs: MM_EVAL_N (pool size per shape, default 4096), MM_EVAL_SECS
 * (target seconds per measurement, default 0.2), MM_EVAL_THREADS
 * (lanes for the threaded rows, 0 = hardware concurrency, default 1).
 */
#include <cstring>
#include <iostream>
#include <limits>
#include <thread>

#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "costmodel/reference_eval.hpp"
#include "mapping/moves.hpp"

namespace {

using namespace mm;
using namespace mm::bench;

/** Median-free best-of-3 wall seconds per sweep over the pool. */
double
timeSweep(const std::function<void()> &fn, double targetSecs)
{
    WallTimer probe;
    fn();
    double once = std::max(probe.elapsedSec(), 1e-7);
    const int reps = std::max(1, int(targetSecs / once));
    double best = std::numeric_limits<double>::infinity();
    for (int sample = 0; sample < 3; ++sample) {
        WallTimer timer;
        for (int r = 0; r < reps; ++r)
            fn();
        best = std::min(best, timer.elapsedSec() / double(reps));
    }
    return best;
}

/** Independent seeded streams (and threads) of the map-space rows. */
constexpr size_t kMapSlices = 4;

/**
 * One map-space operation over pool indices [lo, hi), drawing from that
 * slice's own stream.
 */
using MapSpaceOp = std::function<void(size_t lo, size_t hi, Rng &rng)>;

/** Run @p op over every slice, on @p threads threads (1 or kMapSlices). */
void
runSlices(const MapSpaceOp &op, size_t n, int threads)
{
    auto slice = [&](size_t k) {
        Rng rng(0x5EED0000 + k);
        op(n * k / kMapSlices, n * (k + 1) / kMapSlices, rng);
    };
    if (threads == 1) {
        for (size_t k = 0; k < kMapSlices; ++k)
            slice(k);
        return;
    }
    std::vector<std::thread> pool;
    for (size_t k = 0; k < kMapSlices; ++k)
        pool.emplace_back(slice, k);
    for (auto &t : pool)
        t.join();
}

bool
sameBits(double a, double b)
{
    uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof a);
    std::memcpy(&ub, &b, sizeof b);
    return ua == ub;
}

} // namespace

int
main()
{
    BenchEnv env;
    banner("Cost model: batched descriptor pipeline vs scalar loop",
           "perf infrastructure (ISSUE 6); Phase-1/searcher eval path");

    const size_t n = envSize("MM_EVAL_N", 4096);
    const double targetSecs = envDouble("MM_EVAL_SECS", 0.2);
    size_t lanes = envSize("MM_EVAL_THREADS", 1);
    if (lanes == 0)
        lanes = std::max<size_t>(1, std::thread::hardware_concurrency());

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    std::vector<Problem> problems = {
        cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3),
        mttkrpProblem("MTTKRP_small", 128, 256, 512, 128),
    };

    Table table(
        {"shape", "variant", "threads", "ns/mapping", "speedup_vs_reference"});
    JsonArray series;
    ParallelContext par(lanes);

    for (const Problem &problem : problems) {
        MapSpace space(arch, problem);
        CostModel model(space);
        Rng rng(7);
        std::vector<Mapping> pool;
        pool.reserve(n);
        for (size_t i = 0; i < n; ++i)
            pool.push_back(space.randomValid(rng));
        std::span<const Mapping> maps(pool);

        // Correctness gate: the batch forms and today's scalar path
        // must all replay the historical implementation bitwise before
        // they are allowed on the scoreboard.
        std::vector<CostResult> batchRes(n);
        std::vector<double> batchEdp(n);
        model.evaluateBatch(maps, std::span<CostResult>(batchRes));
        model.edpBatch(maps, std::span<double>(batchEdp));
        for (size_t i = 0; i < n; ++i) {
            double ref = referenceEvaluate(space, pool[i]).edp();
            MM_ASSERT(sameBits(batchRes[i].edp(), ref)
                          && sameBits(batchEdp[i], ref)
                          && sameBits(model.evaluate(pool[i]).edp(), ref),
                      strCat("batch/reference mismatch on ", problem.name,
                             " at mapping ", i));
        }

        struct Variant
        {
            const char *name;
            int threads;
            std::function<void()> fn;
        };
        std::vector<CostResult> out(n);
        std::vector<double> edps(n);
        std::vector<Variant> variants = {
            {"reference_evaluate", 1,
             [&] {
                 for (const Mapping &m : pool)
                     out[&m - pool.data()] = referenceEvaluate(space, m);
             }},
            {"scalar_evaluate", 1,
             [&] {
                 for (const Mapping &m : pool)
                     out[&m - pool.data()] = model.evaluate(m);
             }},
            {"batch_evaluate", 1,
             [&] {
                 model.evaluateBatch(maps, std::span<CostResult>(out));
             }},
            {"batch_edp", 1,
             [&] { model.edpBatch(maps, std::span<double>(edps)); }},
        };
        if (lanes > 1) {
            variants.push_back({"batch_evaluate", int(lanes), [&] {
                                    model.evaluateBatch(
                                        maps, std::span<CostResult>(out),
                                        &par);
                                }});
            variants.push_back({"batch_edp", int(lanes), [&] {
                                    model.edpBatch(maps,
                                                   std::span<double>(edps),
                                                   &par);
                                }});
        }

        double refSec = 0.0;
        for (const Variant &v : variants) {
            double sec = timeSweep(v.fn, targetSecs);
            if (std::string(v.name) == "reference_evaluate")
                refSec = sec;
            double nsPerMap = sec / double(n) * 1e9;
            double speedup = refSec > 0.0 ? refSec / sec : 1.0;
            table.addRow({problem.name, v.name, strCat(v.threads),
                          fmtDouble(nsPerMap, 1), fmtDouble(speedup, 3)});
            JsonObject point;
            point.set("shape", problem.name)
                .set("variant", v.name)
                .set("threads", v.threads)
                .set("pool", int64_t(n))
                .set("ns_per_mapping", nsPerMap)
                .set("speedup_vs_reference", speedup);
            series.add(point);
            std::cerr << "[costmodel] " << problem.name << " " << v.name
                      << " t=" << v.threads << " "
                      << fmtDouble(nsPerMap, 1) << " ns/mapping"
                      << std::endl;
        }

        // Map-space rows. Every op writes into `outMaps`; the serial run
        // of each op is the reference stream its timed rows must replay.
        std::vector<Mapping> doubled = pool;
        for (size_t i = 0; i < n; ++i)
            doubled[i].tiling[size_t(MemLevel::L1)][i % space.rank()] *= 2;
        std::vector<Mapping> outMaps(n);
        const std::vector<std::pair<const char *, MapSpaceOp>> ops = {
            {"map_random_valid",
             [&](size_t lo, size_t hi, Rng &r) {
                 for (size_t i = lo; i < hi; ++i)
                     outMaps[i] = space.randomValid(r);
             }},
            {"map_project_valid",
             [&](size_t lo, size_t hi, Rng &) {
                 for (size_t i = lo; i < hi; ++i)
                     outMaps[i] = space.project(pool[i]);
             }},
            {"map_project_l1x2",
             [&](size_t lo, size_t hi, Rng &) {
                 for (size_t i = lo; i < hi; ++i)
                     outMaps[i] = space.project(doubled[i]);
             }},
            {"map_random_neighbor",
             [&](size_t lo, size_t hi, Rng &r) {
                 for (size_t i = lo; i < hi; ++i)
                     randomNeighborInto(space, pool[i], r, outMaps[i]);
             }},
            {"map_crossover",
             [&](size_t lo, size_t hi, Rng &r) {
                 for (size_t i = lo; i < hi; ++i)
                     crossoverInto(space, pool[i], pool[(i + 1) % n], r,
                                   outMaps[i]);
             }},
        };
        for (const auto &[name, op] : ops) {
            runSlices(op, n, 1);
            const std::vector<Mapping> reference = outMaps;
            for (int threads : {1, int(kMapSlices)}) {
                std::fill(outMaps.begin(), outMaps.end(), Mapping{});
                runSlices(op, n, threads);
                MM_ASSERT(outMaps == reference,
                          strCat(name, " on ", problem.name, " at ", threads,
                                 " threads diverged from its serial "
                                 "reference stream"));
                double sec = timeSweep([&] { runSlices(op, n, threads); },
                                       targetSecs);
                double nsPerOp =
                    sec / double(n) * double(threads) * 1e9;
                table.addRow({problem.name, name, strCat(threads),
                              fmtDouble(nsPerOp, 1), "-"});
                JsonObject point;
                point.set("shape", problem.name)
                    .set("variant", name)
                    .set("threads", threads)
                    .set("pool", int64_t(n))
                    .set("ns_per_op", nsPerOp);
                series.add(point);
                std::cerr << "[costmodel] " << problem.name << " " << name
                          << " t=" << threads << " "
                          << fmtDouble(nsPerOp, 1) << " ns/op" << std::endl;
            }
        }
    }
    table.print(std::cout);

    JsonObject json = benchJsonHeader("costmodel", env);
    json.set("pool", int64_t(n))
        .set("lanes", int64_t(lanes))
        .setRaw("series", series.str());
    writeBenchJson("costmodel", json);
    return 0;
}
