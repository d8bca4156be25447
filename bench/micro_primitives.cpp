/**
 * @file
 * Microbenchmarks of the primitives underlying every experiment: cost-
 * model evaluation, map-space sampling/projection, codec round trips,
 * surrogate forward/backward steps, Phase-2 chain steps and driver
 * runs, and the GEMM kernel. These are the real-time costs behind the
 * virtual-time model of Figure 6 (our analytical model evaluates in
 * microseconds — the reason raw wall clock cannot reproduce the
 * paper's iso-time setup; see DESIGN.md).
 */
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "bound/bounds.hpp"
#include "common/thread_pool.hpp"
#include "mapping/codec.hpp"
#include "mapping/moves.hpp"
#include "search/parallel_driver.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace mm;

struct Fixture
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem problem =
        cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3);
    MapSpace space{arch, problem};
    CostModel model{space};
    MappingCodec codec{space};
    Rng rng{17};
    Mapping mapping = space.randomValid(rng);
};

Fixture &
fixture()
{
    static Fixture fx;
    return fx;
}

void
BM_CostModelEvaluate(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.model.edp(fx.mapping));
}
BENCHMARK(BM_CostModelEvaluate);

void
BM_RandomValidMapping(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.space.randomValid(fx.rng));
}
BENCHMARK(BM_RandomValidMapping);

void
BM_ProjectCorruptMapping(benchmark::State &state)
{
    auto &fx = fixture();
    Mapping corrupt = fx.mapping;
    corrupt.tiling[size_t(MemLevel::L1)][2] = 4096;
    corrupt.spatial[1] = 300;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.space.project(corrupt));
}
BENCHMARK(BM_ProjectCorruptMapping);

void
BM_CodecRoundTrip(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state) {
        auto f = fx.codec.encode(fx.mapping);
        benchmark::DoNotOptimize(fx.codec.decode(f));
    }
}
BENCHMARK(BM_CodecRoundTrip);

void
BM_NeighborMove(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            randomNeighbor(fx.space, fx.mapping, fx.rng));
}
BENCHMARK(BM_NeighborMove);

void
BM_SurrogateGradientStep(benchmark::State &state)
{
    // One Phase-2 step: forward + backward through the fast-preset-
    // shaped surrogate (untrained weights; identical FLOPs).
    auto &fx = fixture();
    Rng rng(3);
    Phase1Config cfg;
    cfg.resolve();
    Mlp net(fx.codec.featureCount(),
            surrogateTopology(cfg.hidden, CostResult::metaStatCount(3)),
            rng);
    Matrix x(1, fx.codec.featureCount());
    Matrix dOut(1, CostResult::metaStatCount(3));
    dOut.fill(0.1f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(x));
        benchmark::DoNotOptimize(net.backward(dOut));
    }
}
BENCHMARK(BM_SurrogateGradientStep);

/**
 * A fast-preset-shaped surrogate over the fixture's space: untrained
 * weights (identical FLOPs), inputs whitened over 512 random mappings
 * so the Phase-2 rows round and project like a trained model's.
 */
Surrogate &
fastSurrogate()
{
    static Surrogate sur = [] {
        auto &fx = fixture();
        Rng rng(3);
        Phase1Config cfg;
        cfg.resolve();
        const size_t features = fx.codec.featureCount();
        const size_t outputs = CostResult::metaStatCount(3);
        Mlp net(features, surrogateTopology(cfg.hidden, outputs), rng);
        const FeatureTransform transform{fx.codec.orderOffset()};
        Matrix rows(512, features);
        for (size_t r = 0; r < rows.rows(); ++r) {
            std::vector<double> f = fx.codec.encode(fx.space.randomValid(rng));
            transform.apply(f);
            for (size_t j = 0; j < features; ++j)
                rows(r, j) = float(f[j]);
        }
        return Surrogate(std::move(net), transform, Normalizer::fit(rows),
                         Normalizer::fromMoments(
                             std::vector<double>(outputs, 0.0),
                             std::vector<double>(outputs, 1.0)),
                         3);
    }();
    return sur;
}

void
BM_GradientChainStep(benchmark::State &state)
{
    // One chain's Phase-2 step (descend, round, project, re-encode)
    // with its injection round trip every tenth step amortized in. The
    // surrogate's gradients are precomputed along a 64-step walk, so
    // the row times the chain-local work the driver fans out.
    auto &fx = fixture();
    Surrogate &sur = fastSurrogate();
    GradientSearchConfig cfg;
    GradientChain walk(fx.space, fx.codec, sur, cfg, Rng(5));
    const size_t features = fx.codec.featureCount();
    Matrix zRow(1, features), grads(64, features);
    std::vector<double> preds;
    for (size_t r = 0; r < grads.rows(); ++r) {
        for (size_t j = 0; j < features; ++j)
            zRow(0, j) = float(walk.features()[j]);
        const Matrix &g = sur.gradientBatch(zRow, preds);
        std::copy(g.row(0).begin(), g.row(0).end(), grads.row(r).begin());
        walk.applyGradient(g.row(0));
    }

    GradientChain chain(fx.space, fx.codec, sur, cfg, Rng(7));
    size_t r = 0;
    for (auto _ : state) {
        chain.applyGradient(grads.row(r));
        r = (r + 1) % grads.rows();
        if (chain.wantsInjection()) {
            chain.prepareInjection();
            chain.resolveInjection(1.0, double(r % 3));
        }
        benchmark::DoNotOptimize(chain.current());
    }
}
BENCHMARK(BM_GradientChainStep);

void
BM_BatchedDriver1000(benchmark::State &state)
{
    // 1000 Phase-2 steps of the batched driver on the fast-shaped
    // surrogate: Args(chains, threads). (1, 1) is the MM searcher.
    auto &fx = fixture();
    ParallelSearchConfig cfg;
    cfg.chains = int(state.range(0));
    cfg.threads = int(state.range(1));
    ParallelGradientSearcher searcher(fx.model, fastSurrogate(), cfg);
    for (auto _ : state) {
        Rng rng(11);
        benchmark::DoNotOptimize(
            searcher.run(SearchBudget::bySteps(1000), rng));
    }
}
BENCHMARK(BM_BatchedDriver1000)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Unit(benchmark::kMillisecond);

void
BM_Gemm128(benchmark::State &state)
{
    Rng rng(5);
    Matrix a(128, 128), b(128, 128), c(128, 128);
    for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = float(rng.uniformReal(-1, 1));
        b.data()[i] = float(rng.uniformReal(-1, 1));
    }
    for (auto _ : state)
        gemm(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 128
                            * 128);
}
BENCHMARK(BM_Gemm128);

void
BM_Gemm128Naive(benchmark::State &state)
{
    Rng rng(5);
    Matrix a(128, 128), b(128, 128), c(128, 128);
    for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = float(rng.uniformReal(-1, 1));
        b.data()[i] = float(rng.uniformReal(-1, 1));
    }
    for (auto _ : state)
        gemmNaive(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 128
                            * 128);
}
BENCHMARK(BM_Gemm128Naive);

/** The Phase-1 paper-preset hidden-layer shape: 128 x 2048 x 2048. */
void
BM_GemmMlpShaped(benchmark::State &state)
{
    Rng rng(6);
    Matrix a(128, 2048), b(2048, 2048), c(128, 2048);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = float(rng.uniformReal(-1, 1));
    for (size_t i = 0; i < b.size(); ++i)
        b.data()[i] = float(rng.uniformReal(-1, 1));
    for (auto _ : state)
        gemm(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 2048
                            * 2048);
}
BENCHMARK(BM_GemmMlpShaped);

void
BM_GemmMlpShapedNaive(benchmark::State &state)
{
    Rng rng(6);
    Matrix a(128, 2048), b(2048, 2048), c(128, 2048);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = float(rng.uniformReal(-1, 1));
    for (size_t i = 0; i < b.size(); ++i)
        b.data()[i] = float(rng.uniformReal(-1, 1));
    for (auto _ : state)
        gemmNaive(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 2048
                            * 2048);
}
BENCHMARK(BM_GemmMlpShapedNaive);

void
BM_GemmMlpShapedThreaded(benchmark::State &state)
{
    Rng rng(6);
    Matrix a(128, 2048), b(2048, 2048), c(128, 2048);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = float(rng.uniformReal(-1, 1));
    for (size_t i = 0; i < b.size(); ++i)
        b.data()[i] = float(rng.uniformReal(-1, 1));
    ThreadPool pool(0); // hardware concurrency
    for (auto _ : state)
        gemm(false, false, 1.0f, a, b, 0.0f, c, &pool);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 2048
                            * 2048);
}
BENCHMARK(BM_GemmMlpShapedThreaded);

void
BM_LowerBound(benchmark::State &state)
{
    // What CostModel's constructor spends on its algorithmic minimum.
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(BoundTables(fx.space).wholeProblem());
}
BENCHMARK(BM_LowerBound);

} // namespace

BENCHMARK_MAIN();
