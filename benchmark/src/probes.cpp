#include <algorithm>
#include <bit>

#include "bench.hpp"
#include "bound/bb_search.hpp"
#include "common/parallel_context.hpp"
#include "common/string_util.hpp"
#include "core/phase1.hpp"
#include "tensor/gemm.hpp"

namespace mmbench {

using namespace mm;

std::string
checkSearchResult(const CostModel &model, const SearchResult &r,
                  int64_t steps)
{
    if (r.failed())
        return strCat(r.method, ": run failed: ", r.error);
    if (r.steps != steps)
        return strCat(r.method, ": ", r.steps, " steps, budget ", steps);
    if (!model.space().isMember(r.best))
        return strCat(r.method, ": best mapping is not a map-space member");
    if (std::bit_cast<uint64_t>(model.normalizedEdp(r.best))
        != std::bit_cast<uint64_t>(r.bestNormEdp))
        return strCat(r.method, ": best mapping re-evaluates to a different "
                                "EDP than reported");
    return "";
}

Surrogate
untrainedCnnSurrogate(uint64_t seed)
{
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const Problem problem = table1Cnn().front();
    MapSpace space(arch, problem);
    const size_t features = MappingCodec(space).featureCount();
    const size_t outputs =
        CostResult::metaStatCount(cnnLayerAlgo().tensorCount());
    Rng rng(seed);
    Mlp net(features, surrogateTopology({64, 128, 128, 64}, outputs), rng);
    return Surrogate(
        std::move(net), FeatureTransform{0},
        Normalizer::fromMoments(std::vector<double>(features, 0.0),
                                std::vector<double>(features, 1.0)),
        Normalizer::fromMoments(std::vector<double>(outputs, 0.0),
                                std::vector<double>(outputs, 1.0)),
        cnnLayerAlgo().tensorCount());
}

namespace {

/** Seconds taken by @p reps calls of @p fn. */
template <typename Fn>
double
loopSec(int reps, Fn &&fn)
{
    const double t0 = nowSec();
    for (int i = 0; i < reps; ++i)
        fn(i);
    return nowSec() - t0;
}

} // namespace

void
runProbes(const Options &opt, const std::vector<Problem> &problems,
          Surrogate &surrogate, bool probeBound, Report &rep)
{
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const int perProblem = opt.smoke ? 200 : 2000;
    Rng rng(deriveSeed(opt.seed, 0x9B0BE5));

    double sampleSec = 0.0, projectSec = 0.0, evalSec = 0.0;
    for (const Problem &p : problems) {
        MapSpace space(arch, p);
        CostModel model(space);
        std::vector<Mapping> maps(static_cast<size_t>(perProblem));
        sampleSec += loopSec(perProblem, [&](int i) {
            maps[size_t(i)] = space.randomValid(rng);
        });
        // Double one L1 tile factor so project() has repair work, as
        // after a Phase-2 gradient step.
        std::vector<Mapping> broken = maps;
        for (size_t i = 0; i < broken.size(); ++i)
            broken[i].tiling[0][i % p.rank()] *= 2;
        projectSec += loopSec(perProblem, [&](int i) {
            broken[size_t(i)] = space.project(broken[size_t(i)]);
        });
        std::vector<CostResult> results(maps.size());
        const double t0 = nowSec();
        model.evaluateBatch(maps, results);
        evalSec += nowSec() - t0;
    }
    const double calls = double(perProblem) * double(problems.size());
    rep.set("mapping.sample_ns", sampleSec / calls * 1e9, "ns");
    rep.set("mapping.project_ns", projectSec / calls * 1e9, "ns");
    rep.set("costmodel.eval_ns", evalSec / calls * 1e9, "ns");

    // Surrogate gradient queries at the batch sizes MM (1) and MM-P (4)
    // issue, on features of real mappings of a CNN target problem.
    const Problem &cnn = *std::find_if(
        problems.begin(), problems.end(),
        [](const Problem &p) { return p.algo == &cnnLayerAlgo(); });
    MapSpace space(arch, cnn);
    MappingCodec codec(space);
    for (size_t rows : {size_t(1), size_t(4)}) {
        Matrix z(rows, codec.featureCount());
        for (size_t r = 0; r < rows; ++r) {
            std::vector<double> zr =
                surrogate.normalizeInput(codec.encode(space.randomValid(rng)));
            for (size_t c = 0; c < zr.size(); ++c)
                z(r, c) = float(zr[c]);
        }
        std::vector<double> preds;
        const int reps = opt.smoke ? 200 : 4000;
        const double sec = loopSec(
            reps, [&](int) { surrogate.gradientBatch(z, preds); });
        rep.set(strCat("surrogate.grad", rows, "_us"), sec / reps * 1e6,
                "us");
    }

    // GEMM at the trainer's hidden-layer shape (batch 128, 128 -> 128)
    // on the run's lanes.
    ParallelContext par(opt.lanes);
    Matrix a(128, 128), b(128, 128), c(128, 128);
    for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = float(rng.uniformReal(-1.0, 1.0));
        b.data()[i] = float(rng.uniformReal(-1.0, 1.0));
    }
    const int gemmReps = opt.smoke ? 200 : 4000;
    const double gemmSec = loopSec(gemmReps, [&](int) {
        gemm(false, false, 1.0f, a, b, 0.0f, c, par.pool());
    });
    rep.set("tensor.gemm_gflops",
            2.0 * 128 * 128 * 128 * gemmReps / gemmSec / 1e9, "GFLOP/s");

    if (probeBound) {
        MapSpace first(arch, problems.front());
        CostModel model(first);
        const double t0 = nowSec();
        const BBOutcome o = certifyOptimum(model, opt.smoke ? 5 : 25);
        rep.set("bound.nodes_per_s",
                double(o.nodesExpanded) / (nowSec() - t0), "1/s");
    }
}

} // namespace mmbench
