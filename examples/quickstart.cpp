/**
 * @file
 * Quickstart: the whole Mind Mappings flow on a CNN layer.
 *
 *   1. Describe the accelerator and target algorithm.
 *   2. Phase 1: train (or cache-load) the differentiable surrogate —
 *      once per algorithm, amortized over every future problem.
 *   3. Phase 2: gradient-search a target problem's map space, watching
 *      progress live through a SearchObserver.
 *   4. Compare against a registry-built random-search baseline and
 *      print the found loop nest.
 *   5. Certify the result: a capped branch-and-bound run proves a
 *      lower bound on any mapping's EDP, turning the search quality
 *      into a ground-truth optimality gap.
 *
 * First run trains the default surrogate (≈1 minute on one core) and
 * caches it under ./mm_cache; subsequent runs start instantly. Scale
 * knobs: MM_TRAIN_SAMPLES, MM_EPOCHS, MM_ITERS (see README).
 */
#include <iostream>

#include "bound/bb_search.hpp"
#include "common/env.hpp"
#include "core/mind_mappings.hpp"
#include "mapping/printer.hpp"
#include "search/registry.hpp"

namespace {

/** Prints each best-so-far improvement as the search finds it. */
class PrintingObserver : public mm::SearchObserver
{
  public:
    void
    onImprovement(const mm::SearchProgress &p) override
    {
        std::cout << "  step " << p.steps << ": best normalized EDP "
                  << p.bestNormEdp << "\n";
    }
};

} // namespace

int
main()
{
    using namespace mm;

    // --- 1. Accelerator + algorithm. ------------------------------------
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const AlgorithmSpec &algo = cnnLayerAlgo();

    MindMappingsOptions opts;
    opts.phase1.data.samples =
        envSize("MM_TRAIN_SAMPLES", Phase1Config::kUnsetSamples);
    opts.phase1.train.epochs =
        int(envInt("MM_EPOCHS", Phase1Config::kUnsetEpochs));
    // MM_STREAM_DIR runs Phase 1 out-of-core: the labeled shards are
    // committed as checksummed files in that directory instead of
    // staying in memory — same result bit for bit, peak memory bounded
    // by the shard size (see README "Phase 1 at scale").
    opts.phase1.data.streamDir = envStr("MM_STREAM_DIR", "");
    // MM_CHAINS > 1 switches Phase 2 to the batched multi-threaded
    // driver: that many independent gradient chains, one surrogate
    // batch per step (same fixed-seed result at any thread count).
    opts.searchChains = int(envInt("MM_CHAINS", 1));
    MindMappings mapper(arch, algo, opts);

    // --- 2. Phase 1 (offline, once per algorithm). ----------------------
    std::cout << "Phase 1: surrogate for '" << algo.name << "' on "
              << arch.name << " ..." << std::endl;
    bool cached = mapper.prepare();
    if (cached) {
        std::cout << "  loaded from cache ("
                  << SurrogateCache(opts.cacheDir).dir() << ")\n";
    } else {
        const auto &hist = mapper.trainingHistory();
        std::cout << "  trained " << hist.size() << " epochs, final loss "
                  << hist.back().trainLoss << " (test "
                  << hist.back().testLoss << ")\n";
    }

    // --- 3. Phase 2 (online, per problem). ------------------------------
    // A problem shape the surrogate never saw during training. The
    // SearchContext bundles the budget and RNG with an observer that
    // streams improvements; a StopToken could cancel the run from
    // another thread the same way.
    Problem problem = cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3);
    Rng rng(42);
    int64_t iters = envInt("MM_ITERS", 1000);

    PrintingObserver observer;
    SearchContext ctx;
    ctx.budget = SearchBudget::bySteps(iters);
    ctx.rng = &rng;
    ctx.observer = &observer;

    std::cout << "\nPhase 2 on " << problem.name << ":" << std::endl;
    SearchResult found = mapper.search(problem, ctx);
    std::cout << "  " << found.steps
              << " gradient steps -> normalized EDP " << found.bestNormEdp
              << "\n  (1.0 = possibly-unachievable algorithmic minimum)\n";

    // --- 4. Baseline comparison + result. -------------------------------
    // Baselines come from the same registry the benches use; any method
    // key with options works here ("SA:tMax=4", "GA:pop=50", ...).
    MapSpace space(arch, problem);
    CostModel model(space);
    SearcherBuildContext sctx{model};
    auto random = SearcherRegistry::instance().make("Random", sctx);
    SearchResult rnd = random->run(SearchBudget::bySteps(iters), rng);

    std::cout << "\nbest-so-far normalized EDP";
    for (int64_t at : {100L, 300L, iters})
        std::cout << "\tstep " << at;
    std::cout << "\n  Mind Mappings           ";
    for (int64_t at : {100L, 300L, iters})
        std::cout << "\t" << found.bestAtStep(at);
    std::cout << "\n  Random search           ";
    for (int64_t at : {100L, 300L, iters})
        std::cout << "\t" << rnd.bestAtStep(at);
    std::cout << "\n  advantage at " << iters << " steps: "
              << rnd.bestNormEdp / found.bestNormEdp << "x\n\n";

    // --- 5. Optimality certificate. -------------------------------------
    // Branch-and-bound with analytic prefix bounds (src/bound). Even a
    // node-capped run returns a *proven* lower bound on the EDP of any
    // valid mapping; if the tree is exhausted the incumbent is the
    // exact optimum. MM_BB_NODES trades time for tightness.
    BBOutcome cert =
        certifyOptimum(model, envInt("MM_BB_NODES", 2000));
    std::cout << "certified: no mapping beats normalized EDP "
              << cert.certifiedNormEdp
              << (cert.exact ? " (exact optimum found)" : "")
              << "\n  Mind Mappings is within "
              << found.bestNormEdp / cert.certifiedNormEdp
              << "x of that bound\n\n";

    std::cout << renderMapping(space, found.best) << std::endl;
    return 0;
}
