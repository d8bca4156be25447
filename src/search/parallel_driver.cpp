#include "search/parallel_driver.hpp"

#include <algorithm>

#include "bound/bb_search.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "search/registry.hpp"

namespace mm {

size_t
parallelDriverLanes(int threadCount, int chainCount, unsigned hardware)
{
    if (threadCount < 0)
        return 1;
    const size_t hw = std::max(1u, hardware);
    const size_t wanted = threadCount == 0 ? hw : size_t(threadCount);
    // A lane with fewer than kMinChainsPerLane chains costs more in
    // its fork-join than it saves, even with the pool's spin-then-park
    // hand-off (see kMinChainsPerLane), and more lanes than the
    // hardware has only adds threads.
    const size_t paying = size_t(std::max(chainCount, 1)) / kMinChainsPerLane;
    return std::max<size_t>(1, std::min({wanted, paying, hw}));
}

SearchResult
runBatchedGradientSearch(const CostModel &model, Surrogate &surrogate,
                         const GradientSearchConfig &chainCfg,
                         int chainCount, int threadCount,
                         double stepLatencySec, SearchContext &ctx,
                         const std::string &method)
{
    MM_ASSERT(chainCount >= 1, "need at least one chain");
    const MapSpace &space = model.space();
    MappingCodec codec(space);
    MM_ASSERT(codec.featureCount() == surrogate.featureCount(),
              "surrogate was trained for a different algorithm");

    SearchRecorder rec(model, ctx, stepLatencySec);
    Rng &rng = *ctx.rng;
    ThreadPool pool(parallelDriverLanes(threadCount, chainCount,
                                        std::thread::hardware_concurrency()));

    // Chain RNG streams are forked in chain order, never shared: batch
    // composition and thread schedule cannot perturb any draw.
    std::vector<GradientChain> chains;
    chains.reserve(size_t(chainCount));
    for (int i = 0; i < chainCount; ++i)
        chains.emplace_back(space, codec, surrogate, chainCfg, rng.fork());

    // Optional warm start: chain 0 descends from a branch-and-bound
    // incumbent instead of its random draw. The chains' RNG streams are
    // already forked, so seeding perturbs no randomness, and the
    // seeding run's leaf evaluations are charged like any other
    // cost-function query.
    if (!chainCfg.seedFrom.empty()) {
        if (auto seeded = seedIncumbent(model, rec, chainCfg.seedNodes))
            chains[0].restartFrom(*seeded);
    }

    const size_t P = chains.size();
    const size_t F = codec.featureCount();
    Matrix zBatch(P, F);
    Matrix injBatch;
    std::vector<double> preds;
    std::vector<double> injCosts;
    // Each chain's current() is its proposal at every step.
    std::vector<const Mapping *> proposals;
    for (const GradientChain &chain : chains)
        proposals.push_back(&chain.current());
    std::vector<double> probeNorms(P);
    std::vector<size_t> injecting;

    while (!rec.exhausted()) {
        // Steps 2-3 of Section 4.2 for all chains at once: one batched
        // forward/backward through the surrogate.
        for (size_t i = 0; i < P; ++i) {
            const std::vector<double> &z = chains[i].features();
            float *row = zBatch.data() + i * F;
            for (size_t j = 0; j < F; ++j)
                row[j] = float(z[j]);
        }
        const Matrix &grads = surrogate.gradientBatch(zBatch, preds);

        // Steps 4-5: chain-local descend + round + project, fanned out
        // over the pool.
        pool.parallelFor(P, [&](size_t i) {
            chains[i].applyGradient(grads.row(i));
        });

        // Charged surrogate queries, one shared latency for the P
        // concurrent chains; the true-EDP probes are trace
        // instrumentation and deliberately unused.
        rec.record(proposals, probeNorms, Latency::Shared);
        if (rec.exhausted())
            break;

        // Step 6: annealed injection trials, candidates drawn from the
        // chain streams in parallel, judged by one batched prediction.
        injecting.clear();
        for (size_t i = 0; i < P; ++i)
            if (chains[i].wantsInjection())
                injecting.push_back(i);
        if (injecting.empty())
            continue;
        pool.parallelFor(injecting.size(), [&](size_t k) {
            chains[injecting[k]].prepareInjection();
        });
        injBatch.ensureShape(2 * injecting.size(), F);
        for (size_t k = 0; k < injecting.size(); ++k) {
            const GradientChain &chain = chains[injecting[k]];
            const std::vector<double> &zCur = chain.features();
            const std::vector<double> &zCand = chain.injectionFeatures();
            float *curRow = injBatch.data() + (2 * k) * F;
            float *candRow = injBatch.data() + (2 * k + 1) * F;
            for (size_t j = 0; j < F; ++j) {
                curRow[j] = float(zCur[j]);
                candRow[j] = float(zCand[j]);
            }
        }
        surrogate.predictNormEdpBatch(injBatch, injCosts);
        for (size_t k = 0; k < injecting.size(); ++k)
            chains[injecting[k]].resolveInjection(injCosts[2 * k],
                                                  injCosts[2 * k + 1]);
    }

    return rec.finish(method);
}

ParallelGradientSearcher::ParallelGradientSearcher(const CostModel &model_,
                                                   Surrogate &surrogate_,
                                                   ParallelSearchConfig cfg_,
                                                   const TimingModel &timing)
    : model(&model_), surrogate(&surrogate_), cfg(cfg_),
      stepLatency(timing.surrogateStepSec)
{
    MM_ASSERT(cfg.chains >= 1, "need at least one chain");
}

std::string
ParallelGradientSearcher::name() const
{
    return strCat("MM-P", cfg.chains);
}

SearchResult
ParallelGradientSearcher::run(SearchContext &ctx)
{
    return runBatchedGradientSearch(*model, *surrogate, cfg.chain,
                                    cfg.chains, cfg.threads, stepLatency,
                                    ctx, name());
}

namespace {

/** Shared by the MM and MM-P factories (same chain hyper-parameters). */
GradientSearchConfig
chainConfigFromOptions(SearcherOptions &opt, const char *key)
{
    GradientSearchConfig cfg;
    cfg.learningRate = opt.getDouble("lr", cfg.learningRate);
    cfg.injectEvery = opt.getInt("injectEvery", cfg.injectEvery);
    cfg.initTemperature = opt.getDouble("temp", cfg.initTemperature);
    cfg.tempDecay = opt.getDouble("tempDecay", cfg.tempDecay);
    cfg.decayEveryInjections =
        opt.getInt("decayEvery", cfg.decayEveryInjections);
    cfg.enableInjection = opt.getBool("inject", cfg.enableInjection);
    cfg.seedFrom = opt.getStr("seedFrom", cfg.seedFrom);
    cfg.seedNodes = opt.getInt("seedNodes", cfg.seedNodes);
    if (!cfg.seedFrom.empty() && cfg.seedFrom != "BB")
        fatal(std::string("searcher '") + key
              + "': seedFrom must be \"\" or \"BB\"");
    if (cfg.seedNodes < 1)
        fatal(std::string("searcher '") + key
              + "': seedNodes must be >= 1");
    if (cfg.learningRate <= 0.0)
        fatal(std::string("searcher '") + key + "': lr must be > 0");
    if (cfg.injectEvery <= 0)
        fatal(std::string("searcher '") + key
              + "': injectEvery must be > 0");
    if (cfg.decayEveryInjections <= 0)
        fatal(std::string("searcher '") + key
              + "': decayEvery must be > 0");
    return cfg;
}

const std::vector<SearcherOptionSpec> kChainOptionSpecs = {
    {"lr", "gradient-descent learning rate (paper: 1; ours: 0.3)"},
    {"injectEvery", "steps between random-injection trials (paper: 10)"},
    {"temp", "initial injection-acceptance temperature (paper: 50)"},
    {"tempDecay", "temperature decay factor (paper: 0.75)"},
    {"decayEvery", "injections between temperature decays (paper: 50)"},
    {"inject", "enable random injection (0 disables; ablation switch)"},
    {"seedFrom", "warm-start source: BB seeds chain 0 from a "
                 "branch-and-bound incumbent (default: random start)"},
    {"seedNodes", "node cap of the seedFrom=BB run"},
};

const SearcherRegistrar sequentialRegistrar([] {
    SearcherRegistry::Entry entry;
    entry.key = "MM";
    entry.description =
        "Mind Mappings, sequential Phase-2 gradient search over the "
        "trained surrogate (Section 4.2)";
    entry.needsSurrogate = true;
    entry.options = kChainOptionSpecs;
    entry.factory = [](const SearcherBuildContext &ctx,
                       SearcherOptions &opt) {
        return std::make_unique<MindMappingsSearcher>(
            ctx.model, *ctx.surrogate, chainConfigFromOptions(opt, "MM"),
            ctx.timing);
    };
    return entry;
}());

const SearcherRegistrar parallelRegistrar([] {
    SearcherRegistry::Entry entry;
    entry.key = "MM-P";
    entry.description =
        "Mind Mappings, batched multi-chain Phase-2 driver: independent "
        "restart chains, one surrogate batch per step";
    entry.needsSurrogate = true;
    entry.options = kChainOptionSpecs;
    entry.options.insert(
        entry.options.begin(),
        {{"chains", "independent restart chains evaluated as one batch"},
         {"threads", "fork-join lanes (0 = hardware concurrency; at most "
                     "one per 8 chains and the hardware concurrency)"}});
    entry.factory = [](const SearcherBuildContext &ctx,
                       SearcherOptions &opt) {
        ParallelSearchConfig cfg;
        cfg.chain = chainConfigFromOptions(opt, "MM-P");
        cfg.chains = opt.getInt("chains", cfg.chains);
        cfg.threads = opt.getInt("threads", cfg.threads);
        if (cfg.chains < 1)
            fatal("searcher 'MM-P': chains must be >= 1");
        if (cfg.threads < 0)
            fatal("searcher 'MM-P': threads must be >= 0");
        return std::make_unique<ParallelGradientSearcher>(
            ctx.model, *ctx.surrogate, cfg, ctx.timing);
    };
    return entry;
}());

} // namespace

namespace detail {
extern const int parallelGradientSearcherRegistered;
const int parallelGradientSearcherRegistered = 1;
} // namespace detail

} // namespace mm
