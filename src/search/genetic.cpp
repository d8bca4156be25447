#include "search/genetic.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bound/bb_search.hpp"
#include "mapping/moves.hpp"
#include "search/registry.hpp"

namespace mm {

namespace {

/** An individual with its (possibly pending) fitness. */
struct Individual
{
    Mapping mapping;
    double fitness = std::numeric_limits<double>::infinity();
    bool evaluated = false;
};

} // namespace

namespace detail {

bool
childMayInheritFitness(const Mapping &child, const Mapping &parent,
                       bool parentEvaluated)
{
    return parentEvaluated && child == parent;
}

} // namespace detail

GeneticSearcher::GeneticSearcher(const CostModel &model_, GeneticConfig cfg_,
                                 const TimingModel &timing)
    : model(&model_), cfg(cfg_), stepLatency(timing.gaStepSec)
{
    MM_ASSERT(cfg.populationSize >= 2, "population too small");
    MM_ASSERT(cfg.elites < cfg.populationSize, "too many elites");
}

SearchResult
GeneticSearcher::run(SearchContext &ctx)
{
    const MapSpace &space = model->space();
    SearchRecorder rec(*model, ctx, stepLatency);
    Rng &rng = *ctx.rng;

    // One record() call per generation: collect the individuals with
    // pending fitness (population order) and charge them as one block —
    // bitwise identical to a per-individual step() loop (evaluations
    // consume no RNG). The block's tail beyond the budget stays
    // unevaluated, exactly as if the loop had stopped there.
    std::vector<const Mapping *> pendingMaps;
    std::vector<size_t> pendingIdx;
    std::vector<double> norms;
    auto evaluatePending = [&](std::vector<Individual> &gen) {
        pendingMaps.clear();
        pendingIdx.clear();
        for (size_t i = 0; i < gen.size(); ++i) {
            if (!gen[i].evaluated) {
                pendingIdx.push_back(i);
                pendingMaps.push_back(&gen[i].mapping);
            }
        }
        norms.resize(pendingMaps.size());
        const size_t used = rec.record(pendingMaps, norms);
        for (size_t j = 0; j < used; ++j) {
            gen[pendingIdx[j]].fitness = norms[j];
            gen[pendingIdx[j]].evaluated = true;
        }
    };

    std::vector<Individual> pop(size_t(cfg.populationSize));
    for (auto &ind : pop)
        space.randomValidInto(rng, ind.mapping);
    // Optional warm start after the full random init, so the RNG stream
    // (and every unseeded run) is bitwise unchanged.
    if (!cfg.seedFrom.empty()) {
        if (auto seeded = seedIncumbent(*model, rec, cfg.seedNodes))
            pop[0].mapping = *seeded;
    }
    evaluatePending(pop);

    auto tournament = [&]() -> const Individual & {
        const Individual *winner = nullptr;
        for (int i = 0; i < cfg.tournamentSize; ++i) {
            const Individual &cand = pop[size_t(
                rng.uniformInt(0, int64_t(pop.size()) - 1))];
            if (winner == nullptr || cand.fitness < winner->fitness)
                winner = &cand;
        }
        return *winner;
    };

    // Two populations and the ranking live across generations: each
    // generation writes into next's mappings and swaps it with pop, so
    // after the first generation the loop allocates nothing.
    std::vector<Individual> next(pop.size());
    std::vector<size_t> byFitness(pop.size());
    while (!rec.exhausted()) {
        // Elitism: carry the current best forward unchanged.
        std::iota(byFitness.begin(), byFitness.end(), size_t(0));
        std::sort(byFitness.begin(), byFitness.end(),
                  [&](size_t a, size_t b) {
                      return pop[a].fitness < pop[b].fitness;
                  });

        const size_t elites = size_t(cfg.elites);
        for (size_t e = 0; e < elites; ++e)
            next[e] = pop[byFitness[e]];

        for (size_t k = elites; k < next.size(); ++k) {
            const Individual &pa = tournament();
            const Individual &pb = tournament();
            Individual &child = next[k];
            // Pending, as in a fresh Individual.
            child.fitness = std::numeric_limits<double>::infinity();
            child.evaluated = false;
            if (rng.bernoulli(cfg.crossoverProb))
                crossoverInto(space, pa.mapping, pb.mapping, rng,
                              child.mapping);
            else
                child.mapping = pa.mapping;
            mutateInPlace(space, child.mapping, cfg.mutationProb, rng);
            if (detail::childMayInheritFitness(child.mapping, pa.mapping,
                                               pa.evaluated)) {
                // Unchanged clones inherit the parent's fitness instead
                // of burning a cost-function query; a child whose
                // genome differs (or whose parent was never scored)
                // always earns its own.
                child.fitness = pa.fitness;
                child.evaluated = true;
            }
        }

        // Elites keep their fitness; everyone else is (re)evaluated in
        // one batch.
        evaluatePending(next);
        std::swap(pop, next);
    }

    return rec.finish(name());
}

namespace {
const SearcherRegistrar registrar({
    "GA",
    "generational genetic algorithm with tournament selection and "
    "elitism (DEAP-style, Appendix A)",
    /*needsSurrogate=*/false,
    {
        {"pop", "population size (paper: 100)"},
        {"cx", "crossover probability (paper: 0.75)"},
        {"mut", "per-attribute mutation probability (paper: 0.05)"},
        {"tourn", "tournament size"},
        {"elites", "elites carried forward unchanged"},
        {"seedFrom", "warm-start source: BB replaces individual 0 with "
                     "a branch-and-bound incumbent (default: random)"},
        {"seedNodes", "node cap of the seedFrom=BB run"},
    },
    [](const SearcherBuildContext &ctx, SearcherOptions &opt) {
        GeneticConfig cfg;
        cfg.populationSize = opt.getInt("pop", cfg.populationSize);
        cfg.crossoverProb = opt.getDouble("cx", cfg.crossoverProb);
        cfg.mutationProb = opt.getDouble("mut", cfg.mutationProb);
        cfg.tournamentSize = opt.getInt("tourn", cfg.tournamentSize);
        cfg.elites = opt.getInt("elites", cfg.elites);
        cfg.seedFrom = opt.getStr("seedFrom", cfg.seedFrom);
        cfg.seedNodes = opt.getInt("seedNodes", cfg.seedNodes);
        if (!cfg.seedFrom.empty() && cfg.seedFrom != "BB")
            fatal("searcher 'GA': seedFrom must be \"\" or \"BB\"");
        if (cfg.seedNodes < 1)
            fatal("searcher 'GA': seedNodes must be >= 1");
        if (cfg.populationSize < 2)
            fatal("searcher 'GA': pop must be >= 2");
        if (cfg.tournamentSize < 1)
            fatal("searcher 'GA': tourn must be >= 1");
        if (cfg.elites < 0 || cfg.elites >= cfg.populationSize)
            fatal("searcher 'GA': elites must be in [0, pop)");
        return std::make_unique<GeneticSearcher>(ctx.model, cfg,
                                                 ctx.timing);
    },
});
} // namespace

namespace detail {
extern const int geneticSearcherRegistered;
const int geneticSearcherRegistered = 1;
} // namespace detail

} // namespace mm
