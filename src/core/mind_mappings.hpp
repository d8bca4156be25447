/**
 * @file
 * The Mind Mappings public API (Appendix B).
 *
 * One MindMappings instance binds an accelerator and a target algorithm.
 * prepare() runs (or cache-loads) Phase 1 once; search() then answers
 * any number of target problems of that algorithm via Phase-2 gradient
 * search — the offline training cost is amortized across problems,
 * exactly the paper's deployment model. The accelerator-side routines
 * the framework requires (getMapping / isMember / getProjection) are
 * exposed directly.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   MindMappings mm(AcceleratorSpec::paperDefault(), cnnLayerAlgo());
 *   mm.prepare();                                  // Phase 1 (cached)
 *   auto result = mm.search(problem, SearchBudget::bySteps(1000), rng);
 *   std::cout << renderMapping(...) << result.bestNormEdp;
 */
#pragma once

#include <optional>

#include "core/cache.hpp"
#include "core/gradient_search.hpp"
#include "core/phase1.hpp"

namespace mm {

/** End-to-end configuration for the facade. */
struct MindMappingsOptions
{
    Phase1Config phase1;
    GradientSearchConfig search;
    TimingModel timing;
    /**
     * Phase-2 parallelism: independent gradient chains evaluated as a
     * single surrogate batch per step. 1 selects the paper's sequential
     * search; >1 the batched multi-threaded driver
     * (search/parallel_driver.hpp). Fixed seeds stay bitwise
     * reproducible at any thread count.
     */
    int searchChains = 1;
    /** Most fork-join lanes for chain-local work; 0 = hardware
     * concurrency (see parallelDriverLanes). */
    int searchThreads = 0;
    bool useCache = true;
    /** Empty selects SurrogateCache::defaultDir(). */
    std::string cacheDir;
};

/** Facade tying Phase 1 and Phase 2 together for one algorithm. */
class MindMappings
{
  public:
    MindMappings(AcceleratorSpec arch, const AlgorithmSpec &algo,
                 MindMappingsOptions opts = {});

    /**
     * Phase 1: train the surrogate or load it from cache. Idempotent;
     * returns true when a cached model was used.
     */
    bool prepare();

    bool prepared() const { return surrogateModel.has_value(); }

    /** The trained surrogate (prepare() must have run). */
    Surrogate &surrogate();

    /** Training curve of the last prepare() (empty on cache hit). */
    const std::vector<EpochReport> &trainingHistory() const
    {
        return history;
    }

    /** Appendix B: a uniformly random valid mapping for @p problem. */
    Mapping getMapping(const Problem &problem, Rng &rng) const;

    /** Appendix B: validity of @p m for @p problem. */
    bool isMember(const Problem &problem, const Mapping &m) const;

    /** Appendix B: projection of @p m onto the valid map space. */
    Mapping getProjection(const Problem &problem, const Mapping &m) const;

    /** Phase 2: search @p problem under @p budget. */
    SearchResult search(const Problem &problem, const SearchBudget &budget,
                        Rng &rng);

    /**
     * Phase 2 under the full run contract: @p ctx carries the budget,
     * RNG, and optional SearchObserver / StopToken, so facade searches
     * are observable and cancellable like any registry searcher.
     */
    SearchResult search(const Problem &problem, SearchContext &ctx);

    /** True normalized EDP of a mapping (evaluation convenience). */
    double normalizedEdp(const Problem &problem, const Mapping &m) const;

    const AcceleratorSpec &arch() const { return archSpec; }
    const AlgorithmSpec &algorithm() const { return *algo; }
    const MindMappingsOptions &options() const { return opts; }

  private:
    AcceleratorSpec archSpec;
    const AlgorithmSpec *algo;
    MindMappingsOptions opts;
    std::optional<Surrogate> surrogateModel;
    std::vector<EpochReport> history;
};

} // namespace mm
