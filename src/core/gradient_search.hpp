/**
 * @file
 * Phase 2: gradient search over the surrogate (Section 4.2).
 *
 * Projected Gradient Descent in the surrogate's normalized feature
 * space: differentiate log(predicted EDP) with respect to the candidate
 * mapping, step against the gradient (problem-id features held fixed),
 * round each attribute to its domain and project onto the valid map
 * space, then re-encode the projected mapping as the next iterate.
 * Local minima are escaped by injecting a random valid mapping every N
 * steps, accepted with a simulated-annealing rule over *surrogate*
 * predictions (Appendix A: inject every 10 iterations, temperature 50
 * decayed x0.75 every 50 injections, learning rate 1 with no decay).
 *
 * The true cost model is never consulted for any search decision — only
 * the SearchRecorder's instrumentation probes it to plot search quality,
 * mirroring the paper's measurement methodology.
 *
 * The chain state machine is factored out of the searcher loop as
 * GradientChain so that a driver can run many independent restart
 * chains and batch their surrogate evaluations into one MLP
 * forward/backward per step (see search/parallel_driver.hpp); the
 * single-chain MindMappingsSearcher is the batch-of-one special case.
 */
#pragma once

#include "core/surrogate.hpp"
#include "mapping/codec.hpp"
#include "search/search.hpp"

namespace mm {

/**
 * Phase-2 hyper-parameters.
 *
 * Defaults follow Appendix A (injection every 10 iterations, T=50
 * decayed x0.75 every 50 injections, no lr decay) except the learning
 * rate: the paper grid-searched lr=1 for its raw-feature normalization;
 * our log2-conditioned features rescale the step geometry, and the same
 * grid-search methodology selects 0.3 here (see
 * bench/ablation_gradient_search).
 */
struct GradientSearchConfig
{
    double learningRate = 0.3;
    /** Inject a random restart candidate every this many steps. */
    int injectEvery = 10;
    double initTemperature = 50.0;
    double tempDecay = 0.75;
    int decayEveryInjections = 50;
    /** Disable random injection entirely (ablation switch). */
    bool enableInjection = true;
    /**
     * Warm-start source, consumed by the batched driver (the chain
     * itself always starts random): "" starts all chains random, "BB"
     * restarts chain 0 from a bound-guided branch-and-bound incumbent
     * (src/bound/bb_search.hpp). The seeding leaf evaluations are
     * charged cost-function queries like any other step.
     */
    std::string seedFrom;
    /** Node cap of the seeding branch-and-bound run. */
    int64_t seedNodes = 256;
};

/**
 * One independent Phase-2 chain with its own RNG stream.
 *
 * The driver loop per step:
 *   1. reads features() of every chain into one batch row each,
 *   2. runs Surrogate::gradientBatch once for the whole batch,
 *   3. calls applyGradient(row) on every chain — parallelizable, since
 *      it touches only chain-local state and const space/codec/whitening
 *      data; the driver fans it out only when each lane gets
 *      kMinChainsPerLane chains (search/parallel_driver.hpp) and runs
 *      it inline otherwise,
 *   4. records every chain's current() as that step's proposals,
 *   5. services injection trials: prepareInjection() on each willing
 *      chain (chain-local RNG), one batched predictNormEdpBatch over
 *      the [current, candidate] rows, then resolveInjection().
 *
 * All randomness comes from the chain's own stream, so a fixed seed is
 * bitwise reproducible at any thread count and any batch composition.
 *
 * Steps allocate nothing once the chain has taken one step and one
 * injection trial: the iterate is decoded, projected and re-encoded in
 * place, and an accepted injection swaps the candidate's buffers with
 * the current ones instead of freeing them.
 */
class GradientChain
{
  public:
    /** Starts on a random valid mapping drawn from @p rng (step 1 of
     * Section 4.2). @p surrogate is used for conditioning/whitening
     * only; the driver owns all MLP evaluations. */
    GradientChain(const MapSpace &space, const MappingCodec &codec,
                  Surrogate &surrogate, const GradientSearchConfig &cfg,
                  Rng rng);

    /** z-scored features of the current iterate. */
    const std::vector<double> &features() const { return z; }

    /** The mapping the chain currently sits on. */
    const Mapping &current() const { return cur; }

    /** Restart the chain from @p m (must be valid): the next gradient
     * step descends from there. Consumes no randomness. */
    void restartFrom(const Mapping &m);

    /**
     * Consume this step's surrogate gradient row (steps 4-5 of Section
     * 4.2): descend with problem-id coordinates frozen, round to
     * attribute domains, project onto the valid map space, re-encode.
     * current() afterwards is this step's proposal.
     */
    void applyGradient(std::span<const float> gradRow);

    /** True when the annealed random-injection trial is due (step 6). */
    bool wantsInjection() const;

    /** Draw the injection candidate from the chain's own stream. */
    void prepareInjection();

    /** z-scored features of the pending injection candidate. */
    const std::vector<double> &injectionFeatures() const { return zCand; }

    /** Annealed acceptance over surrogate costs of current/candidate. */
    void resolveInjection(double costCurrent, double costCandidate);

  private:
    /** z-scored features of @p m into @p out. */
    void encodeZ(const Mapping &m, std::span<double> out) const;

    const MapSpace *space;
    const MappingCodec *codec;
    Surrogate *surrogate;
    GradientSearchConfig cfg;
    Rng rng;
    Mapping cur;
    std::vector<double> z;
    Mapping candidate;
    std::vector<double> zCand;
    double temperature;
    int64_t stepsTaken = 0;
    int64_t injections = 0;
};

/** The Mind Mappings searcher (single chain). */
class MindMappingsSearcher : public Searcher
{
  public:
    /**
     * @param model     True cost model (trace instrumentation only).
     * @param surrogate Trained Phase-1 surrogate for this algorithm.
     */
    MindMappingsSearcher(const CostModel &model, Surrogate &surrogate,
                         GradientSearchConfig cfg = {},
                         const TimingModel &timing = {});

    std::string name() const override { return "MM"; }
    SearchResult run(SearchContext &ctx) override;
    using Searcher::run;

  private:
    const CostModel *model;
    Surrogate *surrogate;
    GradientSearchConfig cfg;
    double stepLatency;
};

} // namespace mm
