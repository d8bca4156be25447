/**
 * @file
 * Reinforcement-learning baseline: Deep Deterministic Policy Gradient
 * (Lillicrap et al. [56]), following the paper's HAQ-derived setup
 * (Appendix A).
 *
 * The MDP: states are mappings (encoded to a normalized feature vector),
 * a continuous action is a bounded move in feature space which decodes
 * (via rounding + projection) to the next mapping, and the reward is the
 * negative log of normalized EDP. Actor and critic are fully-connected
 * networks trained with replay and Polyak-averaged target networks; each
 * environment step costs one charged cost-function query.
 */
#pragma once

#include "mapping/codec.hpp"
#include "search/search.hpp"

namespace mm {

/** DDPG hyper-parameters. */
struct DdpgConfig
{
    /** Hidden width of actor/critic (paper: 300; default sized for CI). */
    int hiddenWidth = 128;
    int episodeLength = 25;
    size_t replayCapacity = 4096;
    size_t batchSize = 32;
    /** Steps of random exploration before learning starts. */
    int warmupSteps = 64;
    /** Gradient updates per environment step. */
    int updateEvery = 1;
    double gamma = 0.95;
    double tau = 0.01;
    double actorLr = 1e-3;
    double criticLr = 1e-3;
    /** Maximum per-step move in normalized feature space. */
    double actionScale = 0.15;
    double noiseStd = 0.3;
    double noiseDecay = 0.999;
    double noiseMin = 0.02;
    /**
     * Environment steps drawn and charged per SearchRecorder::record
     * call (one batched cost-model query).
     * Blocks always end at episode terminals and learn steps, so the
     * RNG stream and the learning schedule are bitwise identical to
     * the per-step loop at any value; <= 1 selects that per-step
     * reference loop itself.
     */
    int64_t stepBlock = 64;
};

/** Actor-critic search over the map space. */
class DdpgSearcher : public Searcher
{
  public:
    DdpgSearcher(const CostModel &model, DdpgConfig cfg = {},
                 const TimingModel &timing = {});

    std::string name() const override { return "RL"; }
    SearchResult run(SearchContext &ctx) override;
    using Searcher::run;

  private:
    const CostModel *model;
    DdpgConfig cfg;
    double stepLatency;
};

} // namespace mm
