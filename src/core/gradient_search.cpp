#include "core/gradient_search.hpp"

#include <cmath>
#include <utility>

#include "search/parallel_driver.hpp"

namespace mm {

GradientChain::GradientChain(const MapSpace &space_,
                             const MappingCodec &codec_,
                             Surrogate &surrogate_,
                             const GradientSearchConfig &cfg_, Rng rng_)
    : space(&space_), codec(&codec_), surrogate(&surrogate_), cfg(cfg_),
      rng(rng_), temperature(cfg_.initTemperature)
{
    MM_ASSERT(cfg.learningRate > 0.0, "non-positive learning rate");
    MM_ASSERT(cfg.injectEvery > 0, "injection interval must be positive");
    const size_t features = codec->featureCount();
    z.resize(features);
    zCand.resize(features);
    space->randomValidInto(rng, cur);
    encodeZ(cur, z);
}

void
GradientChain::encodeZ(const Mapping &m, std::span<double> out) const
{
    codec->encodeInto(m, out);
    surrogate->normalizeInputInto(out, out);
}

void
GradientChain::restartFrom(const Mapping &m)
{
    cur = m;
    encodeZ(cur, z);
}

void
GradientChain::applyGradient(std::span<const float> gradRow)
{
    MM_ASSERT(gradRow.size() == z.size(), "gradient arity mismatch");
    // The problem id is an input to f*, not a search variable — freeze
    // its coordinates.
    const size_t pidLo = codec->pidOffset();
    const size_t pidHi = pidLo + codec->pidCount();
    for (size_t i = 0; i < z.size(); ++i) {
        if (i >= pidLo && i < pidHi)
            continue;
        z[i] -= cfg.learningRate * double(gradRow[i]);
    }

    // Round to attribute domains and project to validity, then
    // re-encode so the iterate matches the projected point. Every stage
    // works in place on z and cur, so a step allocates nothing.
    surrogate->denormalizeInputInto(z, z);
    codec->decodeInto(z, cur);
    encodeZ(cur, z);
    ++stepsTaken;
}

bool
GradientChain::wantsInjection() const
{
    return cfg.enableInjection && stepsTaken > 0
           && stepsTaken % cfg.injectEvery == 0;
}

void
GradientChain::prepareInjection()
{
    space->randomValidInto(rng, candidate);
    encodeZ(candidate, zCand);
}

void
GradientChain::resolveInjection(double costCurrent, double costCandidate)
{
    double delta = costCandidate - costCurrent;
    if (delta <= 0.0
        || rng.uniformReal() < std::exp(-delta / temperature)) {
        // Swap rather than move, so the rejected side's buffers are
        // the next candidate's.
        std::swap(cur, candidate);
        std::swap(z, zCand);
    }
    ++injections;
    if (injections % cfg.decayEveryInjections == 0)
        temperature *= cfg.tempDecay;
}

MindMappingsSearcher::MindMappingsSearcher(const CostModel &model_,
                                           Surrogate &surrogate_,
                                           GradientSearchConfig cfg_,
                                           const TimingModel &timing)
    : model(&model_), surrogate(&surrogate_), cfg(cfg_),
      stepLatency(timing.surrogateStepSec)
{
    MM_ASSERT(cfg.learningRate > 0.0, "non-positive learning rate");
    MM_ASSERT(cfg.injectEvery > 0, "injection interval must be positive");
}

SearchResult
MindMappingsSearcher::run(SearchContext &ctx)
{
    // The batched driver with one chain on one thread is exactly the
    // sequential algorithm of Section 4.2.
    return runBatchedGradientSearch(*model, *surrogate, cfg,
                                    /*chainCount=*/1, /*threadCount=*/1,
                                    stepLatency, ctx, name());
}

} // namespace mm
