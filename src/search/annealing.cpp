#include "search/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bound/bb_search.hpp"
#include "common/stats.hpp"
#include "mapping/moves.hpp"
#include "search/registry.hpp"

namespace mm {

AnnealingSearcher::AnnealingSearcher(const CostModel &model_,
                                     AnnealingConfig cfg_,
                                     const TimingModel &timing)
    : model(&model_), cfg(cfg_), stepLatency(timing.saStepSec)
{}

SearchResult
AnnealingSearcher::run(SearchContext &ctx)
{
    const MapSpace &space = model->space();
    SearchRecorder rec(*model, ctx, stepLatency);
    Rng &rng = *ctx.rng;
    const SearchBudget &budget = ctx.budget;

    // Pilot phase: estimate the energy scale for the temperature
    // schedule (uncharged auto-tuning, as in the paper's simanneal use).
    double tMax = cfg.tMax;
    double tMin = cfg.tMin;
    if (tMax <= 0.0 || tMin <= 0.0) {
        // Draw all pilot moves up front (sampling is the only RNG
        // consumer, so the stream matches the historical interleaved
        // draw/evaluate loop), score them in one batch, and feed the
        // estimator in draw order — same moments bitwise.
        std::vector<Mapping> pilots(size_t(std::max(cfg.pilotSamples, 0)));
        for (Mapping &pilot : pilots)
            space.randomValidInto(rng, pilot);
        std::vector<double> norms(pilots.size());
        model->normalizedEdpBatch(std::span<const Mapping>(pilots),
                                  std::span<double>(norms));
        RunningStat stat;
        for (double norm : norms)
            stat.push(norm);
        double scale = std::max(stat.stddev(), 1e-6);
        if (tMax <= 0.0)
            tMax = scale;
        if (tMin <= 0.0)
            tMin = std::max(1e-4 * scale, 1e-9);
    }

    int64_t horizon = cfg.scheduleSteps;
    if (horizon <= 0) {
        horizon = budget.maxSteps;
        if (horizon == std::numeric_limits<int64_t>::max()
            && std::isfinite(budget.maxVirtualSec)) {
            horizon = std::max<int64_t>(
                1, int64_t(budget.maxVirtualSec / stepLatency));
        }
        if (horizon == std::numeric_limits<int64_t>::max())
            horizon = 10000;
    }
    const double decay = std::log(tMin / tMax);

    // The random draw stays even when seeding replaces it, so the RNG
    // stream (and every unseeded run) is bitwise unchanged.
    Mapping current;
    space.randomValidInto(rng, current);
    if (!cfg.seedFrom.empty()) {
        if (auto seeded = seedIncumbent(*model, rec, cfg.seedNodes))
            current = *seeded;
    }
    double currentEnergy = rec.exhausted() ? 0.0 : rec.step(current);

    // One proposal buffer for the whole run: an accepted move swaps it
    // with current, so the loop allocates nothing after the first step.
    Mapping proposal;
    while (!rec.exhausted()) {
        double progress =
            double(std::min(rec.steps(), horizon)) / double(horizon);
        double temp = tMax * std::exp(decay * progress);

        randomNeighborInto(space, current, rng, proposal);
        double energy = rec.step(proposal);
        double delta = energy - currentEnergy;
        if (delta <= 0.0 || rng.uniformReal() < std::exp(-delta / temp)) {
            std::swap(current, proposal);
            currentEnergy = energy;
        }
    }

    return rec.finish(name());
}

namespace {
const SearcherRegistrar registrar({
    "SA",
    "simulated annealing, exponential schedule with auto-tuned "
    "temperatures (Appendix A)",
    /*needsSurrogate=*/false,
    {
        {"tMax", "start temperature (<= 0 auto-tunes from a pilot)"},
        {"tMin", "end temperature (<= 0 auto-tunes from a pilot)"},
        {"pilot", "pilot draws used by temperature auto-tuning"},
        {"horizon", "schedule horizon in steps (<= 0 derives from budget)"},
        {"seedFrom", "warm-start source: BB starts from a "
                     "branch-and-bound incumbent (default: random)"},
        {"seedNodes", "node cap of the seedFrom=BB run"},
    },
    [](const SearcherBuildContext &ctx, SearcherOptions &opt) {
        AnnealingConfig cfg;
        cfg.tMax = opt.getDouble("tMax", cfg.tMax);
        cfg.tMin = opt.getDouble("tMin", cfg.tMin);
        cfg.pilotSamples = opt.getInt("pilot", cfg.pilotSamples);
        cfg.scheduleSteps = opt.getInt("horizon", cfg.scheduleSteps);
        cfg.seedFrom = opt.getStr("seedFrom", cfg.seedFrom);
        cfg.seedNodes = opt.getInt("seedNodes", cfg.seedNodes);
        if (cfg.pilotSamples < 0)
            fatal("searcher 'SA': pilot must be >= 0");
        if (!cfg.seedFrom.empty() && cfg.seedFrom != "BB")
            fatal("searcher 'SA': seedFrom must be \"\" or \"BB\"");
        if (cfg.seedNodes < 1)
            fatal("searcher 'SA': seedNodes must be >= 1");
        return std::make_unique<AnnealingSearcher>(ctx.model, cfg,
                                                   ctx.timing);
    },
});
} // namespace

namespace detail {
extern const int annealingSearcherRegistered;
const int annealingSearcherRegistered = 1;
} // namespace detail

} // namespace mm
