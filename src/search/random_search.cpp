#include "search/random_search.hpp"

#include "search/registry.hpp"

namespace mm {

RandomSearcher::RandomSearcher(const CostModel &model_,
                               const TimingModel &timing)
    : model(&model_), stepLatency(timing.randomStepSec)
{}

namespace {

/** Proposals drawn and evaluated per cost-model batch. */
constexpr int64_t kProposalBlock = 64;

} // namespace

SearchResult
RandomSearcher::run(SearchContext &ctx)
{
    SearchRecorder rec(*model, ctx, stepLatency);
    Rng &rng = *ctx.rng;
    const MapSpace &space = model->space();

    // Batch the proposal stream: draw a block of candidates (sampling
    // is the only RNG consumer, so a block of draws is the same stream
    // as interleaved draw/evaluate) and charge it with one record()
    // call. Blocks are clamped to plannedSteps() so a deterministic
    // budget consumes exactly as many draws as a one-at-a-time loop;
    // under a wall-clock budget the wall may cut a block short, and
    // its unrecorded tail is dropped just as the sequential loop would
    // never have drawn it.
    std::vector<Mapping> proposals(kProposalBlock);
    std::vector<const Mapping *> proposalPtrs;
    for (const Mapping &m : proposals)
        proposalPtrs.push_back(&m);
    std::vector<double> norms(kProposalBlock);
    while (!rec.exhausted()) {
        const size_t block = size_t(rec.plannedSteps(kProposalBlock));
        for (size_t i = 0; i < block; ++i)
            space.randomValidInto(rng, proposals[i]);
        rec.record(std::span(proposalPtrs).first(block),
                   std::span(norms).first(block));
    }
    return rec.finish(name());
}

namespace {
const SearcherRegistrar registrar({
    "Random",
    "uniform random sampling of valid mappings (the unguided floor)",
    /*needsSurrogate=*/false,
    {},
    [](const SearcherBuildContext &ctx, SearcherOptions &) {
        return std::make_unique<RandomSearcher>(ctx.model, ctx.timing);
    },
});
} // namespace

namespace detail {
extern const int randomSearcherRegistered;
const int randomSearcherRegistered = 1;
} // namespace detail

} // namespace mm
