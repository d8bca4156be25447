/**
 * @file
 * Batched, multi-threaded Phase-2 search driver.
 *
 * Mind Mappings' gradient search is embarrassingly parallel across
 * restart chains: every chain is an independent trajectory whose only
 * shared resource is the (read-only) surrogate. The driver exploits
 * this twice over:
 *
 *  - **Batching**: per step, all P chains' feature rows are stacked
 *    into one matrix and evaluated with a single MLP forward/backward
 *    (Surrogate::gradientBatch) — the gemm over a P-row batch amortizes
 *    the weight-matrix traffic that dominates batch-1 inference. The
 *    annealed injection trials are batched the same way.
 *
 *  - **Threading**: the per-chain decode/round/project/re-encode work —
 *    the CPU-heavy non-gemm part of a step — fans out over a fork-join
 *    pool, one lane per kMinChainsPerLane chains at most. A step of a
 *    chain allocates nothing and takes ~2 us, so a lane needs several
 *    chains to pay for its fork-join; with fewer chains (MM-P's
 *    default 4 among them) every chain runs inline and no thread is
 *    started.
 *
 * Determinism: every chain owns a forked RNG stream fixed at
 * construction, batch rows are always packed in chain order, and the
 * recorder probes proposals in chain order, so a fixed seed yields
 * bitwise-identical results at ANY thread count (including 1).
 *
 * Budget semantics: one driver step advances all P chains and charges
 * the virtual clock ONE surrogate-step latency — the chains run
 * concurrently in wall-clock terms, which is exactly the iso-time
 * advantage being modeled — while the step counter advances by P (one
 * per surrogate query, the paper's iteration unit). Under a step
 * budget the final batch is truncated so the step count is exact.
 */
#pragma once

#include "core/gradient_search.hpp"

namespace mm {

/** Knobs of the parallel batched Phase-2 driver. */
struct ParallelSearchConfig
{
    /** Per-chain gradient-search hyper-parameters. */
    GradientSearchConfig chain{};
    /** Independent restart chains evaluated as one batch. */
    int chains = 4;
    /** Most fork-join lanes; 0 selects hardware concurrency. The
     * driver uses fewer (parallelDriverLanes). */
    int threads = 0;
};

/** Multi-chain Mind Mappings searcher ("MM-P<chains>"). */
class ParallelGradientSearcher : public Searcher
{
  public:
    ParallelGradientSearcher(const CostModel &model, Surrogate &surrogate,
                             ParallelSearchConfig cfg = {},
                             const TimingModel &timing = {});

    std::string name() const override;
    SearchResult run(SearchContext &ctx) override;
    using Searcher::run;

  private:
    const CostModel *model;
    Surrogate *surrogate;
    ParallelSearchConfig cfg;
    double stepLatency;
};

/**
 * Fewest chains a fork-join lane must get before the driver fans a
 * step out. Measured on a 4-vCPU AVX-512 host with the fast-preset
 * surrogate: one chain's step (descend, decode, project, re-encode)
 * takes 1.2-2.6 us. Re-timed with the pool's spin-then-park hand-off,
 * whose fork-join adds 1.3-6 us (11-17 us with workers that slept
 * between jobs), in a standalone driver with the clamp lowered
 * to one chain per lane: over two lanes, 4 chains still ran 1.08-1.12x
 * the inline time and 8 chains 1.05-1.08x; 12 tied, 16 ran 1.00-1.10x
 * and 24 won by 20-23 %. So the cheaper hand-off does not move the
 * break-even below this many chains per lane (that timing puts it
 * nearer 12). With fewer than twice this many chains the driver runs
 * every chain inline on the calling thread.
 */
inline constexpr size_t kMinChainsPerLane = 8;

/**
 * Fork-join lanes of the driver: @p threadCount (0 = @p hardware, the
 * host's hardware concurrency), but never more than @p chainCount /
 * kMinChainsPerLane or the hardware, and never fewer than one. A
 * negative count runs on one lane. Results are bitwise equal at any
 * lane count, so the clamp only bounds the threads a request can start
 * and keeps lanes that cannot pay for their fork-join idle.
 */
size_t parallelDriverLanes(int threadCount, int chainCount,
                           unsigned hardware);

/**
 * The shared driver loop: run @p chainCount chains under @p ctx's
 * budget, batching surrogate evaluations, with chain-local work spread
 * over parallelDriverLanes(@p threadCount, @p chainCount, hardware
 * concurrency) lanes. Chain RNG streams are forked from ctx.rng in
 * chain order. @p method tags the result.
 */
SearchResult runBatchedGradientSearch(const CostModel &model,
                                      Surrogate &surrogate,
                                      const GradientSearchConfig &chainCfg,
                                      int chainCount, int threadCount,
                                      double stepLatencySec,
                                      SearchContext &ctx,
                                      const std::string &method);

} // namespace mm
