/**
 * @file
 * Search-framework tests: budgets, recorders, virtual-time accounting,
 * and the four baseline searchers (determinism, budget compliance,
 * validity and sanity of results).
 */
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "common/stats.hpp"
#include "core/phase1.hpp"
#include "counting_allocator.hpp"
#include "gemm_test_util.hpp"
#include "mapping/codec.hpp"
#include "mapping/moves.hpp"
#include "search/annealing.hpp"
#include "search/ddpg.hpp"
#include "search/genetic.hpp"
#include "search/parallel_driver.hpp"
#include "search/random_search.hpp"
#include "search/registry.hpp"

namespace mm {
namespace {

struct SearchFixture
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem problem = mttkrpProblem("mtt", 128, 256, 512, 128);
    MapSpace space{arch, problem};
    CostModel model{space};
};

TEST(SearchBudget, StepAndTimeLimits)
{
    auto bySteps = SearchBudget::bySteps(10);
    EXPECT_FALSE(bySteps.done(9, 1e9));
    EXPECT_TRUE(bySteps.done(10, 0.0));

    auto byTime = SearchBudget::byVirtualTime(5.0);
    EXPECT_FALSE(byTime.done(1000000, 4.99));
    EXPECT_TRUE(byTime.done(0, 5.0));
}

TEST(SearchRecorder, TracksBestAndChargesTime)
{
    SearchFixture fx;
    Rng rng(1);
    SearchRecorder rec(fx.model, SearchBudget::bySteps(5), 2.0);
    double worst = 0.0;
    while (!rec.exhausted()) {
        double v = rec.step(fx.space.randomValid(rng));
        worst = std::max(worst, v);
    }
    EXPECT_EQ(rec.steps(), 5);
    EXPECT_DOUBLE_EQ(rec.virtualSec(), 10.0);
    EXPECT_LE(rec.bestNormEdp(), worst);

    SearchResult res = rec.finish("test");
    EXPECT_EQ(res.method, "test");
    EXPECT_EQ(res.steps, 5);
    ASSERT_FALSE(res.trace.empty());
    EXPECT_EQ(res.trace.back().step, 5);
    // Trace values are monotonically non-increasing.
    for (size_t i = 1; i < res.trace.size(); ++i)
        EXPECT_LE(res.trace[i].bestNormEdp, res.trace[i - 1].bestNormEdp);
    EXPECT_TRUE(fx.space.isMember(res.best));
}

/** Requests a stop from the onProgress callback at a chosen step. */
class StopAtStep : public SearchObserver
{
  public:
    explicit StopAtStep(int64_t at) : at(at) {}

    void
    onProgress(const SearchProgress &p) override
    {
        if (p.steps == at)
            stop.requestStop();
    }

    int64_t at;
    StopToken stop;
};

/** A recorder plus the stop token/observer its context points at. */
struct RecorderUnderTest
{
    RecorderUnderTest(const CostModel &model, const SearchBudget &budget,
                      int64_t stopAt, double latency)
        : observer(stopAt), rec(model, context(budget), latency)
    {}

    SearchContext
    context(const SearchBudget &budget)
    {
        SearchContext ctx;
        ctx.budget = budget;
        if (observer.at > 0) {
            ctx.observer = &observer;
            ctx.stop = &observer.stop;
            ctx.progressEvery = 1;
        }
        return ctx;
    }

    StopAtStep observer;
    SearchRecorder rec;
};

TEST(SearchRecorder, RecordBlockEqualsOneAtATime)
{
    SearchFixture fx;
    Rng rng(17);
    std::vector<Mapping> pool;
    for (int i = 0; i < 150; ++i)
        pool.push_back(fx.space.randomValid(rng));
    std::vector<const Mapping *> ptrs;
    for (const Mapping &m : pool)
        ptrs.push_back(&m);

    // 0.1 s per step sums inexactly, so the virtual-time budget checks
    // that a block's admitted prefix replays the running clock.
    struct Case
    {
        const char *name;
        SearchBudget budget;
        int64_t stopAt;
        int64_t steps;
    };
    const Case cases[] = {
        {"steps", SearchBudget::bySteps(45), 0, 45},
        {"virtual time", SearchBudget::byVirtualTime(3.0), 0, 30},
        {"stop token", SearchBudget{}, 23, 23},
    };
    for (const Case &c : cases) {
        for (size_t blockSize : {size_t(0), size_t(1), size_t(7),
                                 size_t(64)}) {
            SCOPED_TRACE(std::string(c.name) + ", block "
                         + std::to_string(blockSize));
            RecorderUnderTest block(fx.model, c.budget, c.stopAt, 0.1);
            RecorderUnderTest single(fx.model, c.budget, c.stopAt, 0.1);
            const size_t width = std::max<size_t>(blockSize, 1);
            for (size_t at = 0; at < pool.size(); at += width) {
                const size_t n = std::min(blockSize, pool.size() - at);
                std::vector<double> blockNorms(n, -1.0);
                const size_t got = block.rec.record(
                    std::span(ptrs).subspan(at, n), blockNorms);
                size_t want = 0;
                for (size_t i = 0; i < n; ++i) {
                    double norm = -1.0;
                    const size_t one = single.rec.record(
                        std::span(ptrs).subspan(at + i, 1),
                        std::span(&norm, 1));
                    if (one == 1) {
                        EXPECT_EQ(std::bit_cast<uint64_t>(norm),
                                  std::bit_cast<uint64_t>(blockNorms[i]));
                        ++want;
                    }
                }
                EXPECT_EQ(got, want);
                EXPECT_EQ(block.rec.steps(), single.rec.steps());
                EXPECT_EQ(std::bit_cast<uint64_t>(block.rec.virtualSec()),
                          std::bit_cast<uint64_t>(single.rec.virtualSec()));
                EXPECT_EQ(block.rec.bestNormEdp(), single.rec.bestNormEdp());
            }
            SearchResult a = block.rec.finish("block");
            SearchResult b = single.rec.finish("single");
            EXPECT_EQ(a.best, b.best);
            ASSERT_EQ(a.trace.size(), b.trace.size());
            for (size_t i = 0; i < a.trace.size(); ++i) {
                EXPECT_EQ(a.trace[i].step, b.trace[i].step);
                EXPECT_EQ(a.trace[i].virtualSec, b.trace[i].virtualSec);
                EXPECT_EQ(a.trace[i].bestNormEdp, b.trace[i].bestNormEdp);
            }
            if (blockSize == 0) {
                EXPECT_EQ(a.steps, 0);
                EXPECT_EQ(a.virtualSec, 0.0);
            } else {
                // Every budget ends the run inside the pool; after
                // that a block is refused whole and charges nothing.
                EXPECT_EQ(a.steps, c.steps);
                EXPECT_EQ(a.cancelled, c.stopAt > 0);
                std::vector<double> rest(ptrs.size());
                EXPECT_EQ(block.rec.record(ptrs, rest), 0u);
                EXPECT_EQ(block.rec.steps(), c.steps);
                EXPECT_EQ(block.rec.virtualSec(), a.virtualSec);
            }
        }
    }
}

TEST(SearchRecorder, SharedLatencyChargesOncePerCallAndTruncatesAtMaxSteps)
{
    SearchFixture fx;
    Rng rng(19);
    std::vector<Mapping> pool;
    for (int i = 0; i < 7; ++i)
        pool.push_back(fx.space.randomValid(rng));
    std::vector<const Mapping *> ptrs;
    for (const Mapping &m : pool)
        ptrs.push_back(&m);
    std::vector<double> norms(ptrs.size());

    // Step budget: the second call is cut at maxSteps, the third finds
    // the budget exhausted and charges nothing.
    SearchRecorder bySteps(fx.model, SearchBudget::bySteps(10), 2.5);
    EXPECT_EQ(bySteps.record(ptrs, norms, Latency::Shared), 7u);
    EXPECT_EQ(bySteps.steps(), 7);
    EXPECT_EQ(bySteps.virtualSec(), 2.5);
    EXPECT_EQ(bySteps.record(ptrs, norms, Latency::Shared), 3u);
    EXPECT_EQ(bySteps.steps(), 10);
    EXPECT_EQ(bySteps.virtualSec(), 5.0);
    EXPECT_EQ(bySteps.record(ptrs, norms, Latency::Shared), 0u);
    EXPECT_EQ(bySteps.steps(), 10);
    EXPECT_EQ(bySteps.virtualSec(), 5.0);

    // Virtual time never truncates a call: the second one runs past
    // the budget in full.
    SearchRecorder timed(fx.model, SearchBudget::byVirtualTime(3.0), 2.5);
    EXPECT_EQ(timed.record(ptrs, norms, Latency::Shared), 7u);
    EXPECT_EQ(timed.record(ptrs, norms, Latency::Shared), 7u);
    EXPECT_EQ(timed.steps(), 14);
    EXPECT_EQ(timed.virtualSec(), 5.0);
    EXPECT_EQ(timed.record(ptrs, norms, Latency::Shared), 0u);
    EXPECT_EQ(timed.steps(), 14);

    // Neither does a stop requested mid-call: the chains ran
    // concurrently. The next call finds the run stopped.
    RecorderUnderTest stopped(fx.model, SearchBudget{}, 2, 2.5);
    EXPECT_EQ(stopped.rec.record(ptrs, norms, Latency::Shared), 7u);
    EXPECT_EQ(stopped.rec.record(ptrs, norms, Latency::Shared), 0u);
    EXPECT_EQ(stopped.rec.steps(), 7);
    EXPECT_EQ(stopped.rec.virtualSec(), 2.5);

    // An empty call charges nothing.
    SearchRecorder empty(fx.model, SearchBudget{}, 2.5);
    EXPECT_EQ(empty.record({}, {}, Latency::Shared), 0u);
    EXPECT_EQ(empty.virtualSec(), 0.0);
}

TEST(SearchRecorder, StopRacingTheCallersCheckChargesNothing)
{
    // A served disconnect may set the stop after a searcher's
    // exhausted() check and before its step(): that step must charge
    // nothing, leave the best alone, and return +inf.
    SearchFixture fx;
    Rng rng(41);
    StopToken stop;
    SearchContext ctx;
    ctx.budget = SearchBudget::bySteps(10);
    ctx.stop = &stop;
    SearchRecorder rec(fx.model, ctx, 2.0);
    const Mapping first = fx.space.randomValid(rng);
    const double firstNorm = rec.step(first);
    ASSERT_TRUE(std::isfinite(firstNorm));

    ASSERT_FALSE(rec.exhausted());
    stop.requestStop();
    const double raced = rec.step(fx.space.randomValid(rng));
    EXPECT_TRUE(std::isinf(raced) && raced > 0.0);
    EXPECT_EQ(rec.steps(), 1);
    EXPECT_EQ(rec.virtualSec(), 2.0);
    EXPECT_EQ(rec.bestNormEdp(), firstNorm);
    SearchResult r = rec.finish("raced");
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.steps, 1);
    EXPECT_TRUE(r.best == first);
    EXPECT_EQ(r.trace.back().step, 1);
}

TEST(SearchResult, StepAndTimeInterpolation)
{
    SearchResult res;
    res.trace = {{2, 1.0, 100.0}, {5, 2.5, 40.0}, {9, 4.5, 10.0}};
    EXPECT_TRUE(std::isinf(res.bestAtStep(1)));
    EXPECT_DOUBLE_EQ(res.bestAtStep(2), 100.0);
    EXPECT_DOUBLE_EQ(res.bestAtStep(6), 40.0);
    EXPECT_DOUBLE_EQ(res.bestAtStep(100), 10.0);
    EXPECT_DOUBLE_EQ(res.bestAtVirtualTime(2.5), 40.0);
    EXPECT_DOUBLE_EQ(res.bestAtVirtualTime(100.0), 10.0);
}

TEST(RandomSearcher, RespectsBudgetAndIsDeterministic)
{
    SearchFixture fx;
    RandomSearcher searcher(fx.model);
    Rng a(7), b(7);
    SearchResult r1 = searcher.run(SearchBudget::bySteps(50), a);
    SearchResult r2 = searcher.run(SearchBudget::bySteps(50), b);
    EXPECT_EQ(r1.steps, 50);
    EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp);
    EXPECT_EQ(r1.best, r2.best);
    EXPECT_TRUE(fx.space.isMember(r1.best));
    // Paper-calibrated virtual time: one reference query per step.
    EXPECT_NEAR(r1.virtualSec, 50 * TimingModel{}.randomStepSec, 1e-9);
}

TEST(RandomSearcher, VirtualTimeBudgetStopsEarly)
{
    SearchFixture fx;
    RandomSearcher searcher(fx.model);
    Rng rng(3);
    SearchResult res =
        searcher.run(SearchBudget::byVirtualTime(100.0), rng);
    // 9.6 s per step: 11 steps push the clock past 100 s.
    EXPECT_EQ(res.steps, 11);
    EXPECT_GE(res.virtualSec, 100.0);
}

TEST(RandomSearcher, MoreBudgetNeverHurts)
{
    SearchFixture fx;
    RandomSearcher searcher(fx.model);
    Rng a(11), b(11);
    double small = searcher.run(SearchBudget::bySteps(20), a).bestNormEdp;
    double large = searcher.run(SearchBudget::bySteps(200), b).bestNormEdp;
    EXPECT_LE(large, small);
}

TEST(AnnealingSearcher, ImprovesOverInitAndStaysValid)
{
    SearchFixture fx;
    AnnealingSearcher searcher(fx.model);
    Rng rng(5);
    SearchResult res = searcher.run(SearchBudget::bySteps(400), rng);
    EXPECT_EQ(res.steps, 400);
    EXPECT_TRUE(fx.space.isMember(res.best));
    // Best-so-far must improve on the very first evaluated candidate.
    EXPECT_LT(res.bestNormEdp, res.trace.front().bestNormEdp + 1e-9);
    EXPECT_NEAR(res.virtualSec, 400 * TimingModel{}.saStepSec, 1e-6);
}

TEST(AnnealingSearcher, IsCompetitiveWithRandom)
{
    // On this modest map space best-of-N random sampling is a strong
    // baseline (Sec. 5.4.1 makes the same observation for MTTKRP); SA
    // must at least stay in the same quality band. Deterministic seeds.
    SearchFixture fx;
    std::vector<double> sa, rnd;
    for (uint64_t seed = 0; seed < 3; ++seed) {
        Rng r1(seed), r2(seed);
        AnnealingSearcher s(fx.model);
        RandomSearcher r(fx.model);
        sa.push_back(s.run(SearchBudget::bySteps(600), r1).bestNormEdp);
        rnd.push_back(r.run(SearchBudget::bySteps(600), r2).bestNormEdp);
    }
    EXPECT_LT(geomean(sa), geomean(rnd) * 1.25);
}

TEST(AnnealingSearcher, HonorsExplicitSchedule)
{
    SearchFixture fx;
    AnnealingConfig cfg;
    cfg.tMax = 100.0;
    cfg.tMin = 0.1;
    cfg.scheduleSteps = 200;
    AnnealingSearcher searcher(fx.model, cfg);
    Rng rng(9);
    SearchResult res = searcher.run(SearchBudget::bySteps(200), rng);
    EXPECT_EQ(res.steps, 200);
    EXPECT_TRUE(fx.space.isMember(res.best));
}

TEST(GeneticSearcher, EvaluatesPopulationsWithinBudget)
{
    SearchFixture fx;
    GeneticConfig cfg;
    cfg.populationSize = 20;
    GeneticSearcher searcher(fx.model, cfg);
    Rng rng(13);
    SearchResult res = searcher.run(SearchBudget::bySteps(150), rng);
    EXPECT_EQ(res.steps, 150);
    EXPECT_TRUE(fx.space.isMember(res.best));
    EXPECT_NEAR(res.virtualSec, 150 * TimingModel{}.gaStepSec, 1e-6);
}

TEST(GeneticSearcher, DeterministicAndImproves)
{
    SearchFixture fx;
    GeneticConfig cfg;
    cfg.populationSize = 20;
    Rng a(17), b(17);
    GeneticSearcher s1(fx.model, cfg), s2(fx.model, cfg);
    SearchResult r1 = s1.run(SearchBudget::bySteps(300), a);
    SearchResult r2 = s2.run(SearchBudget::bySteps(300), b);
    EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp);
    // The final best beats the initial population's best (trace front is
    // the first improvement, i.e. the first individual).
    EXPECT_LE(r1.bestNormEdp, r1.trace.front().bestNormEdp);
}

TEST(GeneticSearcher, ChildInheritsFitnessOnlyWhenIdenticalAndEvaluated)
{
    SearchFixture fx;
    Rng rng(23);
    Mapping parent = fx.space.randomValid(rng);
    Mapping same = parent;
    EXPECT_TRUE(detail::childMayInheritFitness(same, parent, true));

    // Regression: crossover/mutation may return the parent genome
    // unchanged, but an UNevaluated parent's fitness is a placeholder
    // and must never be inherited — the child has to be re-scored.
    EXPECT_FALSE(detail::childMayInheritFitness(same, parent, false));

    // A genuinely mutated child never inherits, evaluated or not.
    Mapping child = randomNeighbor(fx.space, parent, rng);
    int guard = 0;
    while (child == parent && ++guard < 64)
        child = randomNeighbor(fx.space, parent, rng);
    ASSERT_FALSE(child == parent);
    EXPECT_FALSE(detail::childMayInheritFitness(child, parent, true));
    EXPECT_FALSE(detail::childMayInheritFitness(child, parent, false));
}

TEST(GeneticSearcher, RejectsDegenerateConfig)
{
    SearchFixture fx;
    GeneticConfig cfg;
    cfg.populationSize = 1;
    EXPECT_DEATH(
        { GeneticSearcher searcher(fx.model, cfg); }, "population");
}

TEST(DdpgSearcher, RunsWithinBudgetAndStaysValid)
{
    SearchFixture fx;
    DdpgConfig cfg;
    cfg.hiddenWidth = 32;
    cfg.batchSize = 8;
    cfg.warmupSteps = 16;
    DdpgSearcher searcher(fx.model, cfg);
    Rng rng(19);
    SearchResult res = searcher.run(SearchBudget::bySteps(120), rng);
    EXPECT_EQ(res.steps, 120);
    EXPECT_TRUE(fx.space.isMember(res.best));
    EXPECT_NEAR(res.virtualSec, 120 * TimingModel{}.rlStepSec, 1e-6);
}

TEST(DdpgSearcher, Deterministic)
{
    SearchFixture fx;
    DdpgConfig cfg;
    cfg.hiddenWidth = 24;
    cfg.batchSize = 8;
    cfg.warmupSteps = 8;
    Rng a(23), b(23);
    DdpgSearcher s1(fx.model, cfg), s2(fx.model, cfg);
    EXPECT_DOUBLE_EQ(s1.run(SearchBudget::bySteps(80), a).bestNormEdp,
                     s2.run(SearchBudget::bySteps(80), b).bestNormEdp);
}

TEST(DdpgSearcher, BatchedPathIsBitwiseIdenticalToPerStepLoop)
{
    SearchFixture fx;
    DdpgConfig perStep;
    perStep.hiddenWidth = 24;
    perStep.batchSize = 8;
    perStep.warmupSteps = 8;
    perStep.episodeLength = 7;
    perStep.updateEvery = 3;
    perStep.stepBlock = 1;
    DdpgConfig batched = perStep;
    batched.stepBlock = 16;
    // Budgets straddle episode terminals, the warmup->actor hand-off,
    // and off-phase learn steps so every block-boundary case is hit.
    for (int64_t steps : {5, 40, 96}) {
        Rng a(29), b(29);
        DdpgSearcher s1(fx.model, perStep), s2(fx.model, batched);
        SearchResult r1 = s1.run(SearchBudget::bySteps(steps), a);
        SearchResult r2 = s2.run(SearchBudget::bySteps(steps), b);
        EXPECT_EQ(r1.steps, r2.steps) << "budget " << steps;
        EXPECT_EQ(r1.bestNormEdp, r2.bestNormEdp) << "budget " << steps;
        EXPECT_TRUE(r1.best == r2.best) << "budget " << steps;
        ASSERT_EQ(r1.trace.size(), r2.trace.size()) << "budget " << steps;
        for (size_t i = 0; i < r1.trace.size(); ++i) {
            EXPECT_EQ(r1.trace[i].step, r2.trace[i].step);
            EXPECT_EQ(r1.trace[i].bestNormEdp, r2.trace[i].bestNormEdp);
        }
    }
}

/** Counts charged steps and watches every reported value. */
class ChargedSteps : public SearchObserver
{
  public:
    void
    onProgress(const SearchProgress &p) override
    {
        ++calls;
        lastStep = p.steps;
        finite = finite && std::isfinite(p.bestNormEdp);
    }

    int64_t calls = 0, lastStep = 0;
    bool finite = true;
};

TEST(StepRace, SaAndRlEndCleanlyWhenAStopRacesTheirStep)
{
    // Another thread requests the stop at staggered times, as a served
    // disconnect does, so some stops land between a searcher's check
    // and its step(). Whenever it lands, the run must end with every
    // reported step charged exactly once and a best that is a member
    // scored by the cost model, or no best at all. RL must also not
    // learn from the racing step: its -log10(+inf) reward is skipped.
    SearchFixture fx;
    DdpgConfig rl;
    rl.hiddenWidth = 16;
    rl.batchSize = 8;
    rl.warmupSteps = 8;
    DdpgConfig rlPerStep = rl;
    rlPerStep.stepBlock = 1;
    struct Case
    {
        const char *name;
        std::function<std::unique_ptr<Searcher>()> make;
    };
    const Case cases[] = {
        {"SA", [&] { return std::make_unique<AnnealingSearcher>(fx.model); }},
        {"RL:block=1",
         [&] { return std::make_unique<DdpgSearcher>(fx.model, rlPerStep); }},
        {"RL", [&] { return std::make_unique<DdpgSearcher>(fx.model, rl); }},
    };
    for (const Case &c : cases) {
        for (int trial = 0; trial < 24; ++trial) {
            std::unique_ptr<Searcher> searcher = c.make();
            Rng rng(uint64_t(100 + trial));
            StopToken stop;
            ChargedSteps seen;
            SearchContext ctx;
            ctx.budget = SearchBudget::bySteps(1'000'000);
            ctx.rng = &rng;
            ctx.stop = &stop;
            ctx.observer = &seen;
            ctx.progressEvery = 1;
            std::thread stopper([&stop, trial] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(40 * trial));
                stop.requestStop();
            });
            SearchResult r = searcher->run(ctx);
            stopper.join();
            SCOPED_TRACE(std::string(c.name) + " trial "
                         + std::to_string(trial));
            EXPECT_TRUE(r.cancelled);
            EXPECT_LT(r.steps, ctx.budget.maxSteps);
            EXPECT_EQ(seen.calls, r.steps);
            EXPECT_EQ(seen.lastStep, r.steps);
            EXPECT_TRUE(seen.finite);
            if (r.steps == 0) {
                EXPECT_TRUE(std::isinf(r.bestNormEdp));
            } else {
                EXPECT_TRUE(fx.space.isMember(r.best));
                EXPECT_EQ(std::bit_cast<uint64_t>(r.bestNormEdp),
                          std::bit_cast<uint64_t>(
                              fx.model.normalizedEdp(r.best)));
            }
        }
    }
}

/** Shares one small trained surrogate across the parallel-driver tests. */
class ParallelDriverFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        arch = new AcceleratorSpec(AcceleratorSpec::paperDefault());
        Phase1Config cfg;
        cfg.data.samples = 3000;
        cfg.data.problemCount = 10;
        cfg.data.seed = 3;
        cfg.train.epochs = 6;
        cfg.hidden = {32, 48, 32};
        cfg.seed = 5;
        result = new Phase1Result(
            trainSurrogate(*arch, conv1dAlgo(), cfg));
    }

    static void
    TearDownTestSuite()
    {
        delete result;
        delete arch;
        result = nullptr;
        arch = nullptr;
    }

    static AcceleratorSpec *arch;
    static Phase1Result *result;
};

AcceleratorSpec *ParallelDriverFixture::arch = nullptr;
Phase1Result *ParallelDriverFixture::result = nullptr;

TEST_F(ParallelDriverFixture, SurrogateBatchedMatchesPerSample)
{
    // Batched prediction/gradient must agree with the per-sample path
    // to 1e-10 (they share one gemm whose rows are independent).
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "pd-batch", {130, 4});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    Rng rng(73);

    const size_t batchSize = 16;
    const size_t featDim = codec.featureCount();
    std::vector<std::vector<double>> zs;
    Matrix zRows(batchSize, featDim);
    for (size_t r = 0; r < batchSize; ++r) {
        auto z = sur.normalizeInput(codec.encode(space.randomValid(rng)));
        for (size_t j = 0; j < featDim; ++j)
            zRows(r, j) = float(z[j]);
        zs.push_back(std::move(z));
    }

    std::vector<double> predOne(batchSize);
    Matrix gradOne(batchSize, featDim);
    std::vector<double> grad;
    for (size_t r = 0; r < batchSize; ++r) {
        predOne[r] = sur.gradient(zs[r], grad);
        for (size_t j = 0; j < featDim; ++j)
            gradOne(r, j) = float(grad[j]);
        EXPECT_DOUBLE_EQ(sur.predictNormEdp(zs[r]), predOne[r]);
    }

    std::vector<double> predBatchOnly = sur.predictNormEdpBatch(zRows);
    std::vector<double> predBatch;
    const Matrix &gradBatch = sur.gradientBatch(zRows, predBatch);
    ASSERT_EQ(predBatch.size(), batchSize);
    for (size_t r = 0; r < batchSize; ++r) {
        EXPECT_NEAR(predBatch[r], predOne[r],
                    1e-10 * std::max(1.0, predOne[r]));
        EXPECT_NEAR(predBatchOnly[r], predOne[r],
                    1e-10 * std::max(1.0, predOne[r]));
    }
    EXPECT_LE(maxAbsDiff(gradBatch, gradOne), 1e-10);
}

TEST_F(ParallelDriverFixture, SingleChainMatchesSequentialSearcher)
{
    // Both entry points delegate to runBatchedGradientSearch, so this
    // guards the config plumbing of the two facades (one chain, one
    // thread, same latency), not two independent implementations; the
    // sequential semantics themselves are pinned by
    // GradientSearcherTest and the batch-equivalence tests above.
    Problem p = makeProblem(conv1dAlgo(), "pd-one", {120, 4});
    MapSpace space(*arch, p);
    CostModel model(space);
    MindMappingsSearcher seq(model, result->surrogate);
    ParallelSearchConfig pcfg;
    pcfg.chains = 1;
    pcfg.threads = 1;
    ParallelGradientSearcher par(model, result->surrogate, pcfg);

    Rng a(61), b(61);
    SearchResult r1 = seq.run(SearchBudget::bySteps(100), a);
    SearchResult r2 = par.run(SearchBudget::bySteps(100), b);
    EXPECT_EQ(r1.steps, r2.steps);
    EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp);
    EXPECT_EQ(r1.best, r2.best);
}

TEST(ParallelDriver, LanesNeverExceedChainsOrHardware)
{
    // A served spec is hostile input: "MM-P:chains=100000,threads=100000"
    // must not ask for 100 000 threads. Computed, never started.
    EXPECT_EQ(parallelDriverLanes(1000000, 100000, 4), 4u);
    EXPECT_EQ(parallelDriverLanes(0, 100000, 4), 4u);
    EXPECT_EQ(parallelDriverLanes(0, 8, 0), 1u); // concurrency unknown
    EXPECT_EQ(parallelDriverLanes(5, 8, 0), 1u);
    EXPECT_EQ(parallelDriverLanes(-1, 8, 4), 1u);

    // A lane needs kMinChainsPerLane chains to pay for its fork-join;
    // fewer chains than that per lane run inline.
    static_assert(kMinChainsPerLane == 8);
    EXPECT_EQ(parallelDriverLanes(2, 4, 4), 1u); // MM-P:chains=4,threads=2
    EXPECT_EQ(parallelDriverLanes(2, 32, 4), 2u);
    EXPECT_EQ(parallelDriverLanes(0, 32, 8), 4u);
    EXPECT_EQ(parallelDriverLanes(1000000, 3, 8), 1u);
    EXPECT_EQ(parallelDriverLanes(0, 2, 4), 1u);
    EXPECT_EQ(parallelDriverLanes(2, 8, 4), 1u);
    EXPECT_EQ(parallelDriverLanes(4, 15, 4), 1u);
    EXPECT_EQ(parallelDriverLanes(4, 16, 4), 2u);
}

TEST_F(ParallelDriverFixture, DeterministicAcrossThreadCounts)
{
    Problem p = makeProblem(conv1dAlgo(), "pd-det", {140, 5});
    MapSpace space(*arch, p);
    CostModel model(space);

    // Four chains run inline at every thread count; 32 fan out over up
    // to four lanes (kMinChainsPerLane), so the pool path is exercised.
    for (int chains : {4, 32}) {
        std::vector<SearchResult> results;
        for (int threads : {1, 2, 4}) {
            ParallelSearchConfig pcfg;
            pcfg.chains = chains;
            pcfg.threads = threads;
            ParallelGradientSearcher searcher(model, result->surrogate,
                                              pcfg);
            Rng rng(67);
            results.push_back(
                searcher.run(SearchBudget::bySteps(40 * chains), rng));
        }
        for (size_t i = 1; i < results.size(); ++i) {
            EXPECT_EQ(results[0].steps, results[i].steps);
            EXPECT_EQ(std::bit_cast<uint64_t>(results[0].bestNormEdp),
                      std::bit_cast<uint64_t>(results[i].bestNormEdp));
            EXPECT_EQ(results[0].best, results[i].best);
            ASSERT_EQ(results[0].trace.size(), results[i].trace.size());
            for (size_t t = 0; t < results[0].trace.size(); ++t) {
                EXPECT_EQ(results[0].trace[t].step,
                          results[i].trace[t].step);
                EXPECT_EQ(
                    std::bit_cast<uint64_t>(results[0].trace[t].bestNormEdp),
                    std::bit_cast<uint64_t>(
                        results[i].trace[t].bestNormEdp));
            }
        }
        EXPECT_TRUE(space.isMember(results[0].best));
    }
}

TEST_F(ParallelDriverFixture, ChainStepsAllocateNothing)
{
    // After one warm-up step and injection the chain's buffers only
    // circulate: a gradient step and an injection round trip allocate
    // no heap.
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "pd-alloc", {130, 4});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    GradientChain chain(space, codec, sur, GradientSearchConfig{},
                        Rng(83));
    Matrix zRow(1, codec.featureCount());
    std::vector<double> preds;
    auto gradient = [&]() -> const Matrix & {
        const std::vector<double> &z = chain.features();
        for (size_t j = 0; j < z.size(); ++j)
            zRow(0, j) = float(z[j]);
        return sur.gradientBatch(zRow, preds);
    };
    chain.applyGradient(gradient().row(0));
    chain.prepareInjection();
    chain.resolveInjection(1.0, 0.0);

    int64_t bytes = 0;
    for (int i = 0; i < 100; ++i) {
        const Matrix &grad = gradient();
        const int64_t before = test::heapBytesAllocated;
        chain.applyGradient(grad.row(0));
        bytes += test::heapBytesAllocated - before;
    }
    for (int i = 0; i < 10; ++i) {
        const int64_t before = test::heapBytesAllocated;
        chain.prepareInjection();
        // Alternately accepted and rejected, so both sides circulate.
        chain.resolveInjection(1.0, i % 2 == 0 ? 0.0 : 1e9);
        bytes += test::heapBytesAllocated - before;
    }
    EXPECT_EQ(bytes, 0);
    EXPECT_TRUE(space.isMember(chain.current()));

    // The driver around the chains: a long MM-P run allocates exactly
    // what a short one does, so its batched gradient steps and its
    // injection rounds (their batched predictions included) only reuse
    // buffers. 400 steps hold 10 injection rounds, 2000 steps 50. A
    // first run warms the process's lazily built caches.
    CostModel model(space);
    ParallelSearchConfig pcfg;
    pcfg.chains = 4;
    pcfg.threads = 1;
    ParallelGradientSearcher searcher(model, sur, pcfg);
    auto bytesFor = [&](int64_t steps) {
        Rng rng(89);
        SearchContext ctx;
        ctx.budget = SearchBudget::bySteps(steps);
        ctx.rng = &rng;
        ctx.collectTrace = false;
        const int64_t before = test::heapBytesAllocated;
        const SearchResult res = searcher.run(ctx);
        EXPECT_EQ(res.steps, steps);
        return test::heapBytesAllocated - before;
    };
    bytesFor(400);
    const int64_t shortRun = bytesFor(400);
    EXPECT_EQ(bytesFor(2000), shortRun);
}

TEST_F(ParallelDriverFixture, StepBudgetTruncatesFinalBatch)
{
    Problem p = makeProblem(conv1dAlgo(), "pd-trunc", {110, 3});
    MapSpace space(*arch, p);
    CostModel model(space);
    ParallelSearchConfig pcfg;
    pcfg.chains = 4;
    pcfg.threads = 2;
    ParallelGradientSearcher searcher(model, result->surrogate, pcfg);
    Rng rng(71);
    // 102 = 25 full batches of 4 + a truncated batch of 2.
    SearchResult res = searcher.run(SearchBudget::bySteps(102), rng);
    EXPECT_EQ(res.steps, 102);
    EXPECT_TRUE(space.isMember(res.best));
    // 26 wall-clock driver steps, one surrogate-step latency each.
    EXPECT_NEAR(res.virtualSec, 26 * TimingModel{}.surrogateStepSec, 1e-9);
}

TEST_F(ParallelDriverFixture, IsoTimeExploresChainsTimesMoreSteps)
{
    Problem p = makeProblem(conv1dAlgo(), "pd-iso", {150, 4});
    MapSpace space(*arch, p);
    CostModel model(space);
    auto budget = SearchBudget::byVirtualTime(2.0);

    MindMappingsSearcher seq(model, result->surrogate);
    ParallelSearchConfig pcfg;
    pcfg.chains = 4;
    pcfg.threads = 2;
    ParallelGradientSearcher par(model, result->surrogate, pcfg);

    Rng a(79), b(79);
    SearchResult rs = seq.run(budget, a);
    SearchResult rp = par.run(budget, b);
    // Same virtual wall-clock, chains-times the explored candidates —
    // the iso-time advantage of the batched driver.
    EXPECT_EQ(rp.steps, 4 * rs.steps);
    EXPECT_GE(rs.virtualSec, 2.0);
    EXPECT_GE(rp.virtualSec, 2.0);
}

TEST_F(ParallelDriverFixture, SeedFromBBWarmStartsChainZero)
{
    Problem p = makeProblem(conv1dAlgo(), "pd-seed", {130, 4});
    MapSpace space(*arch, p);
    CostModel model(space);
    ParallelSearchConfig pcfg;
    pcfg.chains = 3;
    pcfg.threads = 1;
    pcfg.chain.seedFrom = "BB";
    pcfg.chain.seedNodes = 16;
    ParallelGradientSearcher seeded(model, result->surrogate, pcfg);

    Rng r1(21), r2(21);
    SearchResult a = seeded.run(SearchBudget::bySteps(90), r1);
    SearchResult b = seeded.run(SearchBudget::bySteps(90), r2);
    EXPECT_TRUE(space.isMember(a.best));
    EXPECT_TRUE(std::isfinite(a.bestNormEdp));
    EXPECT_DOUBLE_EQ(a.bestNormEdp, b.bestNormEdp);
    EXPECT_EQ(a.best, b.best);

    // Seeding replaces chain 0's start after the random draws, so the
    // unseeded run with the same seed still works from the same stream.
    ParallelSearchConfig plain = pcfg;
    plain.chain.seedFrom.clear();
    Rng r3(21);
    SearchResult c = ParallelGradientSearcher(model, result->surrogate,
                                              plain)
                         .run(SearchBudget::bySteps(90), r3);
    EXPECT_TRUE(space.isMember(c.best));
}

// ---------------------------------------------------------------------
// Golden pins over the cost-model searchers: every run's step count,
// virtual clock, best value, best mapping and trace are FNV-1a hashed.
// The constants were recorded before the recorder's charge paths were
// merged into one batch-first record(), so any drift in RNG draws,
// budget accounting or trace bookkeeping shows up here. The surrogate
// methods run through GEMMs whose rounding depends on the build and the
// host; Phase2Pins below pins them per GEMM fusion class. RL trains
// its networks as it searches and is pinned by in-build comparisons.
// ---------------------------------------------------------------------

struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void add(double v) { add(std::bit_cast<uint64_t>(v)); }

    template <typename T>
    void
    addVec(const std::vector<T> &v)
    {
        add(uint64_t(v.size()));
        for (T x : v)
            add(uint64_t(int64_t(x)));
    }

    void
    add(const Mapping &m)
    {
        for (const auto &t : m.tiling)
            addVec(t);
        addVec(m.spatial);
        for (const auto &o : m.loopOrder)
            addVec(o);
        for (const auto &a : m.bufferAlloc)
            addVec(a);
    }

    void
    add(const SearchResult &r)
    {
        add(uint64_t(r.steps));
        add(r.virtualSec);
        add(r.bestNormEdp);
        add(r.best);
        add(uint64_t(r.trace.size()));
        for (const TracePoint &pt : r.trace) {
            add(uint64_t(pt.step));
            add(pt.virtualSec);
            add(pt.bestNormEdp);
        }
    }
};

TEST(SearchPins, CostModelSearchersAreBitwiseStable)
{
    const std::map<std::string, uint64_t> golden = {
        {"Random", 0xc5b600918082f9d5ULL},
        {"SA", 0x3fafb325161913b0ULL},
        {"GA", 0x5b8c44ddc3939291ULL},
        {"BB", 0xe281a8d598956b6bULL},
        {"SA:seedFrom=BB", 0x2711f8d89e5ba930ULL},
        {"GA:seedFrom=BB", 0x64620cd7aa6289ccULL},
    };
    // 37 steps cut the first GA generation and the first BB leaf
    // block; 2500 virtual seconds reach into GA's second generation.
    const std::vector<SearchBudget> budgets = {
        SearchBudget::bySteps(37), SearchBudget::byVirtualTime(2500.0)};
    std::vector<Problem> problems = table1All();
    problems.push_back(SearchFixture{}.problem);
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();

    std::map<std::string, Fnv> hashes;
    for (size_t p = 0; p < problems.size(); ++p) {
        MapSpace space(arch, problems[p]);
        CostModel model(space);
        SearcherBuildContext ctx{model, nullptr};
        for (const auto &[spec, want] : golden) {
            auto searcher = SearcherRegistry::instance().make(spec, ctx);
            for (size_t b = 0; b < budgets.size(); ++b) {
                Rng rng(1000 + 10 * p + b);
                hashes[spec].add(searcher->run(budgets[b], rng));
            }
        }
    }
    for (const auto &[spec, want] : golden)
        EXPECT_EQ(hashes[spec].h, want)
            << spec << ": 0x" << std::hex << hashes[spec].h;
}

// ---------------------------------------------------------------------
// Golden pins over the surrogate searchers, hashed like SearchPins over
// the same problems. Each run also hashes the surrogate's prediction
// and gradient at its best mapping, so a one-ulp change in either GEMM
// tier shows even where it moves no search decision. Whether each tier
// fuses its multiply-adds depends on the build and the host
// (gemm_test_util.hpp), so the goldens are keyed by that fusion class.
// ---------------------------------------------------------------------

/**
 * A fixed random-init frozen surrogate of the fast preset's topology
 * for @p space's algorithm. Its input whitening is fitted on random
 * mappings of the problem, so gradient steps move real mappings. The
 * input layers (62 x 64 for CNN-Layer, 40 x 64 for MTTKRP) and the
 * output layer run on the scalar GEMM tier, the hidden layers on the
 * blocked one.
 */
Surrogate
pinSurrogate(const MapSpace &space)
{
    const MappingCodec codec(space);
    const FeatureTransform transform{codec.orderOffset()};
    Rng rng(91);
    Matrix raw(256, codec.featureCount());
    for (size_t r = 0; r < raw.rows(); ++r) {
        std::vector<double> f = codec.encode(space.randomValid(rng));
        transform.apply(f);
        for (size_t j = 0; j < f.size(); ++j)
            raw(r, j) = float(f[j]);
    }
    const size_t tensors = space.problem().algo->tensorCount();
    const size_t outputs = tensors * size_t(kNumMemLevels) + 3;
    std::vector<double> means(outputs), stds(outputs);
    for (size_t i = 0; i < outputs; ++i) {
        means[i] = 0.25 * double(i) - 1.0;
        stds[i] = 0.5 + 0.125 * double(i);
    }
    Mlp net(codec.featureCount(),
            surrogateTopology({64, 128, 128, 64}, outputs), rng);
    return Surrogate(std::move(net), transform, Normalizer::fit(raw),
                     Normalizer::fromMoments(means, stds), tensors);
}

TEST(Phase2Pins, SurrogateSearchersAreBitwiseStable)
{
    // Goldens recorded before the few-row GEMM kernels, per fusion
    // class {blocked tier fuses, scalar tier fuses}: {1, 0} is a default
    // Release build on an FMA host, {0, 0} a Debug build or a host or
    // build without FMA, {1, 1} a -march=native build.
    using Class = std::pair<bool, bool>;
    const std::map<Class, std::map<std::string, uint64_t>> goldens = {
        {{true, false},
         {{"MM", 0xb54705624ae91b59ULL},
          {"MM-P:chains=4,threads=1", 0x01434fccc7107f83ULL},
          {"MM-P:chains=4,threads=2", 0x01434fccc7107f83ULL}}},
        {{false, false},
         {{"MM", 0x523658d59e5227adULL},
          {"MM-P:chains=4,threads=1", 0xb0d33246ab56786fULL},
          {"MM-P:chains=4,threads=2", 0xb0d33246ab56786fULL}}},
        {{true, true},
         {{"MM", 0xbe445e8c18c8c198ULL},
          {"MM-P:chains=4,threads=1", 0xfd408221ae7723c9ULL},
          {"MM-P:chains=4,threads=2", 0xfd408221ae7723c9ULL}}},
    };
    const std::vector<std::string> specs = {
        "MM", "MM-P:chains=4,threads=1", "MM-P:chains=4,threads=2"};
    // 37 steps cut MM-P's last batch of four. SearchPins' 2500 virtual
    // seconds would be 40 000 MM steps per problem at the paper's
    // 62.5 ms step, minutes per run in a Debug build; 100 s is 1600
    // steps, 160 injection trials and three temperature decays.
    const std::vector<SearchBudget> budgets = {
        SearchBudget::bySteps(37), SearchBudget::byVirtualTime(100.0)};
    std::vector<Problem> problems = table1All();
    problems.push_back(SearchFixture{}.problem);
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();

    std::map<std::string, Fnv> hashes;
    for (size_t p = 0; p < problems.size(); ++p) {
        MapSpace space(arch, problems[p]);
        CostModel model(space);
        const MappingCodec codec(space);
        Surrogate surrogate = pinSurrogate(space);
        SearcherBuildContext ctx{model, &surrogate};
        for (const std::string &spec : specs) {
            auto searcher = SearcherRegistry::instance().make(spec, ctx);
            for (size_t b = 0; b < budgets.size(); ++b) {
                Rng rng(1000 + 10 * p + b);
                const SearchResult r = searcher->run(budgets[b], rng);
                hashes[spec].add(r);
                std::vector<double> grad;
                hashes[spec].add(surrogate.gradient(
                    surrogate.normalizeInput(codec.encode(r.best)), grad));
                for (double g : grad)
                    hashes[spec].add(g);
            }
        }
    }

    const Class fusion{gemmFusesMultiplyAdd(), gemmScalarFusesMultiplyAdd()};
    std::ostringstream got;
    got << "{{" << fusion.first << ", " << fusion.second << "}, {";
    for (const std::string &spec : specs)
        got << "{\"" << spec << "\", 0x" << std::hex << hashes[spec].h
            << std::dec << "ULL}, ";
    got << "}}";
    const auto golden = goldens.find(fusion);
    ASSERT_NE(golden, goldens.end())
        << "no goldens for this fusion class: " << got.str();
    for (const std::string &spec : specs)
        EXPECT_EQ(hashes[spec].h, golden->second.at(spec))
            << spec << ": " << got.str();
}

TEST(TimingModel, PaperCalibratedRatios)
{
    TimingModel t = TimingModel::paperCalibrated();
    EXPECT_NEAR(t.saStepSec / t.surrogateStepSec, 153.6, 1.0);
    EXPECT_NEAR(t.gaStepSec / t.surrogateStepSec, 286.9, 1.0);
    EXPECT_NEAR(t.rlStepSec / t.surrogateStepSec, 425.4, 1.0);
}

} // namespace
} // namespace mm
