/**
 * @file
 * Search-orchestration API tests: SearcherRegistry construction and
 * option handling, the SearchContext run contract (observers, stop
 * tokens, wall-clock budgets), and the runMany orchestrator — including
 * the regression guard that the registry + orchestrator path reproduces
 * the legacy direct-construction repetition loop bitwise.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/stats.hpp"
#include "core/phase1.hpp"
#include "search/annealing.hpp"
#include "search/orchestrator.hpp"
#include "search/random_search.hpp"
#include "search/registry.hpp"

namespace mm {
namespace {

bool
sameResult(const SearchResult &a, const SearchResult &b)
{
    if (a.steps != b.steps || a.bestNormEdp != b.bestNormEdp
        || !(a.best == b.best) || a.trace.size() != b.trace.size())
        return false;
    for (size_t i = 0; i < a.trace.size(); ++i)
        if (a.trace[i].step != b.trace[i].step
            || a.trace[i].virtualSec != b.trace[i].virtualSec
            || a.trace[i].bestNormEdp != b.trace[i].bestNormEdp)
            return false;
    return true;
}

struct ApiFixtureBase
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem problem = mttkrpProblem("mtt-api", 128, 256, 512, 128);
    MapSpace space{arch, problem};
    CostModel model{space};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/** Shares one small trained surrogate across the registry tests. */
class RegistryFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        arch = new AcceleratorSpec(AcceleratorSpec::paperDefault());
        Phase1Config cfg;
        cfg.data.samples = 2000;
        cfg.data.problemCount = 8;
        cfg.data.seed = 11;
        cfg.train.epochs = 4;
        cfg.hidden = {24, 32, 24};
        cfg.seed = 13;
        result = new Phase1Result(trainSurrogate(*arch, conv1dAlgo(), cfg));
        problem = new Problem(makeProblem(conv1dAlgo(), "reg-api",
                                          {120, 4}));
        space = new MapSpace(*arch, *problem);
        model = new CostModel(*space);
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete space;
        delete problem;
        delete result;
        delete arch;
        model = nullptr;
        space = nullptr;
        problem = nullptr;
        result = nullptr;
        arch = nullptr;
    }

    static SearcherBuildContext
    ctx()
    {
        return SearcherBuildContext{*model, &result->surrogate};
    }

    static AcceleratorSpec *arch;
    static Phase1Result *result;
    static Problem *problem;
    static MapSpace *space;
    static CostModel *model;
};

AcceleratorSpec *RegistryFixture::arch = nullptr;
Phase1Result *RegistryFixture::result = nullptr;
Problem *RegistryFixture::problem = nullptr;
MapSpace *RegistryFixture::space = nullptr;
CostModel *RegistryFixture::model = nullptr;

TEST_F(RegistryFixture, ListsAllSixMethods)
{
    const SearcherRegistry &reg = SearcherRegistry::instance();
    for (const char *key : {"Random", "SA", "GA", "RL", "MM", "MM-P"}) {
        EXPECT_TRUE(reg.contains(key)) << key;
        EXPECT_FALSE(reg.at(key).description.empty()) << key;
    }
    // The listing names every key for --list consumers.
    std::string listing = reg.describe();
    for (const char *key : {"Random", "SA", "GA", "RL", "MM", "MM-P"})
        EXPECT_NE(listing.find(key), std::string::npos) << key;
}

TEST_F(RegistryFixture, EveryKeyConstructsAndRunsUnderTinyBudget)
{
    for (const std::string &key : SearcherRegistry::instance().keys()) {
        auto searcher = SearcherRegistry::instance().make(key, ctx());
        ASSERT_NE(searcher, nullptr) << key;
        Rng rng(31);
        SearchResult res = searcher->run(SearchBudget::bySteps(24), rng);
        EXPECT_EQ(res.steps, 24) << key;
        EXPECT_TRUE(std::isfinite(res.bestNormEdp)) << key;
        EXPECT_TRUE(space->isMember(res.best)) << key;
    }
}

TEST_F(RegistryFixture, OptionStringsReachTheSearcher)
{
    // MM-P's name embeds its chain count — direct evidence the parsed
    // option reached the config.
    auto mmp = SearcherRegistry::instance().make("MM-P:chains=3", ctx());
    EXPECT_EQ(mmp->name(), "MM-P3");

    // An explicit SA schedule must run fine and stay deterministic
    // against a second instance built from the same spec.
    auto s1 = SearcherRegistry::instance().make(
        "SA:tMax=4,tMin=0.01,pilot=8,horizon=60", ctx());
    auto s2 = SearcherRegistry::instance().make(
        "SA:tMax=4,tMin=0.01,pilot=8,horizon=60", ctx());
    Rng a(37), b(37);
    EXPECT_TRUE(sameResult(s1->run(SearchBudget::bySteps(60), a),
                           s2->run(SearchBudget::bySteps(60), b)));
}

TEST_F(RegistryFixture, UnknownKeyThrowsNamingTheRegistered)
{
    try {
        SearcherRegistry::instance().make("Simulated", ctx());
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("Simulated"), std::string::npos);
        EXPECT_NE(msg.find("SA"), std::string::npos);
        EXPECT_NE(msg.find("MM-P"), std::string::npos);
    }
}

TEST_F(RegistryFixture, UnknownOptionThrowsNamingIt)
{
    try {
        SearcherRegistry::instance().make("SA:tmax=4", ctx());
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("tmax"), std::string::npos);
    }
}

TEST_F(RegistryFixture, MalformedAndInvalidOptionsThrow)
{
    EXPECT_THROW(SearcherRegistry::instance().make("SA:tMax", ctx()),
                 FatalError);
    EXPECT_THROW(SearcherRegistry::instance().make("SA:tMax=", ctx()),
                 FatalError);
    EXPECT_THROW(SearcherRegistry::instance().make("SA:pilot=abc", ctx()),
                 FatalError);
    EXPECT_THROW(SearcherRegistry::instance().make("GA:pop=1", ctx()),
                 FatalError);
    EXPECT_THROW(SearcherRegistry::instance().make("MM:lr=0", ctx()),
                 FatalError);
    EXPECT_THROW(
        SearcherRegistry::instance().make("MM:inject=maybe", ctx()),
        FatalError);
    // Values that would crash downstream (null tournament winner,
    // modulo-by-zero temperature decay, size_t-wrapped capacities)
    // must die here as user errors instead.
    EXPECT_THROW(SearcherRegistry::instance().make("GA:tourn=0", ctx()),
                 FatalError);
    EXPECT_THROW(
        SearcherRegistry::instance().make("MM:decayEvery=0", ctx()),
        FatalError);
    EXPECT_THROW(
        SearcherRegistry::instance().make("MM-P:decayEvery=-1", ctx()),
        FatalError);
    EXPECT_THROW(SearcherRegistry::instance().make("RL:replay=-1", ctx()),
                 FatalError);
    EXPECT_THROW(SearcherRegistry::instance().make("RL:batch=0", ctx()),
                 FatalError);
    // A negative lane count used to run serially without a word.
    EXPECT_THROW(
        SearcherRegistry::instance().make("MM-P:threads=-1", ctx()),
        FatalError);
    // int-typed fields must not wrap: 2^32 + 1 chains would run 1, a
    // population of 2^32 + 2 would run 2. The error names the option.
    const std::pair<const char *, const char *> wrapping[] = {
        {"MM-P:chains=4294967297", "chains"},
        {"GA:pop=4294967298,elites=1", "pop"},
        {"RL:width=4294967297", "width"},
    };
    for (const auto &[spec, option] : wrapping) {
        try {
            SearcherRegistry::instance().make(spec, ctx());
            ADD_FAILURE() << "expected FatalError for " << spec;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
                << e.what();
        }
    }
}

TEST_F(RegistryFixture, SurrogateMethodsRequireASurrogate)
{
    SearcherBuildContext noSurrogate{*model, nullptr};
    for (const char *key : {"MM", "MM-P"}) {
        try {
            SearcherRegistry::instance().make(key, noSurrogate);
            FAIL() << "expected FatalError for " << key;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("surrogate"),
                      std::string::npos);
        }
    }
    // Black-box methods do not need one.
    EXPECT_NE(SearcherRegistry::instance().make("SA", noSurrogate),
              nullptr);
}

// ---------------------------------------------------------------------------
// Run contract: observers, stop tokens, wall budgets
// ---------------------------------------------------------------------------

/** Records every improvement callback. */
class RecordingObserver : public SearchObserver
{
  public:
    void
    onImprovement(const SearchProgress &p) override
    {
        improvements.push_back(p.bestNormEdp);
        ASSERT_NE(p.best, nullptr);
    }

    void
    onProgress(const SearchProgress &p) override
    {
        progressSteps.push_back(p.steps);
    }

    std::vector<double> improvements;
    std::vector<int64_t> progressSteps;
};

TEST(SearchObserverTest, ImprovementsAreMonotoneAndMatchTrace)
{
    ApiFixtureBase fx;
    RecordingObserver obs;
    Rng rng(43);
    SearchContext ctx;
    ctx.budget = SearchBudget::bySteps(300);
    ctx.rng = &rng;
    ctx.observer = &obs;
    ctx.progressEvery = 50;

    RandomSearcher searcher(fx.model);
    SearchResult res = searcher.run(ctx);

    ASSERT_FALSE(obs.improvements.empty());
    for (size_t i = 1; i < obs.improvements.size(); ++i)
        EXPECT_LT(obs.improvements[i], obs.improvements[i - 1]);
    EXPECT_DOUBLE_EQ(obs.improvements.back(), res.bestNormEdp);

    // One improvement callback per trace improvement (the final trace
    // point may be the synthetic terminal sample).
    size_t tracePoints = res.trace.size();
    if (res.trace.size() >= 2
        && res.trace.back().bestNormEdp
               == res.trace[res.trace.size() - 2].bestNormEdp)
        --tracePoints;
    EXPECT_EQ(obs.improvements.size(), tracePoints);

    // Periodic heartbeat every 50 steps.
    ASSERT_EQ(obs.progressSteps.size(), 6u);
    for (size_t i = 0; i < obs.progressSteps.size(); ++i)
        EXPECT_EQ(obs.progressSteps[i], int64_t(50 * (i + 1)));
}

TEST(SearchObserverTest, ObserverDoesNotPerturbTheRun)
{
    ApiFixtureBase fx;
    RandomSearcher searcher(fx.model);

    Rng a(47), b(47);
    SearchResult plain = searcher.run(SearchBudget::bySteps(120), a);

    RecordingObserver obs;
    SearchContext ctx;
    ctx.budget = SearchBudget::bySteps(120);
    ctx.rng = &b;
    ctx.observer = &obs;
    ctx.progressEvery = 7;
    SearchResult observed = searcher.run(ctx);

    EXPECT_TRUE(sameResult(plain, observed));
}

/** Requests a stop once the step counter passes a threshold. */
class StopAfterObserver : public SearchObserver
{
  public:
    StopAfterObserver(StopToken &token, int64_t afterSteps)
        : token(&token), threshold(afterSteps)
    {}

    void
    onProgress(const SearchProgress &p) override
    {
        if (p.steps >= threshold)
            token->requestStop();
    }

  private:
    StopToken *token;
    int64_t threshold;
};

TEST(StopTokenTest, MidRunCancellationReturnsValidBestSoFar)
{
    ApiFixtureBase fx;
    StopToken stop;
    StopAfterObserver obs(stop, 40);
    Rng rng(53);
    SearchContext ctx;
    ctx.budget = SearchBudget::bySteps(100000);
    ctx.rng = &rng;
    ctx.observer = &obs;
    ctx.stop = &stop;
    ctx.progressEvery = 1;

    RandomSearcher searcher(fx.model);
    SearchResult res = searcher.run(ctx);

    EXPECT_TRUE(res.cancelled);
    EXPECT_GE(res.steps, 40);
    EXPECT_LT(res.steps, 100000);
    EXPECT_TRUE(std::isfinite(res.bestNormEdp));
    EXPECT_TRUE(fx.space.isMember(res.best));
}

TEST(StopTokenTest, CancellationFromAnotherThread)
{
    ApiFixtureBase fx;
    StopToken stop;
    Rng rng(59);
    SearchContext ctx;
    ctx.budget = SearchBudget::bySteps(std::numeric_limits<int64_t>::max());
    ctx.rng = &rng;
    ctx.stop = &stop;

    RandomSearcher searcher(fx.model);
    SearchResult res;
    std::thread runner([&] { res = searcher.run(ctx); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop.requestStop();
    runner.join();

    EXPECT_TRUE(res.cancelled);
    EXPECT_GT(res.steps, 0);
    EXPECT_TRUE(fx.space.isMember(res.best));
}

TEST(WallClockBudgetTest, TerminatesWithinTolerance)
{
    ApiFixtureBase fx;
    RandomSearcher searcher(fx.model);
    Rng rng(61);
    const double budgetSec = 0.15;
    SearchResult res =
        searcher.run(SearchBudget::byWallTime(budgetSec), rng);
    EXPECT_GT(res.steps, 0);
    EXPECT_GE(res.wallSec, budgetSec);
    // Generous ceiling for loaded CI machines: the run must stop soon
    // after the budget, not run away.
    EXPECT_LT(res.wallSec, budgetSec + 2.0);
    EXPECT_TRUE(fx.space.isMember(res.best));
}

// ---------------------------------------------------------------------------
// runMany orchestration
// ---------------------------------------------------------------------------

TEST(RunManyTest, MatchesTheLegacyRepetitionLoopBitwise)
{
    // The pre-registry benches constructed searchers directly and
    // seeded Rng(base * 1000003 + run * 7919 + 1) per repetition. The
    // registry + orchestrator path must reproduce those runs bitwise —
    // the redesign must not perturb RNG draw order.
    ApiFixtureBase fx;
    const uint64_t baseSeed = 5;
    const int runs = 3;
    auto budget = SearchBudget::bySteps(150);

    std::vector<SearchResult> legacy;
    for (int run = 0; run < runs; ++run) {
        AnnealingSearcher searcher(fx.model, AnnealingConfig{});
        Rng rng(baseSeed * 1000003ULL + uint64_t(run) * 7919ULL + 1);
        legacy.push_back(searcher.run(budget, rng));
    }

    SearcherBuildContext ctx{fx.model};
    MultiRunOptions opts;
    opts.runs = runs;
    opts.baseSeed = baseSeed;
    MultiRunResult modern = runMany("SA", ctx, budget, opts);

    ASSERT_EQ(modern.runs.size(), legacy.size());
    for (size_t i = 0; i < legacy.size(); ++i)
        EXPECT_TRUE(sameResult(legacy[i], modern.runs[i])) << "run " << i;
}

TEST(RunManyTest, BitwiseInvariantAcrossThreadCounts)
{
    ApiFixtureBase fx;
    SearcherBuildContext ctx{fx.model};
    auto budget = SearchBudget::bySteps(120);

    std::vector<MultiRunResult> results;
    for (int threads : {1, 4}) {
        MultiRunOptions opts;
        opts.runs = 4;
        opts.baseSeed = 17;
        opts.threads = threads;
        results.push_back(runMany("SA", ctx, budget, opts));
    }
    ASSERT_EQ(results[0].runs.size(), results[1].runs.size());
    for (size_t i = 0; i < results[0].runs.size(); ++i)
        EXPECT_TRUE(sameResult(results[0].runs[i], results[1].runs[i]));
    EXPECT_DOUBLE_EQ(results[0].medianNormEdp, results[1].medianNormEdp);
    EXPECT_DOUBLE_EQ(results[0].bestNormEdp, results[1].bestNormEdp);
}

TEST(RunManyTest, MedianIsTheSharedQuantileForOddAndEvenRunCounts)
{
    // runMany's median must be exactly common/stats' quantile(·, 0.5):
    // odd counts pick the middle run, even counts average the middle
    // two — no hand-rolled variant that can drift.
    ApiFixtureBase fx;
    SearcherBuildContext ctx{fx.model};
    for (int runCount : {3, 4}) {
        MultiRunOptions opts;
        opts.runs = runCount;
        opts.baseSeed = 31;
        MultiRunResult res =
            runMany("Random", ctx, SearchBudget::bySteps(40), opts);

        std::vector<double> finals;
        for (const auto &r : res.runs)
            if (std::isfinite(r.bestNormEdp))
                finals.push_back(r.bestNormEdp);
        ASSERT_EQ(int(finals.size()), runCount);
        EXPECT_DOUBLE_EQ(res.medianNormEdp, quantile(finals, 0.5))
            << "runs=" << runCount;

        std::sort(finals.begin(), finals.end());
        double expect = runCount % 2 == 1
                            ? finals[size_t(runCount / 2)]
                            : 0.5
                                  * (finals[size_t(runCount / 2 - 1)]
                                     + finals[size_t(runCount / 2)]);
        EXPECT_DOUBLE_EQ(res.medianNormEdp, expect) << "runs=" << runCount;
    }
}

TEST(RunManyTest, AggregatesAreConsistent)
{
    ApiFixtureBase fx;
    SearcherBuildContext ctx{fx.model};
    MultiRunOptions opts;
    opts.runs = 5;
    opts.baseSeed = 23;
    MultiRunResult res =
        runMany("Random", ctx, SearchBudget::bySteps(60), opts);

    ASSERT_EQ(res.runs.size(), 5u);
    EXPECT_EQ(res.method, "Random");
    std::vector<double> finals;
    for (const auto &r : res.runs)
        finals.push_back(r.bestNormEdp);
    std::sort(finals.begin(), finals.end());
    EXPECT_DOUBLE_EQ(res.bestNormEdp, finals.front());
    EXPECT_DOUBLE_EQ(res.medianNormEdp, finals[2]);
    EXPECT_DOUBLE_EQ(res.spreadNormEdp, finals.back() - finals.front());
    EXPECT_DOUBLE_EQ(res.bestRun().bestNormEdp, res.bestNormEdp);
    EXPECT_GT(res.totalWallSec, 0.0);
}

TEST(RunManyTest, PerRunObserversAndSharedStopToken)
{
    ApiFixtureBase fx;
    SearcherBuildContext ctx{fx.model};

    std::vector<RecordingObserver> observers(3);
    MultiRunOptions opts;
    opts.runs = 3;
    opts.baseSeed = 29;
    opts.observerFor = [&](int run) -> SearchObserver * {
        return &observers[size_t(run)];
    };
    MultiRunResult res =
        runMany("Random", ctx, SearchBudget::bySteps(80), opts);
    for (size_t r = 0; r < observers.size(); ++r) {
        ASSERT_FALSE(observers[r].improvements.empty()) << r;
        EXPECT_DOUBLE_EQ(observers[r].improvements.back(),
                         res.runs[r].bestNormEdp);
    }

    // A pre-stopped token: every repetition returns immediately with a
    // zero-step, valid-shape result.
    StopToken stop;
    stop.requestStop();
    MultiRunOptions stopped;
    stopped.runs = 3;
    stopped.baseSeed = 29;
    stopped.stop = &stop;
    MultiRunResult cancelled =
        runMany("Random", ctx, SearchBudget::bySteps(80), stopped);
    for (const auto &r : cancelled.runs) {
        EXPECT_TRUE(r.cancelled);
        EXPECT_EQ(r.steps, 0);
    }
}

TEST(RunManyTest, SeedOverrideIsHonored)
{
    ApiFixtureBase fx;
    SearcherBuildContext ctx{fx.model};
    auto budget = SearchBudget::bySteps(50);

    MultiRunOptions opts;
    opts.runs = 2;
    opts.seedFor = [](int run) { return 900 + uint64_t(run); };
    MultiRunResult custom = runMany("Random", ctx, budget, opts);

    for (int run = 0; run < 2; ++run) {
        RandomSearcher searcher(fx.model);
        Rng rng(900 + uint64_t(run));
        SearchResult direct = searcher.run(budget, rng);
        EXPECT_TRUE(sameResult(direct, custom.runs[size_t(run)]));
    }
}

TEST(SearchBudgetTest, WallTimeFactoryLeavesOtherLimitsOpen)
{
    auto b = SearchBudget::byWallTime(1.5);
    EXPECT_EQ(b.maxSteps, std::numeric_limits<int64_t>::max());
    EXPECT_TRUE(std::isinf(b.maxVirtualSec));
    EXPECT_DOUBLE_EQ(b.maxWallSec, 1.5);
    // done() covers only the deterministic limits.
    EXPECT_FALSE(b.done(1000000, 1e9));
}

} // namespace
} // namespace mm
