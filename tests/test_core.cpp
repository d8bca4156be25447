/**
 * @file
 * Core-module tests: normalization, feature conditioning, dataset
 * generation, surrogate fidelity + analytic-vs-numeric input gradients,
 * caching, Phase-2 search behavior, and the MindMappings facade.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common/stats.hpp"
#include "core/mind_mappings.hpp"
#include "mapping/codec.hpp"
#include "search/random_search.hpp"

namespace mm {
namespace {

/** Small conv1d Phase-1 config that trains in ~1 s. */
Phase1Config
tinyPhase1()
{
    Phase1Config cfg;
    cfg.data.samples = 4000;
    cfg.data.problemCount = 12;
    cfg.data.seed = 3;
    cfg.train.epochs = 10;
    cfg.hidden = {32, 64, 32};
    cfg.seed = 5;
    return cfg;
}

TEST(Normalizer, FitApplyInvertRoundTrip)
{
    Matrix data(100, 3);
    Rng rng(1);
    for (size_t i = 0; i < data.size(); ++i)
        data.data()[i] = float(rng.uniformReal(-5.0, 20.0));
    Normalizer norm = Normalizer::fit(data);

    std::vector<double> raw = {1.0, 2.0, 3.0};
    auto z = norm.apply(raw);
    auto back = norm.invert(z);
    for (size_t i = 0; i < raw.size(); ++i)
        EXPECT_NEAR(back[i], raw[i], 1e-9);

    // Applying in place leaves ~N(0,1) columns.
    norm.applyInPlace(data);
    Normalizer refit = Normalizer::fit(data);
    for (size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(refit.mean(c), 0.0, 1e-5);
        EXPECT_NEAR(refit.std(c), 1.0, 1e-4);
    }
}

TEST(Normalizer, SaveLoadRoundTrip)
{
    Matrix data(50, 2);
    Rng rng(2);
    for (size_t i = 0; i < data.size(); ++i)
        data.data()[i] = float(rng.gaussian(3.0, 2.0));
    Normalizer norm = Normalizer::fit(data);
    std::stringstream ss;
    norm.save(ss);
    Normalizer loaded = Normalizer::load(ss);
    ASSERT_EQ(loaded.dim(), 2u);
    EXPECT_DOUBLE_EQ(loaded.mean(0), norm.mean(0));
    EXPECT_DOUBLE_EQ(loaded.std(1), norm.std(1));
}

TEST(FeatureTransform, LogPrefixRoundTrip)
{
    FeatureTransform t{3};
    std::vector<double> v = {1.0, 8.0, 1024.0, 5.0, -2.0};
    auto original = v;
    t.apply(v);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 3.0);
    EXPECT_DOUBLE_EQ(v[2], 10.0);
    EXPECT_DOUBLE_EQ(v[3], 5.0);  // untouched
    EXPECT_DOUBLE_EQ(v[4], -2.0); // untouched
    t.invert(v);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_NEAR(v[i], original[i], 1e-9);
}

TEST(Dataset, ShapesSplitsAndWhitening)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 2000;
    cfg.testFraction = 0.2;
    cfg.problemCount = 8;
    cfg.seed = 7;
    SurrogateDataset ds = generateDataset(arch, mttkrpAlgo(), cfg);

    EXPECT_EQ(ds.featureCount, 40u); // paper: MTTKRP input width
    EXPECT_EQ(ds.outputCount, 15u);  // paper: MTTKRP output width
    EXPECT_EQ(ds.xTrain.rows(), 1600u);
    EXPECT_EQ(ds.xTest.rows(), 400u);
    EXPECT_EQ(ds.yTrain.cols(), 15u);

    // Training columns are whitened.
    Normalizer refit = Normalizer::fit(ds.yTrain);
    for (size_t c = 0; c < ds.outputCount; ++c) {
        EXPECT_NEAR(refit.mean(c), 0.0, 1e-4);
        EXPECT_NEAR(refit.std(c), 1.0, 1e-3);
    }
}

TEST(Dataset, DirectEdpModeHasOneOutput)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 500;
    cfg.problemCount = 4;
    cfg.metaStatOutputs = false;
    SurrogateDataset ds = generateDataset(arch, conv1dAlgo(), cfg);
    EXPECT_EQ(ds.outputCount, 1u);
}

TEST(Dataset, DeterministicBySeed)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 300;
    cfg.problemCount = 4;
    cfg.seed = 11;
    SurrogateDataset a = generateDataset(arch, conv1dAlgo(), cfg);
    SurrogateDataset b = generateDataset(arch, conv1dAlgo(), cfg);
    EXPECT_LT(maxAbsDiff(a.xTrain, b.xTrain), 1e-9);
    EXPECT_LT(maxAbsDiff(a.yTrain, b.yTrain), 1e-9);
}

TEST(Dataset, BitwiseIdenticalAtAnyLaneCount)
{
    // Labeling fans out over the context's pool, but each sample draws
    // from its own forked stream and writes its own rows, so the
    // dataset must not depend on the lane count (or on a null context).
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 240;
    cfg.problemCount = 3;
    cfg.eliteFraction = 0.25;
    cfg.seed = 23;
    SurrogateDataset serial = generateDataset(arch, conv1dAlgo(), cfg);
    for (size_t lanes : {1u, 2u, 4u}) {
        ParallelContext ctx(lanes);
        SurrogateDataset par =
            generateDataset(arch, conv1dAlgo(), cfg, &ctx);
        EXPECT_EQ(maxAbsDiff(serial.xTrain, par.xTrain), 0.0)
            << "lanes=" << lanes;
        EXPECT_EQ(maxAbsDiff(serial.yTrain, par.yTrain), 0.0)
            << "lanes=" << lanes;
        EXPECT_EQ(maxAbsDiff(serial.xTest, par.xTest), 0.0)
            << "lanes=" << lanes;
    }
}

TEST(Dataset, ExplicitProblemListIsHonored)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 200;
    cfg.problems = {makeProblem(conv1dAlgo(), "fixed", {64, 3})};
    SurrogateDataset ds = generateDataset(arch, conv1dAlgo(), cfg);
    // All pid features must be the fixed problem's (log2-conditioned).
    for (size_t r = 0; r < ds.xTrain.rows(); ++r) {
        double x0 = double(ds.xTrain(r, 0));
        EXPECT_NEAR(x0 * ds.inputNorm.std(0) + ds.inputNorm.mean(0),
                    std::log2(64.0), 1e-4);
    }
}

TEST(MetaStatNormalization, DividesByBounds)
{
    std::vector<double> stats = {10.0, 20.0, 30.0, 40.0, 50.0, 60.0,
                                 70.0, 80.0, 90.0, 100.0, 0.5, 200.0};
    normalizeMetaStatsByBound(stats, 3, 10.0, 4.0);
    EXPECT_DOUBLE_EQ(stats[0], 1.0);    // energy / lbEnergy
    EXPECT_DOUBLE_EQ(stats[9], 10.0);   // total energy
    EXPECT_DOUBLE_EQ(stats[10], 0.5);   // utilization untouched
    EXPECT_DOUBLE_EQ(stats[11], 50.0);  // cycles / lbCycles
}

class SurrogateFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        arch = new AcceleratorSpec(AcceleratorSpec::paperDefault());
        result = new Phase1Result(
            trainSurrogate(*arch, conv1dAlgo(), tinyPhase1()));
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

AcceleratorSpec *SurrogateFixture::arch = nullptr;
Phase1Result *SurrogateFixture::result = nullptr;

TEST_F(SurrogateFixture, TrainingConverges)
{
    ASSERT_EQ(result->history.size(), 10u);
    EXPECT_LT(result->history.back().trainLoss,
              result->history.front().trainLoss);
    EXPECT_LT(result->history.back().testLoss, 0.5);
}

TEST_F(SurrogateFixture, PredictionsCorrelateWithTruth)
{
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "unseen", {200, 6});
    MapSpace space(*arch, p);
    CostModel model(space);
    MappingCodec codec(space);
    Rng rng(23);

    const int n = 200;
    std::vector<double> pred, truth;
    for (int i = 0; i < n; ++i) {
        Mapping m = space.randomValid(rng);
        auto z = sur.normalizeInput(codec.encode(m));
        pred.push_back(std::log(sur.predictNormEdp(z)));
        truth.push_back(std::log(model.normalizedEdp(m)));
    }
    double mp = mean(pred), mt = mean(truth);
    double num = 0.0, dp = 0.0, dt = 0.0;
    for (int i = 0; i < n; ++i) {
        num += (pred[size_t(i)] - mp) * (truth[size_t(i)] - mt);
        dp += (pred[size_t(i)] - mp) * (pred[size_t(i)] - mp);
        dt += (truth[size_t(i)] - mt) * (truth[size_t(i)] - mt);
    }
    double corr = num / std::sqrt(dp * dt);
    // The surrogate generalizes to an unseen problem: strong positive
    // rank signal (the paper's interpolation claim, Section 4.1.1).
    EXPECT_GT(corr, 0.6);
}

TEST_F(SurrogateFixture, GradientMatchesFiniteDifference)
{
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "grad", {128, 4});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    Rng rng(29);
    Mapping m = space.randomValid(rng);
    auto z = sur.normalizeInput(codec.encode(m));

    std::vector<double> grad;
    sur.gradient(z, grad);
    ASSERT_EQ(grad.size(), z.size());

    const double eps = 1e-3;
    for (size_t i = 0; i < z.size(); ++i) {
        auto up = z, down = z;
        up[i] += eps;
        down[i] -= eps;
        double numeric = (std::log(sur.predictNormEdp(up))
                          - std::log(sur.predictNormEdp(down)))
                         / (2.0 * eps);
        EXPECT_NEAR(grad[i], numeric,
                    5e-2 * std::max(1.0, std::fabs(numeric)))
            << "feature " << i;
    }
}

TEST_F(SurrogateFixture, NormalizeDenormalizeRoundTrip)
{
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "rt", {96, 5});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    Rng rng(31);
    Mapping m = space.randomValid(rng);
    auto raw = codec.encode(m);
    auto back = sur.denormalizeInput(sur.normalizeInput(raw));
    for (size_t i = 0; i < raw.size(); ++i)
        EXPECT_NEAR(back[i], raw[i], 1e-6 * std::max(1.0, raw[i]));
}

TEST_F(SurrogateFixture, SaveLoadPreservesPredictions)
{
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "sl", {160, 3});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    Rng rng(37);
    Mapping m = space.randomValid(rng);
    auto z = sur.normalizeInput(codec.encode(m));
    double before = sur.predictNormEdp(z);

    std::stringstream ss;
    sur.save(ss);
    Surrogate loaded = Surrogate::load(ss);
    EXPECT_NEAR(loaded.predictNormEdp(z), before, 1e-6 * before);
    EXPECT_EQ(loaded.featureCount(), sur.featureCount());
    EXPECT_EQ(loaded.featureTransform().logPrefix,
              sur.featureTransform().logPrefix);
}

TEST_F(SurrogateFixture, MetaStatsArePositive)
{
    Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "ms", {64, 3});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    Rng rng(41);
    Mapping m = space.randomValid(rng);
    auto stats =
        sur.predictMetaStats(sur.normalizeInput(codec.encode(m)));
    ASSERT_EQ(stats.size(), CostResult::metaStatCount(3));
    for (double v : stats)
        EXPECT_GT(v, 0.0);
}

TEST(Phase1Config, ResolveAndFingerprint)
{
    Phase1Config fast;
    fast.resolve();
    EXPECT_FALSE(fast.hidden.empty());
    Phase1Config again = fast;
    again.resolve(); // idempotent
    EXPECT_EQ(again.hidden, fast.hidden);

    Phase1Config paper;
    paper.preset = SurrogatePreset::Paper;
    paper.resolve();
    EXPECT_EQ(paper.hidden.size(), 8u);
    EXPECT_EQ(paper.hidden[3], 2048u);
    EXPECT_EQ(paper.train.epochs, 100);
    EXPECT_EQ(paper.data.samples, 10'000'000u);

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    std::string a = fast.fingerprint(arch, cnnLayerAlgo());
    std::string b = paper.fingerprint(arch, cnnLayerAlgo());
    std::string c = fast.fingerprint(arch, mttkrpAlgo());
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
}

TEST(Phase1Config, ExplicitSamplesAndEpochsAreKept)
{
    // Regression: resolve() took 20000 samples and 30 epochs (the
    // DatasetConfig / TrainConfig defaults) to mean "unset" and
    // silently replaced them with the preset's values.
    for (SurrogatePreset preset :
         {SurrogatePreset::Fast, SurrogatePreset::Paper}) {
        Phase1Config cfg;
        cfg.preset = preset;
        cfg.data.samples = 20000;
        cfg.train.epochs = 30;
        cfg.resolve();
        EXPECT_EQ(cfg.data.samples, 20000u);
        EXPECT_EQ(cfg.train.epochs, 30);
    }

    Phase1Config unset;
    unset.resolve();
    EXPECT_EQ(unset.data.samples, 150000u);
    EXPECT_EQ(unset.train.epochs, 24);

    // Configs that never held those values keep their fingerprints
    // byte for byte, so existing surrogate disk caches stay valid.
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    EXPECT_EQ(Phase1Config().fingerprint(arch, cnnLayerAlgo()),
              "fmt=5|cnn-layer|mm-paper-256pe|lin=0|h=64-128-128-64"
              "|n=150000|p=40|probs=|meta=1|elite=0|e=24|b=128"
              "|loss=huber|lr=0.01|win=0|seed=1|dseed=1");
    Phase1Config paper;
    paper.preset = SurrogatePreset::Paper;
    EXPECT_EQ(paper.fingerprint(arch, mttkrpAlgo()),
              "fmt=5|mttkrp|mm-paper-256pe|lin=0"
              "|h=64-256-1024-2048-2048-1024-256-64|n=10000000|p=40"
              "|probs=|meta=1|elite=0|e=100|b=128|loss=huber|lr=0.01"
              "|win=0|seed=1|dseed=1");
    Phase1Config set;
    set.data.samples = 10000;
    set.train.epochs = 5;
    set.data.eliteFraction = 0.25;
    set.seed = 7;
    EXPECT_EQ(set.fingerprint(arch, cnnLayerAlgo()),
              "fmt=5|cnn-layer|mm-paper-256pe|lin=0|h=64-128-128-64"
              "|n=10000|p=40|probs=|meta=1|elite=0.25|e=5|b=128"
              "|loss=huber|lr=0.01|win=0|seed=7|dseed=1");
}

TEST(SurrogateCacheTest, StoreLoadRoundTrip)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config cfg = tinyPhase1();
    cfg.data.samples = 1000;
    cfg.train.epochs = 2;
    Phase1Result trained = trainSurrogate(arch, conv1dAlgo(), cfg);

    std::string dir = std::filesystem::temp_directory_path()
                      / "mm_cache_test";
    std::filesystem::remove_all(dir);
    SurrogateCache cache(dir);
    EXPECT_FALSE(cache.load("key").has_value());
    cache.store("key", trained.surrogate);
    auto loaded = cache.load("key");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->featureCount(), trained.surrogate.featureCount());
    std::filesystem::remove_all(dir);
}

TEST(SurrogateCacheTest, DisableSwitch)
{
    ::setenv("MM_NO_CACHE", "1", 1);
    EXPECT_TRUE(SurrogateCache::disabled());
    ::unsetenv("MM_NO_CACHE");
    EXPECT_FALSE(SurrogateCache::disabled());
}

TEST(MindMappingsFacade, EndToEnd)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    MindMappingsOptions opts;
    opts.phase1 = tinyPhase1();
    opts.useCache = false;
    MindMappings mapper(arch, conv1dAlgo(), opts);

    EXPECT_FALSE(mapper.prepared());
    mapper.prepare();
    EXPECT_TRUE(mapper.prepared());
    EXPECT_FALSE(mapper.trainingHistory().empty());

    Problem p = makeProblem(conv1dAlgo(), "target", {180, 5});
    Rng rng(43);
    Mapping random = mapper.getMapping(p, rng);
    EXPECT_TRUE(mapper.isMember(p, random));
    random.spatial[0] = 1 << 20;
    EXPECT_FALSE(mapper.isMember(p, random));
    EXPECT_TRUE(mapper.isMember(p, mapper.getProjection(p, random)));

    SearchResult res = mapper.search(p, SearchBudget::bySteps(150), rng);
    EXPECT_EQ(res.steps, 150);
    EXPECT_TRUE(mapper.isMember(p, res.best));
    EXPECT_NEAR(mapper.normalizedEdp(p, res.best), res.bestNormEdp,
                1e-9 * res.bestNormEdp);
}

TEST(MindMappingsFacade, RejectsForeignProblems)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    MindMappingsOptions opts;
    opts.phase1 = tinyPhase1();
    opts.useCache = false;
    MindMappings mapper(arch, conv1dAlgo(), opts);
    Problem wrong = mttkrpProblem("wrong", 64, 64, 64, 64);
    Rng rng(47);
    EXPECT_THROW(mapper.search(wrong, SearchBudget::bySteps(10), rng),
                 FatalError);
}

TEST(MindMappingsFacade, CacheHitSkipsTraining)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    std::string dir = std::filesystem::temp_directory_path()
                      / "mm_cache_facade_test";
    std::filesystem::remove_all(dir);

    MindMappingsOptions opts;
    opts.phase1 = tinyPhase1();
    opts.phase1.data.samples = 1500;
    opts.phase1.train.epochs = 3;
    opts.cacheDir = dir;

    MindMappings first(arch, conv1dAlgo(), opts);
    EXPECT_FALSE(first.prepare()); // trained
    MindMappings second(arch, conv1dAlgo(), opts);
    EXPECT_TRUE(second.prepare()); // cache hit
    EXPECT_TRUE(second.trainingHistory().empty());
    std::filesystem::remove_all(dir);
}

TEST(MindMappingsFacade, ParallelChainsKnob)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    MindMappingsOptions opts;
    opts.phase1 = tinyPhase1();
    opts.useCache = false;
    // Batched multi-threaded Phase 2: 3 chains, 2 lanes.
    opts.searchChains = 3;
    opts.searchThreads = 2;
    MindMappings mapper(arch, conv1dAlgo(), opts);

    Problem p = makeProblem(conv1dAlgo(), "par", {170, 4});
    Rng a(53), b(53);
    SearchResult r1 = mapper.search(p, SearchBudget::bySteps(90), a);
    SearchResult r2 = mapper.search(p, SearchBudget::bySteps(90), b);
    EXPECT_EQ(r1.steps, 90);
    EXPECT_TRUE(mapper.isMember(p, r1.best));
    EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp);
    // 30 wall-clock batches of 3 concurrent chains.
    EXPECT_NEAR(r1.virtualSec, 30 * TimingModel{}.surrogateStepSec, 1e-9);
}

TEST(GradientSearcherTest, RespectsBudgetInjectionToggleAndSeeds)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Result trained =
        trainSurrogate(arch, conv1dAlgo(), tinyPhase1());
    Problem p = makeProblem(conv1dAlgo(), "t", {150, 4});
    MapSpace space(arch, p);
    CostModel model(space);

    for (bool inject : {true, false}) {
        GradientSearchConfig cfg;
        cfg.enableInjection = inject;
        MindMappingsSearcher searcher(model, trained.surrogate, cfg);
        Rng a(51), b(51);
        SearchResult r1 = searcher.run(SearchBudget::bySteps(120), a);
        SearchResult r2 = searcher.run(SearchBudget::bySteps(120), b);
        EXPECT_EQ(r1.steps, 120);
        EXPECT_TRUE(space.isMember(r1.best));
        EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp);
        EXPECT_NEAR(r1.virtualSec,
                    120 * TimingModel{}.surrogateStepSec, 1e-9);
    }
}

} // namespace
} // namespace mm
