/**
 * @file
 * Core-module tests: normalization, feature conditioning, dataset
 * generation, surrogate fidelity + analytic-vs-numeric input gradients,
 * caching, Phase-2 search behavior, and the MindMappings facade.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>

#include <unistd.h>

#include "common/stats.hpp"
#include "core/mind_mappings.hpp"
#include "core/shard_store.hpp"
#include "dataset_test_util.hpp"
#include "gemm_test_util.hpp"
#include "mapping/codec.hpp"
#include "search/random_search.hpp"
#include "tensor/gemm.hpp"

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

/** Bitwise equality of two double vectors (tells -0.0 from 0.0). */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i]))
            return false;
    return true;
}

TEST(Normalizer, IntoFormsMatchVectorForms)
{
    Matrix data(64, 5);
    Rng rng(4);
    for (size_t i = 0; i < data.size(); ++i)
        data.data()[i] = float(rng.uniformReal(-5.0, 20.0));
    const Normalizer norm = Normalizer::fit(data);
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<double> raw(5);
        for (double &v : raw)
            v = rng.uniformReal(-100.0, 100.0);
        const std::vector<double> z = norm.apply(raw);
        const std::vector<double> back = norm.invert(z);
        std::vector<double> out(5, -1.0);
        norm.applyInto(raw, out);
        EXPECT_TRUE(sameBits(out, z));
        norm.invertInto(z, out);
        EXPECT_TRUE(sameBits(out, back));
        // In place.
        out = raw;
        norm.applyInto(out, out);
        EXPECT_TRUE(sameBits(out, z));
        norm.invertInto(out, out);
        EXPECT_TRUE(sameBits(out, back));
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
    StreamedDataset ds = generateDatasetStreamed(arch, mttkrpAlgo(), cfg);
    DatasetSplits split = normalizedSplits(ds);

    EXPECT_EQ(ds.featureCount, 40u); // paper: MTTKRP input width
    EXPECT_EQ(ds.outputCount, 15u);  // paper: MTTKRP output width
    EXPECT_EQ(split.xTrain.rows(), 1600u);
    EXPECT_EQ(split.xTest.rows(), 400u);
    EXPECT_EQ(split.yTrain.cols(), 15u);

    // Training columns are whitened.
    Normalizer refit = Normalizer::fit(split.yTrain);
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
    StreamedDataset ds = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_EQ(ds.outputCount, 1u);
}

TEST(Dataset, DeterministicBySeed)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 300;
    cfg.problemCount = 4;
    cfg.seed = 11;
    DatasetSplits a =
        normalizedSplits(generateDatasetStreamed(arch, conv1dAlgo(), cfg));
    DatasetSplits b =
        normalizedSplits(generateDatasetStreamed(arch, conv1dAlgo(), cfg));
    EXPECT_LT(maxAbsDiff(a.xTrain, b.xTrain), 1e-9);
    EXPECT_LT(maxAbsDiff(a.yTrain, b.yTrain), 1e-9);
}

TEST(Dataset, BitwiseIdenticalAtAnyLaneCount)
{
    // Labeling fans out over the context's pool, but each sample draws
    // from its own forked stream and writes its own rows, so the
    // dataset must not depend on the lane count (or on a null context).
    // The gathers pin the resident shards from every lane at once.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 240;
    cfg.problemCount = 3;
    cfg.eliteFraction = 0.25;
    cfg.seed = 23;
    cfg.shardSize = 40;
    DatasetSplits serial =
        normalizedSplits(generateDatasetStreamed(arch, conv1dAlgo(), cfg));
    for (size_t lanes : {1u, 2u, 4u}) {
        ParallelContext ctx(lanes);
        DatasetSplits par = normalizedSplits(
            generateDatasetStreamed(arch, conv1dAlgo(), cfg, &ctx), &ctx);
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
    StreamedDataset ds = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    DatasetSplits split = normalizedSplits(ds);
    // All pid features must be the fixed problem's (log2-conditioned).
    for (size_t r = 0; r < split.xTrain.rows(); ++r) {
        double x0 = double(split.xTrain(r, 0));
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

TEST_F(SurrogateFixture, InputNormalizationIntoFormsMatchVectorForms)
{
    const Surrogate &sur = result->surrogate;
    Problem p = makeProblem(conv1dAlgo(), "norm-into", {96, 5});
    MapSpace space(*arch, p);
    MappingCodec codec(space);
    Rng rng(12);
    std::vector<double> out(codec.featureCount());
    for (int i = 0; i < 32; ++i) {
        const std::vector<double> raw = codec.encode(space.randomValid(rng));
        const std::vector<double> z = sur.normalizeInput(raw);
        std::fill(out.begin(), out.end(), -1.0);
        sur.normalizeInputInto(raw, out);
        EXPECT_TRUE(sameBits(out, z));

        // A stepped iterate, as Phase 2 denormalizes it.
        std::vector<double> stepped = z;
        for (double &v : stepped)
            v += rng.uniformReal(-2.0, 2.0);
        const std::vector<double> back = sur.denormalizeInput(stepped);
        sur.denormalizeInputInto(stepped, out);
        EXPECT_TRUE(sameBits(out, back));

        // In place, the way GradientChain runs both.
        out = raw;
        sur.normalizeInputInto(out, out);
        EXPECT_TRUE(sameBits(out, z));
        out = stepped;
        sur.denormalizeInputInto(out, out);
        EXPECT_TRUE(sameBits(out, back));
    }
}

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

    std::ostringstream os(std::ios::binary);
    sur.save(os);
    const std::string bytes = os.str();
    std::optional<Surrogate> maybe =
        Surrogate::tryLoad(std::span<const char>(bytes.data(), bytes.size()));
    ASSERT_TRUE(maybe.has_value());
    Surrogate &loaded = *maybe;
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
              "fmt=6|mm-paper-256pe|cnn-layer|n=150000"
              "|tf=0x1.999999999999ap-4|pc=40|probs=|meta=1|elite=0x0p+0"
              "|ec=8|seed=1|lin=0|h=64-128-128-64|e=24|b=128|loss=huber"
              "|huber=0x1p+0|lr=0x1.47ae147ae147bp-7|win=0|seed=1");
    Phase1Config paper;
    paper.preset = SurrogatePreset::Paper;
    EXPECT_EQ(paper.fingerprint(arch, mttkrpAlgo()),
              "fmt=6|mm-paper-256pe|mttkrp|n=10000000"
              "|tf=0x1.999999999999ap-4|pc=40|probs=|meta=1|elite=0x0p+0"
              "|ec=8|seed=1|lin=0|h=64-256-1024-2048-2048-1024-256-64"
              "|e=100|b=128|loss=huber|huber=0x1p+0"
              "|lr=0x1.47ae147ae147bp-7|win=0|seed=1");
    Phase1Config set;
    set.data.samples = 10000;
    set.train.epochs = 5;
    set.data.eliteFraction = 0.25;
    set.seed = 7;
    EXPECT_EQ(set.fingerprint(arch, cnnLayerAlgo()),
              "fmt=6|mm-paper-256pe|cnn-layer|n=10000"
              "|tf=0x1.999999999999ap-4|pc=40|probs=|meta=1|elite=0x1p-2"
              "|ec=8|seed=1|lin=0|h=64-128-128-64|e=5|b=128|loss=huber"
              "|huber=0x1p+0|lr=0x1.47ae147ae147bp-7|win=0|seed=7");
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

// ---------------------------------------------------------------------------
// Phase-1 pins: golden digests of whole Phase-1 runs
// ---------------------------------------------------------------------------

/** Bitwise digests of one Phase-1 run. */
struct Phase1Digest
{
    uint64_t rows = 0;  ///< raw shard rows (on-disk runs only)
    uint64_t norms = 0; ///< both normalizers' means and stds
    uint64_t losses = 0; ///< per-epoch train and test loss
    uint64_t pred = 0;  ///< one prediction
};

uint64_t
fnvDouble(double v, uint64_t h)
{
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    return fnv1a64(&bits, sizeof(bits), h);
}

uint64_t
normalizerHash(const Normalizer &n, uint64_t h)
{
    for (size_t c = 0; c < n.dim(); ++c)
        h = fnvDouble(n.std(c), fnvDouble(n.mean(c), h));
    return h;
}

/** Train @p cfg and digest it; @p dir non-empty runs it on disk. */
Phase1Digest
digestPhase1(const AlgorithmSpec &algo, Phase1Config cfg,
             const std::string &dir, int threads)
{
    cfg.data.streamDir = dir;
    cfg.threads = threads;
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Result r = trainSurrogate(arch, algo, cfg);

    Phase1Digest d;
    if (!dir.empty()) {
        ShardedDatasetReader reader(dir);
        d.rows = kFnvOffset;
        reader.forEachRow(0, reader.layout().rows,
                          [&](size_t, std::span<const float> x,
                              std::span<const float> y) {
                              d.rows = fnv1a64(x.data(), x.size_bytes(),
                                               d.rows);
                              d.rows = fnv1a64(y.data(), y.size_bytes(),
                                               d.rows);
                          });
    }
    d.norms = normalizerHash(r.surrogate.outputNormalizer(),
                             normalizerHash(r.surrogate.inputNormalizer(),
                                            kFnvOffset));
    d.losses = kFnvOffset;
    for (const EpochReport &e : r.history)
        d.losses = fnvDouble(e.testLoss, fnvDouble(e.trainLoss, d.losses));
    std::vector<double> z(r.surrogate.featureCount(), 0.25);
    d.pred = std::bit_cast<uint64_t>(r.surrogate.predictNormEdp(z));
    return d;
}

// Losses and the prediction round differently per GEMM fusion class
// (gemmFusionClass), so each class has its own {losses, pred} goldens;
// the fused and unfused blocked classes train to the same weights on
// the pin cases. Shard rows and normalizers are the same in every class.
struct Phase1PinCase
{
    const char *name;
    const AlgorithmSpec &(*algo)();
    Phase1Config cfg;
    uint64_t rows;
    uint64_t norms;
    std::map<GemmFusionClass, std::pair<uint64_t, uint64_t>> lossesPred;
};

std::vector<Phase1PinCase>
phase1PinCases()
{
    Phase1Config base;
    base.hidden = {16, 16};
    base.train.epochs = 3;
    base.data.problemCount = 3;
    base.data.seed = 5;
    base.seed = 9;

    Phase1Config conv = base;
    conv.data.samples = 500;
    conv.data.shardSize = 96; // partial final shard

    Phase1Config elite = base;
    elite.data.samples = 400;
    elite.data.eliteFraction = 0.25;
    elite.data.eliteCandidates = 4;
    elite.data.shardSize = 128;

    Phase1Config direct = base;
    direct.data.samples = 400;
    direct.data.metaStatOutputs = false;
    direct.data.shardSize = 100; // divides the sample count

    Phase1Config window = base;
    window.hidden = {16};
    window.data.samples = 300;
    window.data.shardSize = 50;
    window.train.shuffleWindow = 100; // two shards per window

    return {
        {"conv1d", &conv1dAlgo, conv, 0xf7784ba895a73e1cULL,
         0xf42782cf45ee8f1bULL,
         {{{true, false}, {0xd95265e58a7b45a1ULL, 0x402fd5e2949fe6d3ULL}},
          {{false, false}, {0xd95265e58a7b45a1ULL, 0x402fd5e2949fe6d3ULL}},
          {{true, true}, {0x6a88496268880a23ULL, 0x402fd5e294cad5d0ULL}}}},
        {"cnn_elite", &cnnLayerAlgo, elite, 0x6b327260492aec3eULL,
         0xf27969904e3da99fULL,
         {{{true, false}, {0x79c6fef39934a1afULL, 0x406792470425ff63ULL}},
          {{false, false}, {0x71fdb127f7964014ULL, 0x406792470425ff63ULL}},
          {{true, true}, {0xddbe51e4c1bb54e7ULL, 0x406792471cef7199ULL}}}},
        {"mttkrp_direct", &mttkrpAlgo, direct, 0x8755119a51a2b99dULL,
         0x63234826542558d4ULL,
         {{{true, false}, {0x49f546b3d0c8ac9aULL, 0x40632b70708da737ULL}},
          {{false, false}, {0xfe7a411f5fae03d8ULL, 0x40632b70708da737ULL}},
          {{true, true}, {0x6f03d9331aee9f25ULL, 0x40632b707451bc21ULL}}}},
        {"conv1d_window", &conv1dAlgo, window, 0x284c09c7b687a579ULL,
         0xfe41082ad2119338ULL,
         {{{true, false}, {0x316fcaa23355dab9ULL, 0x40306cba08717ca7ULL}},
          {{false, false}, {0x316fcaa23355dab9ULL, 0x40306cba08717ca7ULL}},
          {{true, true}, {0x8d69bde87273c6f6ULL, 0x40306cba05b0494aULL}}}},
    };
}

TEST(Phase1Pins, ResidentAndOnDiskRunsMatchGoldens)
{
    // Goldens recorded before the in-RAM and on-disk Phase-1 paths
    // were merged into one generator; both paths, at any lane count,
    // must still reproduce them bitwise.
    const GemmFusionClass fusion = gemmFusionClass();
    const std::string cls = "{" + std::to_string(fusion.first) + ", "
                            + std::to_string(fusion.second) + "}";
    for (const Phase1PinCase &c : phase1PinCases()) {
        const auto golden = c.lossesPred.find(fusion);
        ASSERT_NE(golden, c.lossesPred.end())
            << c.name << ": no goldens for fusion class " << cls;
        const auto [losses, pred] = golden->second;
        // Three lanes split a 128-row batch and the 16-unit hidden
        // layers unevenly.
        for (int threads : {1, 3, 4}) {
            for (bool onDisk : {false, true}) {
                const std::string dir =
                    onDisk ? (std::filesystem::temp_directory_path()
                              / ("mm_pins_" + std::string(c.name) + "_"
                                 + std::to_string(::getpid())))
                                 .string()
                           : std::string();
                if (onDisk)
                    std::filesystem::remove_all(dir);
                const Phase1Digest d =
                    digestPhase1(c.algo(), c.cfg, dir, threads);
                if (onDisk)
                    std::filesystem::remove_all(dir);
                const std::string where =
                    std::string(c.name) + (onDisk ? " on-disk" : " resident")
                    + " threads=" + std::to_string(threads);
                std::ostringstream got;
                got << std::hex << "{0x" << d.rows << "ULL, 0x" << d.norms
                    << "ULL, 0x" << d.losses << "ULL, 0x" << d.pred
                    << "ULL}";
                if (onDisk) {
                    EXPECT_EQ(d.rows, c.rows) << where << got.str();
                }
                EXPECT_EQ(d.norms, c.norms) << where << got.str();
                EXPECT_EQ(d.losses, losses)
                    << where << " fusion=" << cls << got.str();
                EXPECT_EQ(d.pred, pred)
                    << where << " fusion=" << cls << got.str();
            }
        }
    }
}

} // namespace
} // namespace mm
