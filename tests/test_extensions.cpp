/**
 * @file
 * Tests for the future-work extensions: linear (simpler differentiable)
 * surrogates and elite-biased training-set sampling.
 */
#include <gtest/gtest.h>

#include "core/mind_mappings.hpp"
#include "dataset_test_util.hpp"
#include "mapping/codec.hpp"

namespace mm {
namespace {

TEST(LinearSurrogate, TopologyAndTraining)
{
    // Empty hidden list builds a single identity (linear) layer.
    auto specs = surrogateTopology({}, 12);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].width, 12u);
    EXPECT_EQ(specs[0].act, Activation::Identity);

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config cfg;
    cfg.linear = true;
    cfg.data.samples = 2000;
    cfg.data.problemCount = 8;
    cfg.train.epochs = 6;
    Phase1Result result = trainSurrogate(arch, conv1dAlgo(), cfg);
    EXPECT_EQ(result.surrogate.net().layerCount(), 1u);
    EXPECT_LT(result.history.back().trainLoss,
              result.history.front().trainLoss);
}

TEST(LinearSurrogate, GradientsAndSearchStillWork)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config cfg;
    cfg.linear = true;
    cfg.data.samples = 2000;
    cfg.data.problemCount = 8;
    cfg.train.epochs = 6;
    Phase1Result result = trainSurrogate(arch, conv1dAlgo(), cfg);

    Problem p = makeProblem(conv1dAlgo(), "lin", {150, 4});
    MapSpace space(arch, p);
    CostModel model(space);
    MappingCodec codec(space);
    Rng rng(3);
    Mapping m = space.randomValid(rng);
    auto z = result.surrogate.normalizeInput(codec.encode(m));
    std::vector<double> grad;
    double pred = result.surrogate.gradient(z, grad);
    EXPECT_TRUE(std::isfinite(pred));
    EXPECT_GT(pred, 0.0);
    // A linear model in z-space has an input gradient independent of z.
    auto z2 = z;
    for (auto &v : z2)
        v += 0.5;
    std::vector<double> grad2;
    result.surrogate.gradient(z2, grad2);
    for (size_t i = 0; i < grad.size(); ++i)
        EXPECT_NEAR(grad[i], grad2[i], 1e-4 + 1e-3 * std::fabs(grad[i]));

    MindMappingsSearcher searcher(model, result.surrogate);
    SearchResult res = searcher.run(SearchBudget::bySteps(100), rng);
    EXPECT_EQ(res.steps, 100);
    EXPECT_TRUE(space.isMember(res.best));
}

TEST(EliteSampling, ShiftsTargetDistributionDown)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig uniform;
    uniform.samples = 1500;
    uniform.problemCount = 6;
    uniform.metaStatOutputs = false; // single log-EDP output
    uniform.seed = 17;
    DatasetConfig elite = uniform;
    elite.eliteFraction = 0.8;
    elite.eliteCandidates = 8;

    StreamedDataset u =
        generateDatasetStreamed(arch, cnnLayerAlgo(), uniform);
    StreamedDataset e = generateDatasetStreamed(arch, cnnLayerAlgo(), elite);
    // The whitening mean of log-EDP reflects the sampled distribution:
    // elite-biased draws must sit strictly lower.
    EXPECT_LT(e.outputNorm.mean(0), u.outputNorm.mean(0) - 0.2);
}

TEST(EliteSampling, ZeroFractionMatchesUniform)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig a;
    a.samples = 400;
    a.problemCount = 4;
    a.seed = 23;
    DatasetConfig b = a;
    b.eliteFraction = 0.0;
    DatasetSplits da =
        normalizedSplits(generateDatasetStreamed(arch, mttkrpAlgo(), a));
    DatasetSplits db =
        normalizedSplits(generateDatasetStreamed(arch, mttkrpAlgo(), b));
    EXPECT_LT(maxAbsDiff(da.xTrain, db.xTrain), 1e-9);
}

TEST(Extensions, FingerprintsDistinguishConfigs)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config base;
    Phase1Config lin = base;
    lin.linear = true;
    Phase1Config elite = base;
    elite.data.eliteFraction = 0.25;
    std::string fBase = base.fingerprint(arch, cnnLayerAlgo());
    std::string fLin = lin.fingerprint(arch, cnnLayerAlgo());
    std::string fElite = elite.fingerprint(arch, cnnLayerAlgo());
    EXPECT_NE(fBase, fLin);
    EXPECT_NE(fBase, fElite);
    EXPECT_NE(fLin, fElite);

    // Every field that changes the rows or the training joins the key,
    // and doubles are told apart to the last bit.
    Phase1Config split = base;
    split.data.testFraction = 0.2;
    Phase1Config candidates = base;
    candidates.data.eliteCandidates = 4;
    Phase1Config huber = base;
    huber.train.huberDelta = 0.5;
    Phase1Config nearElite = elite;
    nearElite.data.eliteFraction = 0.2500001;
    for (const Phase1Config *c : {&split, &candidates, &huber})
        EXPECT_NE(c->fingerprint(arch, cnnLayerAlgo()), fBase);
    EXPECT_NE(nearElite.fingerprint(arch, cnnLayerAlgo()), fElite);
}

} // namespace
} // namespace mm
