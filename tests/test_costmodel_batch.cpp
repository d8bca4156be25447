/**
 * @file
 * Batched cost-model evaluation tests: bitwise equivalence of
 * evaluateBatch / edpBatch / normalizedEdpBatch against the scalar
 * path over large random-mapping batches on both target algorithms,
 * at several lane counts, through the pointer-indirected overloads,
 * and across degenerate batch shapes. Also covers the out-parameter
 * scalar overloads and dataset label-block invariance.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <map>

#include "core/dataset.hpp"
#include "costmodel/reference_eval.hpp"
#include "dataset_test_util.hpp"

namespace mm {
namespace {

/** Bit-pattern equality: NaN-safe, distinguishes -0.0 from +0.0. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Assert two CostResults are bitwise identical field by field. */
void
expectBitwise(const CostResult &a, const CostResult &b, size_t idx)
{
    ASSERT_EQ(a.access.size(), b.access.size()) << "mapping " << idx;
    ASSERT_EQ(a.energyPj.size(), b.energyPj.size()) << "mapping " << idx;
    for (size_t t = 0; t < a.access.size(); ++t) {
        for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl) {
            EXPECT_TRUE(sameBits(a.access[t][lvl].reads,
                                 b.access[t][lvl].reads))
                << "mapping " << idx << " tensor " << t << " level " << lvl;
            EXPECT_TRUE(sameBits(a.access[t][lvl].writes,
                                 b.access[t][lvl].writes))
                << "mapping " << idx << " tensor " << t << " level " << lvl;
            EXPECT_TRUE(sameBits(a.energyPj[t][lvl], b.energyPj[t][lvl]))
                << "mapping " << idx << " tensor " << t << " level " << lvl;
        }
    }
    EXPECT_TRUE(sameBits(a.nocWords, b.nocWords)) << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.paddedMacs, b.paddedMacs)) << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.actualMacs, b.actualMacs)) << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.macEnergyPj, b.macEnergyPj)) << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.nocEnergyPj, b.nocEnergyPj)) << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.totalEnergyPj, b.totalEnergyPj))
        << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.computeCycles, b.computeCycles))
        << "mapping " << idx;
    for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl)
        EXPECT_TRUE(sameBits(a.bandwidthCycles[lvl], b.bandwidthCycles[lvl]))
            << "mapping " << idx << " level " << lvl;
    EXPECT_TRUE(sameBits(a.cycles, b.cycles)) << "mapping " << idx;
    EXPECT_TRUE(sameBits(a.utilization, b.utilization)) << "mapping " << idx;
}

/** One algorithm's fixture: a map space and a pool of random mappings. */
struct Shape
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem problem;
    MapSpace space;
    CostModel model;
    std::vector<Mapping> mappings;

    Shape(Problem p, size_t count, uint64_t seed)
        : problem(std::move(p)), space(arch, problem), model(space)
    {
        Rng rng(seed);
        mappings.reserve(count);
        for (size_t i = 0; i < count; ++i)
            mappings.push_back(space.randomValid(rng));
    }
};

/**
 * Deliberately not a multiple of the internal evaluation chunk so the
 * final partial chunk is always exercised; 2 * 5123 > 10k mappings.
 */
constexpr size_t kBatch = 5123;

Shape &
cnnShape()
{
    static Shape s(cnnProblem("batch-cnn", 4, 64, 64, 12, 12, 3, 3),
                   kBatch, 0xC0FFEE);
    return s;
}

Shape &
mttkrpShape()
{
    static Shape s(mttkrpProblem("batch-mttkrp", 48, 36, 24, 60), kBatch,
                   0xBEEF);
    return s;
}

/**
 * Oracle: the preserved pre-pipeline implementation, computed
 * independently of the descriptor path (reference_eval.hpp). Using it
 * instead of today's evaluate() keeps the comparison differential — a
 * bug shared by the scalar and batch pipeline paths cannot hide.
 */
const std::vector<CostResult> &
scalarResults(Shape &s)
{
    static std::map<const Shape *, std::vector<CostResult>> cache;
    auto &ref = cache[&s];
    if (ref.empty()) {
        ref.reserve(s.mappings.size());
        for (const Mapping &m : s.mappings)
            ref.push_back(referenceEvaluate(s.space, m));
    }
    return ref;
}

TEST(CostModelBatch, ScalarEvaluateMatchesReferenceBitwise)
{
    for (Shape *s : {&cnnShape(), &mttkrpShape()}) {
        const auto &ref = scalarResults(*s);
        for (size_t i = 0; i < s->mappings.size(); ++i)
            expectBitwise(ref[i], s->model.evaluate(s->mappings[i]), i);
    }
}

void
checkBatchAgainstScalar(Shape &s, ParallelContext *par)
{
    const auto &ref = scalarResults(s);
    std::vector<CostResult> batch(s.mappings.size());
    s.model.evaluateBatch(std::span<const Mapping>(s.mappings),
                          std::span<CostResult>(batch), par);
    for (size_t i = 0; i < ref.size(); ++i)
        expectBitwise(ref[i], batch[i], i);

    std::vector<double> edps(s.mappings.size());
    s.model.edpBatch(std::span<const Mapping>(s.mappings),
                     std::span<double>(edps), par);
    std::vector<double> norms(s.mappings.size());
    s.model.normalizedEdpBatch(std::span<const Mapping>(s.mappings),
                               std::span<double>(norms), par);
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_TRUE(sameBits(edps[i], ref[i].edp())) << "mapping " << i;
        EXPECT_TRUE(sameBits(norms[i], s.model.normalizedEdp(s.mappings[i])))
            << "mapping " << i;
    }
}

TEST(CostModelBatch, BitwiseEqualsScalarSerial)
{
    checkBatchAgainstScalar(cnnShape(), nullptr);
    checkBatchAgainstScalar(mttkrpShape(), nullptr);
}

TEST(CostModelBatch, BitwiseEqualsScalarOneLane)
{
    ParallelContext par(1);
    checkBatchAgainstScalar(cnnShape(), &par);
    checkBatchAgainstScalar(mttkrpShape(), &par);
}

TEST(CostModelBatch, BitwiseEqualsScalarFourLanes)
{
    ParallelContext par(4);
    checkBatchAgainstScalar(cnnShape(), &par);
    checkBatchAgainstScalar(mttkrpShape(), &par);
}

TEST(CostModelBatch, BitwiseEqualsScalarEightLanes)
{
    ParallelContext par(8);
    checkBatchAgainstScalar(cnnShape(), &par);
    checkBatchAgainstScalar(mttkrpShape(), &par);
}

TEST(CostModelBatch, PointerOverloadsScatterGather)
{
    Shape &s = cnnShape();
    const auto &ref = scalarResults(s);

    // Gather in reverse order through pointers; results land where the
    // result pointers point, not in input order.
    const size_t n = 257;
    std::vector<const Mapping *> maps(n);
    std::vector<CostResult> store(n);
    std::vector<CostResult *> res(n);
    for (size_t i = 0; i < n; ++i) {
        maps[i] = &s.mappings[n - 1 - i];
        res[i] = &store[i];
    }
    ParallelContext par(4);
    s.model.evaluateBatch(std::span<const Mapping *const>(maps),
                          std::span<CostResult *const>(res), &par);
    for (size_t i = 0; i < n; ++i)
        expectBitwise(ref[n - 1 - i], store[i], i);

    std::vector<double> edps(n), norms(n);
    s.model.edpBatch(std::span<const Mapping *const>(maps),
                     std::span<double>(edps), &par);
    s.model.normalizedEdpBatch(std::span<const Mapping *const>(maps),
                               std::span<double>(norms), &par);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(sameBits(edps[i], ref[n - 1 - i].edp()));
        EXPECT_TRUE(
            sameBits(norms[i], ref[n - 1 - i].edp()
                                   / s.model.lowerBound().edp()));
    }
}

TEST(CostModelBatch, DegenerateBatchShapes)
{
    Shape &s = mttkrpShape();
    const auto &ref = scalarResults(s);
    ParallelContext par(4);
    for (ParallelContext *ctx : {static_cast<ParallelContext *>(nullptr),
                                 &par}) {
        // Empty batch: must be a no-op at any lane count.
        s.model.evaluateBatch(std::span<const Mapping>(),
                              std::span<CostResult>(), ctx);
        s.model.edpBatch(std::span<const Mapping>(), std::span<double>(),
                         ctx);

        // Size 1, one short of a chunk, and just past two chunks.
        for (size_t n : {size_t(1), size_t(15), size_t(17), size_t(33)}) {
            std::vector<CostResult> out(n);
            auto head = std::span<const Mapping>(s.mappings).first(n);
            s.model.evaluateBatch(head, std::span<CostResult>(out), ctx);
            for (size_t i = 0; i < n; ++i)
                expectBitwise(ref[i], out[i], i);
        }
    }
}

TEST(CostModelBatch, OutParamEvaluateReusesStorage)
{
    Shape &s = cnnShape();
    CostResult reused;
    for (size_t i = 0; i < 64; ++i) {
        s.model.evaluate(s.mappings[i], reused);
        expectBitwise(scalarResults(s)[i], reused, i);
    }
}

TEST(CostModelBatch, MetaStatsOutParamMatchesValueForm)
{
    for (Shape *s : {&cnnShape(), &mttkrpShape()}) {
        CostResult res = s->model.evaluate(s->mappings[0]);
        std::vector<double> out(99, -1.0); // wrong size: must be resized
        res.metaStats(out);
        std::vector<double> expected = res.metaStats();
        ASSERT_EQ(out.size(), expected.size());
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_TRUE(sameBits(out[i], expected[i])) << "stat " << i;
    }
}

/** Dataset bytes must not depend on the labeling block size. */
TEST(CostModelBatch, DatasetLabelBlockInvariance)
{
    DatasetConfig cfg;
    cfg.samples = 240;
    cfg.problemCount = 3;
    cfg.eliteFraction = 0.5; // exercise the batched best-of-k path
    cfg.eliteCandidates = 4;
    cfg.seed = 11;

    auto arch = AcceleratorSpec::tinyDefault();
    auto generate = [&] {
        return normalizedSplits(
            generateDatasetStreamed(arch, cnnLayerAlgo(), cfg));
    };
    cfg.labelBlock = 4096;
    DatasetSplits big = generate();
    cfg.labelBlock = 1;
    DatasetSplits one = generate();
    cfg.labelBlock = 7; // non-divisor of the sample count
    DatasetSplits odd = generate();

    auto sameMatrix = [](const Matrix &a, const Matrix &b) {
        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(float)),
                  0);
    };
    for (const DatasetSplits *other : {&one, &odd}) {
        sameMatrix(big.xTrain, other->xTrain);
        sameMatrix(big.yTrain, other->yTrain);
        sameMatrix(big.xTest, other->xTest);
        sameMatrix(big.yTest, other->yTest);
    }
}

} // namespace
} // namespace mm
