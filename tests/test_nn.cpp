/**
 * @file
 * Neural-network library tests: finite-difference gradient checks for
 * weights and inputs, loss values/gradients, optimizers, the trainer
 * loop, and serialization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/rng.hpp"
#include "core/phase1.hpp"
#include "core/surrogate.hpp"
#include "nn/loss.hpp"
#include "tensor/gemm.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "dataset_test_util.hpp"

namespace mm {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.uniformReal(-scale, scale));
    return m;
}

/** Loss of net(x) against target under MSE, for finite differencing. */
double
netLoss(Mlp &net, const Matrix &x, const Matrix &target)
{
    const Matrix &pred = net.forward(x);
    return lossValue(LossKind::MSE, pred, target, 1.0);
}

TEST(Mlp, ShapesAndParamCount)
{
    Rng rng(1);
    Mlp net(4, {{8, Activation::ReLU}, {3, Activation::Identity}}, rng);
    EXPECT_EQ(net.inputDim(), 4u);
    EXPECT_EQ(net.outputDim(), 3u);
    EXPECT_EQ(net.layerCount(), 2u);
    EXPECT_EQ(net.paramCount(), 4u * 8 + 8 + 8 * 3 + 3);

    Matrix x(5, 4);
    const Matrix &y = net.forward(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 3u);
}

TEST(Mlp, BatchedForwardBackwardMatchesPerSample)
{
    // The parallel Phase-2 driver relies on a B-row batch being exactly
    // the B per-sample evaluations: every row's arithmetic must be
    // independent and identically ordered through gemm.
    Rng rng(71);
    Mlp batched(6,
                {{16, Activation::ReLU}, {8, Activation::Tanh},
                 {3, Activation::Identity}},
                rng);
    Rng cloneRng(0);
    Mlp single(6,
               {{16, Activation::ReLU}, {8, Activation::Tanh},
                {3, Activation::Identity}},
               cloneRng);
    single.copyParamsFrom(batched);

    const size_t batchSize = 13;
    Rng dataRng(72);
    Matrix x = randomMatrix(batchSize, 6, dataRng);
    Matrix dOut = randomMatrix(batchSize, 3, dataRng);

    Matrix outBatch = batched.forward(x);
    batched.zeroGrad();
    Matrix dInBatch = batched.backward(dOut);

    Matrix outSingle(batchSize, 3), dInSingle(batchSize, 6);
    single.zeroGrad();
    Matrix xr(1, 6), dr(1, 3);
    for (size_t r = 0; r < batchSize; ++r) {
        std::copy(x.row(r).begin(), x.row(r).end(), xr.row(0).begin());
        std::copy(dOut.row(r).begin(), dOut.row(r).end(), dr.row(0).begin());
        const Matrix &o = single.forward(xr);
        std::copy(o.row(0).begin(), o.row(0).end(), outSingle.row(r).begin());
        Matrix di = single.backward(dr);
        std::copy(di.row(0).begin(), di.row(0).end(),
                  dInSingle.row(r).begin());
    }

    EXPECT_LE(maxAbsDiff(outBatch, outSingle), 1e-10);
    EXPECT_LE(maxAbsDiff(dInBatch, dInSingle), 1e-10);
    // The batch accumulates weight gradients in the same sample order as
    // the sequential loop.
    auto gb = batched.grads();
    auto gs = single.grads();
    ASSERT_EQ(gb.size(), gs.size());
    for (size_t i = 0; i < gb.size(); ++i)
        EXPECT_LE(maxAbsDiff(*gb[i], *gs[i]), 1e-10) << "grad " << i;
}

TEST(Mlp, WeightGradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Mlp net(3, {{6, Activation::Tanh}, {2, Activation::Identity}}, rng);
    Matrix x = randomMatrix(4, 3, rng);
    Matrix target = randomMatrix(4, 2, rng);

    const Matrix &pred = net.forward(x);
    Matrix grad;
    lossForward(LossKind::MSE, pred, target, 1.0, grad);
    net.zeroGrad();
    net.backward(grad);

    auto params = net.params();
    auto grads = net.grads();
    const double eps = 1e-3;
    for (size_t p = 0; p < params.size(); ++p) {
        for (size_t i = 0; i < std::min<size_t>(params[p]->size(), 6);
             ++i) {
            float saved = params[p]->data()[i];
            params[p]->data()[i] = saved + float(eps);
            double up = netLoss(net, x, target);
            params[p]->data()[i] = saved - float(eps);
            double down = netLoss(net, x, target);
            params[p]->data()[i] = saved;
            double numeric = (up - down) / (2.0 * eps);
            double analytic = double(grads[p]->data()[i]);
            EXPECT_NEAR(analytic, numeric,
                        2e-2 * std::max(1.0, std::fabs(numeric)))
                << "param " << p << " index " << i;
        }
    }
}

TEST(Mlp, InputGradientsMatchFiniteDifferences)
{
    // The input gradient is the core mechanism of Phase 2 (gradients of
    // the surrogate with respect to the candidate mapping).
    Rng rng(3);
    Mlp net(5, {{8, Activation::ReLU}, {4, Activation::Tanh},
                {1, Activation::Identity}},
            rng);
    Matrix x = randomMatrix(1, 5, rng);
    Matrix target(1, 1);
    target.at(0, 0) = 0.3f;

    const Matrix &pred = net.forward(x);
    Matrix grad;
    lossForward(LossKind::MSE, pred, target, 1.0, grad);
    net.zeroGrad();
    Matrix dIn = net.backward(grad);
    ASSERT_EQ(dIn.rows(), 1u);
    ASSERT_EQ(dIn.cols(), 5u);

    const double eps = 1e-3;
    for (size_t i = 0; i < 5; ++i) {
        float saved = x.at(0, i);
        x.at(0, i) = saved + float(eps);
        double up = netLoss(net, x, target);
        x.at(0, i) = saved - float(eps);
        double down = netLoss(net, x, target);
        x.at(0, i) = saved;
        double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(double(dIn.at(0, i)), numeric,
                    2e-2 * std::max(0.1, std::fabs(numeric)))
            << "input " << i;
    }
}

TEST(Loss, ValuesAndGradients)
{
    Matrix pred(1, 2), target(1, 2);
    pred.at(0, 0) = 1.0f;
    pred.at(0, 1) = -3.0f;
    target.at(0, 0) = 0.5f;
    target.at(0, 1) = 0.0f;
    // errors: {0.5, -3}
    Matrix grad;

    // MSE: mean(0.5*e^2) = (0.125 + 4.5) / 2
    EXPECT_NEAR(lossForward(LossKind::MSE, pred, target, 1.0, grad),
                (0.125 + 4.5) / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 0), 0.5 / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -3.0 / 2.0, 1e-6);

    // MAE: mean(|e|) = (0.5 + 3) / 2
    EXPECT_NEAR(lossForward(LossKind::MAE, pred, target, 1.0, grad),
                1.75, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -0.5, 1e-6);

    // Huber(delta=1): quadratic for |e|<=1, linear beyond.
    EXPECT_NEAR(lossForward(LossKind::Huber, pred, target, 1.0, grad),
                (0.5 * 0.25 + (3.0 - 0.5)) / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 0), 0.5 / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -1.0 / 2.0, 1e-6);
}

TEST(Loss, HuberEqualsMseInsideDelta)
{
    Rng rng(5);
    Matrix pred = randomMatrix(3, 4, rng, 0.4);
    Matrix target = randomMatrix(3, 4, rng, 0.4);
    double huber = lossValue(LossKind::Huber, pred, target, 10.0);
    double mse = lossValue(LossKind::MSE, pred, target, 10.0);
    EXPECT_NEAR(huber, mse, 1e-9);
}

TEST(Loss, NameRoundTrip)
{
    for (auto kind : {LossKind::MSE, LossKind::MAE, LossKind::Huber})
        EXPECT_EQ(lossFromName(lossName(kind)), kind);
    EXPECT_THROW(lossFromName("bogus"), FatalError);
}

TEST(Trainer, ParallelGatherIsBitwiseIdenticalToSerial)
{
    Rng rng(93);
    Matrix x = randomMatrix(300, 17, rng);
    Matrix y = randomMatrix(300, 5, rng);
    auto reader = residentReader(x, y);
    ShardBatchSource src(*reader, 0, x.rows());

    std::vector<size_t> idx(x.rows());
    std::iota(idx.begin(), idx.end(), size_t(0));
    Rng shuf(7);
    shuf.shuffle(idx);

    Matrix bxS, byS, bxP, byP;
    src.gather(idx, 10, 128, bxS, byS, nullptr);
    ParallelContext par(4);
    src.gather(idx, 10, 128, bxP, byP, &par);
    ASSERT_EQ(bxS.size(), bxP.size());
    for (size_t i = 0; i < bxS.size(); ++i)
        ASSERT_EQ(bxS.data()[i], bxP.data()[i]);
    for (size_t i = 0; i < byS.size(); ++i)
        ASSERT_EQ(byS.data()[i], byP.data()[i]);
}

TEST(Optimizer, SgdDescendsQuadratic)
{
    // Minimize f(w) = 0.5*||w - c||^2 by hand-feeding gradients.
    Matrix w(1, 3), g(1, 3), c(1, 3);
    c.at(0, 0) = 1.0f;
    c.at(0, 1) = -2.0f;
    c.at(0, 2) = 0.5f;
    SgdOptimizer opt(0.1, 0.9);
    opt.attach({&w}, {&g});
    for (int i = 0; i < 200; ++i) {
        for (size_t j = 0; j < 3; ++j)
            g.data()[j] = w.data()[j] - c.data()[j];
        opt.step();
    }
    EXPECT_LT(maxAbsDiff(w, c), 1e-3);
}

TEST(Optimizer, AdamDescendsQuadratic)
{
    Matrix w(1, 3), g(1, 3), c(1, 3);
    c.at(0, 0) = 2.0f;
    c.at(0, 1) = -1.0f;
    c.at(0, 2) = 4.0f;
    AdamOptimizer opt(0.05);
    opt.attach({&w}, {&g});
    for (int i = 0; i < 2000; ++i) {
        for (size_t j = 0; j < 3; ++j)
            g.data()[j] = w.data()[j] - c.data()[j];
        opt.step();
    }
    EXPECT_LT(maxAbsDiff(w, c), 1e-2);
}

TEST(Optimizer, StepDecaySchedule)
{
    StepDecaySchedule sched{1e-2, 0.1, 25};
    EXPECT_DOUBLE_EQ(sched.at(0), 1e-2);
    EXPECT_DOUBLE_EQ(sched.at(24), 1e-2);
    EXPECT_DOUBLE_EQ(sched.at(25), 1e-3);
    EXPECT_DOUBLE_EQ(sched.at(60), 1e-4);
}

TEST(Trainer, LearnsLinearMap)
{
    Rng rng(8);
    // Target function: y = A x with fixed A.
    Matrix a = randomMatrix(2, 6, rng);
    auto makeSet = [&](size_t n) {
        Matrix x = randomMatrix(n, 6, rng);
        Matrix y(n, 2);
        gemm(false, true, 1.0f, x, a, 0.0f, y);
        return std::pair{x, y};
    };
    auto [xTrain, yTrain] = makeSet(512);
    auto [xTest, yTest] = makeSet(128);

    Mlp net(6, {{32, Activation::ReLU}, {2, Activation::Identity}}, rng);
    TrainConfig cfg;
    cfg.epochs = 40;
    cfg.batchSize = 32;
    cfg.loss = LossKind::MSE;
    cfg.schedule = {5e-3, 0.5, 15};
    RegressionTrainer trainer(net, cfg);
    auto trainRows = residentReader(xTrain, yTrain);
    auto testRows = residentReader(xTest, yTest);
    ShardBatchSource trainSrc(*trainRows, 0, xTrain.rows());
    ShardBatchSource testSrc(*testRows, 0, xTest.rows());
    auto reports = trainer.fit(trainSrc, &testSrc, rng);

    ASSERT_EQ(reports.size(), 40u);
    EXPECT_LT(reports.back().trainLoss, 0.05 * reports.front().trainLoss);
    EXPECT_LT(reports.back().testLoss, 0.02);
}

TEST(Trainer, PartialFinalBatchTrains)
{
    // Dataset size deliberately not divisible by the batch size: the
    // final batch of every epoch is partial, exercising the
    // row-count shrink/grow path of the batch workspaces.
    Rng rng(29);
    Matrix a = randomMatrix(2, 5, rng);
    Matrix x = randomMatrix(131, 5, rng);
    Matrix y(131, 2);
    gemm(false, true, 1.0f, x, a, 0.0f, y);

    Mlp net(5, {{16, Activation::ReLU}, {2, Activation::Identity}}, rng);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batchSize = 32; // 131 = 4 * 32 + 3
    cfg.loss = LossKind::MSE;
    cfg.schedule = {5e-3, 0.5, 6};
    RegressionTrainer trainer(net, cfg);
    Rng trainRng(3);
    auto reader = residentReader(x, y);
    ShardBatchSource src(*reader, 0, x.rows());
    auto reports = trainer.fit(src, nullptr, trainRng);
    ASSERT_EQ(reports.size(), 12u);
    for (const auto &r : reports)
        EXPECT_TRUE(std::isfinite(r.trainLoss));
    EXPECT_LT(reports.back().trainLoss, reports.front().trainLoss);
}

TEST(Trainer, PartialFinalBatchDeterministic)
{
    Rng dataRng(31);
    Matrix x = randomMatrix(71, 4, dataRng);
    Matrix y = randomMatrix(71, 1, dataRng, 0.5);

    auto train = [&] {
        Rng rng(9);
        Mlp net(4, {{8, Activation::Tanh}, {1, Activation::Identity}},
                rng);
        TrainConfig cfg;
        cfg.epochs = 5;
        cfg.batchSize = 16; // 71 = 4 * 16 + 7
        cfg.loss = LossKind::MSE;
        RegressionTrainer trainer(net, cfg);
        Rng trainRng(5);
        auto reader = residentReader(x, y);
        ShardBatchSource src(*reader, 0, x.rows());
        return trainer.fit(src, nullptr, trainRng);
    };
    auto r1 = train();
    auto r2 = train();
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i)
        EXPECT_DOUBLE_EQ(r1[i].trainLoss, r2[i].trainLoss);
}

TEST(Dense, FusedBiasActivationMatchesUnfused)
{
    Rng rng(41);
    DenseLayer layer(6, 9, Activation::ReLU, rng);
    for (size_t c = 0; c < 9; ++c)
        layer.bias(0, c) = float(rng.uniformReal(-0.5, 0.5));
    Matrix x = randomMatrix(7, 6, rng);

    // Unfused reference: gemm, then bias, then activation.
    Matrix expect(7, 9);
    gemm(false, true, 1.0f, x, layer.weights, 0.0f, expect);
    for (size_t r = 0; r < 7; ++r)
        for (size_t c = 0; c < 9; ++c)
            expect(r, c) += layer.bias(0, c);
    applyActivation(Activation::ReLU, expect);

    const Matrix &got = layer.forward(x);
    EXPECT_EQ(maxAbsDiff(got, expect), 0.0);

    // Backward: fused dBias must equal the column sums of dZ.
    Matrix dOut = randomMatrix(7, 9, rng);
    Matrix dZ = dOut;
    applyActivationGrad(Activation::ReLU, expect, dZ, 0, 7);
    layer.zeroGrad();
    layer.backward(dOut);
    for (size_t c = 0; c < 9; ++c) {
        float colSum = 0.0f;
        for (size_t r = 0; r < 7; ++r)
            colSum += dZ(r, c);
        EXPECT_FLOAT_EQ(layer.dBias(0, c), colSum);
    }
}

/** True when every element of @p x and @p y has the same bits. */
bool
bitwiseEqual(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols()
           && std::equal(x.data(), x.data() + x.size(), y.data(),
                         [](float p, float q) {
                             return std::bit_cast<uint32_t>(p)
                                    == std::bit_cast<uint32_t>(q);
                         });
}

TEST(Mlp, ParallelContextBitwiseEqualsSerial)
{
    // The row-split training step must reproduce the serial path
    // (forward, lossForward, backwardInPlace after zeroGrad) bit for
    // bit: the loss, every dW and dB, and the weights after an SGD
    // step. Batches of 1 (one lane idle), 77 and 600 rows at 2 and 3
    // lanes; 3 lanes split the rows and the 7- and 4-wide layers
    // unevenly. The 64 x 128 and 128 x 96 layers run the blocked GEMM
    // tier, the narrow ones the plain-row tier, and each dW product
    // switches tier with the batch size.
    Rng rng(83);
    const Mlp init(64,
                   {{128, Activation::ReLU},
                    {96, Activation::Tanh},
                    {7, Activation::ReLU},
                    {4, Activation::Identity}},
                   rng);

    Rng dataRng(7);
    for (size_t rows : {1u, 77u, 600u}) {
        const Matrix x = randomMatrix(rows, 64, dataRng);
        const Matrix y = randomMatrix(rows, 4, dataRng, 3.0);
        for (auto kind : {LossKind::MSE, LossKind::MAE, LossKind::Huber}) {
            Mlp serial = init;
            Matrix grad;
            const double want =
                lossForward(kind, serial.forward(x), y, 1.0, grad);
            serial.zeroGrad();
            serial.backwardInPlace(grad);

            for (size_t lanes : {1u, 2u, 3u}) {
                const std::string where = "rows=" + std::to_string(rows)
                                          + " loss=" + lossName(kind)
                                          + " lanes="
                                          + std::to_string(lanes);
                Mlp split = init;
                ParallelContext ctx(lanes);
                const double got = split.trainStep(
                    x, y, kind, 1.0, lanes == 1 ? nullptr : &ctx);
                EXPECT_EQ(std::bit_cast<uint64_t>(got),
                          std::bit_cast<uint64_t>(want))
                    << where;
                auto gradsS = serial.grads();
                auto gradsP = split.grads();
                ASSERT_EQ(gradsS.size(), gradsP.size());
                for (size_t i = 0; i < gradsS.size(); ++i)
                    EXPECT_TRUE(bitwiseEqual(*gradsS[i], *gradsP[i]))
                        << where << " grad " << i;

                Mlp stepped = serial;
                SgdOptimizer steppedOpt(1e-2, 0.9);
                steppedOpt.attach(stepped.params(), stepped.grads());
                steppedOpt.step();
                SgdOptimizer splitOpt(1e-2, 0.9);
                splitOpt.attach(split.params(), split.grads());
                splitOpt.step();
                auto paramsS = stepped.params();
                auto paramsP = split.params();
                for (size_t i = 0; i < paramsS.size(); ++i)
                    EXPECT_TRUE(bitwiseEqual(*paramsS[i], *paramsP[i]))
                        << where << " param " << i;
            }

            // The row-split forward the trainer scores with.
            for (size_t lanes : {2u, 3u}) {
                Mlp split = init;
                ParallelContext ctx(lanes);
                EXPECT_TRUE(
                    bitwiseEqual(split.predict(x, &ctx), serial.forward(x)))
                    << "rows=" << rows << " lanes=" << lanes;
            }
        }
    }
}

TEST(Mlp, SaveLoadRoundTrip)
{
    Rng rng(13);
    Mlp net(7, {{9, Activation::ReLU}, {4, Activation::Tanh},
                {2, Activation::Identity}},
            rng);
    Matrix x = randomMatrix(3, 7, rng);
    Matrix before = net.forward(x);

    std::stringstream ss;
    net.save(ss);
    Mlp loaded = Mlp::load(ss);
    EXPECT_EQ(loaded.inputDim(), net.inputDim());
    EXPECT_EQ(loaded.outputDim(), net.outputDim());
    Matrix after = loaded.forward(x);
    EXPECT_LT(maxAbsDiff(before, after), 1e-7);
}

TEST(Mlp, SoftUpdateBlendsParameters)
{
    Rng rng(17);
    Mlp a(3, {{4, Activation::Identity}}, rng);
    Mlp b(3, {{4, Activation::Identity}}, rng);
    Mlp blended = a;
    blended.softUpdateFrom(b, 0.25f);
    // blended = 0.75 a + 0.25 b elementwise on every parameter.
    auto pa = a.params(), pb = b.params(), pc = blended.params();
    for (size_t p = 0; p < pa.size(); ++p)
        for (size_t i = 0; i < pa[p]->size(); ++i)
            EXPECT_NEAR(pc[p]->data()[i],
                        0.75f * pa[p]->data()[i] + 0.25f * pb[p]->data()[i],
                        1e-6);
}

TEST(Mlp, CopyParamsMakesIndependentClone)
{
    Rng rng(19);
    Mlp a(2, {{3, Activation::Identity}}, rng);
    Mlp b(2, {{3, Activation::Identity}}, rng);
    b.copyParamsFrom(a);
    Matrix x = randomMatrix(1, 2, rng);
    Matrix ya = a.forward(x);
    Matrix yb = b.forward(x);
    EXPECT_LT(maxAbsDiff(ya, yb), 1e-7);
    // Mutating the copy must not touch the original.
    b.params()[0]->data()[0] += 1.0f;
    Matrix ya2 = a.forward(x);
    EXPECT_LT(maxAbsDiff(ya, ya2), 1e-7);
}

/** A gradient query must leave every weight and bias gradient alone. */
TEST(Mlp, InputGradientMatchesBackwardAndSkipsWeightGradients)
{
    Rng rng(23);
    Mlp net(62, surrogateTopology({64, 128, 128, 64}, 12), rng);
    Matrix x = randomMatrix(7, 62, rng);
    Matrix dOut = randomMatrix(7, 12, rng);

    net.forward(x);
    net.zeroGrad();
    const Matrix expect = net.backwardInPlace(dOut);
    std::vector<Matrix> gradsBefore;
    for (Matrix *g : net.grads())
        gradsBefore.push_back(*g);

    net.forward(x);
    EXPECT_TRUE(bitwiseEqual(net.inputGradient(dOut), expect));
    const std::vector<Matrix *> gradsAfter = net.grads();
    for (size_t i = 0; i < gradsAfter.size(); ++i)
        EXPECT_TRUE(bitwiseEqual(*gradsAfter[i], gradsBefore[i]))
            << "grad " << i;
}

constexpr size_t kTensors = 3;
constexpr size_t kOutputs = kTensors * size_t(kNumMemLevels) + 3;
constexpr size_t kFeatures = 62;

/** Surrogate over @p net with non-trivial output whitening. */
Surrogate
makeSurrogate(Mlp net)
{
    std::vector<double> means(kOutputs), stds(kOutputs);
    for (size_t i = 0; i < kOutputs; ++i) {
        means[i] = 0.25 * double(i) - 1.0;
        stds[i] = 0.5 + 0.125 * double(i);
    }
    return Surrogate(
        std::move(net), FeatureTransform{0},
        Normalizer::fromMoments(std::vector<double>(kFeatures, 0.0),
                                std::vector<double>(kFeatures, 1.0)),
        Normalizer::fromMoments(means, stds), kTensors);
}

/**
 * The pre-freeze gradient query on an unfrozen network: forward, then
 * the full backward pass with weight gradients, from the constant
 * d(log EDP)/d(head) of the energy and cycles heads.
 */
Matrix
unfrozenGradient(Mlp &net, const Normalizer &outNorm, const Matrix &z,
                 std::vector<double> &preds)
{
    const Matrix &out = net.forward(z);
    const size_t ei = kTensors * size_t(kNumMemLevels), ci = ei + 2;
    Matrix head(z.rows(), kOutputs);
    preds.assign(z.rows(), 0.0);
    for (size_t r = 0; r < z.rows(); ++r) {
        const double logE =
            double(out(r, ei)) * outNorm.std(ei) + outNorm.mean(ei);
        const double logC =
            double(out(r, ci)) * outNorm.std(ci) + outNorm.mean(ci);
        preds[r] = std::exp(std::clamp(logE + logC, -60.0, 60.0));
        head(r, ei) = float(outNorm.std(ei));
        head(r, ci) = float(outNorm.std(ci));
    }
    net.zeroGrad();
    return net.backwardInPlace(head);
}

/**
 * The frozen surrogate's queries are bitwise equal to the unfrozen
 * forward + backward path, at the batch sizes MM (1), injection (2)
 * and MM-P (4) use, every other partial row group (3), and past MR (5,
 * and 7: a full row group plus 3 edge rows); on the fast preset's
 * topology and on one whose 2048-wide layer spans two NC column blocks
 * and several KC depth blocks.
 */
TEST(Surrogate, FrozenQueriesMatchUnfrozenPathBitwise)
{
    const std::vector<std::vector<size_t>> hiddens = {{64, 128, 128, 64},
                                                      {256, 2048, 64}};
    for (const auto &hidden : hiddens) {
        Rng rng(hidden.size());
        Mlp reference(kFeatures, surrogateTopology(hidden, kOutputs), rng);
        Surrogate frozen = makeSurrogate(reference);
        ASSERT_TRUE(frozen.net().frozen());
        ASSERT_FALSE(reference.frozen());
        for (size_t rows : {1u, 2u, 3u, 4u, 5u, 7u}) {
            Matrix z = randomMatrix(rows, kFeatures, rng);
            std::vector<double> expectPreds;
            const Matrix expect = unfrozenGradient(
                reference, frozen.outputNormalizer(), z, expectPreds);

            std::vector<double> preds;
            EXPECT_TRUE(bitwiseEqual(frozen.gradientBatch(z, preds), expect))
                << "hidden=" << hidden.size() << " rows=" << rows;
            EXPECT_EQ(preds, expectPreds);
            EXPECT_EQ(frozen.predictNormEdpBatch(z), expectPreds);
        }
    }
}

TEST(Surrogate, GradientQueriesLeaveWeightGradientsZero)
{
    Rng rng(5);
    Surrogate sur = makeSurrogate(
        Mlp(kFeatures, surrogateTopology({64, 128, 128, 64}, kOutputs), rng));
    std::vector<double> preds;
    for (size_t rows : {1u, 4u})
        sur.gradientBatch(randomMatrix(rows, kFeatures, rng), preds);
    for (size_t i = 0; i < sur.net().layerCount(); ++i) {
        const DenseLayer &layer = sur.net().layer(i);
        for (const Matrix *g : {&layer.dWeights, &layer.dBias})
            EXPECT_TRUE(std::all_of(g->data(), g->data() + g->size(),
                                    [](float v) { return v == 0.0f; }))
                << "layer " << i;
    }
}

/**
 * A copy (serve's per-request private copy) shares the master's packed
 * panels and stays correct once the master is gone.
 */
TEST(Surrogate, CopySharesPackedPanelsAndOutlivesOriginal)
{
    Rng rng(6);
    auto original = std::make_unique<Surrogate>(makeSurrogate(
        Mlp(kFeatures, surrogateTopology({64, 128, 128, 64}, kOutputs),
            rng)));
    Matrix z = randomMatrix(4, kFeatures, rng);
    std::vector<double> expectPreds;
    const Matrix expect = original->gradientBatch(z, expectPreds);

    Surrogate copy = *original;
    for (size_t i = 0; i < copy.net().layerCount(); ++i) {
        ASSERT_NE(copy.net().layer(i).packedWeights(), nullptr);
        EXPECT_EQ(copy.net().layer(i).packedWeights(),
                  original->net().layer(i).packedWeights())
            << "layer " << i;
    }
    original.reset();

    std::vector<double> preds;
    EXPECT_TRUE(bitwiseEqual(copy.gradientBatch(z, preds), expect));
    EXPECT_EQ(preds, expectPreds);
}

} // namespace
} // namespace mm
