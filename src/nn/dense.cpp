#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>

namespace mm {

DenseLayer::DenseLayer(size_t inDim, size_t outDim, Activation act_,
                       Rng &rng)
    : weights(outDim, inDim), bias(1, outDim), dWeights(outDim, inDim),
      dBias(1, outDim), act(act_)
{
    MM_ASSERT(inDim > 0 && outDim > 0, "degenerate dense layer");
    // He for ReLU, Xavier otherwise.
    double stddev = act == Activation::ReLU
                        ? std::sqrt(2.0 / double(inDim))
                        : std::sqrt(1.0 / double(inDim));
    for (size_t i = 0; i < weights.size(); ++i)
        weights.data()[i] = float(rng.gaussian(0.0, stddev));
}

const Matrix &
DenseLayer::forward(const Matrix &x)
{
    if (packed == nullptr)
        cachedIn = x;
    cachedOut.ensureShape(x.rows(), outDim());
    forwardRows(x, 0, x.rows());
    return cachedOut;
}

Matrix
DenseLayer::backward(const Matrix &dOut)
{
    Matrix dIn;
    backwardInto(dOut, dIn);
    return dIn;
}

void
DenseLayer::inputGradientInto(const Matrix &dOut, Matrix &dIn)
{
    MM_ASSERT(dOut.rows() == cachedOut.rows()
                  && dOut.cols() == cachedOut.cols(),
              "dense backward shape mismatch");
    preactGrad.ensureShape(dOut.rows(), dOut.cols());
    activationGradRows(dOut, 0, dOut.rows());
    dIn.ensureShape(dOut.rows(), inDim());
    inputGradRows(dIn, 0, dOut.rows());
}

void
DenseLayer::backwardInto(const Matrix &dOut, Matrix &dIn)
{
    MM_ASSERT(packed == nullptr, "a frozen layer has no weight gradients");
    inputGradientInto(dOut, dIn);
    paramGradRows(cachedIn, 0, outDim());
}

void
DenseLayer::shapeBatch(size_t rows)
{
    cachedOut.ensureShape(rows, outDim());
    preactGrad.ensureShape(rows, outDim());
}

void
DenseLayer::forwardRows(const Matrix &x, size_t r0, size_t r1)
{
    MM_ASSERT(x.cols() == inDim(), "dense input width mismatch");
    if (packed != nullptr)
        gemmRows(1.0f, x, packed->forward, 0.0f, cachedOut, r0, r1);
    else
        gemmRows(false, true, 1.0f, x, weights, 0.0f, cachedOut, r0, r1);
    applyBiasActivation(act, bias, cachedOut, r0, r1);
}

void
DenseLayer::activationGradRows(const Matrix &dOut, size_t r0, size_t r1)
{
    MM_ASSERT(dOut.rows() == preactGrad.rows()
                  && dOut.cols() == preactGrad.cols(),
              "dense backward shape mismatch");
    if (&dOut != &preactGrad)
        std::copy(dOut.data() + r0 * dOut.cols(),
                  dOut.data() + r1 * dOut.cols(),
                  preactGrad.data() + r0 * dOut.cols());
    applyActivationGrad(act, cachedOut, preactGrad, r0, r1);
}

void
DenseLayer::inputGradRows(Matrix &dIn, size_t r0, size_t r1) const
{
    if (packed != nullptr)
        gemmRows(1.0f, preactGrad, packed->inputGrad, 0.0f, dIn, r0, r1);
    else
        gemmRows(false, false, 1.0f, preactGrad, weights, 0.0f, dIn, r0,
                 r1);
}

void
DenseLayer::paramGradRows(const Matrix &x, size_t o0, size_t o1)
{
    MM_ASSERT(packed == nullptr, "a frozen layer has no weight gradients");
    const size_t cols = outDim();
    float *db = dBias.data();
    for (size_t r = 0; r < preactGrad.rows(); ++r) {
        const float *g = preactGrad.data() + r * cols;
        for (size_t c = o0; c < o1; ++c)
            db[c] += g[c];
    }
    gemmRows(true, false, 1.0f, preactGrad, x, 1.0f, dWeights, o0, o1);
}

void
DenseLayer::zeroGrad()
{
    dWeights.zero();
    dBias.zero();
}

void
DenseLayer::freeze()
{
    if (packed == nullptr)
        packed = std::make_shared<const PackedWeights>(
            PackedWeights{PackedB(weights, true), PackedB(weights, false)});
}

} // namespace mm
