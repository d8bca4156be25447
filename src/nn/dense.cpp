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
    MM_ASSERT(x.cols() == inDim(), "dense input width mismatch");
    cachedOut.ensureShape(x.rows(), outDim());
    if (packed != nullptr) {
        gemm(1.0f, x, packed->forward, 0.0f, cachedOut, gemmPool);
    } else {
        cachedIn = x;
        gemm(false, true, 1.0f, x, weights, 0.0f, cachedOut, gemmPool);
    }
    applyBiasActivation(act, bias, cachedOut);
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
    // dZ = dOut * act'(out); same per-element arithmetic as the fused
    // prologue of backwardInto, minus the bias-gradient sum.
    scratch.ensureShape(dOut.rows(), dOut.cols());
    std::copy(dOut.data(), dOut.data() + dOut.size(), scratch.data());
    applyActivationGrad(act, cachedOut, scratch);

    // dX = dZ * W
    dIn.ensureShape(scratch.rows(), inDim());
    if (packed != nullptr)
        gemm(1.0f, scratch, packed->inputGrad, 0.0f, dIn, gemmPool);
    else
        gemm(false, false, 1.0f, scratch, weights, 0.0f, dIn, gemmPool);
}

void
DenseLayer::backwardInto(const Matrix &dOut, Matrix &dIn)
{
    MM_ASSERT(packed == nullptr, "a frozen layer has no weight gradients");
    MM_ASSERT(dOut.rows() == cachedOut.rows()
                  && dOut.cols() == cachedOut.cols(),
              "dense backward shape mismatch");
    // dZ = dOut * act'(out) and dB += column-sum(dZ), one fused pass.
    applyActivationGradBias(act, cachedOut, dOut, scratch, dBias);

    // dW += dZ^T * x
    gemm(true, false, 1.0f, scratch, cachedIn, 1.0f, dWeights, gemmPool);

    // dX = dZ * W
    dIn.ensureShape(scratch.rows(), inDim());
    gemm(false, false, 1.0f, scratch, weights, 0.0f, dIn, gemmPool);
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
