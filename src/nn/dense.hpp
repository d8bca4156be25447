/**
 * @file
 * Fully-connected layer with fused activation.
 */
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace mm {

class ThreadPool;

/**
 * y = act(x * W^T + b).
 *
 * Weights are stored out x in. The layer caches its input and output
 * during forward so backward can form weight gradients and the input
 * gradient (the latter is what makes the surrogate differentiable with
 * respect to candidate mappings, the core mechanism of the paper).
 *
 * A frozen layer (see freeze()) serves inference only: its weights are
 * packed once for the GEMM, forward keeps no copy of its input, and
 * only the input gradient is available.
 */
class DenseLayer
{
  public:
    /**
     * He-initialize (ReLU) or Xavier-initialize (otherwise) the weights.
     */
    DenseLayer(size_t inDim, size_t outDim, Activation act, Rng &rng);

    /** Forward pass; result stays valid until the next forward. */
    const Matrix &forward(const Matrix &x);

    /**
     * dL/dx only, from dL/dy (post-activation), written into @p dIn;
     * weight and bias gradients are left untouched. Must follow a
     * forward() on the same batch; @p dIn must not alias @p dOut.
     */
    void inputGradientInto(const Matrix &dOut, Matrix &dIn);

    /**
     * Backward pass from dL/dy (post-activation). Accumulates dW, dB and
     * returns dL/dx.
     */
    Matrix backward(const Matrix &dOut);

    /**
     * Allocation-free backward: writes dL/dx into @p dIn (reshaped as
     * needed). @p dIn must not alias @p dOut.
     */
    void backwardInto(const Matrix &dOut, Matrix &dIn);

    /** Clear accumulated gradients. */
    void zeroGrad();

    /**
     * Pack W^T (forward) and W (input gradient) once, bitwise-equivalent
     * to packing them per call. From here on the weights must not
     * change and backward() is unavailable. Copies of the layer share
     * the packed panels.
     */
    void freeze();
    bool frozen() const { return packed != nullptr; }

    /** Immutable GEMM operands of a frozen layer. */
    struct PackedWeights
    {
        PackedB forward;   ///< op(B) = W^T
        PackedB inputGrad; ///< op(B) = W
    };

    /** The panels this layer shares with its copies; null until frozen. */
    const PackedWeights *packedWeights() const { return packed.get(); }

    /**
     * Use @p pool for the layer's GEMMs (nullptr = serial). Results are
     * bitwise identical at any lane count.
     */
    void setPool(ThreadPool *pool) { gemmPool = pool; }

    size_t inDim() const { return weights.cols(); }
    size_t outDim() const { return weights.rows(); }
    Activation activation() const { return act; }

    Matrix weights; ///< out x in
    Matrix bias;    ///< 1 x out
    Matrix dWeights;
    Matrix dBias;

  private:
    Activation act;
    ThreadPool *gemmPool = nullptr; ///< not owned; nullptr = serial
    std::shared_ptr<const PackedWeights> packed; ///< set once frozen
    Matrix cachedIn;
    Matrix cachedOut;
    Matrix scratch; ///< pre-activation gradient workspace
};

} // namespace mm
