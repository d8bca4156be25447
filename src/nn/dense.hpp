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

/**
 * y = act(x * W^T + b).
 *
 * Weights are stored out x in. forward() caches a copy of its input and
 * its output so backward can form weight gradients and the input
 * gradient (the latter is what makes the surrogate differentiable with
 * respect to candidate mappings, the core mechanism of the paper).
 *
 * Each pass has one body, a row-range piece: forwardRows() (rows of the
 * output), activationGradRows() and inputGradRows() (rows of dZ and
 * dX) and paramGradRows() (output units of dW and dB). forward(),
 * inputGradientInto() and backwardInto() are their whole-batch calls.
 * Disjoint ranges of one piece touch disjoint memory, so a caller may
 * run them on different threads (Mlp::trainStep), bitwise equal to the
 * whole-batch call.
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

    /**
     * Shape output() and dZ() for a batch of @p rows, ahead of the
     * row-range pieces (which never reshape: they may share the
     * buffers across threads).
     */
    void shapeBatch(size_t rows);

    /**
     * Rows [r0, r1) of the forward pass over @p x into output(). @p x is
     * read in place and not cached, so only the pieces below, given the
     * same x, may follow.
     */
    void forwardRows(const Matrix &x, size_t r0, size_t r1);

    /**
     * Rows [r0, r1) of dZ = dOut * act'(output()) into dZ(). @p dOut may
     * be dZ() itself (the gradient is then scaled in place).
     */
    void activationGradRows(const Matrix &dOut, size_t r0, size_t r1);

    /** Rows [r0, r1) of dL/dx = dZ * W into @p dIn (already shaped). */
    void inputGradRows(Matrix &dIn, size_t r0, size_t r1) const;

    /**
     * Output units [o0, o1) of the parameter gradients, from dZ() and
     * the layer input @p x: dB[c] += dZ[r][c] over rows r in order from
     * 0, and rows [o0, o1) of dW += dZ^T * x.
     */
    void paramGradRows(const Matrix &x, size_t o0, size_t o1);

    /** The last forward pass's output. */
    const Matrix &output() const { return cachedOut; }

    /** The pre-activation gradient of the last backward pass. */
    Matrix &dZ() { return preactGrad; }

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

    size_t inDim() const { return weights.cols(); }
    size_t outDim() const { return weights.rows(); }
    Activation activation() const { return act; }

    Matrix weights; ///< out x in
    Matrix bias;    ///< 1 x out
    Matrix dWeights;
    Matrix dBias;

  private:
    Activation act;
    std::shared_ptr<const PackedWeights> packed; ///< set once frozen
    Matrix cachedIn;
    Matrix cachedOut;
    Matrix preactGrad; ///< dZ, the pre-activation gradient
};

} // namespace mm
