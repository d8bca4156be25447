/**
 * @file
 * Multi-layer perceptron.
 *
 * The differentiable function approximator used both as the paper's
 * surrogate cost model (Section 4.1) and as the actor/critic networks of
 * the DDPG baseline (Appendix A). Besides the usual weight gradients,
 * backward() returns the gradient with respect to the *input* — the
 * quantity Phase 2 descends on.
 */
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/dense.hpp"
#include "nn/loss.hpp"

namespace mm {

class ParallelContext;

/** Width and nonlinearity of one MLP layer. */
struct LayerSpec
{
    size_t width;
    Activation act;
};

/** A stack of DenseLayers with value semantics (copyable for target nets). */
class Mlp
{
  public:
    /** Build from input width and per-layer specs; weights drawn from rng. */
    Mlp(size_t inputDim, const std::vector<LayerSpec> &specs, Rng &rng);

    /** Forward pass over a batch (rows = samples). */
    const Matrix &forward(const Matrix &x);

    /**
     * Forward pass over @p x with its rows split across @p par's lanes
     * (nullptr = serial). Bitwise equal to forward(x) at any lane
     * count, but no layer keeps a copy of its input, so no backward
     * pass may follow. The result stays valid until the next pass.
     */
    const Matrix &predict(const Matrix &x, ParallelContext *par);

    /**
     * One training step's gradients for the batch (@p x, @p y): every
     * weight and bias gradient is zeroed, then set to d(loss)/d(param)
     * of the mean @p loss, which is returned. The caller steps its
     * optimizer afterwards.
     *
     * The batch's rows are split across @p par's lanes (nullptr =
     * serial) in two fork-joins. In the first, each lane runs its rows
     * forward through every layer, takes their elementwise loss values
     * and gradients, and runs them back down to layer 1 (dZ and dX);
     * the loss values are then summed serially in element order. In the
     * second, each lane forms dB and dW for its share of every layer's
     * output units, each dB column summed over all rows in row order.
     * Every element keeps the arithmetic of the serial path, so the
     * loss and every gradient are bitwise equal at any lane count to
     * forward(), lossForward() and backwardInPlace() after zeroGrad().
     */
    double trainStep(const Matrix &x, const Matrix &y, LossKind loss,
                     double huberDelta, ParallelContext *par);

    /**
     * Backward pass from dL/d(output); accumulates weight gradients and
     * returns dL/d(input). Must follow a forward() on the same batch.
     */
    Matrix backward(const Matrix &dOut);

    /**
     * Allocation-free backward: returns dL/d(input) as a reference to an
     * internal workspace, valid until the next backward call. The hot
     * path for Phase-2 batched gradient queries.
     */
    const Matrix &backwardInPlace(const Matrix &dOut);

    /**
     * dL/d(input) alone: per layer dZ = act'(out) * dOut, dX = dZ * W,
     * with no weight or bias gradients formed or touched. Bitwise equal
     * to the input gradient backwardInPlace() returns; same lifetime
     * and ordering rules. The Phase-2 gradient query.
     */
    const Matrix &inputGradient(const Matrix &dOut);

    /** Clear all accumulated gradients. */
    void zeroGrad();

    /**
     * Freeze every layer for inference (DenseLayer::freeze): weights
     * are packed once and shared by copies of this network, forward()
     * stops caching layer inputs, and only inputGradient() remains of
     * the backward passes. The parameters must not change afterwards.
     */
    void freeze();
    bool frozen() const { return layers.front().frozen(); }

    /**
     * Mutable views of every parameter / gradient matrix, in order.
     * params() is unavailable once frozen.
     */
    std::vector<Matrix *> params();
    std::vector<Matrix *> grads();

    size_t inputDim() const { return inDim; }
    size_t outputDim() const { return layers.back().outDim(); }
    size_t layerCount() const { return layers.size(); }
    const DenseLayer &layer(size_t i) const { return layers.at(i); }

    /** Total number of scalar parameters. */
    size_t paramCount() const;

    /** Polyak averaging: this = tau * src + (1 - tau) * this. */
    void softUpdateFrom(const Mlp &src, float tau);

    /** Hard copy of parameters from a same-topology network. */
    void copyParamsFrom(const Mlp &src);

    /** Serialize topology + weights. */
    void save(std::ostream &os) const;

    /** Deserialize a network written by save(). */
    static Mlp load(std::istream &is);

  private:
    using LayerBackward = void (DenseLayer::*)(const Matrix &, Matrix &);

    /** Run @p step from the last layer to the first, ping-ponging. */
    const Matrix &backwardPass(const Matrix &dOut, LayerBackward step);

    /** Rows [r0, r1) of @p x through every layer (shapes already set). */
    void forwardRows(const Matrix &x, size_t r0, size_t r1);

    size_t inDim;
    std::vector<DenseLayer> layers;
    Matrix gradPing; ///< backward ping-pong workspace
    Matrix gradPong;
    std::vector<double> lossValues; ///< trainStep's per-element losses
};

} // namespace mm
