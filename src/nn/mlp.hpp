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
     * Run every layer's GEMMs on @p ctx's pool (nullptr = serial).
     * Deterministic: results are bitwise identical at any lane count.
     * Copies of the network share the pool pointer, so the context must
     * outlive them all (or be reset with nullptr first).
     */
    void setParallel(ParallelContext *ctx);

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

    size_t inDim;
    std::vector<DenseLayer> layers;
    Matrix gradPing; ///< backward ping-pong workspace
    Matrix gradPong;
};

} // namespace mm
