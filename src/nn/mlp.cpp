#include "nn/mlp.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "common/parallel_context.hpp"
#include "common/string_util.hpp"

namespace mm {

namespace {

constexpr uint32_t kMagic = 0x4d4d4c50; // "MMLP"

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    MM_ASSERT(bool(is), "truncated MLP stream");
    return v;
}

void
writeMatrix(std::ostream &os, const Matrix &m)
{
    writePod<uint64_t>(os, m.rows());
    writePod<uint64_t>(os, m.cols());
    os.write(reinterpret_cast<const char *>(m.data()),
             std::streamsize(m.size() * sizeof(float)));
}

void
readMatrixInto(std::istream &is, Matrix &m)
{
    auto rows = readPod<uint64_t>(is);
    auto cols = readPod<uint64_t>(is);
    MM_ASSERT(rows == m.rows() && cols == m.cols(),
              "MLP stream shape mismatch");
    is.read(reinterpret_cast<char *>(m.data()),
            std::streamsize(m.size() * sizeof(float)));
    MM_ASSERT(bool(is), "truncated MLP stream");
}

/** Runs fn(lane, lanes) once per lane of @p par; once inline if null. */
template <class Fn>
void
forLanes(ParallelContext *par, const Fn &fn)
{
    const size_t lanes = par != nullptr ? par->lanes() : 1;
    if (lanes == 1) {
        fn(size_t(0), size_t(1));
        return;
    }
    par->parallelFor(lanes, [&](size_t lane) { fn(lane, lanes); });
}

/** Lane @p lane's share [n * lane / lanes, n * (lane + 1) / lanes). */
std::pair<size_t, size_t>
laneShare(size_t n, size_t lane, size_t lanes)
{
    return {n * lane / lanes, n * (lane + 1) / lanes};
}

} // namespace

Mlp::Mlp(size_t inputDim, const std::vector<LayerSpec> &specs, Rng &rng)
    : inDim(inputDim)
{
    MM_ASSERT(!specs.empty(), "MLP needs at least one layer");
    size_t prev = inputDim;
    layers.reserve(specs.size());
    for (const auto &spec : specs) {
        layers.emplace_back(prev, spec.width, spec.act, rng);
        prev = spec.width;
    }
}

const Matrix &
Mlp::forward(const Matrix &x)
{
    const Matrix *cur = &x;
    for (auto &layer : layers)
        cur = &layer.forward(*cur);
    return *cur;
}

void
Mlp::forwardRows(const Matrix &x, size_t r0, size_t r1)
{
    const Matrix *cur = &x;
    for (auto &layer : layers) {
        layer.forwardRows(*cur, r0, r1);
        cur = &layer.output();
    }
}

const Matrix &
Mlp::predict(const Matrix &x, ParallelContext *par)
{
    MM_ASSERT(x.cols() == inDim, "MLP input width mismatch");
    for (auto &layer : layers)
        layer.shapeBatch(x.rows());
    forLanes(par, [&](size_t lane, size_t lanes) {
        auto [r0, r1] = laneShare(x.rows(), lane, lanes);
        if (r0 < r1)
            forwardRows(x, r0, r1);
    });
    return layers.back().output();
}

double
Mlp::trainStep(const Matrix &x, const Matrix &y, LossKind loss,
               double huberDelta, ParallelContext *par)
{
    MM_ASSERT(!frozen(), "a frozen MLP cannot train");
    MM_ASSERT(x.cols() == inDim && y.cols() == outputDim()
                  && y.rows() == x.rows() && x.rows() > 0,
              "training batch shape mismatch");
    const size_t m = x.rows();
    for (auto &layer : layers)
        layer.shapeBatch(m);
    zeroGrad();
    DenseLayer &top = layers.back();
    const size_t outCols = top.outDim();
    lossValues.resize(m * outCols);

    // Region A: each lane's rows forward, through the loss and back
    // down to layer 1. Layer 0's dX is never read in training.
    forLanes(par, [&](size_t lane, size_t lanes) {
        auto [r0, r1] = laneShare(m, lane, lanes);
        if (r0 == r1)
            return;
        forwardRows(x, r0, r1);
        lossElements(loss, top.output(), y, huberDelta, r0 * outCols,
                     r1 * outCols, lossValues.data(), &top.dZ());
        for (size_t i = layers.size(); i-- > 0;) {
            layers[i].activationGradRows(layers[i].dZ(), r0, r1);
            if (i > 0)
                layers[i].inputGradRows(layers[i - 1].dZ(), r0, r1);
        }
    });
    const double mean = lossMean(lossValues.data(), lossValues.size());

    // Region B: each lane's output units of every layer's dB and dW.
    forLanes(par, [&](size_t lane, size_t lanes) {
        for (size_t i = 0; i < layers.size(); ++i) {
            auto [o0, o1] = laneShare(layers[i].outDim(), lane, lanes);
            if (o0 < o1)
                layers[i].paramGradRows(i == 0 ? x : layers[i - 1].output(),
                                        o0, o1);
        }
    });
    return mean;
}

Matrix
Mlp::backward(const Matrix &dOut)
{
    return backwardInPlace(dOut);
}

const Matrix &
Mlp::backwardInPlace(const Matrix &dOut)
{
    return backwardPass(dOut, &DenseLayer::backwardInto);
}

const Matrix &
Mlp::inputGradient(const Matrix &dOut)
{
    return backwardPass(dOut, &DenseLayer::inputGradientInto);
}

const Matrix &
Mlp::backwardPass(const Matrix &dOut, LayerBackward step)
{
    // Alternate between the two workspaces so no layer reads and writes
    // the same buffer.
    const Matrix *grad = &dOut;
    Matrix *next = &gradPing;
    for (size_t i = layers.size(); i > 0; --i) {
        (layers[i - 1].*step)(*grad, *next);
        grad = next;
        next = next == &gradPing ? &gradPong : &gradPing;
    }
    return *grad;
}

void
Mlp::zeroGrad()
{
    for (auto &layer : layers)
        layer.zeroGrad();
}

void
Mlp::freeze()
{
    for (auto &layer : layers)
        layer.freeze();
}

std::vector<Matrix *>
Mlp::params()
{
    MM_ASSERT(!frozen(), "a frozen MLP's parameters are read-only");
    std::vector<Matrix *> out;
    for (auto &layer : layers) {
        out.push_back(&layer.weights);
        out.push_back(&layer.bias);
    }
    return out;
}

std::vector<Matrix *>
Mlp::grads()
{
    std::vector<Matrix *> out;
    for (auto &layer : layers) {
        out.push_back(&layer.dWeights);
        out.push_back(&layer.dBias);
    }
    return out;
}

size_t
Mlp::paramCount() const
{
    size_t count = 0;
    for (const auto &layer : layers)
        count += layer.weights.size() + layer.bias.size();
    return count;
}

void
Mlp::softUpdateFrom(const Mlp &src, float tau)
{
    MM_ASSERT(!frozen(), "a frozen MLP's parameters are read-only");
    MM_ASSERT(layers.size() == src.layers.size(), "topology mismatch");
    for (size_t i = 0; i < layers.size(); ++i) {
        auto blend = [tau](Matrix &dst, const Matrix &s) {
            MM_ASSERT(dst.size() == s.size(), "topology mismatch");
            for (size_t j = 0; j < dst.size(); ++j)
                dst.data()[j] =
                    tau * s.data()[j] + (1.0f - tau) * dst.data()[j];
        };
        blend(layers[i].weights, src.layers[i].weights);
        blend(layers[i].bias, src.layers[i].bias);
    }
}

void
Mlp::copyParamsFrom(const Mlp &src)
{
    softUpdateFrom(src, 1.0f);
}

void
Mlp::save(std::ostream &os) const
{
    writePod<uint32_t>(os, kMagic);
    writePod<uint64_t>(os, inDim);
    writePod<uint64_t>(os, layers.size());
    for (const auto &layer : layers) {
        writePod<uint64_t>(os, layer.outDim());
        writePod<uint8_t>(os, uint8_t(layer.activation()));
    }
    for (const auto &layer : layers) {
        writeMatrix(os, layer.weights);
        writeMatrix(os, layer.bias);
    }
}

Mlp
Mlp::load(std::istream &is)
{
    auto magic = readPod<uint32_t>(is);
    MM_ASSERT(magic == kMagic, "bad MLP stream magic");
    auto inputDim = readPod<uint64_t>(is);
    auto nLayers = readPod<uint64_t>(is);
    std::vector<LayerSpec> specs;
    for (uint64_t i = 0; i < nLayers; ++i) {
        auto width = readPod<uint64_t>(is);
        auto act = Activation(readPod<uint8_t>(is));
        specs.push_back({size_t(width), act});
    }
    Rng throwaway(0);
    Mlp net(size_t(inputDim), specs, throwaway);
    for (auto &layer : net.layers) {
        readMatrixInto(is, layer.weights);
        readMatrixInto(is, layer.bias);
    }
    return net;
}

} // namespace mm
