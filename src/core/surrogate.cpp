#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/mapped_file.hpp"
#include "core/shard_store.hpp"

namespace mm {

namespace {

constexpr uint32_t kMagic = 0x4d4d5348; // "MMSH" (log-space format)
constexpr uint32_t kFormatVersion = 2;  // 2: checksummed envelope

/** Keep exp() of predicted logs finite even far out of distribution. */
double
safeExp(double logValue)
{
    return std::exp(std::clamp(logValue, -60.0, 60.0));
}

} // namespace

Surrogate::Surrogate(Mlp net, FeatureTransform transform_,
                     Normalizer inputNorm_, Normalizer outputNorm_,
                     size_t tensorCount)
    : mlp(std::move(net)), transform(transform_),
      inputNorm(std::move(inputNorm_)), outputNorm(std::move(outputNorm_)),
      tensors(tensorCount)
{
    MM_ASSERT(mlp.inputDim() == inputNorm.dim(),
              "surrogate input arity mismatch");
    MM_ASSERT(mlp.outputDim() == outputNorm.dim(),
              "surrogate output arity mismatch");
    MM_ASSERT(transform.logPrefix <= inputNorm.dim(),
              "transform prefix out of range");
    if (tensors > 0) {
        MM_ASSERT(outputNorm.dim()
                      == tensors * size_t(kNumMemLevels) + 3,
                  "meta-stat layout mismatch");
    } else {
        MM_ASSERT(outputNorm.dim() == 1, "direct-EDP model must be 1-D");
    }
    mlp.freeze();
}

std::vector<double>
Surrogate::normalizeInput(std::span<const double> raw) const
{
    std::vector<double> z(raw.size());
    normalizeInputInto(raw, z);
    return z;
}

void
Surrogate::normalizeInputInto(std::span<const double> raw,
                              std::span<double> out) const
{
    MM_ASSERT(raw.size() == out.size(), "feature arity mismatch");
    if (out.data() != raw.data())
        std::copy(raw.begin(), raw.end(), out.begin());
    transform.apply(out);
    inputNorm.applyInto(out, out);
}

std::vector<double>
Surrogate::denormalizeInput(std::span<const double> z) const
{
    std::vector<double> raw(z.size());
    denormalizeInputInto(z, raw);
    return raw;
}

void
Surrogate::denormalizeInputInto(std::span<const double> z,
                                std::span<double> out) const
{
    inputNorm.invertInto(z, out);
    transform.invert(out);
}

void
Surrogate::packInputRow(std::span<const double> zFeatures)
{
    MM_ASSERT(zFeatures.size() == featureCount(),
              "surrogate feature arity mismatch");
    inputRow.ensureShape(1, zFeatures.size());
    for (size_t i = 0; i < zFeatures.size(); ++i)
        inputRow(0, i) = float(zFeatures[i]);
}

const Matrix &
Surrogate::forwardOne(std::span<const double> zFeatures)
{
    packInputRow(zFeatures);
    return mlp.forward(inputRow);
}

double
Surrogate::headEdp(const Matrix &out, size_t r) const
{
    if (tensors == 0) {
        double logEdp = double(out(r, 0)) * outputNorm.std(0)
                        + outputNorm.mean(0);
        return safeExp(logEdp);
    }
    const size_t ei = totalEnergyIdx();
    const size_t ci = cyclesIdx();
    double logE = double(out(r, ei)) * outputNorm.std(ei)
                  + outputNorm.mean(ei);
    double logC = double(out(r, ci)) * outputNorm.std(ci)
                  + outputNorm.mean(ci);
    return safeExp(logE + logC);
}

double
Surrogate::predictNormEdp(std::span<const double> zFeatures)
{
    return headEdp(forwardOne(zFeatures), 0);
}

std::vector<double>
Surrogate::predictNormEdpBatch(const Matrix &zRows)
{
    std::vector<double> preds;
    predictNormEdpBatch(zRows, preds);
    return preds;
}

void
Surrogate::predictNormEdpBatch(const Matrix &zRows,
                               std::vector<double> &predsOut)
{
    MM_ASSERT(zRows.cols() == featureCount(),
              "surrogate feature arity mismatch");
    const Matrix &out = mlp.forward(zRows);
    predsOut.resize(zRows.rows());
    for (size_t r = 0; r < predsOut.size(); ++r)
        predsOut[r] = headEdp(out, r);
}

const Matrix &
Surrogate::gradientBatch(const Matrix &zRows, std::vector<double> &predsOut)
{
    MM_ASSERT(zRows.cols() == featureCount(),
              "surrogate feature arity mismatch");
    const Matrix &out = mlp.forward(zRows);
    const size_t rows = zRows.rows();
    headGrad.ensureShape(rows, outputCount());
    headGrad.zero();
    predsOut.assign(rows, 0.0);

    // Outputs are whitened *logs*, so d(log EDP)/d(head) is constant:
    // the head's training-set standard deviation.
    for (size_t r = 0; r < rows; ++r) {
        predsOut[r] = headEdp(out, r);
        if (tensors == 0) {
            headGrad(r, 0) = float(outputNorm.std(0));
        } else {
            headGrad(r, totalEnergyIdx()) =
                float(outputNorm.std(totalEnergyIdx()));
            headGrad(r, cyclesIdx()) = float(outputNorm.std(cyclesIdx()));
        }
    }
    return mlp.inputGradient(headGrad);
}

double
Surrogate::gradient(std::span<const double> zFeatures,
                    std::vector<double> &gradOut)
{
    packInputRow(zFeatures);
    std::vector<double> preds;
    const Matrix &dIn = gradientBatch(inputRow, preds);
    gradOut.assign(featureCount(), 0.0);
    for (size_t i = 0; i < featureCount(); ++i)
        gradOut[i] = double(dIn(0, i));
    return preds[0];
}

std::vector<double>
Surrogate::predictMetaStats(std::span<const double> zFeatures)
{
    const Matrix &out = forwardOne(zFeatures);
    std::vector<double> z(outputCount());
    for (size_t i = 0; i < z.size(); ++i)
        z[i] = double(out(0, i));
    std::vector<double> logs = outputNorm.invert(z);
    for (auto &v : logs)
        v = safeExp(v);
    return logs;
}

void
Surrogate::save(std::ostream &os) const
{
    std::ostringstream body(std::ios::binary);
    uint64_t t = tensors;
    uint64_t prefix = transform.logPrefix;
    body.write(reinterpret_cast<const char *>(&t), sizeof(t));
    body.write(reinterpret_cast<const char *>(&prefix), sizeof(prefix));
    inputNorm.save(body);
    outputNorm.save(body);
    mlp.save(body);
    writeChecksummedBlob(os, kMagic, kFormatVersion, body.str());
}

std::optional<Surrogate>
Surrogate::tryLoad(std::span<const char> bytes)
{
    auto body =
        readChecksummedBlobView(bytes, kMagic, kFormatVersion, nullptr);
    if (!body)
        return std::nullopt;
    // The checksum pass vouches for the bytes, so plain deserialization
    // from here on cannot see torn or flipped content. MemoryIStream
    // reads straight out of the (mapped) image: the only copies left
    // are the memcpys into the weight matrices themselves.
    MemoryIStream bs(*body);
    uint64_t t = 0;
    uint64_t prefix = 0;
    bs.read(reinterpret_cast<char *>(&t), sizeof(t));
    bs.read(reinterpret_cast<char *>(&prefix), sizeof(prefix));
    if (!bs)
        return std::nullopt;
    Normalizer in = Normalizer::load(bs);
    Normalizer out = Normalizer::load(bs);
    Mlp net = Mlp::load(bs);
    return Surrogate(std::move(net), FeatureTransform{size_t(prefix)},
                     std::move(in), std::move(out), size_t(t));
}

} // namespace mm
