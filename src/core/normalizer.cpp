#include "core/normalizer.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace mm {

Normalizer
Normalizer::fit(const Matrix &data)
{
    MM_ASSERT(data.rows() > 0, "cannot fit normalizer on empty data");
    StreamingNormalizerFit stream(data.cols());
    for (size_t r = 0; r < data.rows(); ++r)
        stream.pushRow(data.row(r));
    return stream.finish();
}

Normalizer
Normalizer::fromMoments(std::vector<double> means, std::vector<double> stds)
{
    MM_ASSERT(means.size() == stds.size(), "moments arity mismatch");
    Normalizer n;
    n.means = std::move(means);
    n.stds = std::move(stds);
    for (double &s : n.stds)
        s = std::max(s, 1e-8);
    return n;
}

Normalizer
StreamingNormalizerFit::finish() const
{
    MM_ASSERT(rows() > 0, "cannot fit normalizer on empty stream");
    std::vector<double> means(stats.size()), stds(stats.size());
    for (size_t c = 0; c < stats.size(); ++c) {
        means[c] = stats[c].mean();
        stds[c] = stats[c].stddev();
    }
    return Normalizer::fromMoments(std::move(means), std::move(stds));
}

std::vector<double>
Normalizer::apply(std::span<const double> raw) const
{
    std::vector<double> out(raw.size());
    applyInto(raw, out);
    return out;
}

void
Normalizer::applyInto(std::span<const double> raw,
                      std::span<double> out) const
{
    MM_ASSERT(raw.size() == dim() && out.size() == dim(),
              "normalizer arity mismatch");
    for (size_t i = 0; i < raw.size(); ++i)
        out[i] = (raw[i] - means[i]) / stds[i];
}

std::vector<double>
Normalizer::invert(std::span<const double> normed) const
{
    std::vector<double> out(normed.size());
    invertInto(normed, out);
    return out;
}

void
Normalizer::invertInto(std::span<const double> normed,
                       std::span<double> out) const
{
    MM_ASSERT(normed.size() == dim() && out.size() == dim(),
              "normalizer arity mismatch");
    for (size_t i = 0; i < normed.size(); ++i)
        out[i] = normed[i] * stds[i] + means[i];
}

void
Normalizer::applyInPlace(Matrix &data) const
{
    MM_ASSERT(data.cols() == dim(), "normalizer arity mismatch");
    for (size_t r = 0; r < data.rows(); ++r)
        normalizeRow(data.row(r), data.row(r));
}

void
Normalizer::normalizeRow(std::span<const float> raw,
                         std::span<float> out) const
{
    MM_ASSERT(raw.size() == dim() && out.size() == dim(),
              "normalizer arity mismatch");
    for (size_t c = 0; c < dim(); ++c)
        out[c] = float((double(raw[c]) - means[c]) / stds[c]);
}

void
Normalizer::save(std::ostream &os) const
{
    uint64_t n = means.size();
    os.write(reinterpret_cast<const char *>(&n), sizeof(n));
    os.write(reinterpret_cast<const char *>(means.data()),
             std::streamsize(n * sizeof(double)));
    os.write(reinterpret_cast<const char *>(stds.data()),
             std::streamsize(n * sizeof(double)));
}

Normalizer
Normalizer::load(std::istream &is)
{
    uint64_t n = 0;
    is.read(reinterpret_cast<char *>(&n), sizeof(n));
    MM_ASSERT(bool(is), "truncated normalizer stream");
    Normalizer norm;
    norm.means.resize(n);
    norm.stds.resize(n);
    is.read(reinterpret_cast<char *>(norm.means.data()),
            std::streamsize(n * sizeof(double)));
    is.read(reinterpret_cast<char *>(norm.stds.data()),
            std::streamsize(n * sizeof(double)));
    MM_ASSERT(bool(is), "truncated normalizer stream");
    return norm;
}

} // namespace mm
