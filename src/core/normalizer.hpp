/**
 * @file
 * Per-column z-score normalization (Sections 4.1.2/4.1.3): every input
 * feature and every output meta-statistic is normalized to mean 0 /
 * std 1 with respect to the training set.
 */
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "tensor/matrix.hpp"

namespace mm {

/** Column-wise affine normalizer fitted on a dataset. */
class Normalizer
{
  public:
    Normalizer() = default;

    /** Fit means and stds over the rows of @p data. */
    static Normalizer fit(const Matrix &data);

    /**
     * Build from precomputed per-column moments (streaming fits,
     * deserialization). Stds are clamped away from zero like fit().
     */
    static Normalizer fromMoments(std::vector<double> means,
                                  std::vector<double> stds);

    size_t dim() const { return means.size(); }

    /** (x - mean) / std, elementwise per column. */
    std::vector<double> apply(std::span<const double> raw) const;

    /** apply() into @p out (may be @p raw itself); allocation-free. */
    void applyInto(std::span<const double> raw, std::span<double> out) const;

    /** Inverse transform. */
    std::vector<double> invert(std::span<const double> normed) const;

    /** invert() into @p out (may be @p normed itself); allocation-free. */
    void invertInto(std::span<const double> normed,
                    std::span<double> out) const;

    /** Normalize every row of @p data in place. */
    void applyInPlace(Matrix &data) const;

    /**
     * Normalize one float row into @p out — the arithmetic of
     * applyInPlace, which ShardBatchSource applies as it gathers rows.
     */
    void normalizeRow(std::span<const float> raw,
                      std::span<float> out) const;

    double mean(size_t i) const { return means.at(i); }
    double std(size_t i) const { return stds.at(i); }

    void save(std::ostream &os) const;
    static Normalizer load(std::istream &is);

  private:
    std::vector<double> means;
    std::vector<double> stds; ///< clamped away from zero
};

/**
 * Single-pass normalizer fit over a row stream: Phase 1 pushes its
 * training rows shard by shard. Pushing rows 0..n-1 in order yields the
 * Normalizer that Normalizer::fit returns for the materialized matrix
 * (fit is this pass over the matrix's rows).
 */
class StreamingNormalizerFit
{
  public:
    explicit StreamingNormalizerFit(size_t cols) : stats(cols) {}

    void
    pushRow(std::span<const float> row)
    {
        MM_ASSERT(row.size() == stats.size(),
                  "streaming fit arity mismatch");
        for (size_t c = 0; c < stats.size(); ++c)
            stats[c].push(double(row[c]));
    }

    int64_t rows() const { return stats.empty() ? 0 : stats[0].count(); }

    Normalizer finish() const;

  private:
    std::vector<RunningStat> stats;
};

} // namespace mm
