/**
 * @file
 * Test helpers over Phase-1 datasets: read a dataset's normalized splits
 * back exactly as the trainer sees them, and wrap plain matrices as a
 * resident dataset so trainer tests run through the production
 * BatchSource.
 */
#pragma once

#include <memory>
#include <numeric>
#include <vector>

#include "core/dataset.hpp"
#include "core/shard_store.hpp"

namespace mm {

/** A dataset's normalized train and test rows. */
struct DatasetSplits
{
    Matrix xTrain, yTrain;
    Matrix xTest, yTest;
};

/** Gather every row of @p sd through the ShardBatchSource the trainer
 * reads, in row order, over @p par's lanes. */
inline DatasetSplits
normalizedSplits(const StreamedDataset &sd, ParallelContext *par = nullptr)
{
    std::unique_ptr<ShardedDatasetReader> reader = sd.open();
    auto gatherAll = [&](size_t begin, size_t count, Matrix &x, Matrix &y) {
        ShardBatchSource src(*reader, begin, count);
        std::vector<size_t> idx(count);
        std::iota(idx.begin(), idx.end(), size_t(0));
        src.gather(idx, 0, count, x, y, par);
    };
    DatasetSplits s;
    gatherAll(0, sd.trainRows, s.xTrain, s.yTrain);
    gatherAll(sd.trainRows, sd.testRows, s.xTest, s.yTest);
    return s;
}

/**
 * A resident one-shard reader over @p x / @p y with identity
 * normalizers, so a ShardBatchSource over it yields the rows unchanged.
 */
inline std::unique_ptr<ShardedDatasetReader>
residentReader(const Matrix &x, const Matrix &y)
{
    ShardManifest m;
    m.layout.rows = x.rows();
    m.layout.features = x.cols();
    m.layout.outputs = y.cols();
    m.layout.shardSize = x.rows();
    m.layout.shardCount = 1;
    m.layout.trainRows = x.rows();
    auto identity = [](size_t cols) {
        return Normalizer::fromMoments(std::vector<double>(cols, 0.0),
                                       std::vector<double>(cols, 1.0));
    };
    m.inputNorm = identity(x.cols());
    m.outputNorm = identity(y.cols());
    auto shard = std::make_shared<ShardedDatasetReader::DecodedShard>();
    shard->x = x;
    shard->y = y;
    return std::make_unique<ShardedDatasetReader>(
        std::move(m), std::vector<ShardedDatasetReader::ShardPtr>{shard});
}

} // namespace mm
