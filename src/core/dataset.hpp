/**
 * @file
 * Phase-1 training-set generation (Section 4.1.1).
 *
 * Uniformly samples valid mappings from the map spaces of representative
 * problems of the target algorithm, labels each with the reference cost
 * model's meta-statistics (normalized per problem by the algorithmic
 * lower bound, Section 4.1.3), and z-scores both inputs and outputs over
 * the training set. Only valid mappings enter the dataset, as in the
 * paper.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel_context.hpp"
#include "core/normalizer.hpp"
#include "mapping/codec.hpp"
#include "nn/loss.hpp"
#include "workload/problem.hpp"

namespace mm {

/** Dataset-generation parameters. */
struct DatasetConfig
{
    /** Total (mapping, pid, cost) tuples to draw. */
    size_t samples = 20000;
    /** Fraction reserved as the held-out test split. */
    double testFraction = 0.1;
    /**
     * Distinct representative problems to sample from; ignored when
     * explicit problems are supplied.
     */
    size_t problemCount = 40;
    /** Optional explicit problem list (e.g. for ablations). */
    std::vector<Problem> problems;
    /**
     * When true (default), the output vector holds the full
     * meta-statistics; when false it holds only normalized EDP — the
     * paper's Section 4.1.3 "direct EDP" strawman for the output-
     * representation ablation.
     */
    bool metaStatOutputs = true;
    /**
     * Fraction of samples drawn with elite bias (best-of-k instead of
     * one uniform draw), improving coverage of the low-EDP region the
     * search ultimately cares about. The paper flags improved sampling
     * as future work (Section 4.1.1); 0 reproduces its uniform scheme.
     */
    double eliteFraction = 0.0;
    /** Candidates per elite draw. */
    int eliteCandidates = 8;
    uint64_t seed = 1;
    /**
     * Samples labeled per batched block (must be >= 1): each block is
     * sampled in parallel, evaluated with one CostModel::evaluateBatch
     * call per distinct problem, and written out. Dataset bytes are
     * identical at ANY value (per-sample RNG streams and per-sample
     * evaluation are order-independent), so this knob — like lane
     * count — is excluded from the streamed config hash; it only
     * trades peak block memory against batch amortization.
     * MM_EVAL_BATCH overrides it in the benches.
     */
    size_t labelBlock = 4096;
    /**
     * When non-empty, Phase 1 runs out-of-core: labeled samples are
     * written to checksummed fixed-size shards in this directory
     * (core/shard_store.hpp) instead of two dense in-RAM matrices, and
     * the trainer streams mini-batches back from disk. The result is
     * bitwise identical to the in-RAM path at any lane count; peak
     * memory is O(shardSize), not O(samples). A directory holding a
     * committed store for the same config is reused; a partial
     * (crashed) run resumes at shard granularity.
     */
    std::string streamDir;
    /** Rows per shard for the streamed path. */
    size_t shardSize = 65536;
};

/** A generated, normalized regression dataset plus its normalizers. */
struct SurrogateDataset
{
    Matrix xTrain, yTrain;
    Matrix xTest, yTest;
    Normalizer inputNorm;
    Normalizer outputNorm;
    size_t featureCount = 0;
    size_t outputCount = 0;
    /** Prefix of features that were log2-conditioned (see
     * core/feature_transform.hpp); targets are log-conditioned. */
    size_t featureLogPrefix = 0;
};

/**
 * Generate the Phase-1 dataset for @p algo on @p arch.
 *
 * The feature vector layout is MappingCodec's (pid + tiling +
 * parallelism + order ranks + allocation); targets are the cost model's
 * meta-statistics divided by the per-problem lower bound (energy terms
 * by LB energy, cycles by LB cycles, utilization as-is).
 *
 * Labeling parallelizes over @p par's lanes when provided. Each sample
 * owns an RNG stream forked in sample order, so the dataset is bitwise
 * identical at any lane count (and with a null context).
 */
SurrogateDataset generateDataset(const AcceleratorSpec &arch,
                                 const AlgorithmSpec &algo,
                                 const DatasetConfig &cfg,
                                 ParallelContext *par = nullptr);

/** Handle to a committed on-disk dataset (see core/shard_store.hpp). */
struct StreamedDataset
{
    /** The stream directory holding shards + manifest. */
    std::string dir;
    Normalizer inputNorm;
    Normalizer outputNorm;
    size_t featureCount = 0;
    size_t outputCount = 0;
    size_t featureLogPrefix = 0;
    size_t trainRows = 0;
    size_t testRows = 0;
    size_t shardSize = 0;
    size_t shardCount = 0;
    /** True when a committed store for this config was reused as-is. */
    bool reused = false;
};

/**
 * Out-of-core variant of generateDataset: labels cfg.shardSize samples
 * at a time (same per-sample forked RNG streams, so shards are bitwise
 * identical to the rows the in-RAM path would produce at any lane
 * count), commits each shard atomically to cfg.streamDir, fits the
 * normalizers in one streaming-moments pass over the training rows,
 * and publishes the manifest. Restart behavior: a committed store for
 * the same config is reused without relabeling; after a crash, shards
 * that validate are skipped and only the missing ones are labeled.
 */
StreamedDataset generateDatasetStreamed(const AcceleratorSpec &arch,
                                        const AlgorithmSpec &algo,
                                        const DatasetConfig &cfg,
                                        ParallelContext *par = nullptr);

/** Lower-bound-normalize a raw meta-statistics vector in place. */
void normalizeMetaStatsByBound(std::vector<double> &stats,
                               size_t tensorCount, double lbEnergyPj,
                               double lbCycles);

} // namespace mm
