/**
 * @file
 * Phase-1 training-set generation (Section 4.1.1).
 *
 * Uniformly samples valid mappings from the map spaces of representative
 * problems of the target algorithm, labels each with the reference cost
 * model's meta-statistics (normalized per problem by the algorithmic
 * lower bound, Section 4.1.3), and fits z-score normalizers for inputs
 * and outputs over the training rows. Only valid mappings enter the
 * dataset, as in the paper.
 *
 * There is one generator. It labels fixed-size shards of rows; the
 * shards either stay in memory (the default) or are committed to a
 * checksummed on-disk store (core/shard_store.hpp) when
 * DatasetConfig::streamDir is set. Either way the trainer reads them
 * through a ShardedDatasetReader, which normalizes rows as it gathers
 * them, so where the shards live is the only difference.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel_context.hpp"
#include "core/normalizer.hpp"
#include "core/shard_store.hpp"
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
     * count — is excluded from the dataset identity; it only
     * trades peak block memory against batch amortization.
     * MM_EVAL_BATCH overrides it in the benches.
     */
    size_t labelBlock = 4096;
    /**
     * When non-empty, the shards are committed to this directory
     * instead of staying in memory, so peak memory is O(shardSize),
     * not O(samples). A directory holding a committed store for the
     * same config is reused; a partial (crashed) run resumes at shard
     * granularity. The rows are the same either way.
     */
    std::string streamDir;
    /** Rows per shard. */
    size_t shardSize = 65536;
};

/** A generated dataset: its shards, shape and fitted normalizers. */
struct StreamedDataset
{
    /** The store directory; empty for a resident dataset. */
    std::string dir;
    Normalizer inputNorm;
    Normalizer outputNorm;
    size_t featureCount = 0;
    size_t outputCount = 0;
    /** Prefix of features that were log2-conditioned (see
     * core/feature_transform.hpp); targets are log-conditioned. */
    size_t featureLogPrefix = 0;
    size_t trainRows = 0;
    size_t testRows = 0;
    size_t shardSize = 0;
    size_t shardCount = 0;
    /** True when a committed store for this config was reused as-is. */
    bool reused = false;
    /** The raw rows of a resident dataset, one entry per shard; empty
     * when the shards live in dir. */
    std::vector<ShardedDatasetReader::ShardPtr> shards;

    /**
     * A reader over the dataset: over the resident shards (it never
     * touches disk), or over the committed store in dir.
     */
    std::unique_ptr<ShardedDatasetReader> open() const;
};

/**
 * Generate the Phase-1 dataset for @p algo on @p arch.
 *
 * The feature vector layout is MappingCodec's (pid + tiling +
 * parallelism + order ranks + allocation); targets are the cost model's
 * meta-statistics divided by the per-problem lower bound (energy terms
 * by LB energy, cycles by LB cycles, utilization as-is), log-conditioned.
 * The last floor(cfg.samples * testFraction) rows are the test split;
 * the normalizers are fitted on the rows before them.
 *
 * Samples are labeled cfg.shardSize at a time. Labeling parallelizes
 * over @p par's lanes; each sample owns an RNG stream forked in sample
 * order, so the rows are bitwise identical at any lane count, label
 * block size or shard size (and with a null context).
 *
 * With cfg.streamDir set, each shard is committed atomically as soon as
 * it is labeled, every shard is read back and verified (corrupt ones are
 * quarantined and relabeled) while the normalizers are fitted, and the
 * manifest is published last. A committed store for the same config is
 * reused without relabeling; after a crash, shards that validate are
 * skipped and only the missing ones are labeled.
 */
StreamedDataset generateDatasetStreamed(const AcceleratorSpec &arch,
                                        const AlgorithmSpec &algo,
                                        const DatasetConfig &cfg,
                                        ParallelContext *par = nullptr);

/**
 * Identity of the rows @p cfg generates: every field that changes them
 * (samples, split, problems, outputs, sampling, seed), with doubles
 * written exactly. Both the shard-store config hash and the Phase-1
 * cache fingerprint are built from it.
 */
std::string datasetIdentity(const AcceleratorSpec &arch,
                            const AlgorithmSpec &algo,
                            const DatasetConfig &cfg);

/** Lower-bound-normalize a raw meta-statistics vector in place. */
void normalizeMetaStatsByBound(std::vector<double> &stats,
                               size_t tensorCount, double lbEnergyPj,
                               double lbCycles);

} // namespace mm
