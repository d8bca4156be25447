/**
 * @file
 * Minibatch regression trainer.
 *
 * Implements the paper's Phase-1 training recipe (Section 5.5): SGD with
 * momentum 0.9, batch size 128, step-decayed learning rate, selectable
 * loss. It reads rows through a BatchSource; Phase 1 supplies a
 * ShardBatchSource (core/shard_store.hpp) over its dataset's shards,
 * resident or on disk. Each mini-batch trains through one
 * Mlp::trainStep, its rows split across the trainer's lanes, then one
 * optimizer step; trained weights and losses are bitwise identical at
 * any lane count.
 */
#pragma once

#include <functional>
#include <vector>

#include "common/parallel_context.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace mm {

/** Hyper-parameters for RegressionTrainer. */
struct TrainConfig
{
    int epochs = 30;
    size_t batchSize = 128;
    LossKind loss = LossKind::Huber;
    double huberDelta = 1.0;
    StepDecaySchedule schedule{1e-2, 0.1, 25};
    double momentum = 0.9;
    /**
     * Shuffle window in rows; 0 shuffles the whole training set per
     * epoch (the historical behavior, bitwise unchanged). A positive
     * value shuffles rows only within consecutive windows of this many
     * rows and randomizes the window visit order — the standard
     * shuffle-buffer compromise that keeps out-of-core training
     * I/O-sequential (a window spans a bounded number of dataset
     * shards). Affects batch composition, so it is part of the Phase-1
     * cache fingerprint.
     */
    size_t shuffleWindow = 0;
};

/**
 * Rows per parallel gather chunk of a BatchSource. Fixed (never derived
 * from the lane count) so the work split — all disjoint row copies — is
 * identical at any lane count.
 */
inline constexpr size_t kGatherChunkRows = 16;

/**
 * Row provider for the trainer: hands out (X, Y) mini-batches selected
 * by index. The trainer never sees where the rows live.
 */
class BatchSource
{
  public:
    virtual ~BatchSource() = default;

    virtual size_t rows() const = 0;
    virtual size_t xCols() const = 0;
    virtual size_t yCols() const = 0;

    /**
     * Copy source rows idx[begin + r], r in [0, n), into row r of
     * @p bx / @p by (shaping them to n rows). A non-null @p par may
     * spread the row copies over its lanes in chunks of
     * kGatherChunkRows (rows are disjoint, so the result is bitwise
     * lane-invariant at any lane count).
     */
    virtual void gather(const std::vector<size_t> &idx, size_t begin,
                        size_t n, Matrix &bx, Matrix &by,
                        ParallelContext *par = nullptr) = 0;
};

/** Per-epoch training record (Figure 7a series). */
struct EpochReport
{
    int epoch;
    double trainLoss;
    double testLoss;
    double lr;
};

/** Trains an Mlp on an (X, Y) regression dataset. */
class RegressionTrainer
{
  public:
    /**
     * @param par Optional shared execution context: each mini-batch's
     *            rows are split across its lanes (Mlp::trainStep, and
     *            Mlp::predict when scoring), as are the batch gathers.
     *            Batches under 2 * kGatherChunkRows rows run inline.
     *            Results are bitwise identical at any lane count. Must
     *            outlive the trainer's fit() calls.
     */
    RegressionTrainer(Mlp &net, TrainConfig cfg,
                      ParallelContext *par = nullptr);

    /**
     * Run the full training loop over @p train, scoring @p test after
     * every epoch (null skips it). @p rng drives the shuffle; with
     * cfg.shuffleWindow == 0 (or >= rows) it is one whole-set shuffle
     * per epoch. @p onEpoch is an optional per-epoch observer.
     */
    std::vector<EpochReport>
    fit(BatchSource &train, BatchSource *test, Rng &rng,
        const std::function<void(const EpochReport &)> &onEpoch = {});

    /** Mean loss of @p net over a source, evaluated in batches. */
    static double evaluate(Mlp &net, BatchSource &src, LossKind loss,
                           double huberDelta, size_t batchSize = 256,
                           ParallelContext *par = nullptr);

  private:
    Mlp &net;
    TrainConfig cfg;
    ParallelContext *par; ///< not owned; nullptr = serial
};

} // namespace mm
