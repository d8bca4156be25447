/**
 * @file
 * Shared fork-join execution context.
 *
 * Phase-1 dataset labeling, shard gathers and surrogate training all
 * want the same thing: "run this loop over the lanes the caller
 * provisioned". ParallelContext owns one lazily-built ThreadPool and is
 * threaded by pointer through generateDatasetStreamed, BatchSource
 * gathers and RegressionTrainer (whose mini-batches Mlp::trainStep
 * splits by rows, two fork-joins per batch) so the whole Phase-1
 * pipeline shares a single pool instead of spawning per-call threads.
 * A null context (or one with a single lane) means serial execution
 * everywhere.
 *
 * Determinism: every consumer partitions work by index (disjoint output
 * rows or units, per-index RNG streams) and keeps each element's chain
 * of operations, reducing serially where a sum spans lanes, so results
 * are bitwise identical at any lane count.
 */
#pragma once

#include <memory>

#include "common/thread_pool.hpp"

namespace mm {

/** A shareable lane-count + thread-pool bundle; copyable by pointer. */
class ParallelContext
{
  public:
    /**
     * @param threads Execution lanes; 0 selects hardware concurrency,
     *                1 (default) means serial (no pool is built).
     */
    explicit ParallelContext(size_t threads = 1);

    ParallelContext(const ParallelContext &) = delete;
    ParallelContext &operator=(const ParallelContext &) = delete;

    /** Execution lanes (1 = serial). */
    size_t lanes() const { return laneCount; }

    /** The underlying pool, or nullptr when serial. */
    ThreadPool *pool() { return tp.get(); }

    /** Run fn(i) over [0, n), inline when serial. */
    void
    parallelFor(size_t n, const std::function<void(size_t)> &fn)
    {
        if (tp) {
            tp->parallelFor(n, fn);
        } else {
            for (size_t i = 0; i < n; ++i)
                fn(i);
        }
    }

  private:
    size_t laneCount = 1;
    std::unique_ptr<ThreadPool> tp;
};

} // namespace mm
