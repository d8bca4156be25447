/**
 * @file
 * Minimal blocking fork-join thread pool.
 *
 * parallelFor(n, fn) runs fn(i) for every i in [0, n) across the
 * workers plus the calling thread and returns when all indices have
 * finished. Indices must be independent: the parallel Phase-2 driver
 * keeps all randomness in per-chain streams precisely so that the
 * schedule the pool happens to pick cannot influence results — a fixed
 * seed is bitwise reproducible at any thread count.
 */
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace mm {

/** Fixed-size fork-join pool; one live job at a time. */
class ThreadPool
{
  public:
    /**
     * @param threads Total execution lanes including the calling
     *                thread; 0 selects hardware concurrency. One lane
     *                means no workers: parallelFor runs inline.
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes (workers + the calling thread). */
    size_t lanes() const { return workers.size() + 1; }

    /**
     * Run fn(i) for every i in [0, n); blocks until all complete. The
     * first exception thrown by any index is rethrown here. Safe to
     * call from inside a job on the same pool (the nested call runs
     * inline on the calling thread) and from multiple external threads
     * at once (submissions serialize on the single job slot).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn)
        MM_EXCLUDES(mtx);

  private:
    void workerLoop() MM_EXCLUDES(mtx);

    /**
     * Claim and run indices until the job is drained. Enters and
     * leaves with mtx held; opens it around each fn(i) call.
     */
    void runIndices() MM_REQUIRES(mtx);

    std::vector<std::thread> workers; ///< immutable after construction
    Mutex mtx;
    CondVar workCv;
    CondVar doneCv;
    const std::function<void(size_t)> *jobFn MM_GUARDED_BY(mtx) = nullptr;
    size_t jobSize MM_GUARDED_BY(mtx) = 0;
    size_t nextIndex MM_GUARDED_BY(mtx) = 0;
    size_t inFlight MM_GUARDED_BY(mtx) = 0;
    std::exception_ptr firstError MM_GUARDED_BY(mtx);
    bool stopping MM_GUARDED_BY(mtx) = false;
};

/**
 * One background thread draining a FIFO of tasks — the asynchronous
 * complement to ThreadPool's fork-join parallelFor. Used where work
 * must overlap the submitter without changing its order: the streamed
 * Phase-1 generator commits shard N on this thread while labeling
 * shard N+1 (double buffering).
 *
 * Error contract: the first exception a task throws is captured, all
 * queued and subsequently submitted tasks are dropped, and the
 * exception is rethrown on the next submit()/throttle()/drain() — so a
 * failed background write cannot be silently lost. The exception
 * object itself is preserved (exception_ptr), so typed errors
 * (IoError, CorruptionError, ResourceError — common/error.hpp) from a
 * background shard commit reach the drain point with their
 * path/errno/checksum payload intact, not flattened to text. The
 * destructor drains quietly (errors already observed or unobservable
 * there).
 */
class SerialWorker
{
  public:
    SerialWorker();
    ~SerialWorker();

    SerialWorker(const SerialWorker &) = delete;
    SerialWorker &operator=(const SerialWorker &) = delete;

    /** Enqueue @p task; rethrows a prior task's pending exception. */
    void submit(std::function<void()> task) MM_EXCLUDES(mtx);

    /**
     * Block until at most @p maxPending tasks are queued or running;
     * rethrows a prior task's pending exception. throttle(0) == drain.
     * A double-buffering producer calls throttle(1) before reusing a
     * buffer: at most the latest submission can still be in flight, so
     * every earlier buffer is free.
     */
    void throttle(size_t maxPending) MM_EXCLUDES(mtx);

    /** Block until the queue is empty and the worker idle; rethrows. */
    void drain() MM_EXCLUDES(mtx) { throttle(0); }

    /** Queued + running tasks (racy snapshot; for tests/heuristics). */
    size_t pending() const MM_EXCLUDES(mtx);

  private:
    void workerLoop() MM_EXCLUDES(mtx);

    mutable Mutex mtx;
    CondVar workCv;
    CondVar idleCv;
    std::deque<std::function<void()>> queue MM_GUARDED_BY(mtx);
    /** 0 or 1: the task currently executing. */
    size_t inFlight MM_GUARDED_BY(mtx) = 0;
    std::exception_ptr error MM_GUARDED_BY(mtx);
    bool stopping MM_GUARDED_BY(mtx) = false;
    std::thread worker;
};

} // namespace mm
