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
 *
 * Hand-off: the training loop and the MM-P driver fork-join every few
 * hundred microseconds, so a worker that sleeps on a condition
 * variable between jobs starts each job one futex wake-up late. A
 * worker therefore spins (with a pause instruction) on an atomic job
 * epoch for up to kSpinWindow after its last job before it parks on
 * workCv, and a submitter notifies workCv only when some worker is
 * parked. The submitter, once its own share is done, likewise spins on
 * an atomic `finished` epoch before it waits on doneCv. With lanes
 * that each work 10 or 100 us, this cut the cost a fork-join adds from
 * 11-14 us to 1.3-1.6 us at 2 lanes and from 13-17 us to 4-6 us at 4
 * (standalone timing program, best of 5 x 2000, 4-vCPU AVX-512 host).
 * A pool that goes idle costs at most kSpinWindow of spinning per
 * worker before it sleeps.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
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

    /** How long an idle worker or a waiting submitter spins. */
    static constexpr std::chrono::microseconds kSpinWindow{100};

  private:
    void workerLoop() MM_EXCLUDES(mtx);

    /**
     * Claim and run indices until the job is drained; the call that
     * finishes the job's last index publishes `finished` and wakes
     * doneCv. Enters and leaves with mtx held; opens it around each
     * fn(i) call.
     */
    void runIndices() MM_REQUIRES(mtx);

    std::vector<std::thread> workers; ///< immutable after construction
    Mutex mtx;
    CondVar workCv;
    CondVar doneCv;
    /// Bumped under mtx when a job is published (and at shutdown);
    /// idle workers spin on it without the lock.
    std::atomic<uint64_t> epoch{0};
    /// Epoch of the last job whose every index has finished; the
    /// submitter spins on it without the lock.
    std::atomic<uint64_t> finished{0};
    size_t sleepers MM_GUARDED_BY(mtx) = 0; ///< workers parked on workCv
    const std::function<void(size_t)> *jobFn MM_GUARDED_BY(mtx) = nullptr;
    size_t jobSize MM_GUARDED_BY(mtx) = 0;
    size_t nextIndex MM_GUARDED_BY(mtx) = 0;
    size_t inFlight MM_GUARDED_BY(mtx) = 0;
    std::exception_ptr firstError MM_GUARDED_BY(mtx);
    bool stopping MM_GUARDED_BY(mtx) = false;
};

} // namespace mm
