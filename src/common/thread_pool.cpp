#include "common/thread_pool.hpp"

namespace mm {

namespace {

/**
 * Pool whose job the current thread is executing, if any. Lets a
 * nested parallelFor on the same pool degrade to an inline loop
 * instead of deadlocking on the single-job slot (e.g. a threaded GEMM
 * invoked from inside a parallel Phase-2 chain step).
 */
thread_local const ThreadPool *tlsActivePool = nullptr;

/** Tell the core this is a spin-wait loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Spin while @p busy() holds, for at most ThreadPool::kSpinWindow. */
template <typename Busy>
void
spinWhile(Busy busy)
{
    const auto deadline =
        std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
    for (unsigned i = 1; busy(); ++i) {
        cpuRelax();
        if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline)
            return;
    }
}

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers.reserve(threads - 1);
    for (size_t i = 0; i + 1 < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mtx);
        stopping = true;
        epoch.fetch_add(1, std::memory_order_release); // end the spins
    }
    workCv.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        spinWhile(
            [&] { return epoch.load(std::memory_order_acquire) == seen; });
        MutexLock lock(mtx);
        while (!stopping && epoch.load(std::memory_order_relaxed) == seen) {
            ++sleepers;
            workCv.wait(mtx);
            --sleepers;
        }
        if (stopping)
            return;
        seen = epoch.load(std::memory_order_relaxed);
        runIndices();
    }
}

void
ThreadPool::runIndices()
{
    while (jobFn != nullptr && nextIndex < jobSize) {
        const size_t i = nextIndex++;
        ++inFlight;
        const std::function<void(size_t)> *fn = jobFn;
        mtx.unlock();
        std::exception_ptr err;
        const ThreadPool *prevActive = tlsActivePool;
        tlsActivePool = this;
        try {
            (*fn)(i);
        } catch (...) { // mmlint:allow(catch-all) captured, not dropped
            err = std::current_exception();
        }
        tlsActivePool = prevActive;
        mtx.lock();
        if (err && !firstError)
            firstError = err;
        if (--inFlight == 0 && nextIndex >= jobSize) {
            // No new job is published before this one's submitter
            // clears jobFn, so epoch is still this job's.
            finished.store(epoch.load(std::memory_order_relaxed),
                           std::memory_order_release);
            doneCv.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (workers.empty() || tlsActivePool == this) {
        // Serial pool, or a nested call from inside one of our own
        // jobs: run inline on the calling thread.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    MutexLock lock(mtx);
    // Concurrent submitters from distinct threads queue up for the
    // single job slot instead of asserting.
    while (jobFn != nullptr)
        doneCv.wait(mtx);
    jobFn = &fn;
    jobSize = n;
    nextIndex = 0;
    inFlight = 0;
    firstError = nullptr;
    const uint64_t job = epoch.load(std::memory_order_relaxed) + 1;
    epoch.store(job, std::memory_order_release);
    if (sleepers > 0)
        workCv.notify_all();

    runIndices();
    if (nextIndex < jobSize || inFlight != 0) {
        // Other lanes still run indices: spin for them outside the
        // lock, then fall back to sleeping on doneCv.
        lock.unlock();
        spinWhile(
            [&] { return finished.load(std::memory_order_acquire) != job; });
        lock.lock();
        while (nextIndex < jobSize || inFlight != 0)
            doneCv.wait(mtx);
    }
    jobFn = nullptr;
    std::exception_ptr err = firstError;
    firstError = nullptr;
    doneCv.notify_all(); // admit any submitter waiting for the job slot
    lock.unlock();
    if (err)
        std::rethrow_exception(err);
}

} // namespace mm
