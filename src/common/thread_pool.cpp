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
    }
    workCv.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    MutexLock lock(mtx);
    for (;;) {
        while (!stopping && (jobFn == nullptr || nextIndex >= jobSize))
            workCv.wait(mtx);
        if (stopping)
            return;
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
        --inFlight;
    }
    if (nextIndex >= jobSize && inFlight == 0)
        doneCv.notify_all();
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
    workCv.notify_all();

    runIndices();
    while (nextIndex < jobSize || inFlight != 0)
        doneCv.wait(mtx);
    jobFn = nullptr;
    std::exception_ptr err = firstError;
    firstError = nullptr;
    doneCv.notify_all(); // admit any submitter waiting for the job slot
    lock.unlock();
    if (err)
        std::rethrow_exception(err);
}

} // namespace mm
