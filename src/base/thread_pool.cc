#include "base/thread_pool.hh"

#include "base/logging.hh"

namespace firesim
{

unsigned
ThreadPool::hardwareWidth()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned width) : width_(width)
{
    if (width == 0)
        fatal("thread pool width must be at least 1");
    workers.reserve(width - 1);
    for (unsigned i = 0; i + 1 < width; ++i)
        workers.emplace_back([this, i] { workerMain(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        shutdown = true;
    }
    wake.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::workerMain(unsigned id)
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mtx);
    for (;;) {
        wake.wait(lock,
                  [&] { return shutdown || generation != seen; });
        if (shutdown)
            return;
        seen = generation;
        lock.unlock();
        jobFn(jobCtx, id);
        lock.lock();
        if (--pending == 0)
            finished.notify_one();
    }
}

void
ThreadPool::runPerWorker(JobFn fn, void *ctx)
{
    if (workers.empty()) {
        fn(ctx, 0);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mtx);
        FS_ASSERT(pending == 0, "ThreadPool dispatch is not reentrant");
        jobFn = fn;
        jobCtx = ctx;
        pending = static_cast<unsigned>(workers.size());
        ++generation;
    }
    wake.notify_all();

    // The caller is worker 0.
    fn(ctx, 0);

    std::unique_lock<std::mutex> lock(mtx);
    finished.wait(lock, [&] { return pending == 0; });
}

} // namespace firesim
