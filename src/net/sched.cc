#include "net/sched.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"

namespace firesim
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
SchedTelemetry::reset(unsigned width)
{
    workers.assign(width, Worker{});
    rounds = 0;
    sumMaxBusyNs = 0;
    sumMeanBusyNs = 0.0;
}

void
SchedTelemetry::recordRound(const std::vector<uint64_t> &busy)
{
    uint64_t max = 0, total = 0;
    unsigned active = 0;
    for (size_t w = 0; w < busy.size(); ++w) {
        workers[w].busyNs += busy[w];
        max = std::max(max, busy[w]);
        total += busy[w];
        if (busy[w] > 0)
            ++active;
    }
    // Rounds where nothing was measured (no units) would skew the
    // ratio toward zero; skip them.
    if (total == 0)
        return;
    ++rounds;
    sumMaxBusyNs += max;
    // Mean over the workers that did work this round, not the
    // configured width: a round that used 2 of 8 workers perfectly
    // evenly is balanced (ratio 1), not magically 4x better.
    sumMeanBusyNs +=
        static_cast<double>(total) / static_cast<double>(active);
}

double
SchedTelemetry::maxMeanBusyRatio() const
{
    if (sumMeanBusyNs <= 0.0 || workers.empty())
        return 0.0;
    return static_cast<double>(sumMaxBusyNs) / sumMeanBusyNs;
}

uint64_t
SchedTelemetry::totalBusyNs() const
{
    uint64_t sum = 0;
    for (const Worker &w : workers)
        sum += w.busyNs;
    return sum;
}

void
RoundScheduler::configure(unsigned width)
{
    FS_ASSERT(width >= 1, "scheduler width must be at least 1");
    tel.reset(width);
    roundBusy.assign(width, 0);
}

void
RoundScheduler::runWorker(unsigned worker, unsigned width,
                          const std::vector<uint32_t> &units, UnitFn fn,
                          void *ctx)
{
    // A worker with no units records 0 busy, so it stays out of the
    // telemetry's active-worker mean.
    if (worker >= units.size()) {
        roundBusy[worker] = 0;
        return;
    }
    uint64_t t0 = nowNs();
    for (size_t i = worker; i < units.size(); i += width)
        fn(ctx, units[i]);
    roundBusy[worker] = nowNs() - t0;
}

void
RoundScheduler::dispatch(ThreadPool &pool,
                         const std::vector<uint32_t> &units, UnitFn fn,
                         void *ctx)
{
    if (units.empty())
        return;
    unsigned width = pool.width();
    FS_ASSERT(roundBusy.size() == width,
              "RoundScheduler not configured for this pool");
    pool.parallelRun([this, width, &units, fn, ctx](unsigned w) {
        runWorker(w, width, units, fn, ctx);
    });
    // Post-barrier, driving thread.
    tel.recordRound(roundBusy);
}

} // namespace firesim
