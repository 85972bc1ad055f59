/**
 * @file
 * A persistent worker pool for round-parallel simulation.
 *
 * FireSim's scale-out story (paper Section II) is that server blades
 * simulate in parallel — one per FPGA — while the decoupled token
 * protocol keeps the ensemble cycle-exact. The in-process analogue is a
 * pool of host threads that split one fabric round's endpoint advances
 * between them and meet at a barrier before the next round.
 *
 * Design constraints, in order:
 *  - parallelFor() must be allocation-free on the dispatch path (the
 *    fabric's hot loop asserts steady-state zero allocations), so jobs
 *    are passed as a raw function pointer + context instead of a
 *    std::function.
 *  - The call must be a full barrier with acquire/release semantics:
 *    everything workers wrote is visible to the caller when it returns,
 *    and everything the caller wrote before the call is visible to the
 *    workers. Both directions are sequenced through the pool mutex.
 *  - Work items are claimed dynamically (one atomic fetch_add per
 *    item), so heterogeneous item costs — switches are much cheaper to
 *    advance than blades — balance across workers automatically.
 *    Dynamic claiming is safe for determinism because callers hand the
 *    pool items that share no mutable state.
 */

#ifndef FIRESIM_BASE_THREAD_POOL_HH
#define FIRESIM_BASE_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace firesim
{

class ThreadPool
{
  public:
    /**
     * @param width total concurrency, including the calling thread:
     *        a pool of width W spawns W-1 persistent host threads.
     *        Width 0 is a user error; width 1 degenerates to inline
     *        execution with no threads at all.
     */
    explicit ThreadPool(unsigned width);

    /** Joins all workers. Must not be called during a parallelFor(). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency including the calling thread (>= 1). */
    unsigned width() const { return width_; }

    /** What the host offers; never 0 even when detection fails. */
    static unsigned hardwareWidth();

    /**
     * Execute fn(0) .. fn(n-1) across the pool (the calling thread
     * participates) and return when every item has finished. Items
     * must not touch shared mutable state unless they synchronize it
     * themselves; indices are claimed in order but may complete in any
     * order on any thread. Not reentrant: fn must not itself call
     * parallelFor on this pool.
     */
    template <typename Fn>
    void
    parallelFor(size_t n, Fn &&fn)
    {
        using F = std::remove_reference_t<Fn>;
        runBatch(n,
                 [](void *ctx, size_t i) { (*static_cast<F *>(ctx))(i); },
                 const_cast<std::remove_const_t<F> *>(&fn));
    }

    /**
     * Execute fn(worker_id) exactly once on every thread of the pool —
     * the calling thread runs fn(0), spawned worker i runs fn(i + 1) —
     * and return when all have finished. Unlike parallelFor, the
     * mapping from id to host thread is fixed, so callers can hand each
     * participant a fixed share of the work (the round scheduler's
     * strided unit assignment). Same barrier
     * and reentrancy rules as parallelFor; allocation-free.
     */
    template <typename Fn>
    void
    parallelRun(Fn &&fn)
    {
        using F = std::remove_reference_t<Fn>;
        runPerWorker(
            [](void *ctx, size_t i) {
                (*static_cast<F *>(ctx))(static_cast<unsigned>(i));
            },
            const_cast<std::remove_const_t<F> *>(&fn));
    }

  private:
    using BatchFn = void (*)(void *ctx, size_t index);

    void runBatch(size_t n, BatchFn fn, void *ctx);
    void runPerWorker(BatchFn fn, void *ctx);
    void workerMain(unsigned id);

    /** Claim-and-run loop shared by workers and the caller. */
    void drainItems();

    unsigned width_;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake;     //!< caller -> workers: new batch
    std::condition_variable finished; //!< workers -> caller: batch done

    // Current batch, written under mtx before `generation` is bumped.
    BatchFn jobFn = nullptr;
    void *jobCtx = nullptr;
    size_t jobN = 0;
    std::atomic<size_t> nextIndex{0};

    uint64_t generation = 0; //!< batch sequence number (under mtx)
    unsigned pending = 0;    //!< workers still draining (under mtx)
    bool perWorker = false;  //!< batch is a parallelRun (under mtx)
    bool shutdown = false;   //!< workers must exit (under mtx)
};

} // namespace firesim

#endif // FIRESIM_BASE_THREAD_POOL_HH
