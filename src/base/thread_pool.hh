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
 * The pool has one dispatch, parallelRun(): every thread runs the job
 * once with its fixed worker id, and the caller decides which share of
 * the work each id takes (the round scheduler's strided assignment,
 * net/sched.hh). Design constraints:
 *  - parallelRun() is allocation-free (the fabric's hot loop asserts
 *    steady-state zero allocations), so jobs are passed as a raw
 *    function pointer + context instead of a std::function.
 *  - The call is a full barrier with acquire/release semantics:
 *    everything workers wrote is visible to the caller when it returns,
 *    and everything the caller wrote before the call is visible to the
 *    workers. Both directions are sequenced through the pool mutex.
 */

#ifndef FIRESIM_BASE_THREAD_POOL_HH
#define FIRESIM_BASE_THREAD_POOL_HH

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

    /** Joins all workers. Must not be called during a parallelRun(). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency including the calling thread (>= 1). */
    unsigned width() const { return width_; }

    /** What the host offers; never 0 even when detection fails. */
    static unsigned hardwareWidth();

    /**
     * Execute fn(worker_id) exactly once on every thread of the pool —
     * the calling thread runs fn(0), spawned worker i runs fn(i + 1) —
     * and return when all have finished. The mapping from id to host
     * thread is fixed, so callers can hand each participant a fixed
     * share of the work. Calls to fn must not touch shared mutable
     * state unless they synchronize it themselves. Not reentrant: fn
     * must not itself call parallelRun on this pool.
     */
    template <typename Fn>
    void
    parallelRun(Fn &&fn)
    {
        using F = std::remove_reference_t<Fn>;
        runPerWorker(
            [](void *ctx, unsigned id) { (*static_cast<F *>(ctx))(id); },
            const_cast<std::remove_const_t<F> *>(&fn));
    }

  private:
    using JobFn = void (*)(void *ctx, unsigned worker_id);

    void runPerWorker(JobFn fn, void *ctx);
    void workerMain(unsigned id);

    unsigned width_;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake;     //!< caller -> workers: new job
    std::condition_variable finished; //!< workers -> caller: job done

    // Current job, written under mtx before `generation` is bumped.
    JobFn jobFn = nullptr;
    void *jobCtx = nullptr;

    uint64_t generation = 0; //!< job sequence number (under mtx)
    unsigned pending = 0;    //!< workers still running (under mtx)
    bool shutdown = false;   //!< workers must exit (under mtx)
};

} // namespace firesim

#endif // FIRESIM_BASE_THREAD_POOL_HH
