/**
 * @file
 * The simulated operating system: threads, a per-core run-queue
 * scheduler with optional pinning, timers, and wait queues.
 *
 * This stands in for the RISC-V Linux stack FireSim boots on its
 * simulated blades. It is a timing model, not a functional kernel: every
 * kernel code path the paper's evaluation is sensitive to (scheduling,
 * wake-up placement, context switches, the network stack in
 * netstack.hh) is modeled with calibrated cycle costs on the blade's
 * event queue, which is what reproduces OS-level phenomena such as the
 * ~34 us ping overhead (Fig. 5) and memcached thread imbalance (Fig. 7).
 *
 * Scheduling model (CFS-flavoured round robin):
 *  - one run queue per core; threads are pinned or free,
 *  - free threads wake on their last core (cache affinity) unless its
 *    queue is long, mimicking CFS wake placement — including its
 *    occasional stacking of two runnable threads on one core,
 *  - kernel threads (softirq) have priority: they enqueue at the head
 *    and preempt user threads,
 *  - a running thread is preempted at timeslice expiry; context
 *    switches cost ctxSwitchCycles.
 */

#ifndef FIRESIM_OS_SIMOS_HH
#define FIRESIM_OS_SIMOS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "os/task.hh"
#include "sim/event_queue.hh"

namespace firesim
{

class SimOS;
class Serializer;

/** Tunable kernel-model parameters; defaults are calibrated for the
 *  paper's 3.2 GHz quad-core Rocket blades. */
struct OsConfig
{
    uint32_t cores = 4;
    /** Scheduler timeslice (1 ms). */
    Cycles timeslice = 3200000;
    /** Cost of switching threads on a core (1 us). */
    Cycles ctxSwitchCycles = 3200;
    /** Kernel entry/exit cost charged per syscall (0.5 us). */
    Cycles syscallCycles = 1600;
    /** Scheduler wake-up latency: IPI + enqueue (0.5 us). */
    Cycles wakeLatency = 1600;
    /** Wake placement: lastCore queue length above which a free thread
     *  is placed on the least-loaded core instead. */
    uint32_t wakeStackThreshold = 1;
    /**
     * Probability that a wake skips the idle-core scan and lands on
     * the (possibly busy) last core anyway — modeling the
     * select_idle_sibling races behind the "poor thread placement"
     * tail phenomenon of Fig. 7. Pinned threads are unaffected.
     */
    double wakeStackProb = 0.1;
    /** Seed for the OS's own stochastic decisions. */
    uint64_t seed = 1;
};

/**
 * One simulated thread. Created via SimOS::spawn(); applications never
 * construct these directly.
 */
class SimThread
{
  public:
    enum class State : uint8_t { Runnable, Running, Blocked, Done };
    enum class Pending : uint8_t { None, Cpu, Sleep, Block, Yield, Done };

    const std::string &name() const { return label; }
    State state() const { return state_; }
    int pin() const { return pinnedCore; }
    bool isKernel() const { return kernel; }
    /** Total CPU cycles consumed so far. */
    uint64_t cpuConsumed() const { return cpuUsed; }

  private:
    friend class SimOS;
    friend void simThreadCoroutineDone(SimThread *thread);

    std::string label;
    bool kernel = false;
    int pinnedCore = -1; //!< -1 = free to migrate
    int lastCore = 0;
    State state_ = State::Blocked;
    Pending pending = Pending::None;
    Cycles pendingCycles = 0; //!< remaining CPU burst
    Cycles wakeAt = 0;
    uint64_t cpuUsed = 0;
    std::coroutine_handle<> resumePoint;
    std::function<Task<>()> factory; //!< keeps lambda captures alive
    Task<> body;
    SimOS *os = nullptr;
};

/** FIFO of threads blocked on a condition; the building block for
 *  sockets, IRQ waits, and app-level synchronization. */
class WaitQueue
{
  public:
    /** Wake the longest-waiting thread, if any. @return true if woken. */
    bool notifyOne();
    /** Wake everyone. */
    void notifyAll();
    bool empty() const { return waiters.empty(); }

  private:
    friend class SimOS;
    std::deque<SimThread *> waiters;
    SimOS *os = nullptr;
};

class SimOS
{
  public:
    SimOS(OsConfig config, EventQueue &queue);

    const OsConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return eq; }
    Cycles now() const { return eq.now(); }
    Random &random() { return rng; }

    /**
     * Create a thread running @p fn (a coroutine factory; captures are
     * kept alive for the thread's lifetime).
     * @param pin core to pin to, or -1 for a free thread
     */
    SimThread *spawn(std::string name, int pin,
                     std::function<Task<>()> fn);

    /** Create a kernel-priority thread (softirq etc.). */
    SimThread *spawnKernel(std::string name,
                           std::function<Task<>()> fn);

    /** Wake a blocked thread (after the modeled wake latency). */
    void wake(SimThread *thread);

    /** Threads alive (not Done). */
    uint32_t threadsAlive() const;

    /**
     * Destroy every thread (and thus every coroutine frame). Must be
     * called before any object that thread-local state references
     * (sockets, network stack) is destroyed; NodeSystem does this in
     * its destructor.
     */
    void shutdown();

    /** Busy cycles accumulated across all cores. */
    uint64_t busyCycles() const { return totalBusy; }

    /** Diagnostic dump of core and thread states (stderr). */
    void debugDump() const;

    /**
     * Serialize the scheduler state: RNG stream, per-core run queues
     * (threads by spawn index), slice bookkeeping, and per-thread
     * scheduling fields. Coroutine frames cannot be serialized, so
     * restore compares this section with the live (replay-rebuilt)
     * scheduler and reports any divergence.
     */
    void snapshotSave(Serializer &s) const;

    // ---- awaitables used inside Task coroutines -----------------------

    struct CpuAwait;
    struct SleepAwait;
    struct YieldAwait;
    struct BlockAwait;

    /** Consume @p cycles of CPU time (preemptible). */
    CpuAwait cpu(Cycles cycles);
    /** Consume one syscall's worth of kernel time. */
    CpuAwait syscall();
    /** Block without CPU until @p cycles from now. */
    SleepAwait sleepFor(Cycles cycles);
    /** Block without CPU until absolute cycle @p at. */
    SleepAwait sleepUntil(Cycles at);
    /** Let equal-priority threads run. */
    YieldAwait yieldNow();
    /** Block on @p queue until woken via notifyOne/notifyAll. */
    BlockAwait waitOn(WaitQueue &queue);

  private:
    friend class WaitQueue;
    friend void simThreadCoroutineDone(SimThread *thread);

    struct Core
    {
        SimThread *running = nullptr;
        SimThread *lastRun = nullptr;
        std::deque<SimThread *> runq;
        uint64_t seq = 0;      //!< invalidates in-flight slice events
        Cycles sliceStart = 0; //!< when the current burst began
        bool inCtxSwitch = false;
    };

    SimThread *spawnImpl(std::string name, int pin, bool kernel,
                         std::function<Task<>()> fn);

    void opCpu(SimThread *thread, Cycles cycles);
    void opSleep(SimThread *thread, Cycles wake_at);
    void opBlock(SimThread *thread);
    void opYield(SimThread *thread);

    uint32_t pickCore(SimThread *thread);
    void enqueue(SimThread *thread, uint32_t core_idx);
    void maybePreempt(uint32_t core_idx);
    void dispatch(uint32_t core_idx);
    void continueThread(uint32_t core_idx, SimThread *thread);
    void offCore(uint32_t core_idx, SimThread *thread);
    void resumeThread(SimThread *thread);

    OsConfig cfg;
    EventQueue &eq;
    Random rng;
    std::vector<Core> cores;
    std::vector<std::unique_ptr<SimThread>> threads;
    uint64_t totalBusy = 0;
    uint32_t rrSpawn = 0; //!< round-robin initial placement cursor

  public:
    // Awaitable definitions (public so coroutines can name them).
    struct CpuAwait
    {
        SimOS *os;
        Cycles cycles;

        bool await_ready() { return cycles == 0; }

        template <typename Promise>
        void
        await_suspend(std::coroutine_handle<Promise> h)
        {
            SimThread *t = h.promise().thread;
            FS_ASSERT(t, "awaitable used outside a simulated thread");
            t->resumePoint = h;
            os->opCpu(t, cycles);
        }

        void await_resume() {}
    };

    struct SleepAwait
    {
        SimOS *os;
        Cycles wakeAt;

        bool await_ready() { return wakeAt <= os->now(); }

        template <typename Promise>
        void
        await_suspend(std::coroutine_handle<Promise> h)
        {
            SimThread *t = h.promise().thread;
            FS_ASSERT(t, "awaitable used outside a simulated thread");
            t->resumePoint = h;
            os->opSleep(t, wakeAt);
        }

        void await_resume() {}
    };

    struct YieldAwait
    {
        SimOS *os;

        bool await_ready() { return false; }

        template <typename Promise>
        void
        await_suspend(std::coroutine_handle<Promise> h)
        {
            SimThread *t = h.promise().thread;
            FS_ASSERT(t, "awaitable used outside a simulated thread");
            t->resumePoint = h;
            os->opYield(t);
        }

        void await_resume() {}
    };

    struct BlockAwait
    {
        SimOS *os;
        WaitQueue *queue;

        bool await_ready() { return false; }

        template <typename Promise>
        void
        await_suspend(std::coroutine_handle<Promise> h)
        {
            SimThread *t = h.promise().thread;
            FS_ASSERT(t, "awaitable used outside a simulated thread");
            t->resumePoint = h;
            queue->waiters.push_back(t);
            queue->os = os;
            os->opBlock(t);
        }

        void await_resume() {}
    };
};

} // namespace firesim

#endif // FIRESIM_OS_SIMOS_HH
