#include "os/simos.hh"

#include <algorithm>
#include <unordered_map>

#include "snapshot/state_io.hh"

namespace firesim
{

void
simThreadCoroutineDone(SimThread *thread)
{
    thread->pending = SimThread::Pending::Done;
}

bool
WaitQueue::notifyOne()
{
    if (waiters.empty())
        return false;
    SimThread *t = waiters.front();
    waiters.pop_front();
    FS_ASSERT(os, "wait queue notified before first wait");
    os->wake(t);
    return true;
}

void
WaitQueue::notifyAll()
{
    while (notifyOne()) {
    }
}

SimOS::SimOS(OsConfig config, EventQueue &queue)
    : cfg(config), eq(queue), rng(config.seed)
{
    if (cfg.cores == 0)
        fatal("SimOS needs at least one core");
    cores.resize(cfg.cores);
}

SimThread *
SimOS::spawn(std::string name, int pin, std::function<Task<>()> fn)
{
    return spawnImpl(std::move(name), pin, false, std::move(fn));
}

SimThread *
SimOS::spawnKernel(std::string name, std::function<Task<>()> fn)
{
    return spawnImpl(std::move(name), -1, true, std::move(fn));
}

SimThread *
SimOS::spawnImpl(std::string name, int pin, bool kernel,
                 std::function<Task<>()> fn)
{
    if (pin >= static_cast<int>(cfg.cores))
        fatal("thread '%s' pinned to core %d of %u", name.c_str(), pin,
              cfg.cores);
    auto t = std::make_unique<SimThread>();
    t->label = std::move(name);
    t->pinnedCore = pin;
    t->kernel = kernel;
    t->os = this;
    t->factory = std::move(fn);
    t->body = t->factory();
    t->body.handle().promise().thread = t.get();
    t->resumePoint = t->body.handle();
    t->pending = SimThread::Pending::None;

    uint32_t core = pin >= 0 ? static_cast<uint32_t>(pin)
                             : (rrSpawn++ % cfg.cores);
    SimThread *raw = t.get();
    threads.push_back(std::move(t));
    enqueue(raw, core);
    return raw;
}

void
SimOS::shutdown()
{
    // Coroutine frames can hold RAII objects (sockets) that unregister
    // from the network stack on destruction, so frames must die while
    // the stack is still alive. Cores may still point at the threads;
    // clear them too — after shutdown the OS must not be advanced.
    for (auto &core : cores) {
        core.running = nullptr;
        core.lastRun = nullptr;
        core.runq.clear();
        ++core.seq;
    }
    threads.clear();
}

void
SimOS::debugDump() const
{
    static const char *snames[] = {"Runnable", "Running", "Blocked",
                                   "Done"};
    static const char *pnames[] = {"None", "Cpu", "Sleep", "Block",
                                   "Yield", "Done"};
    std::fprintf(stderr, "SimOS @%llu:\n", (unsigned long long)eq.now());
    for (size_t c = 0; c < cores.size(); ++c) {
        std::fprintf(stderr, "  core%zu: running=%s ctx=%d runq=[",
                     c,
                     cores[c].running ? cores[c].running->label.c_str()
                                      : "-",
                     cores[c].inCtxSwitch ? 1 : 0);
        for (SimThread *t : cores[c].runq)
            std::fprintf(stderr, "%s ", t->label.c_str());
        std::fprintf(stderr, "]\n");
    }
    for (const auto &t : threads) {
        if (t->state_ == SimThread::State::Done)
            continue;
        std::fprintf(stderr,
                     "  %-16s state=%s pending=%s cpuRem=%llu last=%d\n",
                     t->label.c_str(), snames[(int)t->state_],
                     pnames[(int)t->pending],
                     (unsigned long long)t->pendingCycles, t->lastCore);
    }
}

uint32_t
SimOS::threadsAlive() const
{
    uint32_t n = 0;
    for (const auto &t : threads)
        n += (t->state_ != SimThread::State::Done);
    return n;
}

// ---- operations invoked by awaitables ---------------------------------

void
SimOS::opCpu(SimThread *thread, Cycles cycles)
{
    thread->pending = SimThread::Pending::Cpu;
    thread->pendingCycles = cycles;
}

void
SimOS::opSleep(SimThread *thread, Cycles wake_at)
{
    thread->pending = SimThread::Pending::Sleep;
    thread->wakeAt = wake_at;
}

void
SimOS::opBlock(SimThread *thread)
{
    thread->pending = SimThread::Pending::Block;
}

void
SimOS::opYield(SimThread *thread)
{
    thread->pending = SimThread::Pending::Yield;
}

SimOS::CpuAwait
SimOS::cpu(Cycles cycles)
{
    return CpuAwait{this, cycles};
}

SimOS::CpuAwait
SimOS::syscall()
{
    return CpuAwait{this, cfg.syscallCycles};
}

SimOS::SleepAwait
SimOS::sleepFor(Cycles cycles)
{
    return SleepAwait{this, eq.now() + cycles};
}

SimOS::SleepAwait
SimOS::sleepUntil(Cycles at)
{
    return SleepAwait{this, at};
}

SimOS::YieldAwait
SimOS::yieldNow()
{
    return YieldAwait{this};
}

SimOS::BlockAwait
SimOS::waitOn(WaitQueue &queue)
{
    return BlockAwait{this, &queue};
}

// ---- scheduler ---------------------------------------------------------

void
SimOS::wake(SimThread *thread)
{
    if (thread->state_ != SimThread::State::Blocked)
        return; // already runnable/running: spurious notify
    eq.scheduleIn(cfg.wakeLatency, [this, thread] {
        if (thread->state_ != SimThread::State::Blocked)
            return;
        enqueue(thread, pickCore(thread));
    });
}

uint32_t
SimOS::pickCore(SimThread *thread)
{
    if (thread->pinnedCore >= 0)
        return static_cast<uint32_t>(thread->pinnedCore);

    auto load = [&](const Core &c) {
        return (c.running ? 1u : 0u) + static_cast<uint32_t>(c.runq.size());
    };

    if (thread->kernel) {
        // Kernel threads (softirq) take the first idle core.
        for (uint32_t i = 0; i < cores.size(); ++i)
            if (load(cores[i]) == 0)
                return i;
    } else {
        // CFS-style wake placement: the last core when it is idle
        // (cache affinity), otherwise scan for an idle sibling. With a
        // small probability the scan is skipped and the thread stacks
        // on its busy last core anyway — the select_idle_sibling race
        // behind the paper's Fig. 7 "poor thread placement" tails.
        uint32_t last = static_cast<uint32_t>(thread->lastCore);
        if (load(cores[last]) == 0)
            return last;
        if (!rng.chance(cfg.wakeStackProb)) {
            for (uint32_t i = 0; i < cores.size(); ++i)
                if (load(cores[i]) == 0)
                    return i;
        }
        if (load(cores[last]) <= cfg.wakeStackThreshold)
            return last;
    }

    uint32_t best = 0;
    uint32_t best_load = load(cores[0]);
    for (uint32_t i = 1; i < cores.size(); ++i) {
        uint32_t l = load(cores[i]);
        if (l < best_load) {
            best = i;
            best_load = l;
        }
    }
    return best;
}

void
SimOS::enqueue(SimThread *thread, uint32_t core_idx)
{
    Core &core = cores[core_idx];
    thread->state_ = SimThread::State::Runnable;
    thread->lastCore = static_cast<int>(core_idx);
    if (thread->kernel)
        core.runq.push_front(thread);
    else
        core.runq.push_back(thread);
    if (!core.running)
        dispatch(core_idx);
    else
        maybePreempt(core_idx);
}

void
SimOS::maybePreempt(uint32_t core_idx)
{
    Core &core = cores[core_idx];
    SimThread *running = core.running;
    if (!running || core.inCtxSwitch || core.runq.empty())
        return;
    SimThread *head = core.runq.front();
    // Kernel threads preempt user threads immediately (softirq model).
    if (!head->kernel || running->kernel)
        return;
    if (running->pending != SimThread::Pending::Cpu)
        return; // between bursts; it will release the core on its own

    Cycles elapsed = eq.now() - core.sliceStart;
    Cycles burst = std::min(cfg.timeslice, running->pendingCycles);
    if (elapsed > burst)
        elapsed = burst;
    running->pendingCycles -= elapsed;
    running->cpuUsed += elapsed;
    totalBusy += elapsed;
    ++core.seq; // invalidate the in-flight slice event
    running->state_ = SimThread::State::Runnable;
    core.runq.push_back(running);
    core.running = nullptr;
    dispatch(core_idx);
}

void
SimOS::dispatch(uint32_t core_idx)
{
    Core &core = cores[core_idx];
    if (core.running || core.runq.empty())
        return;
    SimThread *t = core.runq.front();
    core.runq.pop_front();
    core.running = t;
    t->state_ = SimThread::State::Running;
    t->lastCore = static_cast<int>(core_idx);

    Cycles ctx = (core.lastRun && core.lastRun != t) ? cfg.ctxSwitchCycles
                                                     : 0;
    core.lastRun = t;
    if (ctx == 0) {
        continueThread(core_idx, t);
        return;
    }
    totalBusy += ctx;
    core.inCtxSwitch = true;
    uint64_t myseq = ++core.seq;
    eq.scheduleIn(ctx, [this, core_idx, t, myseq] {
        Core &c = cores[core_idx];
        if (c.seq != myseq)
            return;
        c.inCtxSwitch = false;
        continueThread(core_idx, t);
    });
}

void
SimOS::resumeThread(SimThread *thread)
{
    FS_ASSERT(thread->resumePoint, "thread %s has no resume point",
              thread->label.c_str());
    thread->pending = SimThread::Pending::None;
    thread->resumePoint.resume();
}

void
SimOS::continueThread(uint32_t core_idx, SimThread *t)
{
    Core &core = cores[core_idx];
    FS_ASSERT(core.running == t, "continueThread on descheduled thread");

    while (true) {
        if (t->pending == SimThread::Pending::Cpu && t->pendingCycles > 0) {
            Cycles slice = std::min(cfg.timeslice, t->pendingCycles);
            uint64_t myseq = ++core.seq;
            core.sliceStart = eq.now();
            eq.scheduleIn(slice, [this, core_idx, t, myseq, slice] {
                Core &c = cores[core_idx];
                if (c.seq != myseq)
                    return;
                t->pendingCycles -= slice;
                t->cpuUsed += slice;
                totalBusy += slice;
                if (t->pendingCycles == 0) {
                    t->pending = SimThread::Pending::None;
                    continueThread(core_idx, t);
                } else if (c.runq.empty()) {
                    // Timeslice expired but nobody is waiting: renew.
                    continueThread(core_idx, t);
                } else {
                    // Round-robin preemption at timeslice expiry.
                    t->state_ = SimThread::State::Runnable;
                    c.runq.push_back(t);
                    c.running = nullptr;
                    dispatch(core_idx);
                }
            });
            return;
        }

        resumeThread(t);

        switch (t->pending) {
          case SimThread::Pending::Cpu:
            continue;
          case SimThread::Pending::Sleep: {
            Cycles at = std::max(t->wakeAt, eq.now());
            t->pending = SimThread::Pending::None;
            offCore(core_idx, t);
            eq.schedule(at, [this, t] {
                if (t->state_ != SimThread::State::Blocked)
                    return;
                enqueue(t, pickCore(t));
            });
            return;
          }
          case SimThread::Pending::Block:
            t->pending = SimThread::Pending::None;
            offCore(core_idx, t);
            return;
          case SimThread::Pending::Yield: {
            t->state_ = SimThread::State::Runnable;
            t->pending = SimThread::Pending::None;
            core.running = nullptr;
            // Re-place through the wake policy: a yielding thread moves
            // to an idle core when one exists (newidle balancing);
            // yielding onto its own core goes to the back of the queue
            // regardless of priority, so the threads it yielded to
            // actually run.
            uint32_t target = pickCore(t);
            if (target == core_idx)
                core.runq.push_back(t);
            else
                enqueue(t, target);
            dispatch(core_idx);
            return;
          }
          case SimThread::Pending::Done:
            t->state_ = SimThread::State::Done;
            core.running = nullptr;
            dispatch(core_idx);
            return;
          case SimThread::Pending::None:
            panic("thread %s suspended without an OS operation",
                  t->label.c_str());
        }
    }
}

void
SimOS::offCore(uint32_t core_idx, SimThread *t)
{
    Core &core = cores[core_idx];
    t->state_ = SimThread::State::Blocked;
    core.running = nullptr;
    dispatch(core_idx);
}

// ---- Checkpoint support ---------------------------------------------

void
SimOS::snapshotSave(Serializer &s) const
{
    saveRandom(s, rng);
    s.putU(totalBusy);
    s.putU(rrSpawn);

    // Threads are identified by spawn index, which deterministic replay
    // reproduces exactly.
    std::unordered_map<const SimThread *, uint64_t> index;
    for (size_t i = 0; i < threads.size(); ++i)
        index[threads[i].get()] = i;
    auto threadRef = [&index, &s](const SimThread *t) {
        // 0 = none, else index + 1.
        s.putU(t ? index.at(t) + 1 : 0);
    };

    s.putU(threads.size());
    for (const auto &tp : threads) {
        const SimThread &t = *tp;
        s.putStr(t.label);
        s.putB(t.kernel);
        s.putI(t.pinnedCore);
        s.putI(t.lastCore);
        s.putU(static_cast<uint64_t>(t.state_));
        s.putU(static_cast<uint64_t>(t.pending));
        s.putU(t.pendingCycles);
        s.putU(t.wakeAt);
        s.putU(t.cpuUsed);
    }

    s.putU(cores.size());
    for (const Core &c : cores) {
        threadRef(c.running);
        threadRef(c.lastRun);
        s.putU(c.runq.size());
        for (const SimThread *t : c.runq)
            threadRef(t);
        s.putU(c.seq);
        s.putU(c.sliceStart);
        s.putB(c.inCtxSwitch);
    }
}

} // namespace firesim
