#include "telemetry/flight_recorder.hh"

#include <csignal>
#include <cstring>

#include "base/logging.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

namespace
{

// Slot state word: 0 = empty, odd = a writer or reader holds the
// slot, even nonzero = seq*2+2 of the event it contains.
constexpr uint64_t kLockBit = 1;

/** Acquire @p state, returning the previous (even) value; gives up
 *  after @p max_spins and returns false (signal-handler safety: a
 *  dump must not deadlock on a lock its own thread holds). */
bool
lockSlot(std::atomic<uint64_t> &state, uint64_t &prev, int max_spins)
{
    for (int i = 0; i < max_spins; ++i) {
        uint64_t v = state.load(std::memory_order_relaxed);
        if (v & kLockBit)
            continue;
        if (state.compare_exchange_weak(v, v | kLockBit,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
            prev = v;
            return true;
        }
    }
    return false;
}

void
unlockSlot(std::atomic<uint64_t> &state, uint64_t value)
{
    state.store(value, std::memory_order_release);
}

// The one recorder allowed to own process signal handlers.
std::atomic<FlightRecorder *> g_signalRecorder{nullptr};

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL,
                                 SIGABRT};
constexpr size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);

struct sigaction g_oldActions[kNumFatalSignals];

void
fatalSignalHandler(int signo)
{
    FlightRecorder *fr =
        g_signalRecorder.exchange(nullptr, std::memory_order_acq_rel);
    if (fr)
        fr->dump(csprintf("fatal signal %d (%s)", signo,
                          strsignal(signo)));
    // Restore default disposition and re-raise so the process still
    // dies with the original signal (core dumps, death tests, and
    // exit codes all stay truthful).
    signal(signo, SIG_DFL);
    raise(signo);
}

} // namespace

const char *
FlightRecorder::kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::HealthEvent: return "health-event";
      case EventKind::PeerLoss: return "peer-loss";
      case EventKind::CheckpointWrite: return "checkpoint-write";
      case EventKind::RestoreDiverged: return "restore-diverged";
      case EventKind::Heartbeat: return "heartbeat";
      case EventKind::Straggler: return "straggler";
      case EventKind::Note: return "note";
      case EventKind::kCount: break;
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : cfg(std::move(config)),
      slots(cfg.depth ? cfg.depth : 1),
      epoch(std::chrono::steady_clock::now())
{
    if (cfg.depth == 0)
        fatal("flight recorder depth must be nonzero");
    if (cfg.path.empty())
        cfg.path = "flight-recorder.jsonl";
    if (cfg.installSignalHandler)
        installSignals();
}

FlightRecorder::~FlightRecorder()
{
    uninstallSignals();
}

void
FlightRecorder::installSignals()
{
    FlightRecorder *expected = nullptr;
    if (!g_signalRecorder.compare_exchange_strong(
            expected, this, std::memory_order_acq_rel)) {
        warn("flight recorder: signal handlers already owned by "
             "another recorder; this one dumps only on request");
        return;
    }
    signalsInstalled = true;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = fatalSignalHandler;
    sigemptyset(&sa.sa_mask);
    for (size_t i = 0; i < kNumFatalSignals; ++i)
        sigaction(kFatalSignals[i], &sa, &g_oldActions[i]);
}

void
FlightRecorder::uninstallSignals()
{
    if (!signalsInstalled)
        return;
    signalsInstalled = false;
    FlightRecorder *expected = this;
    g_signalRecorder.compare_exchange_strong(expected, nullptr,
                                             std::memory_order_acq_rel);
    for (size_t i = 0; i < kNumFatalSignals; ++i)
        sigaction(kFatalSignals[i], &g_oldActions[i], nullptr);
}

void
FlightRecorder::record(EventKind kind, uint64_t round, Cycles cycle,
                       const char *detail, uint64_t a, uint64_t b)
{
    uint64_t seq = next.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots[seq % slots.size()];
    uint64_t prev;
    // Unbounded in practice: contention requires another writer to be
    // mid-copy on the *same* slot, i.e. a full ring wraparound racing
    // one bounded POD copy.
    if (!lockSlot(slot.state, prev, 1 << 20))
        return;
    // A writer preempted between claiming seq and locking its slot can
    // find it already holding an event `depth` or more sequence numbers
    // newer; keep the newer event and drop this one.
    if (prev > seq * 2 + 2) {
        unlockSlot(slot.state, prev);
        return;
    }
    slot.seq = seq;
    slot.hostNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
    slot.round = round;
    slot.cycle = cycle;
    slot.a = a;
    slot.b = b;
    slot.kind = kind;
    std::strncpy(slot.detail, detail ? detail : "",
                 sizeof(slot.detail) - 1);
    slot.detail[sizeof(slot.detail) - 1] = '\0';
    unlockSlot(slot.state, seq * 2 + 2);
}

std::string
FlightRecorder::renderJsonl(const std::string &reason) const
{
    std::string out;
    uint64_t total = next.load(std::memory_order_acquire);
    uint64_t first = total > slots.size() ? total - slots.size() : 0;
    uint64_t emitted = 0;
    for (uint64_t seq = first; seq < total; ++seq) {
        // const_cast: locking the slot mutates only the state word;
        // renderJsonl is logically const (it changes no event).
        Slot &slot =
            const_cast<Slot &>(slots[seq % slots.size()]);
        uint64_t prev;
        if (!lockSlot(slot.state, prev, 10000))
            continue; // writer stuck mid-copy; drop this slot
        Slot copy;
        bool valid = prev == seq * 2 + 2;
        if (valid) {
            copy.seq = slot.seq;
            copy.hostNs = slot.hostNs;
            copy.round = slot.round;
            copy.cycle = slot.cycle;
            copy.a = slot.a;
            copy.b = slot.b;
            copy.kind = slot.kind;
            std::memcpy(copy.detail, slot.detail, sizeof(copy.detail));
        }
        unlockSlot(slot.state, prev);
        if (!valid)
            continue; // lapped by a concurrent writer
        out += csprintf(
            "{\"seq\": %llu, \"host_ns\": %llu, \"kind\": \"%s\", "
            "\"round\": %llu, \"cycle\": %llu, \"a\": %llu, "
            "\"b\": %llu, \"detail\": \"%s\"}\n",
            (unsigned long long)copy.seq,
            (unsigned long long)copy.hostNs, kindName(copy.kind),
            (unsigned long long)copy.round,
            (unsigned long long)copy.cycle, (unsigned long long)copy.a,
            (unsigned long long)copy.b,
            jsonEscape(copy.detail).c_str());
        ++emitted;
    }
    out += csprintf("{\"flight_recorder_end\": {\"reason\": \"%s\", "
                    "\"recorded\": %llu, \"emitted\": %llu}}\n",
                    jsonEscape(reason).c_str(),
                    (unsigned long long)total,
                    (unsigned long long)emitted);
    return out;
}

bool
FlightRecorder::dump(const std::string &reason)
{
    std::string err =
        atomicWriteFile(cfg.path, renderJsonl(reason), "flight recorder");
    if (!err.empty()) {
        warn("flight recorder: %s", err.c_str());
        return false;
    }
    inform("flight recorder: postmortem (%s) written to %s",
           reason.c_str(), cfg.path.c_str());
    return true;
}

} // namespace firesim
