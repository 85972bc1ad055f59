/**
 * @file
 * Always-on crash flight recorder: a fixed-size lock-free ring of the
 * last N notable events (health events, peer losses, checkpoint
 * writes, restore divergences, heartbeats, stragglers), dumped to a
 * postmortem JSONL file when something dies — fatal signal, peer
 * loss, restore divergence — or on explicit request.
 *
 * Design constraints, in order:
 *  - recording must be cheap enough to leave on in production runs:
 *    one atomic fetch_add to claim a slot plus a bounded POD copy, no
 *    global lock, no allocation;
 *  - recording must be thread-safe and TSan-clean: fabric worker
 *    threads and the driving thread can record concurrently. Each
 *    slot carries its own tiny atomic spinlock, so two writers only
 *    ever contend on a wraparound collision of the same slot, and
 *    there the newer sequence number wins;
 *  - dumping must work from the ugliest contexts (a SIGSEGV handler):
 *    the ring is preallocated POD, and the write path reuses the
 *    snapshot layer's atomic tmp+fsync+rename helper so a crash
 *    mid-dump cannot tear an existing postmortem.
 *
 * The recorder observes; it never feeds back into simulation state,
 * so enabling it cannot perturb determinism.
 */

#ifndef FIRESIM_TELEMETRY_FLIGHT_RECORDER_HH
#define FIRESIM_TELEMETRY_FLIGHT_RECORDER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hh"

namespace firesim
{

struct FlightRecorderConfig
{
    /** Master switch (off = the Cluster allocates nothing). */
    bool enabled = false;
    /** Ring depth in events; the last `depth` events survive. */
    size_t depth = 256;
    /** Postmortem output path ("" = flight-recorder.jsonl in cwd;
     *  distributed runs get a .rank<N> suffix from the Cluster). */
    std::string path;
    /** Dump automatically on SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT.
     *  One recorder per process may install handlers. */
    bool installSignalHandler = false;
};

class FlightRecorder
{
  public:
    enum class EventKind : uint8_t
    {
        HealthEvent,     //!< HealthMonitor recorded a FaultEvent
        PeerLoss,        //!< a peer shard vanished
        CheckpointWrite, //!< a snapshot hit disk
        RestoreDiverged, //!< snapshot restore failed verification
        Heartbeat,       //!< monitor heartbeat emitted
        Straggler,       //!< straggler detection latched
        Note,            //!< free-form marker
        kCount,
    };

    static const char *kindName(EventKind kind);

    explicit FlightRecorder(FlightRecorderConfig config);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    const FlightRecorderConfig &config() const { return cfg; }

    /**
     * Record one event. @p detail is truncated to the slot's fixed
     * capacity; @p a / @p b are free-form numeric arguments (peer
     * rank, latency, ...). Thread-safe, allocation-free.
     */
    void record(EventKind kind, uint64_t round, Cycles cycle,
                const char *detail = "", uint64_t a = 0, uint64_t b = 0);

    /** Total events ever recorded (ring keeps the last depth()). */
    uint64_t recorded() const
    {
        return next.load(std::memory_order_relaxed);
    }

    size_t depth() const { return slots.size(); }

    /** The ring's surviving events, oldest first, one JSON object per
     *  line; ends with a `{"flight_recorder_end": ...}` trailer. */
    std::string renderJsonl(const std::string &reason) const;

    /**
     * Write renderJsonl() to config().path via the snapshot layer's
     * atomic write. Idempotent per reason (repeated dumps overwrite).
     * Returns false and warns on I/O failure.
     */
    bool dump(const std::string &reason);

  private:
    /** POD slot; `lock` doubles as the published-sequence word:
     *  0 = empty, odd = writer busy, even nonzero = seq*2+2 done. */
    struct Slot
    {
        std::atomic<uint64_t> state{0};
        uint64_t seq = 0;
        uint64_t hostNs = 0;
        uint64_t round = 0;
        uint64_t cycle = 0;
        uint64_t a = 0;
        uint64_t b = 0;
        EventKind kind = EventKind::Note;
        char detail[64] = {};
    };

    void installSignals();
    void uninstallSignals();

    FlightRecorderConfig cfg;
    std::vector<Slot> slots;
    std::atomic<uint64_t> next{0};
    std::chrono::steady_clock::time_point epoch;
    bool signalsInstalled = false;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_FLIGHT_RECORDER_HH
