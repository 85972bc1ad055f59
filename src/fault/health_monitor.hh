/**
 * @file
 * The fault event log: structured diagnostics of a simulated
 * datacenter's faults.
 *
 * The HealthMonitor is a plain log, not a fabric observer, so keeping
 * one costs a run nothing. It is written by
 *  - the FaultInjector (injector.hh), one event per fault it applies,
 *  - the shard transport, through the Cluster, when a peer shard is
 *    lost (PeerShardLost),
 *  - the heartbeat monitor, through the Cluster, when it latches a
 *    straggling rank (StragglerDetected).
 * A token-protocol violation is not an event: the fabric panics on
 * it, naming the channel.
 */

#ifndef FIRESIM_FAULT_HEALTH_MONITOR_HH
#define FIRESIM_FAULT_HEALTH_MONITOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"

namespace firesim
{

class Serializer;

/** One structured fault diagnostic. */
struct FaultEvent
{
    /** The state image saves a kind as its integer value, so images
     *  compare only between runs of one build. */
    enum class Kind : uint8_t
    {
        // Applied by the FaultInjector.
        NodeCrash,
        NodeRestart,
        PortDown,
        PortRestored,
        PayloadDrop,
        FlitCorrupt,
        FlitDelay,
        // Reported by the distributed shard transport (net/remote).
        PeerShardLost, //!< a peer shard process died or timed out
        // Reported by the observability monitor (telemetry/monitor).
        StragglerDetected, //!< shard round latency >> cluster median
        kCount, //!< sentinel
    };

    Kind kind = Kind::NodeCrash;
    uint64_t round = 0;  //!< fabric round the event belongs to
    Cycles cycle = 0;    //!< target cycle (round start)
    std::string endpoint; //!< endpoint name, when attributable
    int port = -1;        //!< endpoint port, when attributable
    std::string channel;  //!< channel debug label, when attributable
    std::string detail;   //!< human-readable specifics

    /** One-line rendering for logs and reports. */
    std::string str() const;
};

/** Stable display name of an event kind. */
const char *faultKindName(FaultEvent::Kind kind);

class HealthMonitor
{
  public:
    /** Record an event, and warn() it unless logging is off. */
    void record(FaultEvent event);

    /** warn() each event as it is recorded (the default), or not. */
    void setLogEvents(bool on) { logEvents = on; }

    /** Upper bound on retained events (counters keep counting). */
    static constexpr size_t kMaxEvents = 4096;

    const std::vector<FaultEvent> &events() const { return log; }
    /** Total events of @p kind recorded (not bounded by kMaxEvents). */
    uint64_t count(FaultEvent::Kind kind) const;
    /** Total events recorded across all kinds. */
    uint64_t totalEvents() const;

    /** Multi-line report: the count of each kind recorded. */
    std::string report() const;

    /**
     * Serialize the event log and the per-kind counters, so two runs
     * whose health reports differ hold different sections.
     */
    void snapshotSave(Serializer &s) const;

  private:
    bool logEvents = true;
    std::vector<FaultEvent> log;
    std::array<Counter, static_cast<size_t>(FaultEvent::Kind::kCount)>
        counts;
};

} // namespace firesim

#endif // FIRESIM_FAULT_HEALTH_MONITOR_HH
