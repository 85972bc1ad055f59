/**
 * @file
 * Fabric health monitoring: structured fault diagnostics and graceful
 * degradation for the simulated datacenter.
 *
 * The HealthMonitor attaches to a TokenFabric as a FabricObserver and
 *  - converts recoverable token-protocol violations (an endpoint that
 *    stops producing batches, produces a malformed batch, or whose
 *    channel misbehaves) into structured FaultEvents instead of the
 *    panics an unmonitored fabric raises,
 *  - tracks per-endpoint round progress and per-channel occupancy so
 *    stalls and token deadlock are detected within a configurable
 *    round budget,
 *  - degrades endpoints that keep misbehaving past the budget: the
 *    fabric stops calling them and emits empty token batches on their
 *    behalf, keeping the surviving cluster cycle-exact.
 *
 * The FaultInjector (injector.hh) records the faults it *applies* into
 * the same event log, so a post-run health report shows injected and
 * detected events side by side.
 */

#ifndef FIRESIM_FAULT_HEALTH_MONITOR_HH
#define FIRESIM_FAULT_HEALTH_MONITOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "net/fabric.hh"

namespace firesim
{

/** One structured fault diagnostic (injected or detected). */
struct FaultEvent
{
    enum class Kind : uint8_t
    {
        // Detected by the HealthMonitor.
        BatchStall,         //!< endpoint produced a wrong-length batch
        BatchNonContiguous, //!< endpoint broke the token stream
        StaleBatch,         //!< input batch not for the current window
        ChannelUnderflow,   //!< input channel had no batch ready
        ChannelOccupancy,   //!< in-flight token count off (deadlock risk)
        EndpointDegraded,   //!< stall budget exhausted; endpoint parked
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
        // Appended after PeerShardLost: kinds are serialized as
        // integers in snapshots, so the order is part of the format.
        StragglerDetected, //!< shard round latency >> cluster median
        kCount, //!< sentinel
    };

    Kind kind = Kind::BatchStall;
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

/** HealthMonitor tuning. */
struct HealthConfig
{
    /**
     * Consecutive rounds an endpoint may misbehave (stalled or
     * malformed batches) before it is degraded to empty-token
     * emission. 0 = degrade on the first bad round.
     */
    uint32_t stallRoundBudget = 3;
    /** warn() each event as it is recorded. */
    bool logEvents = true;
};

class HealthMonitor : public FabricObserver
{
  public:
    /** Attaches itself to @p fabric; call after fabric.finalize(). */
    explicit HealthMonitor(TokenFabric &fabric, HealthConfig config = {});

    /** Record an event (also used by the FaultInjector). */
    void record(FaultEvent event);

    /** Upper bound on retained events (counters keep counting). */
    static constexpr size_t kMaxEvents = 4096;

    const std::vector<FaultEvent> &events() const { return log; }
    /** Total events of @p kind recorded (not bounded by kMaxEvents). */
    uint64_t count(FaultEvent::Kind kind) const;
    /** Total events recorded across all kinds. */
    uint64_t totalEvents() const;

    /** True when endpoint @p idx has been parked by the monitor. */
    bool isDegraded(size_t idx) const;
    size_t degradedCount() const;

    /** Rounds endpoint @p idx actually advanced (not skipped). */
    uint64_t roundsAdvanced(size_t idx) const;

    const HealthConfig &config() const { return cfg; }

    /** Multi-line post-run health report (event counts, degradations). */
    std::string report() const;

    /**
     * Serialize the full diagnostic record: the event log, per-kind
     * counters, per-endpoint health, latched channel-occupancy flags
     * and the round cursor, so two runs whose health reports differ
     * hold different sections.
     */
    void snapshotSave(Serializer &s) const;

    // ---- FabricObserver ---------------------------------------------
    void onRoundStart(Cycles round_start, uint64_t round) override;
    bool endpointDown(size_t endpoint_idx, Cycles round_start) override;
    void onEndpointSkipped(size_t endpoint_idx,
                           Cycles round_start) override;
    bool onAnomaly(Anomaly kind, size_t endpoint_idx, uint32_t port,
                   size_t channel_idx, Cycles round_start,
                   const TokenBatch &batch) override;
    void onRoundEnd(Cycles round_start, uint64_t round) override;

  private:
    struct EndpointHealth
    {
        uint64_t roundsAdvanced = 0;
        uint64_t roundsSkipped = 0;
        uint64_t anomalies = 0;
        uint32_t consecutiveBad = 0;
        bool badThisRound = false;
        bool skippedThisRound = false;
        bool degraded = false;
    };

    TokenFabric &fab;
    HealthConfig cfg;
    std::vector<FaultEvent> log;
    std::array<Counter, static_cast<size_t>(FaultEvent::Kind::kCount)>
        counts;
    std::vector<EndpointHealth> eps;
    std::vector<bool> occupancyFlagged; //!< per channel, latched
    uint64_t curRound = 0;
    Cycles curRoundStart = 0;
};

} // namespace firesim

#endif // FIRESIM_FAULT_HEALTH_MONITOR_HH
