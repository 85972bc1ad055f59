/**
 * @file
 * Live cluster heartbeat monitor (paper Section III-C: the simulation
 * manager's operator view — FireSim operators watch hundreds of
 * FPGA-hosted nodes through one pane of glass).
 *
 * A ClusterMonitor is a round-level FabricObserver (it watches no
 * endpoint, so the fabric keeps stepping only the due ones) that times
 * a strided sample of rounds on the driving thread (latencySampleEvery)
 * and, every `heartbeatEvery` rounds, emits:
 *
 *  - one structured-JSONL heartbeat line (simulated cycle, target-MHz
 *    sim rate, per-shard round-latency EWMA, barrier skew, channel
 *    occupancy, health-event count, live peers),
 *  - an optional Prometheus text-exposition file, refreshed via an
 *    atomic tmp+fsync+rename write (atomicWriteFile) so scrapers never
 *    see a torn file,
 *  - an optional human-readable status line on a wall-clock cadence
 *    (--status-interval).
 *
 * It also runs per-shard straggler detection: every heartbeat it
 * takes the median round latency across {local EWMA, each peer's
 * RoundDone-reported EWMA} and latches any rank whose latency exceeds
 * stragglerFactor x that median, firing the straggler sink once per
 * rank (the Cluster raises a StragglerDetected health event through
 * it).
 *
 * Everything here reads simulation state and host clocks only — a
 * monitored run stays byte-identical to an unmonitored one, and with
 * MonitorConfig::enabled() false the Cluster allocates nothing
 * (bench_telemetry_overhead prints the heartbeat-on overhead).
 */

#ifndef FIRESIM_TELEMETRY_MONITOR_HH
#define FIRESIM_TELEMETRY_MONITOR_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "net/fabric.hh"

namespace firesim
{

class ShardTransport;

struct MonitorConfig
{
    /** Emit a heartbeat every this many fabric rounds (0 = off). */
    uint64_t heartbeatEvery = 0;
    /** Heartbeat JSONL path. The Cluster prefixes a relative path
     *  with its dump dir and rank-suffixes distributed runs. */
    std::string heartbeatPath = "heartbeat.jsonl";
    /** Human status line every this many wall seconds (0 = off). */
    uint64_t statusIntervalSec = 0;
    /** Prometheus text-exposition file, atomically refreshed on every
     *  heartbeat ("" = off). */
    std::string metricsPath;
    /** A rank is a straggler when its round-latency EWMA exceeds this
     *  factor times the cluster median. */
    double stragglerFactor = 3.0;
    /**
     * Time one round in every this many (round 0 always sampled; 0
     * behaves as 1 = every round). Reading the host clock twice per
     * round costs more than everything else the monitor does — on a
     * fast target a round is ~0.5 us of host time and each
     * steady_clock read is ~50 ns — so the latency EWMA feeding
     * straggler detection is built from a strided sample instead.
     */
    uint64_t latencySampleEvery = 64;

    bool
    enabled() const
    {
        return heartbeatEvery != 0 || statusIntervalSec != 0 ||
               !metricsPath.empty();
    }
};

class ClusterMonitor : public FabricObserver
{
  public:
    /** @p rank / @p shards name this process in heartbeats. */
    ClusterMonitor(MonitorConfig config, uint32_t rank, uint32_t shards);
    ~ClusterMonitor() override;

    const MonitorConfig &config() const { return cfg; }

    /** Cross-shard inputs (peer latencies, barrier stalls). Optional;
     *  single-process runs monitor themselves only. */
    void setTransport(const ShardTransport *transport)
    {
        transport_ = transport;
    }

    /** Count of health events to report in heartbeats (the Cluster
     *  bridges its HealthMonitor; telemetry cannot depend on fault). */
    void setHealthEventsProvider(std::function<uint64_t()> fn)
    {
        healthEventsFn = std::move(fn);
    }

    /** Fired once per rank when straggler detection latches. */
    using StragglerSinkFn = std::function<void(
        uint32_t rank, uint64_t latency_ns, uint64_t median_ns,
        uint64_t round, Cycles cycle)>;
    void setStragglerSink(StragglerSinkFn fn)
    {
        stragglerSink = std::move(fn);
    }

    /** Local round-latency EWMA in ns — the transport's RoundDone
     *  latency provider reads this. */
    uint64_t roundLatencyNs() const { return ewmaNs; }

    uint64_t heartbeats() const { return heartbeatCount; }

    /** Rounds actually timed (one per latencySampleEvery stride). */
    uint64_t latencySamples() const { return sampleCount; }

    /** Ranks latched as stragglers so far (ascending). */
    const std::vector<uint32_t> &stragglers() const
    {
        return latchedStragglers;
    }

    /** Force one heartbeat now, at the round boundary @p cycle
     *  (end-of-run flush; also testable). */
    void emitHeartbeat(Cycles cycle, uint64_t round)
    {
        emitHeartbeat(cycle, round, cycle);
    }

    // ---- FabricObserver ---------------------------------------------
    bool watchesEndpoints() const override { return false; }
    void onAttach(TokenFabric &fabric) override;
    void onRoundStart(Cycles round_start, uint64_t round) override;
    void onRoundEnd(Cycles round_start, uint64_t round) override;

  private:
    struct RankLatency
    {
        uint32_t rank = 0;
        uint64_t latencyNs = 0;
        bool alive = true;
    };

    /** {local EWMA} + every live peer's reported EWMA, by rank. */
    std::vector<RankLatency> rankLatencies() const;

    void detectStragglers(const std::vector<RankLatency> &lat,
                          uint64_t round, Cycles cycle);
    std::string heartbeatJson(Cycles cycle, uint64_t round,
                              const std::vector<RankLatency> &lat,
                              double sim_mhz, uint64_t occupancy,
                              uint64_t stall_ns) const;
    std::string prometheusText(Cycles cycle,
                               const std::vector<RankLatency> &lat,
                               double sim_mhz, uint64_t occupancy,
                               uint64_t stall_ns) const;
    void statusLine(Cycles cycle, uint64_t round, double sim_mhz,
                    const std::vector<RankLatency> &lat);
    /** One heartbeat for round @p round starting at @p cycle, with the
     *  channels counted as of the round boundary @p round_end. */
    void emitHeartbeat(Cycles cycle, uint64_t round, Cycles round_end);
    /** Tokens in flight over all channels, counted as a dense round
     *  leaves them at the boundary @p round_end (depthAt). */
    uint64_t channelOccupancy(Cycles round_end) const;
    uint64_t totalStallNs() const;

    MonitorConfig cfg;
    uint32_t rank_;
    uint32_t shards_;
    const TokenFabric *fabric = nullptr;
    const ShardTransport *transport_ = nullptr;
    std::function<uint64_t()> healthEventsFn;
    StragglerSinkFn stragglerSink;

    std::FILE *heartbeatFile = nullptr;

    using Clock = std::chrono::steady_clock;
    Clock::time_point roundT0;
    Clock::time_point epoch;
    Clock::time_point lastHeartbeatAt;
    Clock::time_point lastStatusAt;
    Cycles lastHeartbeatCycle = 0;
    bool firstHeartbeat = true;

    bool samplingThisRound = false;

    /** Round-latency EWMA weight of the newest sample, in 1/256ths
     *  (51/256 is about 0.2). */
    static constexpr uint64_t kEwmaWeight = 51;
    uint64_t ewmaNs = 0;
    uint64_t sampleCount = 0;
    uint64_t heartbeatCount = 0;
    std::vector<uint32_t> latchedStragglers;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_MONITOR_HH
