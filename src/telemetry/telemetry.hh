/**
 * @file
 * The per-cluster telemetry bundle: one StatRegistry, one optional
 * AutoCounter sampler, one optional host profiler with a Chrome
 * trace_event sink, and sim-rate accounting, configured together and
 * wired by the Cluster (manager/cluster.hh exposes telemetry()).
 *
 * Everything is off by default and free when off: with
 * TelemetryConfig::enabled false the Cluster allocates nothing and
 * attaches no fabric observers, so the tick loop runs the exact
 * pre-telemetry path (bench_telemetry_overhead holds this to <2%).
 */

#ifndef FIRESIM_TELEMETRY_TELEMETRY_HH
#define FIRESIM_TELEMETRY_TELEMETRY_HH

#include <memory>
#include <string>

#include "telemetry/auto_counter.hh"
#include "telemetry/instr_trace.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_event.hh"

namespace firesim
{

struct TelemetryConfig
{
    /** Master switch; when false the Cluster builds no telemetry. */
    bool enabled = false;
    /** AutoCounter sampling period in target cycles; 0 = no sampler. */
    Cycles samplePeriod = 0;
    /** Emit Chrome trace spans for rounds / switch ticks / blade ticks. */
    bool hostProfile = false;
    /**
     * Export the round scheduler's per-worker busy-time counters
     * (TokenFabric::schedTelemetry) into the stat registry under
     * cluster.fabric.sched.*. Off by default and deliberately separate
     * from `enabled`: these numbers are host wall-clock, so turning
     * them on makes stats.json vary run to run — everything else in the
     * registry stays byte-identical across worker counts.
     */
    bool schedStats = false;
    /** Span cap for the trace sink (long runs stay bounded). */
    size_t maxTraceEvents = 1 << 20;
    /**
     * When non-empty, dump stats.json, autocounter.csv and trace.json
     * into this (existing) directory at Cluster destruction. Sharded
     * runs additionally write rank 0's merged cross-shard dumps
     * (merged_stats.json/.csv, merged_trace.json; telemetry/aggregate).
     */
    std::string dumpDir;
    /**
     * Distributed runs only: piggyback this rank's telemetry snapshot
     * on the RoundDone barrier every this many rounds, so rank 0's
     * merged view stays live mid-run (0 = final-exchange only, which
     * still happens whenever dumpDir is set). Pure host observability;
     * any value leaves simulation results byte-identical.
     */
    uint32_t aggregateEvery = 0;
};

class Telemetry
{
  public:
    explicit Telemetry(TelemetryConfig config = {});

    const TelemetryConfig &config() const { return cfg; }

    StatRegistry &registry() { return reg; }
    const StatRegistry &registry() const { return reg; }
    TraceEventSink &traceSink() { return sink; }
    SimRateTelemetry &simRate() { return simRate_; }

    /** The sampler, or nullptr when samplePeriod is 0. */
    AutoCounterSampler *sampler() { return sampler_.get(); }
    /** The profiler, or nullptr when hostProfile is off. */
    HostProfiler *profiler() { return profiler_.get(); }

    /**
     * Create the configured sampler/profiler and register them as
     * observers of @p fabric. Call once, after fabric finalize() and
     * after all stats are registered.
     */
    void attach(TokenFabric &fabric);

    /** End-of-run dump into config().dumpDir (no-op when empty). */
    void dumpAtExit(Cycles now);

  private:
    TelemetryConfig cfg;
    StatRegistry reg;
    TraceEventSink sink;
    SimRateTelemetry simRate_;
    std::unique_ptr<AutoCounterSampler> sampler_;
    std::unique_ptr<HostProfiler> profiler_;
    bool attached = false;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_TELEMETRY_HH
