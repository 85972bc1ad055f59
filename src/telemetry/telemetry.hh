/**
 * @file
 * The per-cluster telemetry bundle: one StatRegistry and one optional
 * AutoCounter sampler, configured together and wired by the Cluster
 * (manager/cluster.hh exposes telemetry()).
 *
 * Everything is off by default and free when off: with
 * TelemetryConfig::enabled false the Cluster allocates nothing and
 * attaches no fabric observers, so the tick loop runs the exact
 * pre-telemetry path (bench_telemetry_overhead measures the cost of
 * each mode). Host-time attribution lives outside the simulator, in
 * perfbench's `--trace 1` span tracer.
 */

#ifndef FIRESIM_TELEMETRY_TELEMETRY_HH
#define FIRESIM_TELEMETRY_TELEMETRY_HH

#include <memory>
#include <string>

#include "telemetry/auto_counter.hh"
#include "telemetry/instr_trace.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

struct TelemetryConfig
{
    /** Master switch; when false the Cluster builds no telemetry. */
    bool enabled = false;
    /** AutoCounter sampling period in target cycles; 0 = no sampler. */
    Cycles samplePeriod = 0;
    /**
     * When non-empty, dump stats.json and autocounter.csv into this
     * (existing) directory at Cluster destruction. Sharded runs
     * additionally write rank 0's merged cross-shard dumps
     * (merged_stats.json/.csv; telemetry/aggregate).
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

    /** The sampler, or nullptr when samplePeriod is 0. */
    AutoCounterSampler *sampler() { return sampler_.get(); }

    /**
     * Create the configured sampler and register it as an observer of
     * @p fabric. Call once, after fabric finalize() and after all
     * stats are registered.
     */
    void attach(TokenFabric &fabric);

    /** End-of-run dump into config().dumpDir (no-op when empty). */
    void dumpAtExit(Cycles now);

  private:
    TelemetryConfig cfg;
    StatRegistry reg;
    std::unique_ptr<AutoCounterSampler> sampler_;
    bool attached = false;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_TELEMETRY_HH
