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
     * (existing) directory at Cluster destruction. Each rank of a
     * sharded run writes its own files, rank-suffixed
     * (`stats.json.rank1`; see rankPath), so ranks may share one
     * directory.
     */
    std::string dumpDir;
};

class Telemetry
{
  public:
    /** @p shard_count and @p shard_rank pick the dump file names (a
     *  1-shard run keeps the bare names). */
    explicit Telemetry(TelemetryConfig config = {},
                       uint32_t shard_count = 1, uint32_t shard_rank = 0);

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

    /** End-of-run dump into config().dumpDir (no-op when empty).
     *  Each file is replaced atomically; failures warn. */
    void dumpAtExit(Cycles now);

  private:
    TelemetryConfig cfg;
    uint32_t shards;
    uint32_t rank;
    StatRegistry reg;
    std::unique_ptr<AutoCounterSampler> sampler_;
    bool attached = false;
};

/** `<path>.rank<N>`: the per-rank file of a sharded run's telemetry
 *  dumps, heartbeat trail and metrics file. A 1-shard run uses @p path
 *  unadorned. */
std::string rankPath(const std::string &path, uint64_t shards,
                     uint64_t rank);

/**
 * Atomically replace @p path with @p bytes: write `<path>.tmp`, fsync,
 * rename. A crash mid-write leaves either the old file or none, never
 * a torn one. Shared by the telemetry dumps and the Prometheus metrics
 * file. Returns empty on success, else a diagnostic prefixed with
 * @p what.
 */
std::string atomicWriteFile(const std::string &path,
                            const std::string &bytes, const char *what);

} // namespace firesim

#endif // FIRESIM_TELEMETRY_TELEMETRY_HH
