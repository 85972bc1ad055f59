/**
 * @file
 * Round scheduling for the token fabric's worker pool.
 *
 * The fabric splits each round's advance phase into AdvanceUnits (one
 * per monolithic endpoint, or a sliced switch's begin phase and slices;
 * see net/fabric.hh). The RoundScheduler runs them on a worker pool
 * with a fixed strided assignment: worker w of W runs units w, w+W,
 * w+2W, ... every round.
 *
 * Determinism: the assignment moves host work between host threads and
 * never touches simulated state. Units share no mutable state (the
 * fabric's decomposition license, paper Section III-B2), and every
 * result-bearing callback runs on the driving thread in step order, so
 * simulation results, stats, and telemetry artifacts are byte-identical
 * for every worker count and slicing — property-tested in
 * tests/net/fabric_sched_test.cc.
 *
 * The scheduler also measures every unit's wall time and folds it into
 * a per-unit EWMA: TokenFabric::endpointCostNs reads it for the
 * deployment profile (manager/deploy). Host-time accounting
 * (SchedTelemetry) is wall-clock and therefore NOT part of the
 * bit-identical surface; it is exported into the StatRegistry only
 * behind TelemetryConfig::schedStats.
 *
 * Allocation discipline: every per-round structure is sized at
 * configure() time, keeping the parallel round loop's steady-state
 * zero-allocation guarantee (tests/net/fabric_alloc_test.cc).
 */

#ifndef FIRESIM_NET_SCHED_HH
#define FIRESIM_NET_SCHED_HH

#include <cstdint>
#include <vector>

#include "base/thread_pool.hh"

namespace firesim
{

/**
 * Host-side load-balance accounting, shared by the fabric's begin- and
 * main-pass schedulers so per-worker busy time aggregates per *round*.
 * All numbers are wall-clock: never byte-identical between runs, never
 * part of the deterministic telemetry surface.
 */
struct SchedTelemetry
{
    struct Worker
    {
        uint64_t busyNs = 0; //!< total ns spent inside unit advances
    };

    std::vector<Worker> workers;
    uint64_t rounds = 0;         //!< measured rounds
    uint64_t sumMaxBusyNs = 0;   //!< Σ over rounds of max-worker busy
    /** Σ over rounds of (Σ-worker busy / workers *that did work*).
     *  Dividing by the configured width would understate imbalance
     *  whenever a round uses fewer workers than the pool has (fewer
     *  units than workers, a begin-only pass, ...). */
    double sumMeanBusyNs = 0.0;

    /** Reset all counters for a pool of @p width workers. */
    void reset(unsigned width);

    /** Bracket one fabric round (driving thread). */
    void beginRound();
    void endRound();

    /**
     * Load-balance figure of merit, weighted by round length:
     * Σ(per-round max worker busy) / Σ(per-round mean busy of the
     * workers that did work). 1.0 is perfect balance; N is one worker
     * doing everything while N-1 active workers idle.
     */
    double maxMeanBusyRatio() const;

    uint64_t totalBusyNs() const;

    /** Per-round per-worker busy scratch (owned here so both fabric
     *  passes accumulate into the same round). */
    std::vector<uint64_t> roundBusy;
};

/**
 * Runs one pass's advance units across a worker pool each round. One
 * instance per fabric pass (begin pass, main pass): the EWMA cost table
 * is per-unit, and unit indices are pass-local.
 */
class RoundScheduler
{
  public:
    /** Type-erased unit body (allocation-free dispatch, like
     *  ThreadPool's BatchFn). */
    using UnitFn = void (*)(void *ctx, uint32_t unit);

    /**
     * (Re)configure for @p units work items on a pool of @p width
     * workers, accumulating load accounting into @p telemetry (whose
     * `workers` must already be sized for @p width). Resets the cost
     * model. Driving thread only, between rounds.
     */
    void configure(size_t units, unsigned width, SchedTelemetry *telemetry);

    /** Expected cost of @p unit in ns (0 until first measured). */
    double expectedCostNs(uint32_t unit) const { return ewmaNs.at(unit); }

    /**
     * Fold one wall-time measurement for @p unit into the cost model.
     * Samples are clamped to >= 1ns: 0.0 doubles as the never-measured
     * sentinel in the EWMA table, so an unclamped 0ns sample (cheap
     * unit + coarse clock) would leave the unit permanently "unseeded"
     * and re-seeded from scratch every round. Called by the worker
     * that owns @p unit (or the driving thread between rounds).
     */
    void recordSample(uint32_t unit, uint64_t raw_ns);

    /**
     * Run fn(ctx, u) exactly once for every configured unit across
     * @p pool (the calling thread participates), measure per-unit wall
     * time, and fold the measurements into the EWMA cost model and the
     * shared telemetry. Full barrier; driving thread only.
     */
    void dispatch(ThreadPool &pool, UnitFn fn, void *ctx);

  private:
    /** Worker @p worker's share: units worker, worker + width, ... */
    void runWorker(unsigned worker, unsigned width, UnitFn fn, void *ctx);

    size_t units_ = 0;
    SchedTelemetry *tel = nullptr;

    /** Per-unit cost model. Each slot is written only by the worker
     *  that runs the unit; the dispatch barrier publishes it. */
    std::vector<double> ewmaNs;

    /** Per-worker measurement scratch, padded to avoid false sharing. */
    struct alignas(64) WorkerScratch
    {
        uint64_t busyNs = 0;
    };
    std::vector<WorkerScratch> scratch;
};

} // namespace firesim

#endif // FIRESIM_NET_SCHED_HH
