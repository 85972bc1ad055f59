/**
 * @file
 * Round scheduling for the token fabric's worker pool.
 *
 * Each round's advance phase is one unit per endpoint (unit u is
 * endpoint u; see net/fabric.hh). The RoundScheduler runs them with one
 * ThreadPool::parallelRun dispatch and a fixed strided assignment:
 * worker w of W runs units w, w+W, w+2W, ... every round.
 *
 * Determinism: the assignment moves host work between host threads and
 * never touches simulated state. Units share no mutable state (the
 * fabric's decomposition license, paper Section III-B2), and every
 * result-bearing callback runs on the driving thread in step order, so
 * simulation results, stats, and telemetry artifacts are byte-identical
 * for every worker count — property-tested in
 * tests/net/fabric_sched_test.cc.
 *
 * The scheduler also measures every unit's wall time and folds it into
 * a per-unit EWMA: TokenFabric::endpointCostNs reads it for the
 * deployment profile (manager/deploy). Host-time accounting
 * (SchedTelemetry) is wall-clock and therefore NOT part of the
 * bit-identical surface; it is never exported into the StatRegistry.
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
 * Host-side load-balance accounting of a RoundScheduler, per worker and
 * per round. All numbers are wall-clock: never byte-identical between
 * runs, never part of the deterministic telemetry surface.
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
     *  units than workers). */
    double sumMeanBusyNs = 0.0;

    /** Reset all counters for a pool of @p width workers. */
    void reset(unsigned width);

    /** Fold one round's busy ns per worker (indexed by worker id;
     *  sized like `workers`). Driving thread only. */
    void recordRound(const std::vector<uint64_t> &busy);

    /**
     * Load-balance figure of merit, weighted by round length:
     * Σ(per-round max worker busy) / Σ(per-round mean busy of the
     * workers that did work). 1.0 is perfect balance; N is one worker
     * doing everything while N-1 active workers idle.
     */
    double maxMeanBusyRatio() const;

    uint64_t totalBusyNs() const;
};

/** Runs a round's advance units across a worker pool. */
class RoundScheduler
{
  public:
    /** Type-erased unit body (allocation-free dispatch, like
     *  ThreadPool's JobFn). */
    using UnitFn = void (*)(void *ctx, uint32_t unit);

    /**
     * (Re)configure for @p units work items on a pool of @p width
     * workers. Resets the cost model and the telemetry. Driving thread
     * only, between rounds.
     */
    void configure(size_t units, unsigned width);

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
     * telemetry. Full barrier; driving thread only.
     */
    void dispatch(ThreadPool &pool, UnitFn fn, void *ctx);

    const SchedTelemetry &telemetry() const { return tel; }

  private:
    /** Worker @p worker's share: units worker, worker + width, ... */
    void runWorker(unsigned worker, unsigned width, UnitFn fn, void *ctx);

    size_t units_ = 0;
    SchedTelemetry tel;

    /** Per-unit cost model. Each slot is written only by the worker
     *  that runs the unit; the dispatch barrier publishes it. */
    std::vector<double> ewmaNs;

    /** This round's busy ns per worker, each slot written once per
     *  dispatch by its worker. */
    std::vector<uint64_t> roundBusy;
};

} // namespace firesim

#endif // FIRESIM_NET_SCHED_HH
