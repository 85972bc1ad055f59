/**
 * @file
 * Crash recovery and warm-boot scenario forking on top of the
 * Cluster's snapshot support (cluster.hh saveSnapshot/loadSnapshot).
 *
 * CheckpointManager wraps the run loop of a long simulation:
 *  - periodic snapshots every N fabric rounds (--checkpoint-every),
 *    each written atomically so a crash mid-write can never leave a
 *    torn file,
 *  - SIGTERM/SIGINT turn into a clean stop at the next round barrier
 *    with a final snapshot and a telemetry flush, so an interrupted
 *    run is resumable instead of lost,
 *  - resume (--restore) replays the freshly built cluster to the
 *    snapshot cycle and then byte-compares it with the saved state.
 *
 * runScenarioForks() implements warm-boot forking: boot a cluster
 * once (the expensive part), then fork() one child per scenario so K
 * divergent experiments — different fault plans, different seeds —
 * all start from the identical booted state without re-booting.
 */

#ifndef FIRESIM_MANAGER_CHECKPOINT_HH
#define FIRESIM_MANAGER_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/units.hh"

namespace firesim
{

class Cluster;

/** Periodic-checkpoint / crash-recovery knobs (bench flags map 1:1). */
struct CheckpointOptions
{
    /** Snapshot file; sharded runs add a `.rank<N>` suffix. */
    std::string path;
    /** Checkpoint every N fabric rounds; 0 disables periodic saves. */
    uint64_t everyRounds = 0;
    /** Log each checkpoint as it is written. */
    bool verbose = false;
};

class CheckpointManager
{
  public:
    /** @p opts.path must be non-empty when everyRounds is set; with an
     *  empty path a signal stops the run without a final snapshot. */
    CheckpointManager(Cluster &cluster, CheckpointOptions opts);

    /**
     * Advance the cluster by @p cycles, snapshotting at every
     * `everyRounds`-th round barrier. If a termination signal is
     * delivered (installSignalHandlers), the loop stops at the next
     * barrier, writes a final snapshot, flushes telemetry, and
     * returns false; true means the full span was simulated.
     */
    bool run(Cycles cycles);

    /** Snapshots written so far, final signal-driven one included. */
    uint64_t checkpointsWritten() const { return written; }

    /** True once a termination signal stopped run() early. */
    bool interrupted() const { return interrupted_; }

    /**
     * Install async-signal-safe SIGTERM/SIGINT handlers that only
     * set a flag; the run loop polls it between rounds. Idempotent.
     */
    static void installSignalHandlers();

    /** True when a termination signal has been delivered. */
    static bool signalPending();

    /** Reset the signal flag (tests, or to arm a second run). */
    static void clearSignal();

  private:
    std::string writeCheckpoint();

    Cluster &clu;
    CheckpointOptions opt;
    uint64_t written = 0;
    bool interrupted_ = false;
};

/**
 * Strip every entry whose name isHostTimingStat (telemetry/
 * stat_registry.hh) from a StatRegistry::dumpJson or
 * StatAggregator::mergedJson string, leaving only the deterministic
 * simulation stats. The distributed-vs-local parity tests and the
 * snapshot "stats" section compare dumps through this filter.
 */
std::string stripHostTimingStats(std::string json);

/**
 * True when a snapshot file for this cluster's shard rank exists at
 * @p path (the same `.rank<N>` suffix rule save/resume use). Benches
 * sweeping several configurations use this to tell "no snapshot was
 * taken for this sweep point, run it fresh" apart from a resume that
 * must succeed.
 */
bool snapshotExists(const Cluster &cluster, const std::string &path);

/**
 * Resume a freshly built cluster from a snapshot written by an
 * identically configured run: read the header, replay the cluster to
 * the snapshot's cycle (deterministic replay rebuilds the coroutine
 * frames and event closures a file cannot carry), then byte-compare
 * the replayed state with the saved one via Cluster::loadSnapshot
 * (replay + byte compare; nothing is applied). The cluster must not
 * have been run past the snapshot cycle. Returns "" on success, else
 * a diagnostic.
 */
std::string resumeFromSnapshot(Cluster &cluster,
                               const std::string &path);

/**
 * One-shot convenience over CheckpointManager: install the signal
 * handlers, then run @p cycles with a checkpoint to @p path every
 * @p every_rounds fabric rounds (0 = final-on-signal only). Returns
 * false when a termination signal stopped the run early (a final
 * snapshot and telemetry flush were written). Benches funnel their
 * --checkpoint / --checkpoint-every knobs through here.
 */
bool runWithCheckpoints(Cluster &cluster, Cycles cycles,
                        const std::string &path, uint64_t every_rounds,
                        bool verbose = false);

/**
 * Warm-boot scenario forking. The cluster must be booted (run past
 * its OS/network warm-up) and sitting at a round barrier. One child
 * process is forked per scenario; each child runs
 * @p scenario(fork_index) against its inherited copy of the cluster
 * state and exits with its return value. The parent only waits.
 *
 * Returns the per-fork exit statuses (0..255), in fork order.
 *
 * Restrictions: single-process mode only (no shards — the peer
 * sockets cannot be meaningfully shared by forks) and
 * parallelHosts == 1 (fork() only carries the calling thread).
 * Violations are fatal user errors.
 */
std::vector<int> runScenarioForks(
    Cluster &cluster, uint32_t forks,
    const std::function<int(uint32_t)> &scenario);

} // namespace firesim

#endif // FIRESIM_MANAGER_CHECKPOINT_HH
