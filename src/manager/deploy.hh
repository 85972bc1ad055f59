/**
 * @file
 * Cost-aware deployment mapper (paper Section III-B: the simulation
 * manager "automatically partitions" a target across hosts — here the
 * partition is computed from *measured* load, not just topology).
 *
 * A DeploymentProfile carries the two host-side signals the runtime
 * already collects: per-endpoint advance cost (the round scheduler's
 * EWMA, net/sched) keyed by global server index, and per-directed-link
 * token traffic (channel flit counters plus the transport's per-link
 * TX counters) keyed by global link id. Each rank writes its local
 * view at end of run (--shard-profile-out); the loader merges the
 * per-rank files back into one whole-topology profile
 * (--shard-profile-in).
 *
 * computeCostOwners() turns a profile into a server->rank map for
 * ShardPlan::build(): a contiguous, cost-balanced quantile split (the
 * block policy is exactly this with uniform weights) refined by a
 * deterministic boundary pass that accepts lexicographic
 * (max rank load, cross-shard flits) improvements — a greedy min-cut /
 * load-balance tradeoff. The result never has a worse max load than
 * the block plan on the same weights (it falls back to block if the
 * search somehow loses), so --shard-policy=cost is safe to default to
 * a measured profile. Everything is a pure function of its inputs:
 * every rank computes the same owners from the same profile file, and
 * the map is sealed into ShardPlan::planHash at rendezvous.
 */

#ifndef FIRESIM_MANAGER_DEPLOY_HH
#define FIRESIM_MANAGER_DEPLOY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "manager/shard.hh"

namespace firesim
{

const char *shardPolicyName(ShardPolicy policy);
bool parseShardPolicy(const std::string &text, ShardPolicy &out);

/**
 * Measured per-component load, mergeable across ranks. Indices are
 * global (whole-topology numbering, manager/shard), so profiles from
 * different shard layouts of the same target merge cleanly.
 */
struct DeploymentProfile
{
    /** Topology+timing hash of the run that produced the profile
     *  (ShardPlan::topoHash). A profile only applies to plans with
     *  the same hash. */
    uint64_t topoHash = 0;
    /** Mean advance cost per round, ns, per global server index.
     *  0 = unmeasured (single-threaded runs have no scheduler EWMA). */
    std::vector<double> serverCostNs;
    /** Token flits carried per directed global link id
     *  (ShardPlan::downLinkId/upLinkId). */
    std::vector<uint64_t> linkFlits;

    /** True when nothing was measured (no server cost, no traffic). */
    bool empty() const;

    /** Fold @p other in: non-zero entries overwrite, sizes grow to
     *  cover both. topoHash is adopted from whichever is non-zero
     *  (mismatched non-zero hashes are a caller error, checked by
     *  load()). */
    void merge(const DeploymentProfile &other);

    /** Deterministic "FSPROF v2" text encoding: v1's lines plus a
     *  final `crc <hex>` line over every byte before it. */
    std::string encode() const;
    /** Parse encode()'s format. False + @p err on malformed input. */
    static bool decode(const std::string &text, DeploymentProfile &out,
                       std::string *err);

    /** Atomically write encode() to @p path ("" on success, else a
     *  diagnostic). */
    std::string saveFile(const std::string &path) const;

    /**
     * Merge the profile at @p path into *this; a missing file is not
     * an error (returns true, merges nothing — the first run of a
     * profile-in/profile-out loop has no profile yet). Malformed
     * contents or a topoHash conflicting with an already-merged one
     * return false with @p err set.
     */
    bool loadFile(const std::string &path, std::string *err);

    /**
     * Load @p path plus every `<path>.rank<k>` sibling (k = 0, 1, ...
     * until the first gap) — the merged view of a multi-rank
     * profile-out. Missing everything yields an empty profile.
     */
    static DeploymentProfile loadMerged(const std::string &path,
                                        std::string *err);
};

/**
 * Per-rank load of @p owners under @p profile weights (uniform when
 * unmeasured), plus the cross-shard traffic the map induces. The
 * mapper's objective function, exposed for tests and BENCH_reshard.
 */
struct PlanCost
{
    std::vector<double> rankLoadNs; //!< summed server weight per rank
    double maxLoadNs = 0;
    double meanLoadNs = 0;
    uint64_t cutFlits = 0; //!< flits crossing a shard boundary
};

PlanCost evaluateOwners(const ShardPlan &plan,
                        const std::vector<uint32_t> &owners,
                        const DeploymentProfile &profile);

/**
 * Compute a cost-balanced server->rank map over @p plan.shards ranks
 * (any plan of the right topology works — only its topology fields
 * are read). With an empty/mismatched profile this degrades to
 * uniform weights, whose quantile split *is* the block policy.
 */
std::vector<uint32_t> computeCostOwners(const ShardPlan &plan,
                                        const DeploymentProfile &profile);

} // namespace firesim

#endif // FIRESIM_MANAGER_DEPLOY_HH
