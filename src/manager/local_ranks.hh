/**
 * @file
 * Shard ranks inside one process (paper Section III-B2: partitions
 * joined by the host's own transports). runLocalRanks builds N ranks
 * of one target, each a Cluster on its own thread, and joins them
 * all-to-all over AF_UNIX socketpairs. ShardSpec::transport Shm
 * upgrades every pair to shared-memory rings; anything else keeps the
 * socketpair as the byte stream. This is the one launcher for
 * same-process ranks; separate processes meet by TCP rendezvous.
 */

#ifndef FIRESIM_MANAGER_LOCAL_RANKS_HH
#define FIRESIM_MANAGER_LOCAL_RANKS_HH

#include <cstdint>
#include <functional>

#include "manager/cluster.hh"

namespace firesim
{

/**
 * Run @p n ranks of one target. Each rank gets a copy of @p config
 * with shard.shards = @p n and shard.rank stamped in, and a tree from
 * @p topology (called @p n times on the calling thread). On its own
 * thread it builds its Cluster, runs @p body on it, and destroys it,
 * so a rank's telemetry dumps are written before this returns. Rank 0
 * runs on the calling thread. Returns once every rank has finished,
 * and then rethrows the first exception a rank threw, if any. With
 * @p n == 1 this is one ordinary single-process Cluster. A rank's body
 * learns its rank from config().shard.rank.
 */
void runLocalRanks(uint32_t n, const std::function<SwitchSpec()> &topology,
                   const ClusterConfig &config,
                   const std::function<void(Cluster &)> &body);

} // namespace firesim

#endif // FIRESIM_MANAGER_LOCAL_RANKS_HH
