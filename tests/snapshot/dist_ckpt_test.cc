/**
 * @file
 * Distributed checkpoint/restore: a two-shard cluster (AF_UNIX
 * socketpair transport, two threads standing in for two processes)
 * snapshots at the same round barrier — one `<path>.rank<N>` file per
 * shard — and a fresh shard pair resumed from those files continues
 * byte-identically to the uninterrupted two-shard run. Also pins the
 * rank/shard-count validation on the per-rank files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
#include "snapshot/snapshot.hh"
#include "tests/scoped_temp_dir.hh"

namespace firesim
{
namespace
{

ClusterConfig
testConfig()
{
    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    return cc;
}

void
spawnPinger(NodeSystem &from, size_t to_index)
{
    from.os().spawn("pinger", -1, [&from, to_index]() -> Task<> {
        while (true)
            co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

ClusterConfig
shardConfig(uint32_t rank)
{
    ClusterConfig cc = testConfig();
    cc.shard.shards = 2;
    cc.shard.rank = rank;
    return cc;
}

/** Run one two-shard pair over a socketpair. @p body is called on
 *  each shard's thread with (cluster, rank); dumps are captured at
 *  the end. */
void
runShardPair(
    const std::function<void(Cluster &, uint32_t)> &body,
    std::string dumps[2])
{
    auto [fd0, fd1] = localSocketPair();
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));

    // Transport byte counters (cluster.shard.*) depend on kernel
    // recv() chunking, so byte identity is asserted on the filtered
    // dump — the same filter the snapshot's own stats check uses.
    std::thread shard1([&] {
        Cluster c1(topologies::twoLevel(2, 2), shardConfig(1),
                   std::move(fds1));
        body(c1, 1);
        dumps[1] = stripHostTimingStats(
            c1.telemetry()->registry().dumpJson(c1.now()));
    });
    {
        Cluster c0(topologies::twoLevel(2, 2), shardConfig(0),
                   std::move(fds0));
        body(c0, 0);
        dumps[0] = stripHostTimingStats(
            c0.telemetry()->registry().dumpJson(c0.now()));
    }
    shard1.join();
}

/** The workload both shards agree on: rank 0 owns global nodes 0,1;
 *  rank 1 owns global nodes 2,3 (as local 0,1). */
void
spawnWork(Cluster &clu, uint32_t rank)
{
    if (rank == 0) {
        spawnPinger(clu.node(0), 3); // cross-shard traffic
        spawnPinger(clu.node(1), 0);
    } else {
        spawnPinger(clu.node(0), 1); // global node 2 -> 1, cross-shard
    }
}

TEST(DistCheckpoint, TwoShardRestoreIsByteIdentical)
{
    constexpr Cycles kSave = 200000, kTotal = 400000;
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_dist.snap");

    // Reference: the uninterrupted two-shard run.
    std::string ref[2];
    runShardPair(
        [&](Cluster &clu, uint32_t rank) {
            spawnWork(clu, rank);
            clu.run(kTotal);
        },
        ref);

    // Save: both ranks snapshot at the same barrier, then continue —
    // the continuation must stay identical to the reference.
    std::string saved[2];
    runShardPair(
        [&](Cluster &clu, uint32_t rank) {
            spawnWork(clu, rank);
            clu.run(kSave);
            ASSERT_EQ(clu.saveSnapshot(path), "") << "rank " << rank;
            clu.run(kTotal - kSave);
        },
        saved);
    EXPECT_EQ(saved[0], ref[0]);
    EXPECT_EQ(saved[1], ref[1]);

    // Restore: a fresh pair replays to the barrier (both shards must
    // replay together — the rounds barrier needs both ends), loads
    // its rank file, and continues.
    std::string restored[2];
    runShardPair(
        [&](Cluster &clu, uint32_t rank) {
            spawnWork(clu, rank);
            ASSERT_EQ(resumeFromSnapshot(clu, path), "")
                << "rank " << rank;
            EXPECT_EQ(clu.now(), kSave);
            clu.run(kTotal - kSave);
        },
        restored);
    EXPECT_EQ(restored[0], ref[0])
        << "rank 0 diverged after distributed restore";
    EXPECT_EQ(restored[1], ref[1])
        << "rank 1 diverged after distributed restore";

    // The per-rank files really are per-rank: rank 0's file refuses
    // to load into a single-process cluster of the same topology.
    {
        SnapshotReader r;
        ASSERT_EQ(r.open(path + ".rank0"), "");
        EXPECT_EQ(r.header().shards, 2u);
        EXPECT_EQ(r.header().rank, 0u);
        EXPECT_EQ(r.header().cycle, kSave);
    }
}

} // namespace
} // namespace firesim
