/**
 * @file
 * Re-shard parity matrix: a snapshot written under one ShardPlan
 * restores under a *different* plan — 1<->2<->3 ranks, block placement
 * vs explicit owner maps — and the continued run is byte-identical
 * (stripped stat dumps) to the same plan's uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
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

constexpr Cycles kSave = 60000;
constexpr Cycles kTotal = 120000;

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

/** The workload every plan agrees on, keyed by *global* node index
 *  (sharded builds name local nodes by their global id): node0 pings
 *  node3 and node2 pings node1 (both cross shards under every split
 *  tested), node1 pings node0. */
void
spawnWork(Cluster &clu)
{
    for (size_t i = 0; i < clu.nodeCount(); ++i) {
        unsigned g = 0;
        ASSERT_EQ(std::sscanf(clu.node(i).name().c_str(), "node%u", &g),
                  1);
        switch (g) {
        case 0: spawnPinger(clu.node(i), 3); break;
        case 1: spawnPinger(clu.node(i), 0); break;
        case 2: spawnPinger(clu.node(i), 1); break;
        default: break;
        }
    }
}

std::string
strippedDump(Cluster &clu)
{
    return stripHostTimingStats(
        clu.telemetry()->registry().dumpJson(clu.now()));
}

/** Run the twoLevel(2,2) workload single-process; returns the final
 *  stripped dump. */
std::string
runSingle(const std::function<void(Cluster &)> &body)
{
    Cluster clu(topologies::twoLevel(2, 2), testConfig());
    spawnWork(clu);
    body(clu);
    return strippedDump(clu);
}

struct MultiSpec
{
    uint32_t shards = 2;
    std::vector<uint32_t> owners; //!< empty = block placement
};

/** Run the same workload split across @p spec.shards thread-ranks
 *  over a full socketpair mesh; returns per-rank stripped dumps. */
std::vector<std::string>
runMulti(const MultiSpec &spec,
         const std::function<void(Cluster &, uint32_t)> &body)
{
    uint32_t n = spec.shards;
    std::vector<std::vector<std::pair<uint32_t, SocketFd>>> fds(n);
    for (uint32_t a = 0; a < n; ++a) {
        for (uint32_t b = a + 1; b < n; ++b) {
            auto [fa, fb] = localSocketPair();
            fds[a].emplace_back(b, std::move(fa));
            fds[b].emplace_back(a, std::move(fb));
        }
    }

    std::vector<std::string> dumps(n);
    auto runRank = [&](uint32_t rank) {
        ClusterConfig cc = testConfig();
        cc.shard.shards = n;
        cc.shard.rank = rank;
        cc.shard.owners = spec.owners;
        Cluster clu(topologies::twoLevel(2, 2), std::move(cc),
                    std::move(fds[rank]));
        spawnWork(clu);
        body(clu, rank);
        dumps[rank] = strippedDump(clu);
    };
    std::vector<std::thread> rest;
    for (uint32_t r = 1; r < n; ++r)
        rest.emplace_back([&, r] { runRank(r); });
    runRank(0);
    for (auto &t : rest)
        t.join();
    return dumps;
}

// ---- Re-shard parity matrix -----------------------------------------

TEST(ReShard, OneProcessSnapshotRestoresAcrossPlans)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_reshard_1toN.snap");

    // The snapshot source: a single-process run saved mid-flight.
    runSingle([&](Cluster &clu) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(path), "");
        clu.run(kTotal - kSave);
    });

    auto resume_body = [&](Cluster &clu, uint32_t rank) {
        ASSERT_EQ(resumeFromSnapshot(clu, path), "") << "rank " << rank;
        EXPECT_EQ(clu.now(), kSave);
        clu.run(kTotal - kSave);
    };

    // 1 -> 2 ranks, block split.
    MultiSpec block2;
    std::vector<std::string> ref2 =
        runMulti(block2, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got2 = runMulti(block2, resume_body);
    ASSERT_FALSE(ref2[0].empty());
    EXPECT_EQ(got2[0], ref2[0]) << "rank 0 diverged after 1->2 re-shard";
    EXPECT_EQ(got2[1], ref2[1]) << "rank 1 diverged after 1->2 re-shard";

    // 1 -> 2 ranks, explicit owner map splitting tor0's servers
    // across ranks (stresses cross-shard switch<->server links).
    MultiSpec remap2;
    remap2.owners = {0, 1, 1, 0};
    std::vector<std::string> ref_remap =
        runMulti(remap2, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got_remap = runMulti(remap2, resume_body);
    EXPECT_NE(ref_remap[0], ref2[0])
        << "owner remap did not change rank 0's component set";
    EXPECT_EQ(got_remap[0], ref_remap[0])
        << "rank 0 diverged after 1->2 owner-remap re-shard";
    EXPECT_EQ(got_remap[1], ref_remap[1])
        << "rank 1 diverged after 1->2 owner-remap re-shard";

    // 1 -> 3 ranks.
    MultiSpec block3;
    block3.shards = 3;
    std::vector<std::string> ref3 =
        runMulti(block3, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got3 = runMulti(block3, resume_body);
    for (int r = 0; r < 3; ++r)
        EXPECT_EQ(got3[r], ref3[r])
            << "rank " << r << " diverged after 1->3 re-shard";
}

TEST(ReShard, ShardedSnapshotRestoresIntoOtherGeometries)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_reshard_Nto.snap");

    // Source: a 2-shard block run saved mid-flight.
    MultiSpec block2;
    runMulti(block2, [&](Cluster &clu, uint32_t rank) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(path), "") << "rank " << rank;
        clu.run(kTotal - kSave);
    });

    // 2 -> 1: merge back into a single process.
    std::string ref1 =
        runSingle([](Cluster &clu) { clu.run(kTotal); });
    std::string got1 = runSingle([&](Cluster &clu) {
        ASSERT_EQ(resumeFromSnapshot(clu, path), "");
        EXPECT_EQ(clu.now(), kSave);
        clu.run(kTotal - kSave);
    });
    ASSERT_FALSE(ref1.empty());
    EXPECT_EQ(got1, ref1) << "single process diverged after 2->1";

    auto resume_body = [&](Cluster &clu, uint32_t rank) {
        ASSERT_EQ(resumeFromSnapshot(clu, path), "") << "rank " << rank;
        EXPECT_EQ(clu.now(), kSave);
        clu.run(kTotal - kSave);
    };

    // 2 -> 2 with a different owner map (same rank count, different
    // placement — the header alone cannot tell these apart; the plan
    // section must).
    MultiSpec remap2;
    remap2.owners = {0, 1, 1, 0};
    std::vector<std::string> ref_remap =
        runMulti(remap2, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got_remap = runMulti(remap2, resume_body);
    EXPECT_EQ(got_remap[0], ref_remap[0])
        << "rank 0 diverged after owner-remap restore";
    EXPECT_EQ(got_remap[1], ref_remap[1])
        << "rank 1 diverged after owner-remap restore";

    // 2 -> 3 ranks.
    MultiSpec block3;
    block3.shards = 3;
    std::vector<std::string> ref3 =
        runMulti(block3, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got3 = runMulti(block3, resume_body);
    for (int r = 0; r < 3; ++r)
        EXPECT_EQ(got3[r], ref3[r])
            << "rank " << r << " diverged after 2->3 re-shard";
}

TEST(ReShard, SamePlanRestoreStillFullyVerifies)
{
    // The re-shard machinery must not have cost the same-plan path its
    // verification: restoring rank files written by a *different*
    // owner map under the same shard count goes through the re-home
    // path (checked above); restoring the same plan still runs the
    // stats byte-check, and a topology mismatch is still refused.
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_reshard_verify.snap");
    runSingle([&](Cluster &clu) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(path), "");
    });

    // Different topology: refused with a hash diagnostic.
    {
        ClusterConfig cc = testConfig();
        Cluster clu(topologies::singleTor(4), std::move(cc));
        spawnWork(clu);
        clu.run(kSave);
        std::string e = clu.loadSnapshot(path);
        EXPECT_NE(e.find("topology"), std::string::npos) << e;
    }

    // Same plan: clean verified restore.
    {
        Cluster clu(topologies::twoLevel(2, 2), testConfig());
        spawnWork(clu);
        clu.run(kSave);
        EXPECT_EQ(clu.loadSnapshot(path), "");
    }
}

} // namespace
} // namespace firesim
