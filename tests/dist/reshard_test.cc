/**
 * @file
 * Re-shard parity matrix: the same target run in one process, split
 * across 2 ranks (block placement and an explicit owner map) and
 * across 3 ranks holds the same state image mid-run and at the end.
 * Once a sharded run's rank images are unioned, every component and
 * channel section matches the one-process run's byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
#include "tests/state_image.hh"

namespace firesim
{
namespace
{

constexpr Cycles kMid = 60000;
constexpr Cycles kEnd = 120000;

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

struct PlanSpec
{
    uint32_t shards = 1;
    std::vector<uint32_t> owners; //!< empty = block placement
};

/** Each rank's state image at kMid and at kEnd. */
struct PlanImages
{
    std::vector<StateImage> mid, end;
};

/** Run the workload under @p spec, one thread per rank over a full
 *  socketpair mesh (one process when spec.shards is 1). */
PlanImages
runPlan(const PlanSpec &spec)
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

    PlanImages out;
    out.mid.resize(n);
    out.end.resize(n);
    auto runRank = [&](uint32_t rank) {
        ClusterConfig cc = testConfig();
        if (n > 1) {
            cc.shard.shards = n;
            cc.shard.rank = rank;
            cc.shard.owners = spec.owners;
        }
        Cluster clu(topologies::twoLevel(2, 2), std::move(cc),
                    std::move(fds[rank]));
        spawnWork(clu);
        clu.run(kMid);
        out.mid[rank] = clu.stateImage();
        clu.run(kEnd - kMid);
        out.end[rank] = clu.stateImage();
    };
    std::vector<std::thread> rest;
    for (uint32_t r = 1; r < n; ++r)
        rest.emplace_back([&, r] { runRank(r); });
    runRank(0);
    for (auto &t : rest)
        t.join();
    return out;
}

/** @p got's unioned images match @p one's at kMid and at kEnd. */
void
expectSameAsOneProcess(const PlanImages &got, const PlanImages &one,
                       const std::string &what)
{
    EXPECT_EQ(imageDiff(unionRankImages(one.mid), unionRankImages(got.mid)),
              "")
        << what << ", mid-run";
    EXPECT_EQ(imageDiff(unionRankImages(one.end), unionRankImages(got.end)),
              "")
        << what << ", at the end";
}

// ---- Re-shard parity matrix -----------------------------------------

TEST(ReShard, OneProcessImageMatchesTwoRankPlans)
{
    PlanImages one = runPlan({1, {}});
    ASSERT_FALSE(one.end[0].empty());

    PlanImages block = runPlan({2, {}});
    expectSameAsOneProcess(block, one, "2 ranks, block split");

    // An explicit owner map splitting tor0's servers across ranks
    // (stresses cross-shard switch<->server links).
    PlanImages remap = runPlan({2, {0, 1, 1, 0}});
    EXPECT_NE(imageDiff(block.end[0], remap.end[0]), "")
        << "owner remap did not change rank 0's component set";
    expectSameAsOneProcess(remap, one, "2 ranks, owner remap");
}

TEST(ReShard, OneProcessImageMatchesThreeRanks)
{
    PlanImages one = runPlan({1, {}});
    PlanImages three = runPlan({3, {}});
    expectSameAsOneProcess(three, one, "3 ranks");
}

} // namespace
} // namespace firesim
