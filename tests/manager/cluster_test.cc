#include <gtest/gtest.h>

#include "manager/cluster.hh"
#include "manager/topology.hh"

namespace firesim
{
namespace
{

TEST(Topology, SingleTorCounts)
{
    SwitchSpec t = topologies::singleTor(8);
    EXPECT_EQ(t.serverCount(), 8u);
    EXPECT_EQ(t.switchCount(), 1u);
    EXPECT_EQ(t.levels(), 1u);
    EXPECT_EQ(t.downlinkCount(), 8u);
}

TEST(Topology, TwoLevelMatchesFigure1)
{
    // Figure 1: one root, 8 ToRs, 8 servers each = 64 nodes.
    SwitchSpec t = topologies::twoLevel(8, 8);
    EXPECT_EQ(t.serverCount(), 64u);
    EXPECT_EQ(t.switchCount(), 9u);
    EXPECT_EQ(t.levels(), 2u);
}

TEST(Topology, ThreeLevelMatchesFigure10)
{
    // Figure 10: root + 4 aggs + 32 ToRs, 32 servers per ToR = 1024.
    SwitchSpec t = topologies::threeLevel(4, 8, 32);
    EXPECT_EQ(t.serverCount(), 1024u);
    EXPECT_EQ(t.switchCount(), 1u + 4u + 32u);
    EXPECT_EQ(t.levels(), 3u);
}

TEST(Topology, CustomShapesCompose)
{
    SwitchSpec root;
    SwitchSpec *left = root.addSwitch();
    left->addServers(3);
    root.addServer(ServerSpec::singleCore()); // server directly on root
    EXPECT_EQ(root.serverCount(), 4u);
    EXPECT_EQ(root.downlinkCount(), 2u);
    EXPECT_EQ(root.levels(), 2u);
}

TEST(ClusterBuild, AddressAssignmentIsStable)
{
    EXPECT_EQ(Cluster::macFor(0).str(), "02:00:00:00:00:01");
    EXPECT_EQ(Cluster::macFor(255).str(), "02:00:00:00:01:00");
    EXPECT_EQ(ipStr(Cluster::ipFor(0)), "10.0.0.1");
    EXPECT_EQ(ipStr(Cluster::ipFor(299)), "10.0.1.44");
}

TEST(ClusterBuild, BuildsTheFigure1Cluster)
{
    ClusterConfig cc;
    Cluster cluster(topologies::twoLevel(8, 8), cc);
    EXPECT_EQ(cluster.nodeCount(), 64u);
    EXPECT_EQ(cluster.switchCount(), 9u);
    // Root switch has 8 downlinks.
    EXPECT_EQ(cluster.rootSwitch().config().ports, 8u);
    // A ToR has 8 server downlinks + 1 uplink.
    EXPECT_EQ(cluster.switchAt(1).config().ports, 9u);
}

TEST(ClusterBuild, DefaultSingleProcessAttachesNoFabricObservers)
{
    // Every observer adds its callbacks to each round. A default
    // cluster — telemetry, monitor and faults off — must attach none,
    // and no shard transport either.
    Cluster cluster(topologies::twoLevel(2, 2), ClusterConfig{});
    EXPECT_EQ(cluster.fabric().observerCount(), 0u);
    EXPECT_EQ(cluster.shardTransport(), nullptr);
    // Plan order: switches first, then nodes.
    EXPECT_EQ(cluster.fabric().endpointIndexOf("switch2"), 2);
    EXPECT_EQ(cluster.fabric().endpointIndexOf("node0"), 3);
}

TEST(ClusterBuild, MacTablesRouteTowardServers)
{
    ClusterConfig cc;
    Cluster cluster(topologies::twoLevel(2, 2), cc);
    // Build order: root(0), tor(1){node0,node1}, tor(2){node2,node3}.
    Switch &root = cluster.rootSwitch();
    EXPECT_EQ(root.lookupMac(Cluster::macFor(0)), std::optional<uint32_t>(0u));
    EXPECT_EQ(root.lookupMac(Cluster::macFor(3)), std::optional<uint32_t>(1u));
    Switch &tor0 = cluster.switchAt(1);
    // Downlinks 0,1 are its own servers; uplink is port 2.
    EXPECT_EQ(tor0.lookupMac(Cluster::macFor(0)), std::optional<uint32_t>(0u));
    EXPECT_EQ(tor0.lookupMac(Cluster::macFor(1)), std::optional<uint32_t>(1u));
    EXPECT_EQ(tor0.lookupMac(Cluster::macFor(2)), std::optional<uint32_t>(2u));
    EXPECT_EQ(tor0.lookupMac(Cluster::macFor(3)), std::optional<uint32_t>(2u));
}

TEST(ClusterBuild, EveryNodeResolvesThroughOneSharedArpTable)
{
    Cluster cluster(topologies::twoLevel(3, 4), ClusterConfig{});
    const ArpTable &arp = cluster.arpTable();
    const size_t n = cluster.nodeCount();
    EXPECT_EQ(arp.size(), n);
    for (size_t i = 0; i < n; ++i) {
        const NetStack &net = cluster.node(i).net();
        EXPECT_EQ(&net.arpTable(), &arp) << "node " << i;
        EXPECT_EQ(net.resolve(Cluster::ipFor(i)), nullptr)
            << "node " << i << " must not resolve its own IP";
        EXPECT_EQ(net.resolve(Cluster::ipFor(n)), nullptr);
        for (size_t j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const MacAddr *mac = net.resolve(Cluster::ipFor(j));
            ASSERT_NE(mac, nullptr) << "node " << i << " -> " << j;
            EXPECT_EQ(*mac, Cluster::macFor(j));
        }
    }
}

TEST(ClusterBuild, CrossTorTrafficTraversesRoot)
{
    ClusterConfig cc;
    cc.linkLatency = 1000;
    Cluster cluster(topologies::twoLevel(2, 2), cc);
    // node0 (tor0) pings node2 (tor1): 8 link crossings + 4 switch hops
    // round trip. Compare with an intra-ToR ping (4 crossings, 2 hops).
    Cycles cross_rtt = 0, local_rtt = 0;
    NodeSystem &n0 = cluster.node(0);
    n0.os().spawn("ping", -1, [&]() -> Task<> {
        cross_rtt = co_await n0.net().ping(Cluster::ipFor(2));
        local_rtt = co_await n0.net().ping(Cluster::ipFor(1));
    });
    cluster.runUs(1000.0);
    ASSERT_GT(cross_rtt, 0u);
    ASSERT_GT(local_rtt, 0u);
    // The cross-ToR path adds 4 link latencies + 2 switch traversals.
    double extra = static_cast<double>(cross_rtt) -
                   static_cast<double>(local_rtt);
    EXPECT_NEAR(extra, 4.0 * 1000.0 + 2.0 * 10.0, 1500.0);
}

TEST(ClusterBuild, NodesSeeDistinctSeeds)
{
    ClusterConfig cc;
    Cluster cluster(topologies::singleTor(3), cc);
    uint64_t a = cluster.node(0).os().random().next();
    uint64_t b = cluster.node(1).os().random().next();
    EXPECT_NE(a, b);
}

TEST(ClusterBuild, StatsReportCoversEveryComponent)
{
    ClusterConfig cc;
    Cluster cluster(topologies::twoLevel(2, 2), cc);
    Cycles rtt = 0;
    NodeSystem &n0 = cluster.node(0);
    n0.os().spawn("ping", -1, [&]() -> Task<> {
        rtt = co_await n0.net().ping(Cluster::ipFor(3));
    });
    cluster.runUs(300.0);
    ASSERT_GT(rtt, 0u);
    std::string report = cluster.statsReport();
    // Every switch and node appears, and the traffic shows up.
    for (size_t i = 0; i < cluster.switchCount(); ++i)
        EXPECT_NE(report.find(csprintf("switch%zu", i)),
                  std::string::npos);
    for (size_t i = 0; i < cluster.nodeCount(); ++i)
        EXPECT_NE(report.find(csprintf("node%zu", i)), std::string::npos);
    EXPECT_NE(report.find("10.0.0.1"), std::string::npos);
}

TEST(ClusterBuildDeath, EmptyRootRejected)
{
    SwitchSpec empty;
    ClusterConfig cc;
    EXPECT_EXIT(Cluster(std::move(empty), cc),
                ::testing::ExitedWithCode(1), "empty root");
}

} // namespace
} // namespace firesim
