/**
 * Cluster-level fault-injection properties from the issue:
 *  - a zero-fault FaultPlan leaves an 8-node cluster bit-identical to a
 *    run with no injector attached,
 *  - the same plan + seed replays bit-identically,
 *  - a crashed node degrades to empty-token emission: the surviving
 *    nodes' stats equal a run where that node simply never sent,
 *  - a downed switch port drops frames into the fault counters and
 *    shows up in the health report.
 */

#include <gtest/gtest.h>

#include "fault/fault_plan.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

namespace firesim
{
namespace
{

/** 8-node single-ToR cluster with a quiet health monitor. */
std::unique_ptr<Cluster>
makeCluster(const FaultPlan *plan)
{
    ClusterConfig cc;
    auto cluster =
        std::make_unique<Cluster>(topologies::singleTor(8), cc);
    if (plan) {
        cluster->health().setLogEvents(false);
        cluster->injectFaults(*plan);
    }
    return cluster;
}

/** Ping @p dst from @p src; returns the RTT in cycles (0 = no reply). */
Cycles
pingOnce(Cluster &cluster, size_t src, size_t dst, double budget_us)
{
    Cycles rtt = 0;
    NodeSystem &n = cluster.node(src);
    n.os().spawn("ping", -1, [&, dst]() -> Task<> {
        rtt = co_await n.net().ping(Cluster::ipFor(dst));
    });
    cluster.runUs(budget_us);
    return rtt;
}

TEST(ClusterFault, ZeroFaultPlanIsBitIdenticalToNoInjector)
{
    std::string reports[2];
    Cycles rtts[2];
    for (int with_plan = 0; with_plan < 2; ++with_plan) {
        FaultPlan empty;
        auto cluster = makeCluster(with_plan ? &empty : nullptr);
        rtts[with_plan] = pingOnce(*cluster, 0, 5, 300.0);
        reports[with_plan] = cluster->statsReport();
    }
    EXPECT_GT(rtts[0], 0u);
    EXPECT_EQ(rtts[0], rtts[1]);
    EXPECT_EQ(reports[0], reports[1]);
}

TEST(ClusterFault, SamePlanAndSeedReplaysBitIdentically)
{
    FaultPlan plan;
    plan.withSeed(2718)
        .dropPayload("node0", 0, 0, 0, 0.5)
        .crashNode("node3", 100000);
    std::string stats[2], health[2];
    for (int run = 0; run < 2; ++run) {
        auto cluster = makeCluster(&plan);
        pingOnce(*cluster, 0, 2, 300.0);
        stats[run] = cluster->statsReport();
        health[run] = cluster->healthReport();
    }
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_EQ(health[0], health[1]);
    // The plan actually did something (otherwise this test is vacuous).
    EXPECT_NE(health[0].find("node-crash"), std::string::npos);
}

TEST(ClusterFault, CrashedNodeEqualsNodeThatNeverSent)
{
    // Run A: node1 crashed from cycle 0. Run B: no faults; node1 is
    // simply idle. The survivors must see identical traffic.
    FaultPlan crash;
    crash.crashNode("node1", 0);
    auto crashed = makeCluster(&crash);
    auto baseline = makeCluster(nullptr);
    Cycles rtt_a = pingOnce(*crashed, 0, 2, 300.0);
    Cycles rtt_b = pingOnce(*baseline, 0, 2, 300.0);
    EXPECT_GT(rtt_a, 0u);
    EXPECT_EQ(rtt_a, rtt_b);
    for (size_t i = 0; i < crashed->nodeCount(); ++i) {
        if (i == 1)
            continue;
        const NicStats &a = crashed->node(i).blade().nic().stats();
        const NicStats &b = baseline->node(i).blade().nic().stats();
        EXPECT_EQ(a.framesSent.value(), b.framesSent.value()) << i;
        EXPECT_EQ(a.framesReceived.value(), b.framesReceived.value())
            << i;
        EXPECT_EQ(a.framesDroppedRx.value(), b.framesDroppedRx.value())
            << i;
    }
    // And the crashed node did nothing at all.
    const NicStats &dead = crashed->node(1).blade().nic().stats();
    EXPECT_EQ(dead.framesSent.value(), 0u);
}

TEST(ClusterFault, DownedPortDropsFramesIntoFaultCounters)
{
    FaultPlan plan;
    plan.portDown("switch0", 1, 0); // the port facing node1
    auto cluster = makeCluster(&plan);
    Cycles rtt = pingOnce(*cluster, 0, 1, 300.0);
    EXPECT_EQ(rtt, 0u); // echo request never crossed the switch
    EXPECT_FALSE(cluster->switchAt(0).portUp(1));
    const SwitchStats &st = cluster->switchAt(0).stats();
    EXPECT_GT(st.faultFlitsDroppedIn.value() +
                  st.faultPacketsDroppedOut.value(),
              0u);
    EXPECT_EQ(cluster->health().count(FaultEvent::Kind::PortDown), 1u);
    std::string report = cluster->healthReport();
    EXPECT_NE(report.find("port-down"), std::string::npos);
    EXPECT_NE(report.find("switch0"), std::string::npos);
}

TEST(ClusterFault, RestoredPortCarriesTrafficAgain)
{
    TargetClock clk(3.2);
    FaultPlan plan;
    plan.portDown("switch0", 1, 0, clk.cyclesFromUs(100.0));
    auto cluster = makeCluster(&plan);
    // While the port is down the ping is lost...
    Cycles rtt_down = pingOnce(*cluster, 0, 1, 150.0);
    EXPECT_EQ(rtt_down, 0u);
    // ...after the restore a fresh ping succeeds.
    Cycles rtt_up = pingOnce(*cluster, 2, 1, 150.0);
    EXPECT_GT(rtt_up, 0u);
    EXPECT_TRUE(cluster->switchAt(0).portUp(1));
    EXPECT_EQ(cluster->health().count(FaultEvent::Kind::PortRestored),
              1u);
}

TEST(ClusterFault, HealthReportWithoutMonitorSaysSo)
{
    auto cluster = makeCluster(nullptr);
    pingOnce(*cluster, 0, 1, 150.0);
    EXPECT_NE(cluster->healthReport().find("no monitor attached"),
              std::string::npos);
}

TEST(ClusterFaultDeath, DoubleInjectIsFatal)
{
    FaultPlan plan;
    plan.crashNode("node1", 0);
    auto cluster = makeCluster(&plan);
    EXPECT_EXIT(cluster->injectFaults(plan),
                ::testing::ExitedWithCode(1), "already has a fault plan");
}

} // namespace
} // namespace firesim
