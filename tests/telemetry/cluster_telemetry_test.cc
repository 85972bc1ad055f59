#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "telemetry/telemetry.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

/** A 2-node ping cluster with full telemetry. */
static ClusterConfig
telemetryConfig()
{
    ClusterConfig cc;
    cc.linkLatency = 1000;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 10000;
    return cc;
}

static Cycles
runPing(Cluster &cluster)
{
    Cycles rtt = 0;
    NodeSystem &n0 = cluster.node(0);
    n0.os().spawn("ping", -1, [&]() -> Task<> {
        rtt = co_await n0.net().ping(Cluster::ipFor(1));
    });
    cluster.runUs(300.0);
    return rtt;
}

TEST(ClusterTelemetry, RegistryCoversEveryComponent)
{
    Cluster cluster(topologies::singleTor(2), telemetryConfig());
    ASSERT_GT(runPing(cluster), 0u);

    StatRegistry &reg = cluster.telemetry()->registry();
    EXPECT_TRUE(reg.has("cluster.switch0.packetsOut"));
    EXPECT_TRUE(reg.has("cluster.node0.nic.framesSent"));
    EXPECT_TRUE(reg.has("cluster.node1.net.icmpEchoed"));
    EXPECT_TRUE(reg.has("cluster.node0.os.busyCycles"));
    EXPECT_TRUE(reg.has("cluster.node0.blockdev.reads"));
    EXPECT_TRUE(reg.has("cluster.fabric.rounds"));

    StatSnapshot snap = reg.snapshot(cluster.now());
    // The ping flowed: node1 echoed and both switches forwarded.
    EXPECT_GE(snap.value("cluster.node1.net.icmpEchoed"), 1.0);
    EXPECT_GE(snap.value("cluster.switch0.packetsOut"), 2.0);
    EXPECT_GE(snap.value("cluster.node0.nic.framesSent"), 1.0);
}

TEST(ClusterTelemetry, SamplerRunsOnTheClusterFabric)
{
    Cluster cluster(topologies::singleTor(2), telemetryConfig());
    ASSERT_GT(runPing(cluster), 0u);

    AutoCounterSampler *sampler = cluster.telemetry()->sampler();
    ASSERT_NE(sampler, nullptr);
    EXPECT_GT(sampler->series().size(), 0u);
    // Stamps are exact multiples of the period.
    for (const auto &s : sampler->series())
        EXPECT_EQ(s.at % 10000, 0u);
    // The frames-sent column is monotonic.
    std::vector<double> deltas =
        sampler->deltaSeries("cluster.node0.nic.framesSent");
    for (double d : deltas)
        EXPECT_GE(d, 0.0);
}

TEST(ClusterTelemetry, ObserversAreInvisibleToTheTarget)
{
    // The tentpole guarantee, end to end: a full-telemetry run and a
    // telemetry-off run produce identical target-side results — same
    // rtt, same cycle count, same per-node NIC counters.
    ClusterConfig off;
    off.linkLatency = 1000;
    Cluster base(topologies::singleTor(2), off);
    Cycles rtt_off = runPing(base);

    Cluster instrumented(topologies::singleTor(2), telemetryConfig());
    Cycles rtt_on = runPing(instrumented);

    EXPECT_EQ(rtt_off, rtt_on);
    EXPECT_EQ(base.now(), instrumented.now());
    for (size_t i = 0; i < 2; ++i) {
        const NicStats &a = base.node(i).blade().nic().stats();
        const NicStats &b = instrumented.node(i).blade().nic().stats();
        EXPECT_EQ(a.framesSent.value(), b.framesSent.value());
        EXPECT_EQ(a.framesReceived.value(), b.framesReceived.value());
        EXPECT_EQ(a.bytesSent.value(), b.bytesSent.value());
    }
    EXPECT_EQ(base.rootSwitch().stats().bytesOut.value(),
              instrumented.rootSwitch().stats().bytesOut.value());
}

TEST(ClusterTelemetry, DumpAtExitWritesParseableFiles)
{
    ScopedTempDir tmp;
    const std::string &dir = tmp.path();
    {
        ClusterConfig cc = telemetryConfig();
        cc.telemetry.dumpDir = dir;
        Cluster cluster(topologies::singleTor(2), cc);
        ASSERT_GT(runPing(cluster), 0u);
    } // ~Cluster dumps

    std::FILE *f = std::fopen((dir + "/stats.json").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    EXPECT_NO_THROW(minijson::parse(text));
    EXPECT_EQ(std::fopen((dir + "/trace.json").c_str(), "rb"), nullptr);
}

TEST(ClusterTelemetry, DisabledConfigBuildsNothing)
{
    ClusterConfig cc;
    Cluster cluster(topologies::singleTor(2), cc);
    EXPECT_EQ(cluster.telemetry(), nullptr);
}

} // namespace
} // namespace firesim
