#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_event.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

TEST(TraceEventSink, EmitsParseableChromeDocument)
{
    TraceEventSink sink;
    uint32_t id = sink.intern("work");
    sink.complete(id, "phase", 1.0, 2.5, 3);

    minijson::ValuePtr doc = minijson::parse(sink.json());
    ASSERT_TRUE(doc->has("traceEvents"));
    const minijson::Value &events = doc->at("traceEvents");
    ASSERT_EQ(events.array.size(), 1u);
    const minijson::Value &ev = events.at(0);
    EXPECT_EQ(ev.at("name").str, "work");
    EXPECT_EQ(ev.at("cat").str, "phase");
    EXPECT_EQ(ev.at("ph").str, "X");
    EXPECT_DOUBLE_EQ(ev.at("ts").number, 1.0);
    EXPECT_DOUBLE_EQ(ev.at("dur").number, 2.5);
    EXPECT_DOUBLE_EQ(ev.at("tid").number, 3.0);
}

TEST(TraceEventSink, CapDropsAndCounts)
{
    TraceEventSink sink(2);
    uint32_t id = sink.intern("x");
    for (int i = 0; i < 5; ++i)
        sink.complete(id, "phase", i, 1.0);
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_EQ(sink.droppedEvents(), 3u);
    // Still a valid document.
    minijson::ValuePtr doc = minijson::parse(sink.json());
    EXPECT_EQ(doc->at("traceEvents").array.size(), 2u);
}

TEST(TraceEventSink, ScopedSpanRecordsItsLifetime)
{
    TraceEventSink sink;
    uint32_t id = sink.intern("scope");
    {
        ScopedSpan span(sink, id, "phase", 7);
    }
    ASSERT_EQ(sink.eventCount(), 1u);
    minijson::ValuePtr doc = minijson::parse(sink.json());
    const minijson::Value &ev = doc->at("traceEvents").at(0);
    EXPECT_EQ(ev.at("name").str, "scope");
    EXPECT_GE(ev.at("dur").number, 0.0);
}

TEST(SimRateTelemetry, TracksPhases)
{
    SimRateTelemetry rate;
    rate.beginPhase("warmup", 0);
    rate.endPhase(320000);
    ASSERT_EQ(rate.phases().size(), 1u);
    const SimRateTelemetry::Phase &p = rate.phases()[0];
    EXPECT_EQ(p.name, "warmup");
    EXPECT_EQ(p.targetCycles, 320000u);
    EXPECT_GT(p.hostSeconds, 0.0);
    EXPECT_GT(p.cyclesPerHostSecond(), 0.0);

    std::string report = rate.report(3.2);
    EXPECT_NE(report.find("warmup"), std::string::npos);
}

TEST(SimRateTelemetry, ZeroHostTimeReadsZeroNotInfinity)
{
    // A phase whose wall time rounds to zero (or was never measured)
    // must report a 0 rate, not divide by zero — the first round of a
    // fast functional-window run genuinely hits this.
    SimRateTelemetry::Phase p;
    p.name = "instant";
    p.targetCycles = 12345;
    p.hostSeconds = 0.0;
    EXPECT_EQ(p.cyclesPerHostSecond(), 0.0);
}

TEST(SimRateTelemetry, ZeroCyclePhaseHasZeroRate)
{
    // begin/end at the same target cycle: a legal no-op span (e.g. a
    // run(0) probe call). Zero cycles over nonzero host time is 0.
    SimRateTelemetry rate;
    rate.beginPhase("noop", 500);
    rate.endPhase(500);
    ASSERT_EQ(rate.phases().size(), 1u);
    const SimRateTelemetry::Phase &p = rate.phases()[0];
    EXPECT_EQ(p.targetCycles, 0u);
    EXPECT_EQ(p.startCycle, 500u);
    EXPECT_EQ(p.cyclesPerHostSecond(), 0.0);
}

TEST(SimRateTelemetry, PhasesRecordTheirStartCycle)
{
    // startCycle is what lets merged cross-shard traces align lanes
    // on the simulated clock (telemetry/aggregate).
    SimRateTelemetry rate;
    rate.beginPhase("boot", 0);
    rate.endPhase(20000);
    rate.beginPhase("steady", 20000);
    rate.endPhase(50000);
    ASSERT_EQ(rate.phases().size(), 2u);
    EXPECT_EQ(rate.phases()[0].startCycle, 0u);
    EXPECT_EQ(rate.phases()[0].targetCycles, 20000u);
    EXPECT_EQ(rate.phases()[1].startCycle, 20000u);
    EXPECT_EQ(rate.phases()[1].targetCycles, 30000u);
}

/** A 2-node ping cluster with full telemetry. */
static ClusterConfig
telemetryConfig()
{
    ClusterConfig cc;
    cc.linkLatency = 1000;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 10000;
    cc.telemetry.hostProfile = true;
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

TEST(ClusterTelemetry, ChromeTraceCoversRoundsSwitchesAndBlades)
{
    Cluster cluster(topologies::singleTor(2), telemetryConfig());
    Cycles rtt = runPing(cluster);
    ASSERT_GT(rtt, 0u);

    ASSERT_NE(cluster.telemetry(), nullptr);
    minijson::ValuePtr doc =
        minijson::parse(cluster.telemetry()->traceSink().json());

    std::set<std::string> cats;
    std::set<std::string> names;
    for (const minijson::ValuePtr &ev : doc->at("traceEvents").array) {
        cats.insert(ev->at("cat").str);
        names.insert(ev->at("name").str);
    }
    // The acceptance criterion: spans for fabric rounds, switch ticks
    // and blade ticks all present.
    EXPECT_TRUE(cats.count("fabric"));
    EXPECT_TRUE(cats.count("switch"));
    EXPECT_TRUE(cats.count("blade"));
    EXPECT_TRUE(names.count("fabric.round"));
    EXPECT_TRUE(names.count("switch0"));
    EXPECT_TRUE(names.count("node0"));
    EXPECT_TRUE(names.count("node1"));
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

TEST(ClusterTelemetry, SimRatePhasesCoverEveryRunCall)
{
    Cluster cluster(topologies::singleTor(2), telemetryConfig());
    cluster.run(20000);
    cluster.run(30000);
    const auto &phases = cluster.telemetry()->simRate().phases();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].targetCycles, 20000u);
    EXPECT_EQ(phases[0].startCycle, 0u);
    EXPECT_EQ(phases[1].targetCycles, 30000u);
    EXPECT_EQ(phases[1].startCycle, 20000u);
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

    for (const char *file : {"/stats.json", "/trace.json"}) {
        std::FILE *f = std::fopen((dir + file).c_str(), "rb");
        ASSERT_NE(f, nullptr) << file;
        std::string text;
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
        EXPECT_NO_THROW(minijson::parse(text)) << file;
    }
}

TEST(ClusterTelemetry, DisabledConfigBuildsNothing)
{
    ClusterConfig cc;
    Cluster cluster(topologies::singleTor(2), cc);
    EXPECT_EQ(cluster.telemetry(), nullptr);
}

} // namespace
} // namespace firesim
