#include <gtest/gtest.h>

#include <vector>

#include "base/stats.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/telemetry.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

TEST(StatRegistry, RegisterAndSnapshot)
{
    StatRegistry reg;
    Counter c;
    c += 7;
    reg.registerCounter("cluster.switch0.packetsIn", c);
    reg.registerProbe("cluster.node0.ipc", [] { return 0.75; });

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.has("cluster.switch0.packetsIn"));
    EXPECT_FALSE(reg.has("cluster.switch1.packetsIn"));

    StatSnapshot snap = reg.snapshot(1234);
    EXPECT_EQ(snap.at, 1234u);
    EXPECT_DOUBLE_EQ(snap.value("cluster.switch0.packetsIn"), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("cluster.node0.ipc"), 0.75);
    EXPECT_EQ(snap.find("not.there"), nullptr);
    // values() reads the same stats in the same (name) order.
    EXPECT_EQ(reg.values(), (std::vector<double>{0.75, 7.0}));
}

TEST(StatRegistry, ProbesReadLiveValues)
{
    StatRegistry reg;
    Counter c;
    reg.registerCounter("a.b", c);
    EXPECT_DOUBLE_EQ(reg.snapshot().value("a.b"), 0.0);
    c += 42;
    EXPECT_DOUBLE_EQ(reg.snapshot().value("a.b"), 42.0);
}

TEST(StatRegistry, NamesAreSorted)
{
    StatRegistry reg;
    reg.registerProbe("z.last", [] { return 1.0; });
    reg.registerProbe("a.first", [] { return 2.0; });
    reg.registerProbe("m.middle", [] { return 3.0; });
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "m.middle");
    EXPECT_EQ(names[2], "z.last");
}

TEST(StatRegistry, HistogramExpandsToDerivedScalars)
{
    StatRegistry reg;
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.sample(static_cast<double>(i));
    reg.registerHistogram("net.rtt", h);

    StatSnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.value("net.rtt.count"), 100.0);
    EXPECT_DOUBLE_EQ(snap.value("net.rtt.mean"), 50.5);
    // Nearest-rank percentiles: values that actually occurred.
    EXPECT_DOUBLE_EQ(snap.value("net.rtt.p50"), 50.0);
    EXPECT_DOUBLE_EQ(snap.value("net.rtt.p99"), 99.0);
}

TEST(StatRegistryDeath, DuplicateNamePanics)
{
    StatRegistry reg;
    reg.registerProbe("a.b", [] { return 0.0; });
    EXPECT_DEATH(reg.registerProbe("a.b", [] { return 1.0; }),
                 "collision");
}

TEST(StatRegistryDeath, MalformedNamesPanic)
{
    StatRegistry reg;
    EXPECT_DEATH(reg.registerProbe("", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe(".leading", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe("trailing.", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe("two..dots", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe("bad char", [] { return 0.0; }), "");
}

TEST(StatRegistry, JsonDumpParsesBack)
{
    StatRegistry reg;
    Counter c;
    c += 123456789;
    reg.registerCounter("cluster.switch0.bytesOut", c);
    reg.registerProbe("cluster.node0.ipc", [] { return 0.625; });

    minijson::ValuePtr doc = minijson::parse(reg.dumpJson(4242));
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->at("cycle").number, 4242.0);
    const minijson::Value &stats = doc->at("stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_DOUBLE_EQ(stats.at("cluster.switch0.bytesOut").number,
                     123456789.0);
    EXPECT_DOUBLE_EQ(stats.at("cluster.node0.ipc").number, 0.625);
}

TEST(StatRegistry, IntegersDumpWithoutExponent)
{
    // Counters are doubles internally but must print as integers in
    // dumps (a bytes counter of 1e9 must not read "1e+09").
    EXPECT_EQ(StatRegistry::formatValue(1e9), "1000000000");
    EXPECT_EQ(StatRegistry::formatValue(0.0), "0");
    EXPECT_EQ(StatRegistry::formatValue(2.5), "2.5");
}

TEST(StatRegistry, JsonEscapesQuotesAndBackslashesInNames)
{
    // Names accept any printable ASCII now (workload labels like
    // net."eth0".rx are legal), so the JSON dump must escape them —
    // a quote in a stat name used to tear the document.
    StatRegistry reg;
    reg.registerProbe("net.\"eth0\".rx", [] { return 7.0; });
    reg.registerProbe("disk.c:\\scratch.writes", [] { return 3.0; });

    minijson::ValuePtr doc = minijson::parse(reg.dumpJson(10));
    const minijson::Value &stats = doc->at("stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_DOUBLE_EQ(stats.at("net.\"eth0\".rx").number, 7.0);
    EXPECT_DOUBLE_EQ(stats.at("disk.c:\\scratch.writes").number, 3.0);
}

TEST(StatRegistryDeath, ControlAndNonAsciiCharsStillPanic)
{
    // The relaxation stops at printable ASCII: spaces, control bytes
    // and high-bit bytes stay fatal (they would poison every dump
    // format at once).
    StatRegistry reg;
    EXPECT_DEATH(reg.registerProbe("a b", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe("a\tb", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe("a\x01b", [] { return 0.0; }), "");
    EXPECT_DEATH(reg.registerProbe("a\xc3\xa9", [] { return 0.0; }),
                 "");
}

TEST(StripHostTimingStats, DropsExactlyTheHostTimingEntries)
{
    EXPECT_TRUE(isHostTimingStat("cluster.shard.peer1.bytesTx"));
    // A `rankN.` prefix is an ordinary name component.
    EXPECT_FALSE(isHostTimingStat("rank12.cluster.shard.livePeers"));
    EXPECT_TRUE(isHostTimingStat("cluster.node0.core0.host.decode.hits"));
    EXPECT_TRUE(
        isHostTimingStat("cluster.fabric.host.roundsFastForwarded"));
    EXPECT_TRUE(
        isHostTimingStat("cluster.fabric.host.endpointRoundsStepped"));
    EXPECT_FALSE(isHostTimingStat("cluster.fabric.rounds"));
    EXPECT_FALSE(isHostTimingStat("cluster.switch0.packetsIn"));
    EXPECT_FALSE(isHostTimingStat("x.cluster.shard.y"));
    EXPECT_FALSE(isHostTimingStat("rankA.cluster.shard.y"));

    EXPECT_EQ(stripHostTimingStats(
                  "{\"cycle\": 5, \"stats\": {\"a.b\": 1, "
                  "\"cluster.shard.peer1.bytesTx\": 2, "
                  "\"n0.host.decode.hits\": 3, "
                  "\"cluster.fabric.host.roundsFastForwarded\": 6, "
                  "\"cluster.fabric.host.endpointRoundsStepped\": 7, "
                  "\"rank1.cluster.shard.x\": 4, \"rank1.n.c\": 5}}"),
              "{\"cycle\": 5, \"stats\": {\"a.b\": 1, "
              "\"rank1.cluster.shard.x\": 4, \"rank1.n.c\": 5}}");
    // A host-timing last entry takes the separator in front of it; a
    // host-timing only entry leaves an empty, still valid object.
    EXPECT_EQ(stripHostTimingStats("{\"cycle\": 5, \"stats\": {\"a\": 1, "
                                   "\"cluster.shard.x\": 2}}"),
              "{\"cycle\": 5, \"stats\": {\"a\": 1}}");
    EXPECT_EQ(stripHostTimingStats(
                  "{\"cycle\": 5, \"stats\": {\"cluster.shard.x\": 2}}"),
              "{\"cycle\": 5, \"stats\": {}}");
}

TEST(TelemetryFiles, RankPathSuffixesOnlyShardedRuns)
{
    EXPECT_EQ(rankPath("stats.json", 1, 0), "stats.json");
    EXPECT_EQ(rankPath("stats.json", 4, 2), "stats.json.rank2");
}

} // namespace
} // namespace firesim
