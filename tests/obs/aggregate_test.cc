/**
 * @file
 * Cross-shard telemetry aggregation (telemetry/aggregate.hh): the
 * varint RankTelemetry wire encoding must round-trip exactly, reject
 * every malformed prefix/suffix strictly (network bytes never panic),
 * and the StatAggregator's merged renderings must carry per-rank
 * `rankK.` prefixes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/varint.hh"
#include "telemetry/aggregate.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

RankTelemetry
sampleTelemetry(uint32_t rank, Cycles cycle)
{
    RankTelemetry rt;
    rt.rank = rank;
    rt.round = 17;
    rt.cycle = cycle;
    rt.stats.at = cycle;
    // Sorted, prefix-heavy names: the shape the registry produces and
    // the encoding's prefix compression is built for.
    rt.stats.values = {
        {"cluster.node0.nic.bytesSent", 123456789.0},
        {"cluster.node0.nic.framesSent", 42.0},
        {"cluster.node0.os.ipc", 0.625},
        {"cluster.switch0.packetsOut", -5.0},
        {"cluster.switch0.queue.p99", 1.75e17},
    };
    return rt;
}

TEST(RankTelemetryCodec, RoundTripsExactly)
{
    RankTelemetry rt = sampleTelemetry(3, 640000);
    std::string bytes = encodeRankTelemetry(rt);
    RankTelemetry back;
    ASSERT_TRUE(decodeRankTelemetry(bytes, back));

    EXPECT_EQ(back.rank, rt.rank);
    EXPECT_EQ(back.round, rt.round);
    EXPECT_EQ(back.cycle, rt.cycle);
    EXPECT_EQ(back.stats.at, rt.cycle);
    ASSERT_EQ(back.stats.values.size(), rt.stats.values.size());
    for (size_t i = 0; i < rt.stats.values.size(); ++i) {
        EXPECT_EQ(back.stats.values[i].first, rt.stats.values[i].first);
        // Integral values ride zigzag varints, non-integral ones raw
        // IEEE-754 bits — either way bit-exact, not approximate.
        EXPECT_EQ(back.stats.values[i].second,
                  rt.stats.values[i].second)
            << rt.stats.values[i].first;
    }
}

TEST(RankTelemetryCodec, EmptyTelemetryRoundTrips)
{
    RankTelemetry rt;
    rt.rank = 0;
    std::string bytes = encodeRankTelemetry(rt);
    RankTelemetry back;
    ASSERT_TRUE(decodeRankTelemetry(bytes, back));
    EXPECT_EQ(back.stats.values.size(), 0u);
}

TEST(RankTelemetryCodec, RejectsEveryTruncation)
{
    // The decoder's contract: malformed or truncated bytes return
    // false, never panic, never read out of bounds. Every strict
    // prefix of a valid encoding is truncated, so all must fail.
    std::string bytes = encodeRankTelemetry(sampleTelemetry(1, 9999));
    RankTelemetry out;
    for (size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(decodeRankTelemetry(bytes.substr(0, len), out))
            << "prefix of length " << len << " decoded";
    }
    ASSERT_TRUE(decodeRankTelemetry(bytes, out));
}

TEST(RankTelemetryCodec, RejectsTrailingJunkAndBadVersion)
{
    std::string bytes = encodeRankTelemetry(sampleTelemetry(1, 50));
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(bytes + "x", out));

    std::string bad = bytes;
    bad[0] = static_cast<char>(kRankTelemetryVersion + 1);
    EXPECT_FALSE(decodeRankTelemetry(bad, out));
}

TEST(RankTelemetryCodec, RejectsVersionOnePayloads)
{
    // Version 1 appended a sim-rate phase list after the stats. A v1
    // peer's payload is dropped, whatever its body looks like: both a
    // genuine v1 layout (empty stats, one phase) and a v2 body that
    // only carries the old version number.
    std::string v1;
    putVarint(v1, 1);                     // version
    putVarint(v1, 1);                     // rank
    putVarint(v1, 5);                     // round
    putVarint(v1, 640);                   // cycle
    putVarint(v1, 0);                     // nstats
    putVarint(v1, 1);                     // nphases
    putVarint(v1, 5);
    v1 += "run.0";
    putVarint(v1, 0);                     // startCycle
    putVarint(v1, 640);                   // targetCycles
    v1.append(8, '\0');                   // hostSeconds
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(v1, out));

    std::string relabeled = encodeRankTelemetry(sampleTelemetry(1, 50));
    ASSERT_TRUE(decodeRankTelemetry(relabeled, out));
    relabeled[0] = 1;
    EXPECT_FALSE(decodeRankTelemetry(relabeled, out));
}

TEST(StatAggregator, AcceptEncodedDropsMalformedAndMismatchedRank)
{
    StatAggregator agg;
    agg.acceptEncoded(1, "definitely not telemetry");
    EXPECT_EQ(agg.rankCount(), 0u);

    // A payload that internally claims a different rank than the
    // transport delivered it from is dropped, not trusted.
    agg.acceptEncoded(1, encodeRankTelemetry(sampleTelemetry(2, 10)));
    EXPECT_EQ(agg.rankCount(), 0u);
    EXPECT_FALSE(agg.hasRank(1));
    EXPECT_FALSE(agg.hasRank(2));

    agg.acceptEncoded(2, encodeRankTelemetry(sampleTelemetry(2, 10)));
    EXPECT_EQ(agg.rankCount(), 1u);
    EXPECT_TRUE(agg.hasRank(2));
}

TEST(StatAggregator, KeepsTheNewestTelemetryPerRank)
{
    StatAggregator agg;
    agg.accept(sampleTelemetry(0, 1000));
    agg.accept(sampleTelemetry(1, 2000));
    EXPECT_EQ(agg.rankCount(), 2u);
    EXPECT_EQ(agg.maxCycle(), 2000u);

    agg.accept(sampleTelemetry(0, 3000));
    EXPECT_EQ(agg.rankCount(), 2u);
    EXPECT_EQ(agg.rankTelemetry(0).cycle, 3000u);
    EXPECT_EQ(agg.maxCycle(), 3000u);
}

TEST(StatAggregator, MergedJsonPrefixesNamesByRank)
{
    StatAggregator agg;
    agg.accept(sampleTelemetry(0, 1000));
    agg.accept(sampleTelemetry(1, 2000));

    minijson::ValuePtr doc = minijson::parse(agg.mergedJson());
    EXPECT_DOUBLE_EQ(doc->at("cycle").number, 2000.0);
    const minijson::Value &stats = doc->at("stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_DOUBLE_EQ(
        stats.at("rank0.cluster.node0.nic.framesSent").number, 42.0);
    EXPECT_DOUBLE_EQ(stats.at("rank0.cluster.node0.os.ipc").number,
                     0.625);
    EXPECT_DOUBLE_EQ(
        stats.at("rank1.cluster.switch0.packetsOut").number, -5.0);
    EXPECT_FALSE(stats.has("cluster.node0.nic.framesSent"))
        << "merged names must be rank-prefixed";
}

TEST(StatAggregator, MergedCsvMatchesRegistryShape)
{
    StatAggregator agg;
    RankTelemetry rt;
    rt.rank = 0;
    rt.cycle = 77;
    rt.stats.values = {{"a.one", 3.0}, {"b.two", 1.5}};
    agg.accept(rt);
    EXPECT_EQ(agg.mergedCsv(),
              "# cycle 77\nstat,value\nrank0.a.one,3\nrank0.b.two,1.5\n");
}

TEST(StatAggregator, MergedCsvQuotesNamesLikeTheRegistry)
{
    // A peer's stat name may legally contain commas or quotes; the
    // merged CSV must RFC-4180-quote the whole field the way
    // StatRegistry::dumpCsv does, or one hostile name shifts every
    // later column.
    StatAggregator agg;
    RankTelemetry rt;
    rt.rank = 2;
    rt.cycle = 9;
    rt.stats.values = {{"plain.name", 1.0},
                       {"with,comma", 2.0},
                       {"with\"quote", 3.0}};
    agg.accept(rt);
    EXPECT_EQ(agg.mergedCsv(),
              "# cycle 9\nstat,value\n"
              "rank2.plain.name,1\n"
              "\"rank2.with,comma\",2\n"
              "\"rank2.with\"\"quote\",3\n");
}

TEST(RankTelemetryCodec, HostileCountsCannotReserveUnboundedMemory)
{
    // A hand-built header claiming ~2^40 stats in a 5-byte body: the
    // decoder must fail cleanly (and fast) instead of reserving
    // terabytes up front on the peer's say-so.
    std::string bytes;
    putVarint(bytes, kRankTelemetryVersion);
    putVarint(bytes, 0);                  // rank
    putVarint(bytes, 1);                  // round
    putVarint(bytes, 2);                  // cycle
    putVarint(bytes, 1ULL << 40);         // nstats (hostile)
    bytes += "\x01\x01";                  // garbage tail
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(bytes, out));
    EXPECT_LT(out.stats.values.capacity(), 1024u)
        << "peer-controlled stat count drove the reserve";

}

} // namespace
} // namespace firesim
