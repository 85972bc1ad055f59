/**
 * @file
 * ClusterMonitor unit tests: the heartbeat JSONL schema, the atomic
 * Prometheus text file, the round-cadence bookkeeping, and straggler
 * latching — all on a bare monitor (no cluster), so every field can be
 * pinned down deterministically.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/monitor.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > pos)
            out.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return out;
}

TEST(ClusterMonitor, HeartbeatJsonlSchema)
{
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_heartbeat.jsonl");

    MonitorConfig mc;
    mc.heartbeatEvery = 1;
    mc.heartbeatPath = hb;
    {
        ClusterMonitor mon(mc, 0, 1);
        mon.emitHeartbeat(1000, 3);
        mon.emitHeartbeat(2500, 7);
        EXPECT_EQ(mon.heartbeats(), 2u);
    } // closes the heartbeat file

    std::vector<std::string> hb_lines = lines(readFile(hb));
    ASSERT_EQ(hb_lines.size(), 2u);

    minijson::ValuePtr first = minijson::parse(hb_lines[0]);
    EXPECT_DOUBLE_EQ(first->at("cycle").number, 1000.0);
    EXPECT_DOUBLE_EQ(first->at("round").number, 3.0);
    EXPECT_DOUBLE_EQ(first->at("rank").number, 0.0);
    EXPECT_DOUBLE_EQ(first->at("shards").number, 1.0);
    EXPECT_TRUE(first->has("sim_mhz"));
    EXPECT_TRUE(first->has("round_latency_ns"));
    EXPECT_TRUE(first->has("barrier_stall_ns"));
    EXPECT_TRUE(first->has("channel_occupancy"));
    EXPECT_TRUE(first->has("health_events"));
    EXPECT_TRUE(first->has("live_peers"));
    EXPECT_FALSE(first->has("checkpoint_age_cycles"));
    // A single-process run still reports its own shard lane.
    const minijson::Value &shards = first->at("per_shard");
    ASSERT_TRUE(shards.isArray());
    ASSERT_EQ(shards.array.size(), 1u);
    EXPECT_DOUBLE_EQ(shards.at(0).at("rank").number, 0.0);
    EXPECT_TRUE(first->at("stragglers").array.empty());

    minijson::ValuePtr second = minijson::parse(hb_lines[1]);
    EXPECT_DOUBLE_EQ(second->at("cycle").number, 2500.0);
    EXPECT_DOUBLE_EQ(second->at("round").number, 7.0);
}

TEST(ClusterMonitor, PrometheusFileIsRefreshedInPlace)
{
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_prom_hb.jsonl");
    std::string prom = tmp.file("fsobs_metrics.prom");

    MonitorConfig mc;
    mc.heartbeatEvery = 1;
    mc.heartbeatPath = hb;
    mc.metricsPath = prom;
    ClusterMonitor mon(mc, 0, 1);

    mon.emitHeartbeat(1000, 0);
    std::string text = readFile(prom);
    EXPECT_NE(text.find("# TYPE firesim_sim_cycle counter"),
              std::string::npos);
    EXPECT_NE(text.find("firesim_sim_cycle{rank=\"0\"} 1000"),
              std::string::npos);
    EXPECT_NE(text.find("firesim_round_latency_ns"), std::string::npos);
    EXPECT_NE(text.find("firesim_live_peers{rank=\"0\"} 0"),
              std::string::npos);
    EXPECT_EQ(text.find("checkpoint"), std::string::npos);

    // The next heartbeat atomically replaces the file (no append).
    mon.emitHeartbeat(2000, 1);
    text = readFile(prom);
    EXPECT_NE(text.find("firesim_sim_cycle{rank=\"0\"} 2000"),
              std::string::npos);
    EXPECT_EQ(text.find("firesim_sim_cycle{rank=\"0\"} 1000"),
              std::string::npos);
}

TEST(ClusterMonitor, RoundCadenceDrivesHeartbeats)
{
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_cadence.jsonl");

    MonitorConfig mc;
    mc.heartbeatEvery = 2;
    mc.heartbeatPath = hb;
    ClusterMonitor mon(mc, 0, 1);

    // Rounds 0..5 through the observer interface: heartbeats fire on
    // every second round completion (rounds 1, 3, 5).
    for (uint64_t round = 0; round < 6; ++round) {
        mon.onRoundStart(round * 400, round);
        mon.onRoundEnd(round * 400, round);
    }
    EXPECT_EQ(mon.heartbeats(), 3u);
    EXPECT_GT(mon.roundLatencyNs(), 0u)
        << "round timing must feed the latency EWMA";
}

TEST(ClusterMonitor, LatencySamplingIsStrided)
{
    // Round timing reads the host clock, which costs more than
    // everything else on the monitored round path — so only one round
    // per latencySampleEvery is timed, round 0 always included (the
    // EWMA must be nonzero from the first heartbeat on).
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_stride.jsonl");

    MonitorConfig mc;
    mc.heartbeatEvery = 100; // no heartbeats in this test
    mc.heartbeatPath = hb;
    mc.latencySampleEvery = 4;
    ClusterMonitor mon(mc, 0, 1);
    for (uint64_t round = 0; round < 10; ++round) {
        mon.onRoundStart(round * 400, round);
        mon.onRoundEnd(round * 400, round);
    }
    EXPECT_EQ(mon.latencySamples(), 3u); // rounds 0, 4, 8
    EXPECT_GT(mon.roundLatencyNs(), 0u);

    MonitorConfig every;
    every.heartbeatEvery = 100;
    every.heartbeatPath = hb;
    every.latencySampleEvery = 1;
    ClusterMonitor dense(every, 0, 1);
    for (uint64_t round = 0; round < 10; ++round) {
        dense.onRoundStart(round * 400, round);
        dense.onRoundEnd(round * 400, round);
    }
    EXPECT_EQ(dense.latencySamples(), 10u);
}

TEST(ClusterMonitor, HealthEventsProviderFeedsHeartbeat)
{
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_health.jsonl");

    MonitorConfig mc;
    mc.heartbeatEvery = 1;
    mc.heartbeatPath = hb;
    {
        ClusterMonitor mon(mc, 0, 1);
        mon.setHealthEventsProvider([] { return uint64_t(5); });
        mon.emitHeartbeat(100, 0);
    }
    std::vector<std::string> hb_lines = lines(readFile(hb));
    ASSERT_EQ(hb_lines.size(), 1u);
    EXPECT_DOUBLE_EQ(
        minijson::parse(hb_lines[0])->at("health_events").number, 5.0);
}

TEST(ClusterMonitor, RotatesLeftoverHeartbeatTrailToPrev)
{
    // A crashed run's heartbeat trail is the postmortem's primary
    // source; reopening with "wb" used to truncate it silently. The
    // monitor must rotate a non-empty leftover to `.prev` instead.
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_rotate.jsonl");
    std::string prev = hb + ".prev";
    {
        std::FILE *f = std::fopen(hb.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"cycle\": 123}\n", f);
        std::fclose(f);
    }

    MonitorConfig mc;
    mc.heartbeatEvery = 1;
    mc.heartbeatPath = hb;
    {
        ClusterMonitor mon(mc, 0, 1);
        mon.emitHeartbeat(1000, 0);
    }
    EXPECT_EQ(readFile(prev), "{\"cycle\": 123}\n")
        << "the pre-crash trail must survive as .prev";
    std::vector<std::string> fresh = lines(readFile(hb));
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_DOUBLE_EQ(minijson::parse(fresh[0])->at("cycle").number,
                     1000.0);
}

TEST(ClusterMonitor, EmptyLeftoverHeartbeatFileIsNotRotated)
{
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_rotate_empty.jsonl");
    std::string prev = hb + ".prev";
    {
        std::FILE *f = std::fopen(hb.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fclose(f); // zero bytes: nothing worth keeping
    }

    MonitorConfig mc;
    mc.heartbeatEvery = 1;
    mc.heartbeatPath = hb;
    ClusterMonitor mon(mc, 0, 1);
    std::FILE *p = std::fopen(prev.c_str(), "rb");
    EXPECT_EQ(p, nullptr) << "an empty leftover must not create .prev";
    if (p)
        std::fclose(p);
}

TEST(ClusterMonitor, StragglerSinkLatchesOncePerRank)
{
    // No transport: the only latency sample is the local EWMA, so
    // detection has nothing to compare against and must stay silent
    // no matter how aggressive the factor is.
    ScopedTempDir tmp;
    std::string hb = tmp.file("fsobs_straggler.jsonl");

    MonitorConfig mc;
    mc.heartbeatEvery = 1;
    mc.heartbeatPath = hb;
    mc.stragglerFactor = 0.0; // anything nonzero beats 0 x median
    ClusterMonitor mon(mc, 0, 1);
    int fired = 0;
    mon.setStragglerSink([&](uint32_t, uint64_t, uint64_t, uint64_t,
                             Cycles) { ++fired; });
    for (uint64_t round = 0; round < 4; ++round) {
        mon.onRoundStart(round * 400, round);
        mon.onRoundEnd(round * 400, round);
    }
    EXPECT_EQ(fired, 0) << "a lone rank can never straggle";
    EXPECT_TRUE(mon.stragglers().empty());
}

} // namespace
} // namespace firesim
