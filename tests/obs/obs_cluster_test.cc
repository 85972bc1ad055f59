/**
 * @file
 * The observability plane end to end, on real sharded clusters:
 *
 *  - a 2-shard loopback run with a dump directory produces rank 0
 *    merged dumps equivalent to the single-process run, modulo the
 *    `rankK.` name prefixes and host-timing-dependent keys;
 *  - a monitored 2-shard run emits a parseable heartbeat JSONL stream
 *    with per-shard latency lanes, refreshes the Prometheus file, and
 *    latches stragglers through the HealthMonitor;
 *  - SIGKILLing rank 1 mid-run leaves rank 0 with a flight-recorder
 *    postmortem whose last events are the peer-loss health transition.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
#include "snapshot/snapshot.hh"
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
jsonlLines(const std::string &text)
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

std::string
freshDir(const ScopedTempDir &tmp, const char *name)
{
    std::string dir = tmp.file(name);
    mkdir(dir.c_str(), 0755);
    return dir;
}

void
spawnPing(NodeSystem &from, size_t to_index, Cycles *rtt_out)
{
    from.os().spawn("ping", -1, [&from, to_index, rtt_out]() -> Task<> {
        *rtt_out = co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

/** Deterministic per-component stats of @p snap: every
 *  cluster.switch* / cluster.node* entry (cluster.fabric.* and
 *  cluster.shard.* are per-process host accounting). */
std::map<std::string, double>
componentStats(const StatSnapshot &snap)
{
    std::map<std::string, double> out;
    for (const auto &[name, value] : snap.values)
        if (name.rfind("cluster.switch", 0) == 0 ||
            name.rfind("cluster.node", 0) == 0)
            out.emplace(name, value);
    return out;
}

TEST(ObsCluster, MergedDumpMatchesSingleProcessRun)
{
    constexpr Cycles kRun = 300000;
    ClusterConfig base;
    base.linkLatency = 400;
    base.telemetry.enabled = true;
    base.telemetry.samplePeriod = 2000;

    // Reference: the same workload in one process.
    std::map<std::string, double> want;
    Cycles ref_rtt = 0;
    {
        Cluster ref(topologies::singleTor(2), base);
        spawnPing(ref.node(0), 1, &ref_rtt);
        ref.run(kRun);
        ASSERT_GT(ref_rtt, 0u);
        want = componentStats(
            ref.telemetry()->registry().snapshot(ref.now()));
        ASSERT_FALSE(want.empty());
    }

    // Two shards over a loopback socketpair, each with its own dump
    // directory; rank 0's gets the merged cross-shard dumps.
    ScopedTempDir tmp;
    std::string dir0 = freshDir(tmp, "fsobs_merged_r0");
    std::string dir1 = freshDir(tmp, "fsobs_merged_r1");

    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0 = base, cc1 = base;
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    cc0.telemetry.dumpDir = dir0;
    cc1.telemetry.dumpDir = dir1;
    // Exercise the mid-run piggyback path, not only the final
    // exchange: every 8th RoundDone carries a Stats frame.
    cc0.telemetry.aggregateEvery = cc1.telemetry.aggregateEvery = 8;
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));

    Cycles rtt = 0;
    std::thread shard1([&] {
        Cluster c1(topologies::singleTor(2), std::move(cc1),
                   std::move(fds1));
        c1.run(kRun);
    });
    {
        Cluster c0(topologies::singleTor(2), std::move(cc0),
                   std::move(fds0));
        spawnPing(c0.node(0), 1, &rtt);
        c0.run(kRun);
        ASSERT_NE(c0.aggregator(), nullptr);
        // The piggyback already delivered rank 1's telemetry mid-run.
        EXPECT_TRUE(c0.aggregator()->hasRank(1));
    } // ~Cluster: final stats exchange, then the merged dumps
    shard1.join();
    EXPECT_EQ(rtt, ref_rtt);

    // merged_stats.json: same component tree as the single-process
    // dump once the rankK. prefixes are stripped; host-timing keys
    // (cluster.shard.*, cluster.fabric.*) are per-process and skipped.
    minijson::ValuePtr doc =
        minijson::parse(readFile(dir0 + "/merged_stats.json"));
    EXPECT_DOUBLE_EQ(doc->at("cycle").number,
                     static_cast<double>(kRun));
    const minijson::Value &stats = doc->at("stats");
    ASSERT_TRUE(stats.isObject());
    bool saw_rank0 = false, saw_rank1 = false;
    std::map<std::string, double> got;
    for (const auto &[name, value] : stats.object) {
        ASSERT_EQ(name.rfind("rank", 0), 0u)
            << "merged stat '" << name << "' is not rank-prefixed";
        size_t dot = name.find('.');
        ASSERT_NE(dot, std::string::npos);
        saw_rank0 |= name.rfind("rank0.", 0) == 0;
        saw_rank1 |= name.rfind("rank1.", 0) == 0;
        std::string bare = name.substr(dot + 1);
        if (bare.rfind("cluster.switch", 0) == 0 ||
            bare.rfind("cluster.node", 0) == 0) {
            // Each component is owned by exactly one rank.
            ASSERT_EQ(got.count(bare), 0u) << bare;
            got.emplace(bare, value->number);
        }
    }
    EXPECT_TRUE(saw_rank0);
    EXPECT_TRUE(saw_rank1);
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[name, value] : want)
        EXPECT_DOUBLE_EQ(got.at(name), value) << name;

    // merged_stats.csv: same names, one rank-prefixed row per stat.
    std::string csv = readFile(dir0 + "/merged_stats.csv");
    EXPECT_EQ(csv.rfind("# cycle 300000\nstat,value\n", 0), 0u);
    EXPECT_NE(csv.find("rank1.cluster.node1."), std::string::npos);

    // The per-rank local dumps exist too (regular dumpAtExit path).
    EXPECT_FALSE(readFile(dir0 + "/stats.json").empty());
    EXPECT_FALSE(readFile(dir1 + "/stats.json").empty());
}

TEST(ObsCluster, ShardedHeartbeatsCoverEveryRankAndLatchStragglers)
{
    constexpr Cycles kRun = 40000; // 100 rounds at linkLatency 400
    ScopedTempDir tmp;
    std::string hb_base = tmp.file("fsobs_cluster_hb.jsonl");
    std::string prom_base = tmp.file("fsobs_cluster.prom");
    std::string hb0 = snapshotRankPath(hb_base, 2, 0);
    std::string prom0 = snapshotRankPath(prom_base, 2, 0);

    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0, cc1;
    cc0.linkLatency = cc1.linkLatency = 400;
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    cc0.monitor.heartbeatEvery = cc1.monitor.heartbeatEvery = 4;
    cc0.monitor.heartbeatPath = cc1.monitor.heartbeatPath = hb_base;
    cc0.monitor.metricsPath = prom_base;
    // With factor 0 any nonzero latency exceeds 0 x median, so both
    // ranks latch deterministically once both have reported samples —
    // the detection plumbing without depending on host timing.
    cc0.monitor.stragglerFactor = 0.0;
    cc0.flightRecorder.enabled = true;
    cc0.flightRecorder.path = tmp.file("fsobs_cluster_fr.jsonl");
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));

    uint64_t hb1_count = 0;
    std::thread shard1([&] {
        Cluster c1(topologies::singleTor(2), std::move(cc1),
                   std::move(fds1));
        c1.run(kRun);
        hb1_count = c1.clusterMonitor()->heartbeats();
    });
    uint64_t straggler_events = 0;
    std::vector<uint32_t> latched;
    uint64_t hb0_count = 0;
    {
        Cluster c0(topologies::singleTor(2), std::move(cc0),
                   std::move(fds0));
        c0.run(kRun);
        ASSERT_NE(c0.clusterMonitor(), nullptr);
        hb0_count = c0.clusterMonitor()->heartbeats();
        latched = c0.clusterMonitor()->stragglers();
        straggler_events =
            c0.health().count(FaultEvent::Kind::StragglerDetected);
    }
    shard1.join();

    EXPECT_GE(hb0_count, 20u); // ~100 rounds / heartbeatEvery 4
    EXPECT_GE(hb1_count, 20u);
    // Factor 0 condemns every sampled rank; both must have latched,
    // each raising one StragglerDetected health event.
    ASSERT_EQ(latched.size(), 2u);
    EXPECT_EQ(latched[0], 0u);
    EXPECT_EQ(latched[1], 1u);
    EXPECT_EQ(straggler_events, 2u);

    // The heartbeat stream: every line parses, and once the peer has
    // reported, the per-shard array carries both ranks' latencies.
    std::vector<std::string> hb_lines = jsonlLines(readFile(hb0));
    ASSERT_GE(hb_lines.size(), hb0_count);
    for (const std::string &line : hb_lines)
        EXPECT_NO_THROW(minijson::parse(line));
    minijson::ValuePtr last = minijson::parse(hb_lines.back());
    EXPECT_DOUBLE_EQ(last->at("rank").number, 0.0);
    EXPECT_DOUBLE_EQ(last->at("shards").number, 2.0);
    const minijson::Value &shards = last->at("per_shard");
    ASSERT_EQ(shards.array.size(), 2u);
    EXPECT_DOUBLE_EQ(shards.at(0).at("rank").number, 0.0);
    EXPECT_DOUBLE_EQ(shards.at(1).at("rank").number, 1.0);
    EXPECT_GT(shards.at(0).at("round_latency_ns").number, 0.0);
    EXPECT_GT(shards.at(1).at("round_latency_ns").number, 0.0)
        << "the peer's RoundDone-reported latency never arrived";
    EXPECT_EQ(last->at("stragglers").array.size(), 2u);

    // The Prometheus file holds the final scrape.
    std::string prom = readFile(prom0);
    EXPECT_NE(prom.find("firesim_sim_cycle{rank=\"0\"} 40000"),
              std::string::npos);
    EXPECT_NE(prom.find("firesim_stragglers{rank=\"0\"} 2"),
              std::string::npos);
}

TEST(ObsCluster, StragglersDetectWithoutHeartbeatsAndUnlatchDeadRanks)
{
    // Straggler detection rides the latency-sampling stride, not the
    // heartbeat cadence: a run with heartbeats off entirely (only a
    // Prometheus path keeps the monitor alive) must still latch — and
    // a latched rank that dies must be unlatched, because a corpse is
    // not a straggler.
    constexpr Cycles kHalf = 20000; // 50 rounds at linkLatency 400
    ScopedTempDir tmp;
    std::string prom_base = tmp.file("fsobs_nohb.prom");

    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0, cc1;
    cc0.linkLatency = cc1.linkLatency = 400;
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    cc0.monitor.heartbeatEvery = cc1.monitor.heartbeatEvery = 0;
    cc0.monitor.metricsPath = cc1.monitor.metricsPath = prom_base;
    cc0.monitor.latencySampleEvery = cc1.monitor.latencySampleEvery = 1;
    cc0.monitor.stragglerFactor = cc1.monitor.stragglerFactor = 0.0;
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));

    std::thread shard1([&] {
        Cluster c1(topologies::singleTor(2), std::move(cc1),
                   std::move(fds1));
        c1.run(kHalf);
        // Destruction sends Bye: rank 0 sees an orderly mid-run exit.
    });
    Cluster c0(topologies::singleTor(2), std::move(cc0),
               std::move(fds0));
    c0.run(kHalf);
    ASSERT_NE(c0.clusterMonitor(), nullptr);
    EXPECT_EQ(c0.clusterMonitor()->heartbeats(), 0u)
        << "heartbeats are off; detection must not depend on them";
    std::vector<uint32_t> latched = c0.clusterMonitor()->stragglers();
    ASSERT_EQ(latched.size(), 2u)
        << "factor 0 must latch both ranks from the sampled path alone";
    EXPECT_EQ(latched[0], 0u);
    EXPECT_EQ(latched[1], 1u);
    shard1.join();

    // Rank 1 is gone; rank 0 keeps running degraded. The detector must
    // drop the dead rank from the latched set.
    c0.run(kHalf);
    latched = c0.clusterMonitor()->stragglers();
    ASSERT_EQ(latched.size(), 1u)
        << "a dead rank must be unlatched from firesim_stragglers";
    EXPECT_EQ(latched[0], 0u);
    EXPECT_GE(c0.health().count(FaultEvent::Kind::PeerShardLost), 1u);
}

TEST(ObsCluster, KilledPeerLeavesAPostmortemOnRankZero)
{
    constexpr Cycles kChildRun = 8000;
    constexpr Cycles kRun = 80000;
    ScopedTempDir tmp;
    std::string fr_base = tmp.file("fsobs_postmortem.jsonl");
    std::string fr0 = snapshotRankPath(fr_base, 2, 0);

    auto [fd0, fd1] = localSocketPair();
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Rank 1, in a real child process: run a short while, then die
        // the ugliest way possible — no Bye, no destructor, SIGKILL.
        { SocketFd drop = std::move(fd0); }
        ClusterConfig cc1;
        cc1.linkLatency = 400;
        cc1.shard.shards = 2;
        cc1.shard.rank = 1;
        std::vector<std::pair<uint32_t, SocketFd>> fds1;
        fds1.emplace_back(0, std::move(fd1));
        Cluster c1(topologies::singleTor(2), std::move(cc1),
                   std::move(fds1));
        c1.run(kChildRun);
        ::raise(SIGKILL);
        ::_exit(0); // not reached
    }
    { SocketFd drop = std::move(fd1); }

    ClusterConfig cc0;
    cc0.linkLatency = 400;
    cc0.shard.shards = 2;
    cc0.shard.rank = 0;
    cc0.shard.recvTimeoutMs = 5000;
    cc0.flightRecorder.enabled = true;
    cc0.flightRecorder.path = fr_base;
    std::vector<std::pair<uint32_t, SocketFd>> fds0;
    fds0.emplace_back(1, std::move(fd0));
    uint64_t peer_lost = 0;
    {
        Cluster c0(topologies::singleTor(2), std::move(cc0),
                   std::move(fds0));
        c0.run(kRun); // survives the kill, degraded
        EXPECT_EQ(c0.now(), kRun);
        EXPECT_TRUE(c0.shardTransport()->anyPeerLost());
        peer_lost =
            c0.health().count(FaultEvent::Kind::PeerShardLost);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_EQ(peer_lost, 1u);

    // The postmortem was dumped at the moment of loss; its last
    // events are the peer-loss health transition.
    std::vector<std::string> out = jsonlLines(readFile(fr0));
    ASSERT_GE(out.size(), 3u)
        << "flight-recorder postmortem missing or empty";
    minijson::ValuePtr trailer = minijson::parse(out.back());
    EXPECT_NE(trailer->at("flight_recorder_end")
                  .at("reason")
                  .str.find("peer shard 1 lost"),
              std::string::npos);
    minijson::ValuePtr loss = minijson::parse(out[out.size() - 2]);
    EXPECT_EQ(loss->at("kind").str, "peer-loss");
    EXPECT_DOUBLE_EQ(loss->at("a").number, 1.0) << "lost peer rank";
    minijson::ValuePtr health = minijson::parse(out[out.size() - 3]);
    EXPECT_EQ(health->at("kind").str, "health-event");
    EXPECT_NE(health->at("detail").str.find("peer"),
              std::string::npos);
}

} // namespace
} // namespace firesim
