/**
 * @file
 * The observability plane end to end, on real sharded clusters:
 *
 *  - the two ranks of a 2-shard socketpair run share one dump
 *    directory, each writing its own rank-suffixed stats.json, and
 *    together they carry the single-process run's component stats;
 *  - a monitored 2-shard run emits a parseable heartbeat JSONL stream
 *    with per-shard latency lanes, refreshes the Prometheus file, and
 *    latches stragglers through the HealthMonitor;
 *  - SIGKILLing rank 1 mid-run shows on rank 0 through the outputs
 *    an operator already watches: the last heartbeat counts no live
 *    peer and the health event, and the health report names the loss;
 *  - heartbeats of an activity-driven run read as a dense run's.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "manager/cluster.hh"
#include "manager/local_ranks.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
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

SwitchSpec
singleTor2()
{
    return topologies::singleTor(2);
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

    // Two ranks sharing one dump directory: each rank writes its own
    // rank-suffixed files, so neither overwrites the other's.
    ScopedTempDir tmp;
    std::string dir = freshDir(tmp, "fsobs_shared_dump");
    ClusterConfig cc = base;
    cc.telemetry.dumpDir = dir;
    Cycles rtt = 0;
    runLocalRanks(2, singleTor2, cc, [&](Cluster &c) {
        if (c.config().shard.rank == 0)
            spawnPing(c.node(0), 1, &rtt);
        c.run(kRun);
    }); // ~Cluster: each rank dumps its own files
    EXPECT_EQ(rtt, ref_rtt);

    EXPECT_TRUE(readFile(dir + "/stats.json").empty())
        << "a sharded run must not write the bare single-process name";
    EXPECT_TRUE(readFile(dir + "/autocounter.csv").empty());

    // The union of both ranks' component stats is the single-process
    // run's, with each component in exactly one rank's file; host-
    // timing keys (cluster.shard.*, cluster.fabric.*) are per-process
    // and skipped.
    std::map<std::string, double> got;
    for (uint32_t rank = 0; rank < 2; ++rank) {
        std::string path = rankPath(dir + "/stats.json", 2, rank);
        std::string text = readFile(path);
        ASSERT_FALSE(text.empty()) << path << " missing";
        minijson::ValuePtr doc = minijson::parse(text);
        EXPECT_DOUBLE_EQ(doc->at("cycle").number,
                         static_cast<double>(kRun));
        const minijson::Value &stats = doc->at("stats");
        ASSERT_TRUE(stats.isObject());
        size_t owned = 0;
        for (const auto &[name, value] : stats.object) {
            if (name.rfind("cluster.switch", 0) != 0 &&
                name.rfind("cluster.node", 0) != 0)
                continue;
            ASSERT_EQ(got.count(name), 0u) << name << " in both ranks";
            got.emplace(name, value->number);
            ++owned;
        }
        EXPECT_GT(owned, 0u) << path << " carries no component";
        EXPECT_FALSE(
            readFile(rankPath(dir + "/autocounter.csv", 2, rank))
                .empty());
    }
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[name, value] : want)
        EXPECT_DOUBLE_EQ(got.at(name), value) << name;
}

TEST(ObsCluster, ShardedHeartbeatsCoverEveryRankAndLatchStragglers)
{
    constexpr Cycles kRun = 40000; // 100 rounds at linkLatency 400
    ScopedTempDir tmp;
    std::string hb_base = tmp.file("fsobs_cluster_hb.jsonl");
    std::string prom_base = tmp.file("fsobs_cluster.prom");
    std::string hb0 = rankPath(hb_base, 2, 0);
    std::string prom0 = rankPath(prom_base, 2, 0);

    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.monitor.heartbeatEvery = 4;
    cc.monitor.heartbeatPath = hb_base;
    cc.monitor.metricsPath = prom_base;
    // With factor 0 any nonzero latency exceeds 0 x median, so both
    // ranks latch deterministically once both have reported samples —
    // the detection plumbing without depending on host timing.
    cc.monitor.stragglerFactor = 0.0;

    uint64_t hb_count[2] = {0, 0};
    uint64_t straggler_events = 0;
    std::vector<uint32_t> latched;
    runLocalRanks(2, singleTor2, cc, [&](Cluster &c) {
        c.run(kRun);
        ASSERT_NE(c.clusterMonitor(), nullptr);
        const uint32_t rank = c.config().shard.rank;
        hb_count[rank] = c.clusterMonitor()->heartbeats();
        if (rank == 0) {
            latched = c.clusterMonitor()->stragglers();
            straggler_events =
                c.health().count(FaultEvent::Kind::StragglerDetected);
        }
    });

    EXPECT_GE(hb_count[0], 20u); // ~100 rounds / heartbeatEvery 4
    EXPECT_GE(hb_count[1], 20u);
    // Factor 0 condemns every sampled rank; both must have latched,
    // each raising one StragglerDetected health event.
    ASSERT_EQ(latched.size(), 2u);
    EXPECT_EQ(latched[0], 0u);
    EXPECT_EQ(latched[1], 1u);
    EXPECT_EQ(straggler_events, 2u);

    // The heartbeat stream: every line parses, and once the peer has
    // reported, the per-shard array carries both ranks' latencies.
    std::vector<std::string> hb_lines = jsonlLines(readFile(hb0));
    ASSERT_GE(hb_lines.size(), hb_count[0]);
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

TEST(ObsCluster, HeartbeatsLandInTheDumpDir)
{
    // Run from an empty working directory, so that anything written
    // relative to it shows up there.
    ScopedTempDir cwd, dump;
    struct Chdir
    {
        std::filesystem::path old = std::filesystem::current_path();
        explicit Chdir(const std::string &to)
        {
            std::filesystem::current_path(to);
        }
        ~Chdir() { std::filesystem::current_path(old); }
    };
    uint64_t heartbeats = 0;
    {
        Chdir in(cwd.path());
        ClusterConfig cc;
        cc.telemetry.dumpDir = dump.path();
        cc.monitor.heartbeatEvery = 4;
        Cluster c(topologies::singleTor(2), cc);
        c.run(40000);
        ASSERT_NE(c.clusterMonitor(), nullptr);
        heartbeats = c.clusterMonitor()->heartbeats();
    }
    EXPECT_GT(heartbeats, 0u);
    EXPECT_TRUE(std::filesystem::exists(dump.file("heartbeat.jsonl")));
    EXPECT_TRUE(std::filesystem::is_empty(cwd.path()));
}

/** Overrides nothing, so it watches endpoints: attaching it makes
 *  the fabric step every endpoint in every round. */
class NoopObserver : public FabricObserver
{};

TEST(ObsCluster, HeartbeatsMatchADenseRun)
{
    // The heartbeat monitor watches rounds, not endpoints, so the
    // monitored run steps only its due endpoints and leaves idle
    // channels behind. Its heartbeats must still read as those of a
    // dense run, in which every channel moves every round.
    struct Run
    {
        std::vector<std::string> lines;
        uint64_t stepped = 0;
    };
    auto run = [](bool dense) {
        ScopedTempDir dump;
        NoopObserver noop;
        Run out;
        {
            ClusterConfig cc;
            cc.linkLatency = 400;
            cc.telemetry.dumpDir = dump.path();
            cc.monitor.heartbeatEvery = 16;
            Cluster c(topologies::twoLevel(2, 2), cc);
            if (dense)
                c.fabric().addObserver(&noop);
            Cycles rtt[2] = {0, 0};
            spawnPing(c.node(0), 3, &rtt[0]);
            spawnPing(c.node(2), 1, &rtt[1]);
            c.run(400000);
            EXPECT_GT(rtt[0], 0u);
            EXPECT_GT(rtt[1], 0u);
            out.stepped = c.fabric().endpointRoundsStepped();
        }
        out.lines = jsonlLines(readFile(dump.file("heartbeat.jsonl")));
        return out;
    };
    Run activity = run(false);
    Run dense = run(true);
    EXPECT_LT(activity.stepped * 4, dense.stepped)
        << "the monitored run stepped idle endpoints";
    ASSERT_EQ(activity.lines.size(), dense.lines.size());
    ASSERT_GT(activity.lines.size(), 50u);
    for (size_t i = 0; i < dense.lines.size(); ++i) {
        minijson::ValuePtr got = minijson::parse(activity.lines[i]);
        minijson::ValuePtr want = minijson::parse(dense.lines[i]);
        for (const char *field : {"cycle", "round", "channel_occupancy",
                                  "health_events", "live_peers"}) {
            EXPECT_EQ(got->at(field).number, want->at(field).number)
                << "heartbeat " << i << ": " << field;
        }
    }
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

    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.monitor.heartbeatEvery = 0;
    cc.monitor.metricsPath = prom_base;
    cc.monitor.latencySampleEvery = 1;
    cc.monitor.stragglerFactor = 0.0;

    runLocalRanks(2, singleTor2, cc, [&](Cluster &c) {
        c.run(kHalf);
        // Rank 1's Cluster is destroyed next, which sends Bye: rank 0
        // sees an orderly mid-run exit.
        if (c.config().shard.rank == 1)
            return;
        ASSERT_NE(c.clusterMonitor(), nullptr);
        EXPECT_EQ(c.clusterMonitor()->heartbeats(), 0u)
            << "heartbeats are off; detection must not depend on them";
        std::vector<uint32_t> latched = c.clusterMonitor()->stragglers();
        ASSERT_EQ(latched.size(), 2u)
            << "factor 0 must latch both ranks from the sampled path alone";
        EXPECT_EQ(latched[0], 0u);
        EXPECT_EQ(latched[1], 1u);

        // Rank 1 stops; rank 0 keeps running degraded. The detector
        // must drop the dead rank from the latched set.
        c.run(kHalf);
        latched = c.clusterMonitor()->stragglers();
        ASSERT_EQ(latched.size(), 1u)
            << "a dead rank must be unlatched from firesim_stragglers";
        EXPECT_EQ(latched[0], 0u);
        EXPECT_GE(c.health().count(FaultEvent::Kind::PeerShardLost), 1u);
    });
}

TEST(ObsCluster, KilledPeerLeavesAPostmortemOnRankZero)
{
    constexpr Cycles kChildRun = 8000;
    constexpr Cycles kRun = 80000;
    ScopedTempDir tmp;
    std::string hb_base = tmp.file("fsobs_postmortem_hb.jsonl");
    std::string hb0 = rankPath(hb_base, 2, 0);

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
    cc0.monitor.heartbeatEvery = 8;
    cc0.monitor.heartbeatPath = hb_base;
    std::vector<std::pair<uint32_t, SocketFd>> fds0;
    fds0.emplace_back(1, std::move(fd0));
    uint64_t peer_lost = 0;
    std::string report;
    {
        Cluster c0(topologies::singleTor(2), std::move(cc0),
                   std::move(fds0));
        c0.run(kRun); // survives the kill, degraded
        EXPECT_EQ(c0.now(), kRun);
        EXPECT_TRUE(c0.shardTransport()->anyPeerLost());
        peer_lost =
            c0.health().count(FaultEvent::Kind::PeerShardLost);
        report = c0.healthReport();
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_EQ(peer_lost, 1u);

    // The last heartbeat (the end-of-run flush) counts the loss: no
    // live peer, and the peer-loss health event.
    std::vector<std::string> hb = jsonlLines(readFile(hb0));
    ASSERT_FALSE(hb.empty()) << "rank 0 wrote no heartbeat";
    minijson::ValuePtr last = minijson::parse(hb.back());
    EXPECT_DOUBLE_EQ(last->at("live_peers").number, 0.0);
    EXPECT_GE(last->at("health_events").number, 1.0);

    // The health report names the event kind and the lost peer.
    EXPECT_NE(report.find("peer-shard-lost"), std::string::npos)
        << report;
    EXPECT_NE(report.find("shard 1"), std::string::npos) << report;
    EXPECT_NE(report.find("LOST"), std::string::npos) << report;
}

} // namespace
} // namespace firesim
