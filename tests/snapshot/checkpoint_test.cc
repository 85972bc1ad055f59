/**
 * @file
 * Cluster-level checkpoint/restore tests: the headline byte-identity
 * guarantee (save at R, restore, run to R+K matches the uninterrupted
 * run exactly), restore-time validation (wrong topology, wrong cycle,
 * corrupted files are rejected with diagnostics, never crashes), the
 * CheckpointManager's periodic + signal-driven snapshots, warm-boot
 * scenario forking, and the SIGKILL kill-and-resume recovery path.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/stat_registry.hh"
#include "tests/scoped_temp_dir.hh"

namespace firesim
{
namespace
{

ClusterConfig
testConfig()
{
    ClusterConfig cc;
    cc.linkLatency = 400; // short rounds keep the tests fast
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    return cc;
}

/** Endless ping loop: traffic in flight at every possible barrier. */
void
spawnPinger(NodeSystem &from, size_t to_index)
{
    from.os().spawn("pinger", -1, [&from, to_index]() -> Task<> {
        while (true)
            co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

std::string
statsDump(Cluster &clu)
{
    return clu.telemetry()->registry().dumpJson(clu.now());
}

TEST(ClusterCheckpoint, SaveRestoreContinuationIsByteIdentical)
{
    constexpr Cycles kSave = 200000, kTotal = 400000;
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_roundtrip_cluster.snap");

    // The uninterrupted reference run.
    std::string ref_dump;
    {
        Cluster ref(topologies::singleTor(2), testConfig());
        spawnPinger(ref.node(0), 1);
        ref.run(kTotal);
        ref_dump = statsDump(ref);
    }

    // The saved run: identical to the reference, with a snapshot at
    // kSave that must not perturb anything downstream.
    {
        Cluster saver(topologies::singleTor(2), testConfig());
        spawnPinger(saver.node(0), 1);
        saver.run(kSave);
        ASSERT_EQ(saver.saveSnapshot(path), "");
        saver.run(kTotal - kSave);
        EXPECT_EQ(statsDump(saver), ref_dump)
            << "saving a snapshot must not change the simulation";
    }

    // The restored run: replay to kSave, byte-compare, continue.
    Cluster restored(topologies::singleTor(2), testConfig());
    spawnPinger(restored.node(0), 1);
    ASSERT_EQ(resumeFromSnapshot(restored, path), "");
    EXPECT_EQ(restored.now(), kSave);
    restored.run(kTotal - kSave);
    EXPECT_EQ(statsDump(restored), ref_dump)
        << "restored continuation diverged from the unbroken run";
}

TEST(ClusterCheckpoint, RestoreAcrossParallelHostsIsByteIdentical)
{
    // Snapshot a single-threaded run, restore into a 2-worker fabric:
    // determinism across parallelHosts extends to snapshots.
    constexpr Cycles kSave = 120000, kTotal = 240000;
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_parhosts.snap");

    std::string ref_dump;
    {
        Cluster ref(topologies::singleTor(4), testConfig());
        spawnPinger(ref.node(0), 1);
        spawnPinger(ref.node(2), 3);
        ref.run(kTotal);
        ref_dump = statsDump(ref);
    }
    {
        Cluster saver(topologies::singleTor(4), testConfig());
        spawnPinger(saver.node(0), 1);
        spawnPinger(saver.node(2), 3);
        saver.run(kSave);
        ASSERT_EQ(saver.saveSnapshot(path), "");
    }

    ClusterConfig cc = testConfig();
    cc.parallelHosts = 2;
    Cluster wide(topologies::singleTor(4), cc);
    spawnPinger(wide.node(0), 1);
    spawnPinger(wide.node(2), 3);
    ASSERT_EQ(resumeFromSnapshot(wide, path), "");
    wide.run(kTotal - kSave);
    EXPECT_EQ(statsDump(wide), ref_dump);
}

TEST(ClusterCheckpoint, LoadWithoutReplayIsRejected)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_noreplay.snap");
    {
        Cluster saver(topologies::singleTor(2), testConfig());
        spawnPinger(saver.node(0), 1);
        saver.run(80000);
        ASSERT_EQ(saver.saveSnapshot(path), "");
    }
    Cluster fresh(topologies::singleTor(2), testConfig());
    spawnPinger(fresh.node(0), 1);
    std::string e = fresh.loadSnapshot(path);
    ASSERT_NE(e, "");
    EXPECT_NE(e.find("replay"), std::string::npos) << e;
}

TEST(ClusterCheckpoint, MismatchedTopologyIsRejected)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_topo.snap");
    {
        Cluster saver(topologies::singleTor(2), testConfig());
        saver.run(40000);
        ASSERT_EQ(saver.saveSnapshot(path), "");
    }
    Cluster other(topologies::singleTor(4), testConfig());
    std::string e = resumeFromSnapshot(other, path);
    ASSERT_NE(e, "");
    EXPECT_NE(e.find("hash"), std::string::npos) << e;
}

TEST(ClusterCheckpoint, CorruptedSnapshotIsRejectedWithDiagnostics)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_corrupt.snap");
    {
        Cluster saver(topologies::singleTor(2), testConfig());
        spawnPinger(saver.node(0), 1);
        saver.run(80000);
        ASSERT_EQ(saver.saveSnapshot(path), "");
    }
    std::string image;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        image = ss.str();
    }
    ASSERT_GT(image.size(), 1000u);

    auto writeImage = [&path](const std::string &img) {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out << img;
    };

    // A flipped byte mid-file: some section CRC must catch it.
    {
        std::string bad = image;
        bad[bad.size() / 2] ^= 0x10;
        writeImage(bad);
        Cluster clu(topologies::singleTor(2), testConfig());
        spawnPinger(clu.node(0), 1);
        std::string e = resumeFromSnapshot(clu, path);
        ASSERT_NE(e, "");
        EXPECT_NE(e.find("CRC"), std::string::npos) << e;
    }
    // Truncation: clean diagnostic, never a crash.
    {
        writeImage(image.substr(0, image.size() / 3));
        Cluster clu(topologies::singleTor(2), testConfig());
        spawnPinger(clu.node(0), 1);
        EXPECT_NE(resumeFromSnapshot(clu, path), "");
    }
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

TEST(ClusterCheckpoint, PeriodicAndSignalDrivenCheckpoints)
{
    constexpr Cycles kSpan = 40000; // 100 rounds at quantum 400
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_mgr.snap");

    std::string ref_dump;
    {
        Cluster ref(topologies::singleTor(2), testConfig());
        spawnPinger(ref.node(0), 1);
        ref.run(kSpan + 20000);
        ref_dump = statsDump(ref);
    }

    CheckpointManager::installSignalHandlers();
    CheckpointManager::clearSignal();
    {
        Cluster clu(topologies::singleTor(2), testConfig());
        spawnPinger(clu.node(0), 1);
        CheckpointOptions opts;
        opts.path = path;
        opts.everyRounds = 50; // one checkpoint per 20000 cycles
        CheckpointManager mgr(clu, opts);

        EXPECT_TRUE(mgr.run(kSpan));
        EXPECT_EQ(mgr.checkpointsWritten(), 1u)
            << "one periodic checkpoint inside the span";
        EXPECT_FALSE(mgr.interrupted());

        // A delivered SIGTERM stops the next run at its first barrier
        // and leaves a final snapshot behind.
        std::raise(SIGTERM);
        EXPECT_FALSE(mgr.run(1000000));
        EXPECT_TRUE(mgr.interrupted());
        EXPECT_EQ(mgr.checkpointsWritten(), 2u);
        EXPECT_EQ(clu.now(), kSpan) << "stop at the barrier, not later";
    }
    CheckpointManager::clearSignal();

    // The final snapshot resumes into a byte-identical continuation.
    Cluster resumed(topologies::singleTor(2), testConfig());
    spawnPinger(resumed.node(0), 1);
    ASSERT_EQ(resumeFromSnapshot(resumed, path), "");
    EXPECT_EQ(resumed.now(), kSpan);
    resumed.run(20000);
    EXPECT_EQ(statsDump(resumed), ref_dump);
}

TEST(ClusterCheckpoint, WarmBootForksDivergeDeterministically)
{
    // Boot once (the expensive part), then fork per scenario: each
    // child inherits the booted state and runs a different span, so
    // the forks diverge — but each fork is itself deterministic.
    ClusterConfig cc = testConfig();
    cc.telemetry.enabled = false; // keep the forks free of dump files
    Cluster clu(topologies::singleTor(2), cc);
    spawnPinger(clu.node(0), 1);
    clu.run(100000);

    auto scenario = [&clu](uint32_t k) -> int {
        clu.run((k + 1) * 100000);
        uint64_t frames =
            clu.node(0).blade().nic().stats().framesSent.value();
        return static_cast<int>(frames % 251);
    };

    std::vector<int> first = runScenarioForks(clu, 2, scenario);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_NE(first[0], first[1])
        << "different scenarios must diverge from the shared boot";

    // Forking again from the unchanged parent replays identically.
    std::vector<int> second = runScenarioForks(clu, 2, scenario);
    EXPECT_EQ(first, second);
}

TEST(ClusterCheckpoint, SigkillAndResumeIsByteIdentical)
{
    // Crash recovery end to end: SIGKILL a checkpointing run mid-way
    // (no handler can run), then resume from the last complete
    // snapshot — atomic tmp+fsync+rename means whatever file exists
    // is whole — and match the unbroken run byte for byte.
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_kill.snap");

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        Cluster clu(topologies::singleTor(2), testConfig());
        spawnPinger(clu.node(0), 1);
        CheckpointOptions opts;
        opts.path = path;
        opts.everyRounds = 25; // checkpoint every 10000 cycles
        CheckpointManager mgr(clu, opts);
        mgr.run(1000000000); // far longer than the parent will allow
        ::_exit(0);
    }

    // Wait for the first complete checkpoint, then kill without mercy.
    bool seen = false;
    for (int i = 0; i < 15000 && !seen; ++i) {
        seen = ::access(path.c_str(), F_OK) == 0;
        if (!seen)
            ::usleep(2000);
    }
    ASSERT_TRUE(seen) << "child never produced a checkpoint";
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Resume from whatever checkpoint survived and run a fixed tail.
    Cluster resumed(topologies::singleTor(2), testConfig());
    spawnPinger(resumed.node(0), 1);
    ASSERT_EQ(resumeFromSnapshot(resumed, path), "");
    Cycles at_resume = resumed.now();
    ASSERT_GT(at_resume, 0u);
    resumed.run(100000);
    Cycles total = resumed.now();
    std::string resumed_dump = statsDump(resumed);

    Cluster ref(topologies::singleTor(2), testConfig());
    spawnPinger(ref.node(0), 1);
    ref.run(total);
    EXPECT_EQ(resumed_dump, statsDump(ref))
        << "resumed-after-SIGKILL run diverged (resumed at cycle "
        << at_resume << ")";
}

} // namespace
} // namespace firesim
