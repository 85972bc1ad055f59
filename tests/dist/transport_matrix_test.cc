/**
 * @file
 * The transport parity matrix: the same two-shard cluster run over
 * every bridge fabric — in-process loopback links, an AF_UNIX
 * socketpair, and the shared-memory rings — produces byte-identical
 * stripped stat dumps, in memory and in the rank-suffixed files both
 * ranks write into one shared dump directory.
 * The bridge moves the same bytes; only host mechanics differ. Plus
 * the full state image of each rank, shm against socketpair, mid-run
 * and at the end, and the shm peer-kill path (SIGKILL mid-round
 * degrades, never hangs, leaks no /dev/shm name).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/peer_link.hh"
#include "net/remote/socket.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/state_image.hh"

namespace firesim
{
namespace
{

enum class Fabric
{
    Loopback,
    Unix,
    Shm,
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

ClusterConfig
shardConfig(uint32_t rank, Fabric fabric)
{
    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    cc.shard.shards = 2;
    cc.shard.rank = rank;
    if (fabric == Fabric::Shm)
        cc.shard.transport = TransportKind::Shm;
    return cc;
}

void
spawnPinger(NodeSystem &from, size_t to_index)
{
    from.os().spawn("pinger", -1, [&from, to_index]() -> Task<> {
        while (true)
            co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

/** rank 0 owns global nodes 0,1; rank 1 owns 2,3 (as local 0,1). */
void
spawnWork(Cluster &clu, uint32_t rank)
{
    if (rank == 0) {
        spawnPinger(clu.node(0), 3); // cross-shard
        spawnPinger(clu.node(1), 0);
    } else {
        spawnPinger(clu.node(0), 1); // global 2 -> 1, cross-shard
    }
}

struct PairResult
{
    std::string dump[2]; //!< per-rank stripped stats dump
    std::string merged;  //!< both ranks' stripped dump files, in order
    TransportKind kind[2] = {TransportKind::Auto, TransportKind::Auto};
};

/** Run one two-shard pair over @p fabric; @p body drives each shard
 *  on its own thread. */
PairResult
runPair(Fabric fabric,
        const std::function<void(Cluster &, uint32_t)> &body)
{
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>> links0,
        links1;
    if (fabric == Fabric::Loopback) {
        auto [end0, end1] = loopbackLinkPair();
        links0.emplace_back(1, std::move(end0));
        links1.emplace_back(0, std::move(end1));
    } else {
        auto [fd0, fd1] = localSocketPair();
        fds0.emplace_back(1, std::move(fd0));
        fds1.emplace_back(0, std::move(fd1));
    }

    // Both ranks dump into one directory; the destructors write
    // stats.json.rank0 and stats.json.rank1 side by side.
    ScopedTempDir tmp;
    std::string dir = tmp.file("dump");
    ::mkdir(dir.c_str(), 0755);

    PairResult out;
    auto runShard = [&](uint32_t rank) {
        ClusterConfig cc = shardConfig(rank, fabric);
        cc.telemetry.dumpDir = dir;
        auto fds = rank == 0 ? std::move(fds0) : std::move(fds1);
        auto links = rank == 0 ? std::move(links0) : std::move(links1);
        std::unique_ptr<Cluster> clu;
        if (fabric == Fabric::Loopback)
            clu = std::make_unique<Cluster>(topologies::twoLevel(2, 2),
                                            std::move(cc),
                                            std::move(links));
        else
            clu = std::make_unique<Cluster>(topologies::twoLevel(2, 2),
                                            std::move(cc),
                                            std::move(fds));
        body(*clu, rank);
        out.kind[rank] = clu->shardTransport()->peerLinkAt(0)->kind();
        out.dump[rank] = stripHostTimingStats(
            clu->telemetry()->registry().dumpJson(clu->now()));
    };
    std::thread shard1([&] { runShard(1); });
    runShard(0);
    shard1.join();
    for (uint32_t rank = 0; rank < 2; ++rank)
        out.merged += stripHostTimingStats(
            readFile(rankPath(dir + "/stats.json", 2, rank)));
    return out;
}

TEST(TransportMatrix, StrippedStatsAndMergedTelemetryAreByteIdentical)
{
    constexpr Cycles kRun = 300000;
    auto body = [](Cluster &clu, uint32_t rank) {
        spawnWork(clu, rank);
        clu.run(kRun);
        EXPECT_FALSE(clu.shardTransport()->anyPeerLost());
    };

    PairResult un = runPair(Fabric::Unix, body);
    PairResult shm = runPair(Fabric::Shm, body);
    PairResult loop = runPair(Fabric::Loopback, body);

    // Each fabric really was what we asked for.
    EXPECT_EQ(un.kind[0], TransportKind::Unix);
    EXPECT_EQ(shm.kind[0], TransportKind::Shm);
    EXPECT_EQ(shm.kind[1], TransportKind::Shm);
    EXPECT_EQ(loop.kind[0], TransportKind::Loopback);

    // The invariant of the whole bridge layer: stripped stats are
    // byte-identical for every transport choice, per rank.
    ASSERT_FALSE(un.dump[0].empty());
    EXPECT_EQ(shm.dump[0], un.dump[0]);
    EXPECT_EQ(shm.dump[1], un.dump[1]);
    EXPECT_EQ(loop.dump[0], un.dump[0]);
    EXPECT_EQ(loop.dump[1], un.dump[1]);

    // And so is what both ranks wrote to the shared dump directory.
    ASSERT_FALSE(un.merged.empty());
    EXPECT_EQ(shm.merged, un.merged);
    EXPECT_EQ(loop.merged, un.merged);
}

TEST(TransportMatrix, ShmAndSocketPairImagesMatchMidRunAndAtEnd)
{
    constexpr Cycles kMid = 200000, kEnd = 400000;
    struct Images
    {
        StateImage mid[2], end[2];
    };
    auto imagesOver = [&](Fabric fabric) {
        Images out;
        runPair(fabric, [&](Cluster &clu, uint32_t rank) {
            spawnWork(clu, rank);
            clu.run(kMid);
            out.mid[rank] = clu.stateImage();
            clu.run(kEnd - kMid);
            out.end[rank] = clu.stateImage();
        });
        return out;
    };

    // Every section, rank-local ones included: both pairs run the same
    // shard plan, so "stats" and "autocounter" must match too.
    Images un = imagesOver(Fabric::Unix);
    Images shm = imagesOver(Fabric::Shm);
    for (uint32_t rank = 0; rank < 2; ++rank) {
        ASSERT_FALSE(un.end[rank].empty());
        EXPECT_EQ(imageDiff(un.mid[rank], shm.mid[rank]), "")
            << "rank " << rank << ", mid-run";
        EXPECT_EQ(imageDiff(un.end[rank], shm.end[rank]), "")
            << "rank " << rank << ", at the end";
    }
}

/** /dev/shm entries left by this process's shm links. */
size_t
liveShmSegments()
{
    std::string prefix = "fsim-shm-" + std::to_string(::getpid()) + "-";
    size_t live = 0;
    DIR *d = ::opendir("/dev/shm");
    if (!d)
        return 0;
    while (struct dirent *e = ::readdir(d))
        if (std::string(e->d_name).rfind(prefix, 0) == 0)
            ++live;
    ::closedir(d);
    return live;
}

TEST(TransportMatrix, ShmPeerKillDegradesWithoutHangOrLeak)
{
    constexpr Cycles kChildRun = 8000;
    constexpr Cycles kRun = 80000;
    size_t before = liveShmSegments();

    auto [fd0, fd1] = localSocketPair();
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Rank 1 in a real process: run a while over the shm rings,
        // then die with no Bye, no close, no destructor — the worst
        // case for segment cleanup and barrier liveness.
        { SocketFd drop = std::move(fd0); }
        std::vector<std::pair<uint32_t, SocketFd>> fds1;
        fds1.emplace_back(0, std::move(fd1));
        Cluster c1(topologies::singleTor(2), shardConfig(1, Fabric::Shm),
                   std::move(fds1));
        c1.run(kChildRun);
        ::raise(SIGKILL);
        ::_exit(0); // not reached
    }
    { SocketFd drop = std::move(fd1); }

    ClusterConfig cc0 = shardConfig(0, Fabric::Shm);
    cc0.shard.recvTimeoutMs = 5000;
    std::vector<std::pair<uint32_t, SocketFd>> fds0;
    fds0.emplace_back(1, std::move(fd0));
    uint64_t peer_lost = 0;
    {
        Cluster c0(topologies::singleTor(2), std::move(cc0),
                   std::move(fds0));
        spawnPinger(c0.node(0), 1); // cross-shard traffic

        EXPECT_EQ(c0.shardTransport()->peerLinkAt(0)->kind(),
                  TransportKind::Shm);
        c0.run(kRun); // must terminate degraded, not hang
        EXPECT_EQ(c0.now(), kRun);
        EXPECT_TRUE(c0.shardTransport()->anyPeerLost());
        peer_lost = c0.health().count(FaultEvent::Kind::PeerShardLost);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_EQ(peer_lost, 1u);

    // The rank-0 creator unlinked the segment when it reclaimed the
    // dead peer's link: a SIGKILL'd opener cannot leak the name.
    EXPECT_EQ(liveShmSegments(), before) << "stale shm segment left";
}

} // namespace
} // namespace firesim
