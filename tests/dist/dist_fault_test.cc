/**
 * @file
 * Distributed fault handling: a shard whose peer dies mid-run must
 * degrade gracefully through the HealthMonitor (the PR-1 degraded-host
 * model) instead of hanging in a blocking recv — and must do so within
 * the configured barrier timeout even when the peer vanishes silently.
 * With failFast the loss is fatal instead, for CI death tests. A
 * SIGKILL'd peer process over the shm rings degrades the survivor the
 * same way and leaks no /dev/shm name.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <dirent.h>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "manager/cluster.hh"
#include "manager/local_ranks.hh"
#include "manager/topology.hh"
#include "net/remote/shard_transport.hh"
#include "net/remote/socket.hh"

namespace firesim
{
namespace
{

TEST(DistFault, PeerDeathDegradesSurvivorThroughHealthMonitor)
{
    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.shard.recvTimeoutMs = 5000;
    runLocalRanks(
        2, [] { return topologies::singleTor(2); }, cc, [](Cluster &c) {
            if (c.config().shard.rank == 1) {
                // The peer shard simulates a short while, then exits
                // (its destructor sends an orderly Bye — a "peer
                // process finished early" failure, caught mid-run by
                // the survivor's barrier).
                c.run(4000);
                return;
            }
            c.run(40000); // well past the peer's exit

            // The survivor ran to completion, degraded rather than hung.
            EXPECT_EQ(c.now(), 40000u);
            ASSERT_TRUE(c.shardTransport()->anyPeerLost());
            EXPECT_EQ(c.shardTransport()->livePeers(), 0u);
            EXPECT_EQ(c.health().count(FaultEvent::Kind::PeerShardLost),
                      1u);
            EXPECT_NE(c.healthReport().find("peer-shard-lost"),
                      std::string::npos);
        });
}

TEST(DistFault, SilentPeerTimesOutWithinBound)
{
    // A peer that holds its socket open but never speaks: the barrier
    // must give up after recvTimeoutMs and synthesize empty tokens,
    // not block forever.
    auto [fd0, fd1] = localSocketPair();
    ShardTransport::Options opts;
    opts.rank = 0;
    opts.shards = 2;
    opts.recvTimeoutMs = 250;
    std::vector<std::pair<uint32_t, SocketFd>> fds;
    fds.emplace_back(1, std::move(fd0));
    auto t = ShardTransport::fromFds(opts, std::move(fds), 9);

    TokenChannel chan(400, 400);
    chan.setLabel("silent->here [remote link 3]");
    t->bindRxChannel(3, 1, &chan);

    chan.pop(); // the fabric's round-0 pop of the seed batch
    auto t0 = std::chrono::steady_clock::now();
    t->onRoundComplete(0, 0);
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    EXPECT_GE(waited, 200); // ~recvTimeoutMs, minus poll granularity
    EXPECT_LT(waited, 5000) << "barrier did not respect its timeout";
    EXPECT_TRUE(t->anyPeerLost());

    // The dead peer's link was refilled with an empty batch, and
    // later rounds skip the barrier entirely (no second timeout).
    EXPECT_EQ(chan.depth(), 1u);
    TokenBatch round1 = chan.pop();
    EXPECT_TRUE(round1.isEmpty());
    EXPECT_EQ(round1.start, 400u);
    auto t1 = std::chrono::steady_clock::now();
    t->onRoundComplete(1, 400);
    auto again = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t1)
                     .count();
    EXPECT_LT(again, 250);
    EXPECT_EQ(chan.depth(), 1u);

    (void)fd1; // intentionally kept open and silent
}

TEST(DistFaultDeath, FailFastAbortsOnLostPeer)
{
    auto fds = localSocketPair();
    ShardTransport::Options opts;
    opts.rank = 0;
    opts.shards = 2;
    opts.recvTimeoutMs = 250;
    opts.failFast = true;
    std::vector<std::pair<uint32_t, SocketFd>> v;
    v.emplace_back(1, std::move(fds.first));
    auto t = ShardTransport::fromFds(opts, std::move(v), 9);
    fds.second = SocketFd(); // close the peer's end: EOF at the barrier
    EXPECT_EXIT(t->onRoundComplete(0, 0), ::testing::ExitedWithCode(1),
                "lost peer shard 1");
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
    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.shard.shards = 2;
    cc.shard.transport = TransportKind::Shm;

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
        cc.shard.rank = 1;
        Cluster c1(topologies::singleTor(2), cc, std::move(fds1));
        c1.run(kChildRun);
        ::raise(SIGKILL);
        ::_exit(0); // not reached
    }
    { SocketFd drop = std::move(fd1); }

    cc.shard.recvTimeoutMs = 5000;
    std::vector<std::pair<uint32_t, SocketFd>> fds0;
    fds0.emplace_back(1, std::move(fd0));
    uint64_t peer_lost = 0;
    {
        Cluster c0(topologies::singleTor(2), cc, std::move(fds0));
        NodeSystem &n0 = c0.node(0);
        n0.os().spawn("pinger", -1, [&n0]() -> Task<> {
            while (true) // cross-shard traffic
                co_await n0.net().ping(Cluster::ipFor(1));
        });

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
