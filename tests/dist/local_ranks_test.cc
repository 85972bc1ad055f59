/**
 * @file
 * The in-process rank launcher, where the parity matrix's rank cells
 * do not look: with three ranks, every rank reaches both others over
 * the transport its config asks for, and rank 0 runs on the calling
 * thread; a rank's exception reaches the caller after every rank is
 * joined.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "manager/local_ranks.hh"
#include "manager/topology.hh"

namespace firesim
{
namespace
{

TEST(LocalRanks, JoinsEveryRankToEveryOtherOverTheRequestedTransport)
{
    for (TransportKind kind : {TransportKind::Unix, TransportKind::Shm}) {
        ClusterConfig cc;
        cc.linkLatency = 400;
        if (kind == TransportKind::Shm)
            cc.shard.transport = TransportKind::Shm;
        std::atomic<unsigned> ran{0}; // one bit per rank
        const std::thread::id caller = std::this_thread::get_id();
        runLocalRanks(
            3, [] { return topologies::singleTor(3); }, cc,
            [&](Cluster &c) {
                const uint32_t rank = c.config().shard.rank;
                EXPECT_EQ(rank == 0, std::this_thread::get_id() == caller)
                    << "rank " << rank;
                ShardTransport *st = c.shardTransport();
                ASSERT_NE(st, nullptr);
                EXPECT_EQ(st->livePeers(), 2u) << "rank " << rank;
                for (size_t i = 0; i < st->peerRanks().size(); ++i)
                    EXPECT_EQ(st->peerLinkAt(i)->kind(), kind)
                        << "rank " << rank << ", peer " << i;
                c.run(4000); // the links carry rounds
                EXPECT_FALSE(st->anyPeerLost());
                ran |= 1u << rank;
            });
        EXPECT_EQ(ran, 7u) << transportKindName(kind);
    }
}

TEST(LocalRanks, RethrowsARankExceptionOnceEveryRankIsJoined)
{
    ClusterConfig cc;
    cc.linkLatency = 400;
    bool survivor_finished = false;
    auto body = [&](Cluster &c) {
        if (c.config().shard.rank == 1)
            throw std::runtime_error("rank 1 failed");
        c.run(4000); // degraded: rank 1's Cluster said Bye as it unwound
        survivor_finished = c.shardTransport()->anyPeerLost();
    };
    EXPECT_THROW(
        runLocalRanks(2, [] { return topologies::singleTor(2); }, cc, body),
        std::runtime_error);
    EXPECT_TRUE(survivor_finished);
}

} // namespace
} // namespace firesim
