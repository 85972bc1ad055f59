/**
 * @file
 * A two-process-style TCP rendezvous smoke test: two sharded clusters
 * in one process exercise the identical listen/connect/Hello path that
 * two shard processes take. Whether a sharded run matches one process
 * is the parity matrix's Ranks2, Ranks2Owners and Ranks3 cells.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"

namespace firesim
{
namespace
{

void
spawnPing(NodeSystem &from, size_t to_index, Cycles *rtt_out)
{
    from.os().spawn("ping", -1, [&from, to_index, rtt_out]() -> Task<> {
        *rtt_out = co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

TEST(DistCluster, TcpRendezvousSmoke)
{
    // Probe an ephemeral port, then run a real listen/connect/Hello
    // rendezvous between two sharded clusters. Same code path two
    // separate processes would take; threads stand in for processes.
    uint16_t base_port;
    {
        SocketFd probe = tcpListen("127.0.0.1", 0);
        base_port = boundPort(probe);
    }

    ClusterConfig cc0, cc1;
    cc0.linkLatency = cc1.linkLatency = 400;
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    cc0.shard.basePort = cc1.shard.basePort = base_port;

    Cycles rtt = 0;
    bool lost1 = true;
    std::thread shard1([&] {
        Cluster c1(topologies::singleTor(2), std::move(cc1));
        c1.run(300000);
        lost1 = c1.shardTransport()->anyPeerLost();
    });
    Cluster c0(topologies::singleTor(2), std::move(cc0));
    spawnPing(c0.node(0), 1, &rtt);
    c0.run(300000);
    bool lost0 = c0.shardTransport()->anyPeerLost();
    EXPECT_EQ(c0.shardTransport()->livePeers(), 1u);
    shard1.join();

    EXPECT_GT(rtt, 0u) << "cross-shard ping over TCP never completed";
    EXPECT_FALSE(lost0);
    EXPECT_FALSE(lost1);
}

} // namespace
} // namespace firesim
