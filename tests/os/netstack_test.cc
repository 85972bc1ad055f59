#include <gtest/gtest.h>

#include "manager/cluster.hh"
#include "manager/topology.hh"

namespace firesim
{
namespace
{

/** An 8-node, single-ToR cluster: the paper's Fig. 5 target. */
struct ClusterFixture : public ::testing::Test
{
    void
    boot(uint32_t nodes = 8, Cycles link_latency = 6400)
    {
        ClusterConfig cc;
        cc.linkLatency = link_latency;
        cluster = std::make_unique<Cluster>(topologies::singleTor(nodes),
                                            cc);
    }

    std::unique_ptr<Cluster> cluster;
};

TEST_F(ClusterFixture, PingCompletesWithPlausibleRtt)
{
    boot();
    Cycles rtt = 0;
    bool done = false;
    NodeSystem &a = cluster->node(0);
    Ip dst = Cluster::ipFor(1);
    a.os().spawn("ping", -1, [&]() -> Task<> {
        rtt = co_await a.net().ping(dst);
        done = true;
    });
    cluster->runUs(300.0);
    ASSERT_TRUE(done);
    // Ideal network RTT: 4 x 6400 + 2 x 10 = 25620 cycles (~8 us).
    // Everything above that is modeled OS overhead; the paper reports
    // ~34 us of it, so accept a generous window here (the precise
    // calibration is asserted by the Fig. 5 benchmark).
    TargetClock clk;
    double rtt_us = clk.usFromCycles(rtt);
    EXPECT_GT(rtt_us, 8.0);
    EXPECT_LT(rtt_us, 80.0);
}

TEST_F(ClusterFixture, PingRttScalesWithLinkLatency)
{
    // Fig. 5: measured RTT parallels the ideal line 4L + 2n.
    std::vector<double> overheads;
    for (Cycles lat : {3200u, 6400u, 12800u}) {
        boot(8, lat);
        Cycles rtt = 0;
        bool done = false;
        NodeSystem &a = cluster->node(0);
        Ip dst = Cluster::ipFor(1);
        a.os().spawn("ping", -1, [&]() -> Task<> {
            rtt = co_await a.net().ping(dst);
            done = true;
        });
        cluster->runUs(500.0);
        ASSERT_TRUE(done);
        double ideal = 4.0 * static_cast<double>(lat) + 20.0;
        overheads.push_back(static_cast<double>(rtt) - ideal);
    }
    // The software overhead must be latency-independent: the curves are
    // parallel. Allow a small tolerance for scheduling quantization.
    EXPECT_NEAR(overheads[0], overheads[1], 2000.0);
    EXPECT_NEAR(overheads[1], overheads[2], 2000.0);
}

TEST_F(ClusterFixture, UdpEchoRoundTrip)
{
    boot();
    NodeSystem &server = cluster->node(0);
    NodeSystem &client = cluster->node(1);
    std::vector<uint8_t> got;
    bool replied = false;

    server.os().spawn("server", -1, [&]() -> Task<> {
        UdpSocket sock(server.net(), 7); // echo port
        while (true) {
            Datagram d = co_await sock.recv();
            co_await sock.sendTo(d.srcIp, d.srcPort, d.data);
        }
    });
    client.os().spawn("client", -1, [&]() -> Task<> {
        UdpSocket sock(client.net(), 9000);
        std::vector<uint8_t> msg = {1, 2, 3, 4};
        co_await sock.sendTo(Cluster::ipFor(0), 7, msg);
        Datagram d = co_await sock.recv();
        got = d.data;
        replied = true;
        // Keep the socket alive while the node keeps running.
        while (true)
            co_await client.os().sleepFor(1000000);
    });
    cluster->runUs(500.0);
    ASSERT_TRUE(replied);
    EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST_F(ClusterFixture, UdpPayloadIntegrityAcrossSizes)
{
    boot();
    NodeSystem &server = cluster->node(2);
    NodeSystem &client = cluster->node(3);
    std::vector<std::vector<uint8_t>> received;

    server.os().spawn("sink", -1, [&]() -> Task<> {
        UdpSocket sock(server.net(), 5000);
        while (true) {
            Datagram d = co_await sock.recv();
            received.push_back(d.data);
        }
    });
    client.os().spawn("source", -1, [&]() -> Task<> {
        UdpSocket sock(client.net(), 5001);
        std::vector<uint32_t> sizes = {1, 8, 9, 100, 1400};
        for (uint32_t size : sizes) {
            std::vector<uint8_t> payload(size);
            for (uint32_t i = 0; i < size; ++i)
                payload[i] = static_cast<uint8_t>(i * 13 + size);
            co_await sock.sendTo(Cluster::ipFor(2), 5000, payload);
        }
        while (true)
            co_await client.os().sleepFor(1000000);
    });
    cluster->runUs(1000.0);
    ASSERT_EQ(received.size(), 5u);
    uint32_t idx = 0;
    for (uint32_t size : {1u, 8u, 9u, 100u, 1400u}) {
        ASSERT_EQ(received[idx].size(), size);
        for (uint32_t i = 0; i < size; ++i)
            ASSERT_EQ(received[idx][i],
                      static_cast<uint8_t>(i * 13 + size));
        ++idx;
    }
}

TEST_F(ClusterFixture, DatagramToUnboundPortIsCounted)
{
    boot();
    NodeSystem &client = cluster->node(0);
    client.os().spawn("source", -1, [&]() -> Task<> {
        UdpSocket sock(client.net(), 1234);
        std::vector<uint8_t> one = {9};
        co_await sock.sendTo(Cluster::ipFor(1), 4321, one);
        while (true)
            co_await client.os().sleepFor(1000000);
    });
    cluster->runUs(200.0);
    EXPECT_EQ(cluster->node(1).net().stats().udpNoPort.value(), 1u);
}

TEST_F(ClusterFixture, ManyPingsAllComplete)
{
    boot();
    int completed = 0;
    NodeSystem &a = cluster->node(0);
    a.os().spawn("pinger", -1, [&]() -> Task<> {
        for (int i = 0; i < 10; ++i) {
            co_await a.net().ping(Cluster::ipFor(1));
            ++completed;
        }
    });
    cluster->runUs(2000.0);
    EXPECT_EQ(completed, 10);
    EXPECT_EQ(cluster->node(1).net().stats().icmpEchoed.value(), 10u);
}

TEST_F(ClusterFixture, CrossTrafficDoesNotCorruptStreams)
{
    boot();
    // Every even node sends 20 numbered datagrams to the next odd node;
    // each receiver checks ordering and content.
    int ok_streams = 0;
    for (size_t pair = 0; pair < 4; ++pair) {
        NodeSystem &rx = cluster->node(2 * pair + 1);
        NodeSystem &tx = cluster->node(2 * pair);
        rx.os().spawn("rx", -1, [&, pair]() -> Task<> {
            UdpSocket sock(rx.net(), 6000);
            for (uint8_t i = 0; i < 20; ++i) {
                Datagram d = co_await sock.recv();
                if (d.data.size() != 2 || d.data[0] != pair ||
                    d.data[1] != i) {
                    co_return; // corrupt/missing -> stream not counted
                }
            }
            ++ok_streams;
        });
        tx.os().spawn("tx", -1, [&, pair]() -> Task<> {
            UdpSocket sock(tx.net(), 6001);
            for (uint8_t i = 0; i < 20; ++i) {
                std::vector<uint8_t> msg = {static_cast<uint8_t>(pair), i};
                co_await sock.sendTo(Cluster::ipFor(2 * pair + 1), 6000,
                                     msg);
            }
            while (true)
                co_await tx.os().sleepFor(1000000);
        });
    }
    cluster->runUs(3000.0);
    EXPECT_EQ(ok_streams, 4);
}

TEST(NetStackDeath, DoublePortBindIsFatal)
{
    ClusterConfig cc;
    Cluster cluster(topologies::singleTor(2), cc);
    NodeSystem &n = cluster.node(0);
    bool spawned = false;
    n.os().spawn("binder", -1, [&]() -> Task<> {
        spawned = true;
        UdpSocket a(n.net(), 80);
        EXPECT_EXIT({ UdpSocket b(n.net(), 80); },
                    ::testing::ExitedWithCode(1), "already bound");
        while (true)
            co_await n.os().sleepFor(1000000);
    });
    cluster.runUs(10.0);
    EXPECT_TRUE(spawned);
}

TEST(NetStackDeath, OversizeDatagramIsFatal)
{
    ClusterConfig cc;
    Cluster cluster(topologies::singleTor(2), cc);
    NodeSystem &n = cluster.node(0);
    n.os().spawn("big", -1, [&]() -> Task<> {
        UdpSocket sock(n.net(), 80);
        std::vector<uint8_t> huge(4000, 0);
        EXPECT_EXIT(
            {
                auto t = sock.sendTo(Cluster::ipFor(1), 81, huge);
                (void)t;
            },
            ::testing::ExitedWithCode(1), "MTU");
        while (true)
            co_await n.os().sleepFor(1000000);
    });
    cluster.runUs(10.0);
}

TEST(NetStackDeath, UnresolvableDestinationIsFatal)
{
    // The shared ARP table knows every server; a node still may not
    // resolve its own IP, and an IP outside the plan has no entry.
    auto sendFromNode0 = [](Ip dst) {
        Cluster cluster(topologies::singleTor(2), ClusterConfig{});
        NodeSystem &n = cluster.node(0);
        n.os().spawn("send", -1, [&n, dst]() -> Task<> {
            UdpSocket sock(n.net(), 80);
            co_await sock.sendTo(dst, 81, std::vector<uint8_t>(3, 0));
        });
        cluster.runUs(100.0);
    };
    EXPECT_EXIT(sendFromNode0(Cluster::ipFor(7)),
                ::testing::ExitedWithCode(1), "no ARP entry for 10.0.0.8");
    EXPECT_EXIT(sendFromNode0(Cluster::ipFor(0)),
                ::testing::ExitedWithCode(1), "no ARP entry for 10.0.0.1");
}

} // namespace
} // namespace firesim
