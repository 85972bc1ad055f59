/**
 * @file
 * End-to-end decode-cache parity: whole-cluster runs with the fast
 * path on and off must produce byte-identical telemetry dumps (after
 * stripping host-timing stats, which legitimately differ between any
 * two host executions) and identical hart consoles — for the Fig. 5
 * style single-process ping cluster, whose full state image must also
 * match mid-run and at the end, AND a two-shard distributed run whose
 * per-rank stats must also match.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
#include "riscv/assembler.hh"
#include "riscv/decode_cache.hh"
#include "tests/state_image.hh"

namespace firesim
{
namespace
{

using namespace regs;

ClusterConfig
parityConfig(bool decode_cache)
{
    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    cc.harts = 1;
    cc.hart.decodeCache = decode_cache;
    return cc;
}

/** A hart workload exercising ALU/mul/load/store timing, UART MMIO,
 *  and a final halt. Varies per node so the two blades' stat subtrees
 *  are distinguishable. */
void
armHart(NodeSystem &node, uint64_t node_idx)
{
    Assembler a(node.blade().memory(), memmap::kDramBase);
    a.li(s0, static_cast<int64_t>(memmap::kDramBase + 1 * MiB));
    a.li(t1, static_cast<int64_t>(memmap::kUartTx));
    a.li(t0, static_cast<int64_t>(400 + 37 * node_idx));
    a.li(a0, 1);
    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    a.addi(a0, a0, 3);
    a.sd(a0, s0, 0);
    a.ld(a1, s0, 8 * static_cast<int32_t>(node_idx));
    a.mul(a2, a0, t0);
    a.xor_(a0, a0, a2);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    for (char c : std::string("hart-done")) {
        a.li(t2, c);
        a.sb(t2, t1, 0);
    }
    a.halt(a0);
    a.finalize();
    node.blade().hart(0).reset(memmap::kDramBase);
}

void
spawnPing(NodeSystem &from, size_t to_index, Cycles *rtt_out)
{
    from.os().spawn("ping", -1, [&from, to_index, rtt_out]() -> Task<> {
        *rtt_out = co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

struct SingleRun
{
    std::string strippedStats;
    StateImage midImage, endImage;
    std::vector<std::string> consoles;
    std::vector<uint64_t> exitCodes;
    Cycles rtt = 0;
    uint64_t decodeHits = 0;
};

SingleRun
runSingleProcess(bool decode_cache)
{
    SingleRun out;
    Cluster c(topologies::singleTor(2), parityConfig(decode_cache));
    for (size_t i = 0; i < c.nodeCount(); ++i)
        armHart(c.node(i), i);
    spawnPing(c.node(0), 1, &out.rtt);
    c.run(300000);
    out.midImage = c.stateImage();
    c.run(300000);
    out.endImage = c.stateImage();
    for (size_t i = 0; i < c.nodeCount(); ++i) {
        RocketCore &hart = c.node(i).blade().hart(0);
        EXPECT_TRUE(hart.halted()) << "node " << i;
        out.consoles.push_back(hart.console());
        out.exitCodes.push_back(hart.exitCode());
        if (const DecodeCacheStats *ds = hart.decodeStats())
            out.decodeHits += ds->hits;
    }
    out.strippedStats = stripHostTimingStats(
        c.telemetry()->registry().dumpJson(c.now()));
    return out;
}

TEST(DecodeParity, SingleProcessPingClusterByteIdentical)
{
    SingleRun on = runSingleProcess(true);
    SingleRun off = runSingleProcess(false);

    ASSERT_GT(on.rtt, 0u) << "ping never completed";
    EXPECT_EQ(on.rtt, off.rtt);
    EXPECT_EQ(on.consoles, off.consoles);
    EXPECT_EQ(on.exitCodes, off.exitCodes);
    for (const std::string &con : on.consoles)
        EXPECT_EQ(con, "hart-done");

    // The headline claim: after stripping host-timing entries (which
    // include the decode cache's own hit/miss counters) the two dumps
    // are byte for byte the same.
    EXPECT_EQ(on.strippedStats, off.strippedStats);
    // So is every component's state, harts included.
    EXPECT_EQ(imageDiff(on.midImage, off.midImage), "") << "mid-run";
    EXPECT_EQ(imageDiff(on.endImage, off.endImage), "") << "at the end";

    // And the fast path really ran: the loop body re-executes hundreds
    // of times, so hits must dominate.
    EXPECT_GT(on.decodeHits, 1000u);
    EXPECT_EQ(off.decodeHits, 0u);

    // The unstripped decode stats ARE registered (observability), just
    // excluded from parity: the raw on-dump mentions them.
    Cluster c(topologies::singleTor(2), parityConfig(true));
    std::string raw = c.telemetry()->registry().dumpJson(0);
    EXPECT_NE(raw.find(".host.decode.hits"), std::string::npos);
    EXPECT_EQ(stripHostTimingStats(raw).find(".host.decode."),
              std::string::npos);
}

struct ShardRun
{
    std::string stripped0, stripped1;
    std::string console0, console1;
    Cycles rtt = 0;
};

ShardRun
runTwoShards(bool decode_cache)
{
    ShardRun out;
    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0 = parityConfig(decode_cache);
    ClusterConfig cc1 = parityConfig(decode_cache);
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));

    std::thread shard1([&] {
        // Rank 1 owns global node 1 as local 0.
        Cluster c1(topologies::singleTor(2), std::move(cc1),
                   std::move(fds1));
        armHart(c1.node(0), 1);
        c1.run(600000);
        out.console1 = c1.node(0).blade().hart(0).console();
        out.stripped1 = stripHostTimingStats(
            c1.telemetry()->registry().dumpJson(c1.now()));
    });
    {
        Cluster c0(topologies::singleTor(2), std::move(cc0),
                   std::move(fds0));
        armHart(c0.node(0), 0);
        spawnPing(c0.node(0), 1, &out.rtt);
        c0.run(600000);
        out.console0 = c0.node(0).blade().hart(0).console();
        out.stripped0 = stripHostTimingStats(
            c0.telemetry()->registry().dumpJson(c0.now()));
    }
    shard1.join();
    return out;
}

TEST(DecodeParity, TwoShardDistributedRunByteIdentical)
{
    ShardRun on = runTwoShards(true);
    ShardRun off = runTwoShards(false);

    ASSERT_GT(on.rtt, 0u) << "cross-shard ping never completed";
    EXPECT_EQ(on.rtt, off.rtt);
    EXPECT_EQ(on.console0, "hart-done");
    EXPECT_EQ(on.console1, "hart-done");
    EXPECT_EQ(on.console0, off.console0);
    EXPECT_EQ(on.console1, off.console1);

    // Both ranks' dumps match byte for byte once host-timing entries
    // are stripped.
    EXPECT_EQ(on.stripped0, off.stripped0);
    EXPECT_EQ(on.stripped1, off.stripped1);
}

} // namespace
} // namespace firesim
