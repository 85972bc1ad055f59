/**
 * @file
 * Fabric-level distributed tests: a link carried over the socket
 * transport must deliver exactly what a local link delivers — same
 * frames, same arrival cycles, byte-identical instruction traces —
 * and the round barrier must keep the shards in lockstep.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "net/fabric.hh"
#include "net/remote/shard_transport.hh"
#include "net/remote/socket.hh"
#include "telemetry/instr_trace.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

/**
 * ScriptedEndpoint that also records a TracerV-style trace derived
 * purely from the tokens it receives (pc = flit payload, cycle = token
 * arrival cycle). Target-deterministic by construction, so the
 * drained trace records must match between local and remote runs.
 */
class TracedEndpoint : public ScriptedEndpoint
{
  public:
    explicit TracedEndpoint(std::string name)
        : ScriptedEndpoint(std::move(name)), trace(1 << 12)
    {}

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            const std::vector<TokenBatch *> &out) override
    {
        ScriptedEndpoint::advance(window_start, window, in, out);
        for (const Flit &flit : in[0]->flits) {
            uint64_t pc = 0;
            for (uint8_t i = 0; i < flit.size; ++i)
                pc |= static_cast<uint64_t>(flit.data[i]) << (8 * i);
            trace.record(pc, flit.last ? OpClass::Jump : OpClass::Load,
                         in[0]->absCycle(flit));
        }
    }

    InstructionTrace trace;
};

EthFrame
taggedFrame(uint8_t tag, size_t payload_len)
{
    std::vector<uint8_t> payload(payload_len);
    for (size_t i = 0; i < payload_len; ++i)
        payload[i] = static_cast<uint8_t>(tag + i);
    return EthFrame(MacAddr(0xb), MacAddr(0xa), EtherType::Raw, payload);
}

void
scriptTraffic(ScriptedEndpoint &a, ScriptedEndpoint &b)
{
    a.sendAt(100, taggedFrame(1, 40));
    a.sendAt(450, taggedFrame(2, 96));
    b.sendAt(300, taggedFrame(3, 17));
    a.sendAt(1000, taggedFrame(4, 200));
    b.sendAt(1500, taggedFrame(5, 64));
}

void
expectSameDelivery(const ScriptedEndpoint &got,
                   const ScriptedEndpoint &want)
{
    ASSERT_EQ(got.received.size(), want.received.size());
    for (size_t i = 0; i < got.received.size(); ++i) {
        EXPECT_EQ(got.received[i].first, want.received[i].first)
            << "frame " << i << " arrival cycle";
        EXPECT_EQ(got.received[i].second.bytes,
                  want.received[i].second.bytes)
            << "frame " << i << " bytes";
    }
}

/** One shard: a single endpoint whose only port is a remote link. */
struct Shard
{
    static constexpr Cycles kLat = 200;

    Shard(uint32_t rank, std::string ep_name, SocketFd fd)
        : ep(std::make_unique<TracedEndpoint>(std::move(ep_name)))
    {
        // Tokens A->B travel as global link 0, B->A as link 1.
        uint32_t rx = rank == 0 ? 1 : 0;
        uint32_t tx = rank == 0 ? 0 : 1;
        fabric.addEndpoint(ep.get());
        fabric.connectRemote(ep.get(), 0, kLat, rx, tx,
                             rank == 0 ? "B" : "A");
        fabric.finalize();

        ShardSpec spec;
        spec.rank = rank;
        spec.shards = 2;
        std::vector<std::pair<uint32_t, SocketFd>> fds;
        fds.emplace_back(1 - rank, std::move(fd));
        transport = ShardTransport::fromFds(spec, std::move(fds), 77);
        transport->bindTxLink(tx, 1 - rank);
        transport->bindRxChannel(rx, 1 - rank, fabric.remoteRxChannel(rx));
        fabric.setRemoteHook(transport.get());
    }

    TokenFabric fabric;
    std::unique_ptr<TracedEndpoint> ep;
    std::unique_ptr<ShardTransport> transport;
};

TEST(DistFabric, RemoteLinkMatchesLocalLinkExactly)
{
    constexpr Cycles kRun = 4000;

    // Reference: the same endpoints and scripts on a local link.
    TracedEndpoint la("A"), lb("B");
    TokenFabric local;
    local.addEndpoint(&la);
    local.addEndpoint(&lb);
    local.connect(&la, 0, &lb, 0, Shard::kLat);
    local.finalize();
    scriptTraffic(la, lb);
    local.run(kRun);
    ASSERT_GE(la.received.size() + lb.received.size(), 5u);

    // Distributed: one endpoint per shard, link carried over an
    // AF_UNIX socketpair, each shard driven by its own thread.
    auto [fd0, fd1] = localSocketPair();
    Shard s0(0, "A", std::move(fd0));
    Shard s1(1, "B", std::move(fd1));
    scriptTraffic(*s0.ep, *s1.ep);
    std::thread peer([&] { s1.fabric.run(kRun); });
    s0.fabric.run(kRun);
    peer.join();

    expectSameDelivery(*s0.ep, la);
    expectSameDelivery(*s1.ep, lb);

    // Out-of-band artifacts are identical, not just equivalent.
    EXPECT_EQ(s0.ep->trace.drain(), la.trace.drain());
    EXPECT_EQ(s1.ep->trace.drain(), lb.trace.drain());

    // Both shards saw every round barrier, and every produced batch
    // crossed the wire exactly once per direction per round.
    const auto &st0 = s0.transport->peerStatsAt(0);
    const auto &st1 = s1.transport->peerStatsAt(0);
    uint64_t rounds = kRun / s0.fabric.quantum();
    EXPECT_EQ(st0.roundsBarriered, rounds);
    EXPECT_EQ(st1.roundsBarriered, rounds);
    EXPECT_EQ(st0.batchesTx, rounds);
    EXPECT_EQ(st1.batchesTx, rounds);
    EXPECT_EQ(st0.batchesRx, rounds);
    EXPECT_TRUE(st0.alive);
    EXPECT_TRUE(st1.alive);
}

TEST(DistFabric, BarrierKeepsShardsInLockstepAcrossRounds)
{
    // Drive two raw transports through the fabric's round discipline
    // by hand: each round ships one batch and barriers. The RX side
    // must observe restamped batches in production order with payloads
    // intact — TCP buffering may deliver many rounds at once, but the
    // barrier must hand over exactly one per round.
    constexpr Cycles kQuantum = 200;
    constexpr int kRounds = 6;

    auto [fd0, fd1] = localSocketPair();
    ShardSpec spec0, spec1;
    spec0.rank = 0;
    spec0.shards = 2;
    spec1.rank = 1;
    spec1.shards = 2;

    std::vector<std::pair<uint32_t, SocketFd>> v0, v1;
    v0.emplace_back(1, std::move(fd0));
    v1.emplace_back(0, std::move(fd1));
    auto t0 = ShardTransport::fromFds(spec0, std::move(v0), 5);
    auto t1 = ShardTransport::fromFds(spec1, std::move(v1), 5);

    TokenChannel chan(kQuantum, kQuantum); // latency == quantum
    chan.setLabel("t0->t1 [remote link 0]");
    t0->bindTxLink(0, 1);
    t1->bindRxChannel(0, 0, &chan);

    std::vector<TokenBatch> got;
    std::thread rx([&] {
        for (int r = 0; r < kRounds; ++r) {
            got.push_back(chan.pop());
            t1->onRoundComplete(r, Cycles(r) * kQuantum);
        }
    });
    for (int r = 0; r < kRounds; ++r) {
        TokenBatch b(Cycles(r) * kQuantum, kQuantum);
        Flit f;
        f.offset = static_cast<uint32_t>(r);
        f.size = 2;
        f.data[0] = static_cast<uint8_t>(r);
        f.data[1] = 0x5a;
        b.push(f);
        t0->onTxBatch(0, b);
        t0->onRoundComplete(r, Cycles(r) * kQuantum);
    }
    rx.join();

    ASSERT_EQ(got.size(), size_t(kRounds));
    // Round 0 pops the seed; round r pops the batch produced in round
    // r-1, restamped one latency later.
    EXPECT_TRUE(got[0].isEmpty());
    EXPECT_EQ(got[0].start, 0u);
    for (int r = 1; r < kRounds; ++r) {
        const TokenBatch &b = got[r];
        EXPECT_EQ(b.start, Cycles(r) * kQuantum);
        ASSERT_EQ(b.flits.size(), 1u);
        EXPECT_EQ(b.flits[0].offset, uint32_t(r - 1));
        EXPECT_EQ(b.flits[0].data[0], uint8_t(r - 1));
        EXPECT_EQ(b.flits[0].data[1], 0x5a);
    }

    t0->shutdown();
    t1->shutdown();
    EXPECT_EQ(t0->peerStatsAt(0).roundsBarriered, uint64_t(kRounds));
    EXPECT_EQ(t1->peerStatsAt(0).batchesRx, uint64_t(kRounds));
}

} // namespace
} // namespace firesim
