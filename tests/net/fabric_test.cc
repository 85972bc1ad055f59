#include <gtest/gtest.h>

#include "net/fabric.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

EthFrame
smallFrame(uint8_t tag)
{
    return EthFrame(MacAddr(0xb), MacAddr(0xa), EtherType::Raw,
                    std::vector<uint8_t>{tag, 2, 3});
}

TEST(TokenChannel, SeedsLatencyWorthOfEmptyTokens)
{
    TokenChannel ch(6400, 6400);
    EXPECT_EQ(ch.depth(), 1u);
    TokenChannel ch2(6400, 1600);
    EXPECT_EQ(ch2.depth(), 4u);
    TokenBatch seed = ch2.pop();
    EXPECT_EQ(seed.start, 0u);
    EXPECT_TRUE(seed.isEmpty());
}

TEST(TokenChannel, RestampsProductionToArrivalTime)
{
    TokenChannel ch(100, 100);
    ch.pop(); // consume seed
    TokenBatch b(0, 100);
    Flit f;
    f.offset = 42;
    f.size = 8;
    f.last = true;
    b.push(f);
    ch.push(b);
    TokenBatch got = ch.pop();
    // Produced in window [0,100), consumed in arrival window [100,200):
    // a flit sent at cycle 42 arrives at cycle 142.
    EXPECT_EQ(got.start, 100u);
    EXPECT_EQ(got.absCycle(got.flits[0]), 142u);
}

TEST(TokenChannelDeath, WrongBatchLengthRejected)
{
    TokenChannel ch(100, 100);
    EXPECT_DEATH(ch.push(TokenBatch(0, 50)), "quantum");
}

TEST(TokenChannelDeath, QuantumMustDivideLatency)
{
    EXPECT_DEATH(TokenChannel(100, 33), "divide");
}

TEST(TokenChannelDeath, PopFromEmptyIsFatal)
{
    TokenChannel ch(100, 100);
    ch.setLabel("lonely");
    ch.pop(); // consume the seed batch
    EXPECT_DEATH(ch.pop(), "pop from empty token channel lonely");
}

TEST(TokenChannelDeath, NonContiguousPushNamesTheChannel)
{
    TokenChannel ch(100, 100);
    ch.setLabel("A:0->B:0");
    EXPECT_DEATH(ch.push(TokenBatch(50, 100)),
                 "non-contiguous batch push on A:0->B:0");
}

TEST(TokenChannelDeath, RawCorruptionDiesOnNonContiguousPop)
{
    // pushRaw deliberately skips the contiguity check; the consuming
    // fabric still catches the corrupted stream and names the channel.
    ScriptedEndpoint a("A"), b("B");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.connect(&a, 0, &b, 0, 100);
    fabric.finalize();
    // Queued behind the seed batch: round 1 expects start 100.
    fabric.channelAt(fabric.txChannelOf(0, 0))
        .pushRaw(TokenBatch(900, 100));
    EXPECT_DEATH(fabric.run(300), "non-contiguous batch pop on A:0->B:0");
}

TEST(TokenFabric, FinalizeLabelsEveryChannel)
{
    ScriptedEndpoint a("A"), b("B");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.connect(&a, 0, &b, 0, 100);
    fabric.finalize();
    ASSERT_EQ(fabric.channelCount(), 2u);
    int ab = fabric.txChannelOf(0, 0);
    int ba = fabric.txChannelOf(1, 0);
    ASSERT_GE(ab, 0);
    ASSERT_GE(ba, 0);
    EXPECT_EQ(fabric.channelAt(ab).label(), "A:0->B:0");
    EXPECT_EQ(fabric.channelAt(ba).label(), "B:0->A:0");
}

class FabricPairTest : public ::testing::Test
{
  protected:
    static constexpr Cycles kLat = 200;

    void
    build(Cycles latency = kLat)
    {
        a = std::make_unique<ScriptedEndpoint>("A");
        b = std::make_unique<ScriptedEndpoint>("B");
        fabric.addEndpoint(a.get());
        fabric.addEndpoint(b.get());
        fabric.connect(a.get(), 0, b.get(), 0, latency);
        fabric.finalize();
    }

    TokenFabric fabric;
    std::unique_ptr<ScriptedEndpoint> a, b;
};

TEST_F(FabricPairTest, FlitSentAtMArrivesAtMPlusN)
{
    build();
    // Paper III-B2: "if a network endpoint issues a token at cycle M,
    // the token arrives at the other side at cycle M + N."
    EthFrame frame = smallFrame(1); // 17 bytes -> 3 flits
    const Cycles m = 57;
    a->sendAt(m, frame);
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    // Last token issued at m + 2, so it arrives at m + 2 + kLat.
    EXPECT_EQ(b->received[0].first, m + 2 + kLat);
    EXPECT_EQ(b->received[0].second.bytes, frame.bytes);
}

TEST_F(FabricPairTest, BothDirectionsCarryTraffic)
{
    build();
    a->sendAt(10, smallFrame(1));
    b->sendAt(20, smallFrame(2));
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    ASSERT_EQ(a->received.size(), 1u);
    EXPECT_EQ(a->received[0].second.payload()[0], 2);
    EXPECT_EQ(b->received[0].second.payload()[0], 1);
}

TEST_F(FabricPairTest, QuantumIsMinLatency)
{
    build();
    EXPECT_EQ(fabric.quantum(), kLat);
}

TEST_F(FabricPairTest, RunAdvancesGlobalTime)
{
    build();
    fabric.run(3 * kLat);
    EXPECT_EQ(fabric.now(), 3 * kLat);
}

TEST_F(FabricPairTest, BatchCountTracksHostTraffic)
{
    build();
    fabric.run(5 * kLat);
    // 2 endpoints x 1 port x 5 rounds = 10 batch pushes.
    EXPECT_EQ(fabric.batchesMoved(), 10u);
}

TEST(TokenFabric, StepOrderDoesNotChangeResults)
{
    // Decoupled determinism: permuting the endpoint service order must
    // produce identical delivery cycles.
    std::vector<std::pair<Cycles, size_t>> results[2];
    for (int perm = 0; perm < 2; ++perm) {
        ScriptedEndpoint a("A"), b("B");
        TokenFabric fabric;
        fabric.addEndpoint(&a);
        fabric.addEndpoint(&b);
        fabric.connect(&a, 0, &b, 0, 128);
        if (perm == 1)
            fabric.setStepOrder({1, 0});
        fabric.finalize();
        a.sendAt(13, smallFrame(9));
        a.sendAt(400, smallFrame(8));
        b.sendAt(77, smallFrame(7));
        fabric.run(2000);
        for (auto &[cycle, frame] : a.received)
            results[perm].emplace_back(cycle, frame.bytes.size());
        for (auto &[cycle, frame] : b.received)
            results[perm].emplace_back(cycle, frame.bytes.size());
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_FALSE(results[0].empty());
}

TEST(TokenFabric, MixedCommensurateLatencies)
{
    // Three endpoints in a line with latencies 100 and 300: the fabric
    // batches by 100 and seeds the longer link with 3 in-flight batches.
    ScriptedEndpoint a("A"), b("B");
    class Relay : public TokenEndpoint
    {
      public:
        uint32_t numPorts() const override { return 2; }
        std::string name() const override { return "relay"; }
        void
        advance(Cycles, Cycles, const std::vector<const TokenBatch *> &in,
                const std::vector<TokenBatch *> &out) override
        {
            // Zero-cycle repeater: copy tokens across at the same offsets.
            for (int p = 0; p < 2; ++p)
                for (const Flit &f : in[p]->flits)
                    out[1 - p]->push(f);
        }
    } relay;

    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.addEndpoint(&relay);
    fabric.connect(&a, 0, &relay, 0, 100);
    fabric.connect(&relay, 1, &b, 0, 300);
    fabric.finalize();
    EXPECT_EQ(fabric.quantum(), 100u);

    a.sendAt(5, smallFrame(1));
    fabric.run(2000);
    ASSERT_EQ(b.received.size(), 1u);
    // last flit at cycle 7, +100 through link 1, +300 through link 2.
    EXPECT_EQ(b.received[0].first, 7u + 100 + 300);
}

TEST(TokenFabricDeath, UnconnectedPortIsFatal)
{
    ScriptedEndpoint a("A");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    EXPECT_EXIT(fabric.finalize(), ::testing::ExitedWithCode(1), "");
}

TEST(TokenFabricDeath, DoubleConnectIsFatal)
{
    ScriptedEndpoint a("A"), b("B"), c("C");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.addEndpoint(&c);
    fabric.connect(&a, 0, &b, 0, 100);
    EXPECT_EXIT(fabric.connect(&a, 0, &c, 0, 100),
                ::testing::ExitedWithCode(1), "already connected");
}

TEST(TokenFabricDeath, IncommensurateLatenciesAreFatal)
{
    ScriptedEndpoint a("A"), b("B"), c("C"), d("D");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.addEndpoint(&c);
    fabric.addEndpoint(&d);
    fabric.connect(&a, 0, &b, 0, 100);
    fabric.connect(&c, 0, &d, 0, 150);
    EXPECT_EXIT(fabric.finalize(), ::testing::ExitedWithCode(1),
                "not a multiple");
}

} // namespace
} // namespace firesim
