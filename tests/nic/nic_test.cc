#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/fabric.hh"
#include "node/server_blade.hh"
#include "snapshot/serial.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

/** One blade wired to a scripted peer through the fabric. */
struct NicFixture : public ::testing::Test
{
    void
    boot(NicConfig nic_cfg = NicConfig{})
    {
        BladeConfig bc;
        bc.name = "dut";
        bc.memBytes = 64 * MiB;
        bc.nic = nic_cfg;
        bc.mac = MacAddr(0xa);
        blade = std::make_unique<ServerBlade>(bc);
        peer = std::make_unique<ScriptedEndpoint>("peer");
        fabric.addEndpoint(blade.get());
        fabric.addEndpoint(peer.get());
        fabric.connect(blade.get(), 0, peer.get(), 0, 400);
        fabric.finalize();
    }

    /** Stage a frame in blade memory and return (addr, len). */
    std::pair<uint64_t, uint32_t>
    stageFrame(uint64_t addr, uint32_t payload_bytes, uint8_t tag = 7)
    {
        std::vector<uint8_t> payload(payload_bytes, tag);
        EthFrame f(MacAddr(0xb), MacAddr(0xa), EtherType::Raw, payload);
        blade->memory().write(addr, f.bytes.data(), f.size());
        return {addr, f.size()};
    }

    TokenFabric fabric;
    std::unique_ptr<ServerBlade> blade;
    std::unique_ptr<ScriptedEndpoint> peer;
};

TEST_F(NicFixture, SendDmaPathDeliversExactBytes)
{
    boot();
    auto [addr, len] = stageFrame(0x10000, 200, 0x5a);
    ASSERT_TRUE(blade->nic().pushSendRequest(addr, len));
    fabric.run(20000);
    ASSERT_EQ(peer->received.size(), 1u);
    const EthFrame &rx = peer->received[0].second;
    EXPECT_EQ(rx.size(), len);
    EXPECT_EQ(rx.dst(), MacAddr(0xb));
    for (uint8_t b : rx.payload())
        ASSERT_EQ(b, 0x5a);
    EXPECT_EQ(blade->nic().stats().framesSent.value(), 1u);
    EXPECT_EQ(blade->nic().stats().bytesSent.value(), len);
}

TEST_F(NicFixture, SendCompletionPostedAndInterruptRaised)
{
    boot();
    int interrupts = 0;
    blade->nic().setInterruptHandler([&] { ++interrupts; });
    auto [addr, len] = stageFrame(0x10000, 50);
    blade->nic().pushSendRequest(addr, len);
    fabric.run(20000);
    EXPECT_EQ(blade->nic().sendCompPending(), 1u);
    EXPECT_TRUE(blade->nic().popSendComp());
    EXPECT_FALSE(blade->nic().popSendComp());
    EXPECT_GE(interrupts, 1);
}

TEST_F(NicFixture, ReceiveDmaWritesToPostedBuffer)
{
    boot();
    blade->nic().pushRecvRequest(0x20000);
    EthFrame f(MacAddr(0xa), MacAddr(0xb), EtherType::Raw,
               std::vector<uint8_t>(64, 0xc3));
    peer->sendAt(100, f);
    fabric.run(20000);
    auto comp = blade->nic().popRecvComp();
    ASSERT_TRUE(comp.has_value());
    EXPECT_EQ(comp->addr, 0x20000u);
    EXPECT_EQ(comp->len, f.size());
    std::vector<uint8_t> buf(f.size());
    blade->memory().read(0x20000, buf.data(), f.size());
    EXPECT_EQ(buf, f.bytes);
}

TEST_F(NicFixture, RxDropsWholePacketsWhenBufferFull)
{
    NicConfig nc;
    nc.packetBufBytes = 1600; // fits one 1.5 KiB frame only
    boot(nc);
    // No receive requests posted: the writer can never drain the
    // buffer, so the second packet must be dropped in its entirety.
    EthFrame big(MacAddr(0xa), MacAddr(0xb), EtherType::Raw,
                 std::vector<uint8_t>(1400, 1));
    peer->sendAt(0, big);
    peer->sendAt(200, big);
    fabric.run(20000);
    EXPECT_EQ(blade->nic().stats().framesReceived.value(), 1u);
    EXPECT_EQ(blade->nic().stats().framesDroppedRx.value(), 1u);
}

TEST_F(NicFixture, RateLimitedStreamHasHalvedThroughput)
{
    NicConfig nc;
    nc.rateK = 1;
    nc.rateP = 2;
    nc.sendReqDepth = 64;
    nc.dmaBytesPerCycle = 64.0; // keep the reader off the critical path
    nc.dmaStartLatency = 1;
    boot(nc);
    // Queue 8 frames back-to-back; steady-state spacing between frame
    // completions reflects k/p = 1/2 of line rate.
    std::vector<std::pair<uint64_t, uint32_t>> frames;
    for (int i = 0; i < 8; ++i)
        frames.push_back(stageFrame(0x10000 + i * 0x1000, 498)); // 64 flits
    for (auto [addr, len] : frames)
        ASSERT_TRUE(blade->nic().pushSendRequest(addr, len));
    fabric.run(100000);
    ASSERT_EQ(peer->received.size(), 8u);
    // Steady-state inter-frame gap ~ 64 flits / (1/2) = 128 cycles.
    Cycles g = peer->received[7].first - peer->received[6].first;
    EXPECT_NEAR(static_cast<double>(g), 128.0, 8.0);
}

TEST_F(NicFixture, LineRateStreamIsBackToBack)
{
    NicConfig nc;
    nc.sendReqDepth = 64;
    nc.dmaBytesPerCycle = 64.0; // make DMA a non-factor
    nc.dmaStartLatency = 1;
    boot(nc);
    for (int i = 0; i < 4; ++i) {
        auto [addr, len] = stageFrame(0x10000 + i * 0x1000, 498);
        ASSERT_TRUE(blade->nic().pushSendRequest(addr, len));
    }
    fabric.run(50000);
    ASSERT_EQ(peer->received.size(), 4u);
    Cycles g = peer->received[3].first - peer->received[2].first;
    EXPECT_EQ(g, 64u); // one flit per cycle, 64-flit frames
}

TEST_F(NicFixture, RuntimeRateChangeTakesEffect)
{
    NicConfig nc;
    nc.sendReqDepth = 64;
    boot(nc);
    blade->nic().setRateLimit(1, 4); // quarter line rate
    auto [a1, l1] = stageFrame(0x10000, 498);
    auto [a2, l2] = stageFrame(0x20000, 498);
    blade->nic().pushSendRequest(a1, l1);
    blade->nic().pushSendRequest(a2, l2);
    fabric.run(200000);
    ASSERT_EQ(peer->received.size(), 2u);
    Cycles g = peer->received[1].first - peer->received[0].first;
    EXPECT_NEAR(static_cast<double>(g), 64.0 * 4.0, 16.0);
}

TEST_F(NicFixture, QueueDepthBackpressure)
{
    NicConfig nc;
    nc.sendReqDepth = 2;
    boot(nc);
    auto [addr, len] = stageFrame(0x10000, 100);
    EXPECT_TRUE(blade->nic().pushSendRequest(addr, len));
    EXPECT_TRUE(blade->nic().pushSendRequest(addr, len));
    // Depth 2: the third push may be refused (the first may already
    // have been issued to the reader, so allow either outcome, but the
    // fourth must fail if the third succeeded while nothing drained).
    bool third = blade->nic().pushSendRequest(addr, len);
    bool fourth = blade->nic().pushSendRequest(addr, len);
    EXPECT_FALSE(third && fourth);
}

// ---- Receive timing --------------------------------------------------
//
// The peer link has latency 400, so the fabric runs 400-cycle rounds
// and a flit the peer sends at cycle c arrives at cycle c + 400. With
// the default DMA model a received frame of len bytes is in memory
// dmaStartLatency + ceil(len / 4) cycles after its writer starts.

/** A frame to the blade whose payload bytes are all distinct from
 *  their neighbours, so any prefix is found only where it was put. */
EthFrame
patternFrame(uint32_t payload_bytes, uint8_t seed)
{
    std::vector<uint8_t> payload(payload_bytes);
    for (uint32_t i = 0; i < payload_bytes; ++i)
        payload[i] = static_cast<uint8_t>(seed + i * 7);
    return EthFrame(MacAddr(0xa), MacAddr(0xb), EtherType::Raw, payload);
}

/** The NIC's state-image section. */
std::string
nicImage(const Nic &nic)
{
    Serializer s;
    nic.snapshotSave(s);
    return s.takeBytes();
}

bool
holdsBytes(const std::string &image, const std::vector<uint8_t> &bytes,
           size_t n)
{
    std::string needle(bytes.begin(), bytes.begin() + n);
    return image.find(needle) != std::string::npos;
}

TEST_F(NicFixture, FrameStraddlingRoundsCompletesAtItsLastFlit)
{
    boot();
    Cycles irq_at = kNoCycle;
    blade->nic().setInterruptHandler(
        [&] { irq_at = blade->eventQueue().now(); });
    ASSERT_TRUE(blade->nic().pushRecvRequest(0x20000));
    EthFrame f = patternFrame(kFlitBytes * 50 - kEthHeaderBytes, 3);
    ASSERT_EQ(f.flitCount(), 50u);
    peer->sendAt(370, f); // arrives over cycles 770..819

    fabric.run(800); // round boundary after the frame's 30th flit
    EXPECT_EQ(blade->nic().stats().framesReceived.value(), 0u);
    EXPECT_EQ(irq_at, kNoCycle);

    fabric.run(800);
    EXPECT_EQ(blade->nic().stats().framesReceived.value(), 1u);
    // Admitted at the last flit (819), then written by DMA.
    EXPECT_EQ(irq_at, 819u + 60 + f.size() / 4);
    auto comp = blade->nic().popRecvComp();
    ASSERT_TRUE(comp.has_value());
    EXPECT_EQ(comp->len, f.size());
    std::vector<uint8_t> buf(f.size());
    blade->memory().read(0x20000, buf.data(), f.size());
    EXPECT_EQ(buf, f.bytes);
}

/**
 * Frame A (800 B) fills a 1600 B packet buffer until a receive request
 * posted at cycle 600 has written it out: the writer frees A's space at
 * 600 + 60 + 800/4 = 860. Frame B (904 B, 113 flits) starts arriving
 * while A is still there and ends at @p b_last. @return B was admitted.
 */
bool
frameBAdmitted(Cycles b_last)
{
    BladeConfig bc;
    bc.name = "dut";
    bc.memBytes = 64 * MiB;
    bc.nic.packetBufBytes = 1600;
    bc.mac = MacAddr(0xa);
    ServerBlade blade(bc);
    ScriptedEndpoint peer("peer");
    TokenFabric fabric;
    fabric.addEndpoint(&blade);
    fabric.addEndpoint(&peer);
    fabric.connect(&blade, 0, &peer, 0, 400);
    fabric.finalize();

    EthFrame a = patternFrame(800 - kEthHeaderBytes, 1);
    EthFrame b = patternFrame(904 - kEthHeaderBytes, 2);
    EXPECT_EQ(b.flitCount(), 113u);
    peer.sendAt(0, a); // arrives over cycles 400..499
    Cycles b_first = b_last - 112;
    EXPECT_LT(b_first, 860u) << "B must start while A fills the buffer";
    peer.sendAt(b_first - 400, b);
    blade.eventQueue().schedule(
        600, [&] { blade.nic().pushRecvRequest(0x20000); });

    fabric.run(2400);
    const NicStats &st = blade.nic().stats();
    EXPECT_EQ(st.framesReceived.value() + st.framesDroppedRx.value(), 2u);
    return st.framesReceived.value() == 2;
}

TEST(NicRxTiming, DropIsDecidedAtTheLastFlitCycle)
{
    EXPECT_TRUE(frameBAdmitted(861));
    EXPECT_FALSE(frameBAdmitted(859));
}

TEST_F(NicFixture, BackToBackFramesInOneBatchArriveInOrder)
{
    boot();
    std::vector<EthFrame> frames;
    for (uint8_t i = 0; i < 3; ++i) {
        frames.push_back(patternFrame(64, static_cast<uint8_t>(16 * i)));
        // 10 flits each, back to back: all arrive in cycles 400..429.
        peer->sendAt(10 * i, frames.back());
        ASSERT_TRUE(blade->nic().pushRecvRequest(0x20000 + 0x1000 * i));
    }
    fabric.run(2000);
    EXPECT_EQ(blade->nic().stats().framesReceived.value(), 3u);
    for (uint32_t i = 0; i < 3; ++i) {
        auto comp = blade->nic().popRecvComp();
        ASSERT_TRUE(comp.has_value());
        EXPECT_EQ(comp->addr, 0x20000u + 0x1000 * i);
        std::vector<uint8_t> buf(comp->len);
        blade->memory().read(comp->addr, buf.data(), comp->len);
        EXPECT_EQ(buf, frames[i].bytes) << "frame " << i;
    }
}

TEST_F(NicFixture, StateImageMidFrameHoldsThePartialBytes)
{
    boot();
    ASSERT_TRUE(blade->nic().pushRecvRequest(0x20000));
    EthFrame f = patternFrame(kFlitBytes * 50 - kEthHeaderBytes, 5);
    peer->sendAt(370, f); // arrives over cycles 770..819
    fabric.run(800);
    // 30 flits (240 bytes) have arrived, the next 20 have not.
    std::string mid = nicImage(blade->nic());
    EXPECT_TRUE(holdsBytes(mid, f.bytes, 30 * kFlitBytes));
    EXPECT_FALSE(holdsBytes(mid, f.bytes, 31 * kFlitBytes));

    // Once the frame has been written to memory the NIC holds none of
    // it, so the bytes above came from the partial frame.
    fabric.run(800);
    ASSERT_EQ(blade->nic().stats().framesReceived.value(), 1u);
    EXPECT_FALSE(holdsBytes(nicImage(blade->nic()), f.bytes, 64));
}

TEST_F(NicFixture, UndersizeSendIsFatal)
{
    boot();
    EXPECT_EXIT(blade->nic().pushSendRequest(0x1000, 4),
                ::testing::ExitedWithCode(1), "send request");
}

} // namespace
} // namespace firesim
