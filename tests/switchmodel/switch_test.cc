#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "snapshot/serial.hh"
#include "switchmodel/switch.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

EthFrame
frameTo(MacAddr dst, MacAddr src, uint32_t payload_bytes, uint8_t tag = 0)
{
    std::vector<uint8_t> payload(payload_bytes, tag);
    return EthFrame(dst, src, EtherType::Raw, payload);
}

/** Two servers connected by one switch, the paper's walk-through setup. */
class TwoServerSwitchTest : public ::testing::Test
{
  protected:
    static constexpr Cycles kLinkLat = 100; // l
    static constexpr Cycles kSwitchLat = 10; // n

    void
    build(Cycles drop_bound = 8192)
    {
        SwitchConfig cfg;
        cfg.name = "tor";
        cfg.ports = 2;
        cfg.minLatency = kSwitchLat;
        cfg.dropBound = drop_bound;
        sw = std::make_unique<Switch>(cfg);
        sw->addMacEntry(MacAddr(0xa), 0);
        sw->addMacEntry(MacAddr(0xb), 1);

        a = std::make_unique<ScriptedEndpoint>("A");
        b = std::make_unique<ScriptedEndpoint>("B");
        fabric.addEndpoint(a.get());
        fabric.addEndpoint(b.get());
        fabric.addEndpoint(sw.get());
        fabric.connect(a.get(), 0, sw.get(), 0, kLinkLat);
        fabric.connect(b.get(), 0, sw.get(), 1, kLinkLat);
        fabric.finalize();
    }

    TokenFabric fabric;
    std::unique_ptr<Switch> sw;
    std::unique_ptr<ScriptedEndpoint> a, b;
};

TEST_F(TwoServerSwitchTest, PaperWalkthroughTiming)
{
    build();
    // Paper Section III-B2 example: a single-token packet sent by server
    // A at cycle m crosses link (l), switch (n), link (l): it arrives at
    // the input of server B's NIC at cycle 2l + m + n.
    const Cycles m = 37;
    // A frame of exactly one flit does not exist (14-byte header), so
    // use a 3-flit frame and account for serialization: the last token
    // leaves at m+2 and the switch timestamps from the last token. The
    // first token of the forwarded packet leaves the switch at
    // (m+2) + l + n, so its last token reaches B at (m+2) + 2l + n + 2.
    EthFrame f = frameTo(MacAddr(0xb), MacAddr(0xa), 3); // 17B -> 3 flits
    a->sendAt(m, f);
    fabric.run(2000);
    ASSERT_EQ(b->received.size(), 1u);
    EXPECT_EQ(b->received[0].first, (m + 2) + 2 * kLinkLat + kSwitchLat + 2);
    EXPECT_EQ(b->received[0].second.bytes, f.bytes);
}

TEST_F(TwoServerSwitchTest, RoundTripIsSymmetric)
{
    build();
    a->sendAt(50, frameTo(MacAddr(0xb), MacAddr(0xa), 3, 1));
    b->sendAt(50, frameTo(MacAddr(0xa), MacAddr(0xb), 3, 2));
    fabric.run(2000);
    ASSERT_EQ(a->received.size(), 1u);
    ASSERT_EQ(b->received.size(), 1u);
    EXPECT_EQ(a->received[0].first, b->received[0].first);
}

TEST_F(TwoServerSwitchTest, CountsPacketsAndBytes)
{
    build();
    EthFrame f = frameTo(MacAddr(0xb), MacAddr(0xa), 100);
    a->sendAt(0, f);
    fabric.run(3000);
    EXPECT_EQ(sw->stats().packetsIn.value(), 1u);
    EXPECT_EQ(sw->stats().packetsOut.value(), 1u);
    EXPECT_EQ(sw->stats().bytesIn.value(), f.size());
    EXPECT_EQ(sw->stats().bytesOut.value(), f.size());
    EXPECT_EQ(sw->stats().packetsDropped.value(), 0u);
}

TEST_F(TwoServerSwitchTest, BackToBackPacketsSerializeOnOutput)
{
    build();
    // Two packets destined to B arriving simultaneously-ish from A are
    // emitted back-to-back: the port sends one token per cycle.
    EthFrame f1 = frameTo(MacAddr(0xb), MacAddr(0xa), 50, 1); // 8 flits
    EthFrame f2 = frameTo(MacAddr(0xb), MacAddr(0xa), 50, 2);
    a->sendAt(0, f1);
    a->sendAt(8, f2);
    fabric.run(3000);
    ASSERT_EQ(b->received.size(), 2u);
    // Identical length packets, sent 8 flits apart, received 8 apart.
    EXPECT_EQ(b->received[1].first - b->received[0].first, 8u);
    EXPECT_EQ(b->received[0].second.payload()[0], 1);
    EXPECT_EQ(b->received[1].second.payload()[0], 2);
}

TEST_F(TwoServerSwitchTest, LineRateStreamNeverFalselyDrops)
{
    // Back-to-back packets from a single sender arrive at exactly line
    // rate; the output port keeps up, so even a tiny drop bound must not
    // discard anything (drops model congestion, not throughput).
    build(/*drop_bound=*/16);
    for (int i = 0; i < 50; ++i)
        a->sendAt(static_cast<Cycles>(i) * 8,
                  frameTo(MacAddr(0xb), MacAddr(0xa), 50, uint8_t(i)));
    fabric.run(20000);
    EXPECT_EQ(sw->stats().packetsIn.value(), 50u);
    EXPECT_EQ(sw->stats().packetsOut.value(), 50u);
    EXPECT_EQ(sw->stats().packetsDropped.value(), 0u);
    ASSERT_EQ(b->received.size(), 50u);
}

/** Three endpoints on a 3-port switch for routing/broadcast tests. */
class ThreePortSwitchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SwitchConfig cfg;
        cfg.name = "tor3";
        cfg.ports = 3;
        cfg.minLatency = 10;
        sw = std::make_unique<Switch>(cfg);
        for (int i = 0; i < 3; ++i) {
            eps.push_back(std::make_unique<ScriptedEndpoint>(
                std::string("ep") + std::to_string(i)));
            fabric.addEndpoint(eps.back().get());
        }
        fabric.addEndpoint(sw.get());
        for (uint32_t i = 0; i < 3; ++i) {
            sw->addMacEntry(MacAddr(0x10 + i), i);
            fabric.connect(eps[i].get(), 0, sw.get(), i, 100);
        }
        fabric.finalize();
    }

    TokenFabric fabric;
    std::unique_ptr<Switch> sw;
    std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
};

TEST_F(ThreePortSwitchTest, MacTableRoutesToCorrectPort)
{
    eps[0]->sendAt(0, frameTo(MacAddr(0x12), MacAddr(0x10), 10));
    fabric.run(2000);
    EXPECT_EQ(eps[1]->received.size(), 0u);
    ASSERT_EQ(eps[2]->received.size(), 1u);
    EXPECT_EQ(eps[2]->received[0].second.src(), MacAddr(0x10));
}

TEST_F(ThreePortSwitchTest, BroadcastDuplicatesToAllPorts)
{
    eps[0]->sendAt(0, frameTo(MacAddr::broadcast(), MacAddr(0x10), 10));
    fabric.run(2000);
    EXPECT_EQ(eps[1]->received.size(), 1u);
    EXPECT_EQ(eps[2]->received.size(), 1u);
    EXPECT_EQ(sw->stats().broadcasts.value(), 1u);
}

TEST_F(ThreePortSwitchTest, UnknownUnicastFloods)
{
    eps[0]->sendAt(0, frameTo(MacAddr(0x99), MacAddr(0x10), 10));
    fabric.run(2000);
    EXPECT_EQ(eps[1]->received.size(), 1u);
    EXPECT_EQ(eps[2]->received.size(), 1u);
}

TEST_F(ThreePortSwitchTest, ContendingSendersShareOutputLink)
{
    // ep0 and ep1 each send a 400-byte (50-flit... 414B -> 52 flit)
    // packet to ep2 at the same cycle; output serializes them, so the
    // second frame finishes ~one frame time after the first.
    EthFrame f0 = frameTo(MacAddr(0x12), MacAddr(0x10), 400, 1);
    EthFrame f1 = frameTo(MacAddr(0x12), MacAddr(0x11), 400, 2);
    eps[0]->sendAt(0, f0);
    eps[1]->sendAt(0, f1);
    fabric.run(4000);
    ASSERT_EQ(eps[2]->received.size(), 2u);
    Cycles gap = eps[2]->received[1].first - eps[2]->received[0].first;
    EXPECT_EQ(gap, f0.flitCount());
}

TEST_F(ThreePortSwitchTest, TimestampTiesResolveDeterministically)
{
    // Same-timestamp packets from different ports drain in arrival
    // (seq) order; run twice and require identical outcomes.
    std::vector<uint8_t> first_run;
    for (int rep = 0; rep < 2; ++rep) {
        SwitchConfig cfg;
        cfg.ports = 3;
        cfg.minLatency = 10;
        Switch sw2(cfg);
        sw2.addMacEntry(MacAddr(0x12), 2);
        ScriptedEndpoint a("a"), b("b"), c("c");
        TokenFabric fab;
        fab.addEndpoint(&a);
        fab.addEndpoint(&b);
        fab.addEndpoint(&c);
        fab.addEndpoint(&sw2);
        fab.connect(&a, 0, &sw2, 0, 100);
        fab.connect(&b, 0, &sw2, 1, 100);
        fab.connect(&c, 0, &sw2, 2, 100);
        fab.finalize();
        a.sendAt(0, frameTo(MacAddr(0x12), MacAddr(0x10), 20, 0xaa));
        b.sendAt(0, frameTo(MacAddr(0x12), MacAddr(0x11), 20, 0xbb));
        fab.run(2000);
        ASSERT_EQ(c.received.size(), 2u);
        std::vector<uint8_t> tags = {c.received[0].second.payload()[0],
                                     c.received[1].second.payload()[0]};
        if (rep == 0)
            first_run = tags;
        else
            EXPECT_EQ(first_run, tags);
    }
}

TEST(SwitchMacTable, SparseTableRoutesFloodsOverwritesAndRoundTrips)
{
    // A hand-built table with MACs far apart in the address space:
    // the flat index must not assume the manager's dense address plan.
    const MacAddr kLow(0xa), kPlan(0x020000000001ULL),
        kHigh(0xfffffffffffeULL);
    SwitchConfig cfg;
    cfg.name = "sparse";
    cfg.ports = 4;
    cfg.minLatency = 10;
    Switch sw(cfg);
    sw.addMacEntry(kLow, 0);
    sw.addMacEntry(kPlan, 1);
    sw.addMacEntry(kHigh, 2);
    EXPECT_EQ(sw.lookupMac(MacAddr(0xb)), std::nullopt);

    std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
    TokenFabric fab;
    for (uint32_t p = 0; p < cfg.ports; ++p) {
        eps.push_back(std::make_unique<ScriptedEndpoint>(
            "ep" + std::to_string(p)));
        fab.addEndpoint(eps.back().get());
    }
    fab.addEndpoint(&sw);
    for (uint32_t p = 0; p < cfg.ports; ++p)
        fab.connect(eps[p].get(), 0, &sw, p, 100);
    fab.finalize();

    // Each known MAC exits its own port; an unknown unicast floods
    // every port, the sender's included.
    const MacAddr src(0x30);
    eps[3]->sendAt(0, frameTo(kLow, src, 10, 1));
    eps[3]->sendAt(100, frameTo(kPlan, src, 10, 2));
    eps[3]->sendAt(200, frameTo(kHigh, src, 10, 3));
    eps[3]->sendAt(300, frameTo(MacAddr(0xb), src, 10, 4));
    fab.run(3000);
    for (uint32_t p = 0; p < 3; ++p) {
        ASSERT_EQ(eps[p]->received.size(), 2u) << "port " << p;
        EXPECT_EQ(eps[p]->received[0].second.payload()[0], p + 1);
        EXPECT_EQ(eps[p]->received[1].second.payload()[0], 4);
    }
    ASSERT_EQ(eps[3]->received.size(), 1u);
    EXPECT_EQ(eps[3]->received[0].second.payload()[0], 4);

    // Re-adding a MAC overwrites its port instead of adding an entry.
    sw.addMacEntry(kLow, 3);
    EXPECT_EQ(sw.lookupMac(kLow), std::optional<uint32_t>(3u));
    EXPECT_EQ(sw.lookupMac(kPlan), std::optional<uint32_t>(1u));
    EXPECT_EQ(sw.lookupMac(kHigh), std::optional<uint32_t>(2u));

    // The table is saved in ascending MAC order.
    Serializer first;
    sw.snapshotSave(first);
    {
        Deserializer d(first.bytes());
        EXPECT_EQ(d.getU(), cfg.ports);
        ASSERT_EQ(d.getU(), 3u);
        const uint64_t want[3][2] = {
            {kLow.value, 3}, {kPlan.value, 1}, {kHigh.value, 2}};
        for (const auto &entry : want) {
            EXPECT_EQ(d.getU(), entry[0]);
            EXPECT_EQ(d.getU(), entry[1]);
        }
    }

    // Two switches fed the same learn sequence save identical bytes,
    // which is what a restore's byte compare relies on; so does one
    // that learned the same final table in another order.
    using Learn = std::vector<std::pair<MacAddr, uint32_t>>;
    auto saved = [&cfg](const Learn &seq) {
        Switch s(cfg);
        for (const auto &[mac, port] : seq)
            s.addMacEntry(mac, port);
        Serializer out;
        s.snapshotSave(out);
        return out.takeBytes();
    };
    const Learn seq = {{kLow, 0}, {kPlan, 1}, {kHigh, 2}, {kLow, 3}};
    EXPECT_EQ(saved(seq), saved(seq));
    EXPECT_EQ(saved(seq), saved({{kHigh, 2}, {kLow, 3}, {kPlan, 1}}));
}

TEST(SwitchDrops, TwoToOneOverloadExceedsDropBound)
{
    // Two senders flood one receiver at an aggregate 2x line rate with a
    // small drop bound: the backlog grows past the bound and the switch
    // must shed packets (finite buffering, Section III-B1).
    SwitchConfig cfg;
    cfg.ports = 3;
    cfg.minLatency = 10;
    cfg.dropBound = 64;
    Switch sw(cfg);
    ScriptedEndpoint a("a"), b("b"), c("c");
    TokenFabric fab;
    fab.addEndpoint(&a);
    fab.addEndpoint(&b);
    fab.addEndpoint(&c);
    fab.addEndpoint(&sw);
    fab.connect(&a, 0, &sw, 0, 100);
    fab.connect(&b, 0, &sw, 1, 100);
    fab.connect(&c, 0, &sw, 2, 100);
    sw.addMacEntry(MacAddr(0x12), 2);
    fab.finalize();

    const int kPackets = 40;
    for (int i = 0; i < kPackets; ++i) {
        // 50B payload -> 8 flits, sent back-to-back from both senders.
        a.sendAt(static_cast<Cycles>(i) * 8,
                 frameTo(MacAddr(0x12), MacAddr(0x10), 50, uint8_t(i)));
        b.sendAt(static_cast<Cycles>(i) * 8,
                 frameTo(MacAddr(0x12), MacAddr(0x11), 50, uint8_t(i)));
    }
    fab.run(20000);
    EXPECT_EQ(sw.stats().packetsIn.value(), 2u * kPackets);
    EXPECT_GT(sw.stats().packetsDropped.value(), 0u);
    EXPECT_EQ(sw.stats().packetsOut.value() +
                  sw.stats().packetsDropped.value(),
              2u * kPackets);
    EXPECT_EQ(c.received.size(), sw.stats().packetsOut.value());
}

TEST_F(TwoServerSwitchTest, DownedPortDropsIngressAndEgress)
{
    build();
    sw->setPortDown(0, true);
    EXPECT_FALSE(sw->portUp(0));
    EXPECT_TRUE(sw->portUp(1));
    a->sendAt(50, frameTo(MacAddr(0xb), MacAddr(0xa), 3, 1)); // ingress
    b->sendAt(50, frameTo(MacAddr(0xa), MacAddr(0xb), 3, 2)); // egress
    fabric.run(1000);
    EXPECT_TRUE(a->received.empty());
    EXPECT_TRUE(b->received.empty());
    // A's 3 flits died at the dead input port; B's packet switched fine
    // but died at the dead output port.
    EXPECT_EQ(sw->stats().faultFlitsDroppedIn.value(), 3u);
    EXPECT_EQ(sw->stats().faultPacketsDroppedOut.value(), 1u);
    EXPECT_EQ(sw->stats().portTransitions.value(), 1u);

    // Restore the port: traffic flows again.
    sw->setPortDown(0, false);
    EXPECT_EQ(sw->stats().portTransitions.value(), 2u);
    a->sendAt(1050, frameTo(MacAddr(0xb), MacAddr(0xa), 3, 3));
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    EXPECT_EQ(b->received[0].second.payload()[0], 3);
}

TEST(SwitchPortDown, RedundantTransitionsDoNotCount)
{
    SwitchConfig cfg;
    cfg.ports = 2;
    Switch sw(cfg);
    sw.setPortDown(1, true);
    sw.setPortDown(1, true); // no-op
    sw.setPortDown(1, false);
    EXPECT_EQ(sw.stats().portTransitions.value(), 2u);
}

TEST(SwitchPortDownDeath, PortRangeChecked)
{
    SwitchConfig cfg;
    cfg.ports = 2;
    Switch sw(cfg);
    EXPECT_EXIT(sw.setPortDown(7, true), ::testing::ExitedWithCode(1),
                "2-port");
}

TEST(SwitchConfigDeath, ZeroPortsRejected)
{
    SwitchConfig cfg;
    cfg.ports = 0;
    EXPECT_EXIT(Switch{cfg}, ::testing::ExitedWithCode(1), "port");
}

TEST(SwitchConfigDeath, MacEntryPortRangeChecked)
{
    SwitchConfig cfg;
    cfg.ports = 2;
    Switch sw(cfg);
    EXPECT_EXIT(sw.addMacEntry(MacAddr(1), 5), ::testing::ExitedWithCode(1),
                "2-port");
}

TEST(SwitchStats, BytesOutDeltaResetsOnQuery)
{
    SwitchConfig cfg;
    cfg.ports = 2;
    cfg.minLatency = 10;
    Switch sw(cfg);
    sw.addMacEntry(MacAddr(0xb), 1);
    ScriptedEndpoint a("a"), b("b");
    TokenFabric fab;
    fab.addEndpoint(&a);
    fab.addEndpoint(&b);
    fab.addEndpoint(&sw);
    fab.connect(&a, 0, &sw, 0, 100);
    fab.connect(&b, 0, &sw, 1, 100);
    fab.finalize();
    EthFrame f = frameTo(MacAddr(0xb), MacAddr(0xa), 100);
    a.sendAt(0, f);
    fab.run(2000);
    EXPECT_EQ(sw.takeBytesOutDelta(), f.size());
    EXPECT_EQ(sw.takeBytesOutDelta(), 0u);
}

} // namespace
} // namespace firesim
