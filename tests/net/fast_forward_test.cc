/**
 * @file
 * Activity-driven rounds (TokenFabric::run): an endpoint is stepped
 * only in rounds it is due — its quiescentUntil() is reached or payload
 * arrives for it — plus one catch-up step in the last round of each
 * run(). Rounds with nothing due are jumped, now(), round() and
 * batchesMoved() stay exact, and no endpoint is left behind past its
 * next activity: a switch's queued packet, a blade's rate-limited
 * transmit flits, an armed hart. Every comparison run attaches a no-op
 * FabricObserver, which makes every endpoint due every round (dense
 * stepping). Also covers the channels' implicit empty runs, and links
 * of two and three quanta under a Switch and a PrioritySwitch, whose
 * payload stays in flight for several rounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/eth.hh"
#include "net/fabric.hh"
#include "node/server_blade.hh"
#include "riscv/assembler.hh"
#include "snapshot/serial.hh"
#include "switchmodel/priority_switch.hh"
#include "switchmodel/switch.hh"

namespace firesim
{
namespace
{

/** Overrides nothing: attaching it makes the fabric step densely. */
class NoopObserver : public FabricObserver
{};

/**
 * A single-port endpoint that idles until input arrives (kNoCycle)
 * unless it has scripted flits left to send. Records every flit it
 * receives with its arrival cycle and counts its advance() calls,
 * checking that each call's batches cover exactly its window. A flit
 * scripted before the window it is handed (only a stepping bug, or a
 * subclass that lies about quiescence, can cause that) leaves at the
 * window's first free cycles.
 */
class QuietEndpoint : public TokenEndpoint
{
  public:
    explicit QuietEndpoint(std::string name) : label(std::move(name)) {}

    void
    sendAt(Cycles start, const EthFrame &frame)
    {
        FrameSerializer ser(frame);
        for (Cycles c = start; !ser.done(); ++c)
            txScript.emplace_back(c, ser.next());
    }

    uint32_t numPorts() const override { return 1; }
    std::string name() const override { return label; }

    Cycles
    quiescentUntil(Cycles) const override
    {
        return txScript.empty() ? kNoCycle : txScript.front().first;
    }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            const std::vector<TokenBatch *> &out) override
    {
        ++advances;
        maxWindow = std::max(maxWindow, window);
        EXPECT_EQ(in[0]->start, window_start);
        EXPECT_EQ(in[0]->len, window);
        EXPECT_EQ(out[0]->start, window_start);
        EXPECT_EQ(out[0]->len, window);
        for (const Flit &flit : in[0]->flits)
            received.emplace_back(in[0]->absCycle(flit), flit.data);
        Cycles window_end = window_start + window;
        Cycles free_from = window_start;
        while (!txScript.empty() && txScript.front().first < window_end) {
            auto [cycle, flit] = txScript.front();
            Cycles at = std::max(cycle, free_from);
            free_from = at + 1;
            flit.offset = static_cast<uint32_t>(at - window_start);
            out[0]->push(flit);
            txScript.pop_front();
        }
    }

    uint64_t advances = 0;
    Cycles maxWindow = 0;
    /** (arrival cycle, payload) of every received flit. */
    std::vector<std::pair<Cycles, std::array<uint8_t, kFlitBytes>>>
        received;

  private:
    std::string label;
    std::deque<std::pair<Cycles, Flit>> txScript;
};

EthFrame
testFrame(MacAddr dst, MacAddr src, size_t payload_bytes)
{
    std::vector<uint8_t> payload(payload_bytes);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 7 + 3);
    return EthFrame(dst, src, EtherType::Raw, payload);
}

struct PairRun
{
    Cycles now = 0;
    uint64_t rounds = 0;
    uint64_t batches = 0;
    uint64_t skipped = 0;
    uint64_t stepped = 0;
    uint64_t advances = 0;
    Cycles maxWindow = 0;
    std::string channels;
};

/** Two idle QuietEndpoints on one link, run for @p cycles. */
PairRun
runIdlePair(Cycles cycles, bool observed)
{
    QuietEndpoint a("A"), b("B");
    NoopObserver noop;
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.connect(&a, 0, &b, 0, 1000);
    fabric.finalize();
    if (observed)
        fabric.addObserver(&noop);
    fabric.run(cycles);
    Serializer s;
    for (size_t c = 0; c < fabric.channelCount(); ++c)
        fabric.channelAt(c).snapshotSave(s);
    return {fabric.now(),
            fabric.round(),
            fabric.batchesMoved(),
            fabric.roundsFastForwarded(),
            fabric.endpointRoundsStepped(),
            a.advances,
            a.maxWindow,
            s.takeBytes()};
}

TEST(FastForward, IdleRunTakesAtMostThreeAdvancesAndKeepsCountersExact)
{
    // 100 rounds plus a partial one, which run() rounds up.
    constexpr Cycles kCycles = 100500;
    PairRun ff = runIdlePair(kCycles, false);
    PairRun stepped = runIdlePair(kCycles, true);

    // Nothing is ever due: the only step is the last round's catch-up,
    // one quantum long like every other advance().
    EXPECT_EQ(ff.advances, 1u);
    EXPECT_EQ(ff.maxWindow, 1000u);
    EXPECT_EQ(ff.stepped, 0u);
    EXPECT_EQ(ff.skipped, 100u);
    EXPECT_EQ(stepped.advances, 101u);
    EXPECT_EQ(stepped.stepped, 2u * 101u);
    EXPECT_EQ(stepped.skipped, 0u);
    EXPECT_EQ(ff.now, stepped.now);
    EXPECT_EQ(ff.now, 101000u);
    EXPECT_EQ(ff.rounds, stepped.rounds);
    EXPECT_EQ(ff.batches, stepped.batches);
    EXPECT_EQ(ff.channels, stepped.channels) << "channel state diverged";
}

TEST(FastForward, EveryRunCallFastForwardsOnItsOwn)
{
    QuietEndpoint a("A"), b("B");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.connect(&a, 0, &b, 0, 1000);
    fabric.finalize();
    for (int call = 1; call <= 4; ++call) {
        fabric.run(50000);
        EXPECT_EQ(a.advances, unsigned(call)) << "one catch-up per run()";
        EXPECT_EQ(fabric.round(), 50u * call);
        EXPECT_EQ(fabric.batchesMoved(), 2u * 50u * call);
    }
    // A one-round run() has nothing to skip before its stepped round.
    uint64_t before = fabric.roundsFastForwarded();
    fabric.run(1000);
    EXPECT_EQ(fabric.roundsFastForwarded(), before);
}

TEST(FastForward, PayloadInFlightIsDeliveredAtItsExactCycle)
{
    auto run = [](bool observed, uint64_t *skipped) {
        QuietEndpoint a("A"), b("B");
        a.sendAt(25300, testFrame(MacAddr(2), MacAddr(1), 50));
        NoopObserver noop;
        TokenFabric fabric;
        fabric.addEndpoint(&a);
        fabric.addEndpoint(&b);
        fabric.connect(&a, 0, &b, 0, 3000); // three batches in flight
        fabric.finalize();
        if (observed)
            fabric.addObserver(&noop);
        fabric.run(80000);
        *skipped = fabric.roundsFastForwarded();
        return b.received;
    };
    uint64_t ff_skipped = 0, stepped_skipped = 0;
    auto ff = run(false, &ff_skipped);
    auto stepped = run(true, &stepped_skipped);
    ASSERT_EQ(ff.size(), 8u); // 64 bytes
    EXPECT_EQ(ff.front().first, 28300u);
    EXPECT_EQ(ff, stepped);
    EXPECT_GT(ff_skipped, 0u);
}

struct SwitchRun
{
    std::vector<std::pair<Cycles, std::array<uint8_t, kFlitBytes>>>
        received;
    uint64_t skipped = 0;
    bool queuedAt5000 = false;
    std::string state;
};

/** A frame waits 20 rounds in a switch output queue before leaving. */
SwitchRun
runQueuedSwitch(bool observed)
{
    SwitchConfig sc;
    sc.ports = 2;
    sc.minLatency = 20000;
    Switch sw(sc);
    sw.addMacEntry(MacAddr(2), 1);
    QuietEndpoint a("A"), b("B");
    a.sendAt(100, testFrame(MacAddr(2), MacAddr(1), 90));
    NoopObserver noop;
    TokenFabric fabric;
    fabric.addEndpoint(&sw);
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.connect(&a, 0, &sw, 0, 1000);
    fabric.connect(&b, 0, &sw, 1, 1000);
    fabric.finalize();
    if (observed)
        fabric.addObserver(&noop);

    SwitchRun out;
    fabric.run(5000);
    out.queuedAt5000 = sw.quiescentUntil(fabric.now()) == fabric.now();
    fabric.run(95000);
    out.received = b.received;
    out.skipped = fabric.roundsFastForwarded();
    Serializer s;
    sw.snapshotSave(s);
    out.state = s.takeBytes();
    return out;
}

TEST(FastForward, SwitchWithAQueuedPacketIsNeverSkipped)
{
    SwitchRun ff = runQueuedSwitch(false);
    SwitchRun stepped = runQueuedSwitch(true);
    EXPECT_TRUE(ff.queuedAt5000);
    ASSERT_EQ(ff.received.size(), 13u); // 104 bytes
    // Last flit reaches the switch at 1112, leaves at its release.
    EXPECT_EQ(ff.received.front().first, 1112u + 20000u + 1000u);
    EXPECT_EQ(ff.received, stepped.received);
    EXPECT_EQ(ff.state, stepped.state) << "switch state diverged";
    EXPECT_GT(ff.skipped, 0u);
}

BladeConfig
testBlade(uint32_t harts)
{
    BladeConfig bc;
    bc.name = "blade";
    bc.cores = 1;
    bc.memBytes = 64 * MiB;
    bc.mac = MacAddr(1);
    bc.harts = harts;
    return bc;
}

struct BladeRun
{
    std::vector<std::pair<Cycles, std::array<uint8_t, kFlitBytes>>>
        received;
    uint64_t skipped = 0;
    uint64_t skippedWhileArmed = 0;
    Cycles hartCycle = 0;
    std::string state;
};

/** Rate-limited to one flit per 5 rounds: between two of a frame's
 *  flits the blade has no event, only a TX-outbox flit past the end
 *  of the round. */
BladeRun
runPacedBlade(bool observed)
{
    ServerBlade blade(testBlade(0));
    QuietEndpoint peer("peer");
    NoopObserver noop;
    TokenFabric fabric;
    fabric.addEndpoint(&blade);
    fabric.addEndpoint(&peer);
    fabric.connect(&blade, 0, &peer, 0, 1000);
    fabric.finalize();
    if (observed)
        fabric.addObserver(&noop);

    EthFrame frame = testFrame(MacAddr(2), MacAddr(1), 50);
    blade.memory().write(0x1000, frame.bytes.data(), frame.size());
    blade.nic().setRateLimit(1, 5000);
    EXPECT_TRUE(blade.nic().pushSendRequest(0x1000, frame.size()));
    fabric.run(100000);

    BladeRun out;
    out.received = peer.received;
    out.skipped = fabric.roundsFastForwarded();
    Serializer s;
    blade.snapshotSave(s);
    out.state = s.takeBytes();
    return out;
}

TEST(FastForward, BladeWithAPendingTxFlitIsNeverSkippedPastIt)
{
    BladeRun ff = runPacedBlade(false);
    BladeRun stepped = runPacedBlade(true);
    ASSERT_EQ(ff.received.size(), 8u);
    // Several rounds pass between two flits.
    for (size_t i = 1; i < ff.received.size(); ++i)
        EXPECT_GT(ff.received[i].first - ff.received[i - 1].first, 4000u);
    EXPECT_EQ(ff.received, stepped.received);
    EXPECT_EQ(ff.state, stepped.state) << "blade state diverged";
    EXPECT_GT(ff.skipped, 0u);
}

/** An armed hart counts down, then halts. */
BladeRun
runArmedHart(bool observed)
{
    using namespace regs;
    ServerBlade blade(testBlade(1));
    QuietEndpoint peer("peer");
    NoopObserver noop;
    TokenFabric fabric;
    fabric.addEndpoint(&blade);
    fabric.addEndpoint(&peer);
    fabric.connect(&blade, 0, &peer, 0, 1000);
    fabric.finalize();
    if (observed)
        fabric.addObserver(&noop);

    Assembler a(blade.memory(), memmap::kDramBase);
    a.li(t0, 20000);
    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    a.halt(t0);
    a.finalize();
    blade.hart(0).reset(memmap::kDramBase);

    BladeRun out;
    fabric.run(10000);
    EXPECT_FALSE(blade.hart(0).halted()) << "the loop ended too soon";
    EXPECT_EQ(blade.quiescentUntil(fabric.now()), fabric.now());
    out.skippedWhileArmed = fabric.roundsFastForwarded();
    fabric.run(400000);
    EXPECT_TRUE(blade.hart(0).halted());
    out.skipped = fabric.roundsFastForwarded();
    out.hartCycle = blade.hart(0).cycle();
    Serializer s;
    blade.snapshotSave(s);
    out.state = s.takeBytes();
    return out;
}

TEST(FastForward, BladeWithAnArmedHartIsNeverSkipped)
{
    BladeRun ff = runArmedHart(false);
    BladeRun stepped = runArmedHart(true);
    EXPECT_EQ(ff.skippedWhileArmed, 0u);
    EXPECT_GT(ff.skipped, 0u) << "a halted hart should let rounds skip";
    EXPECT_EQ(ff.hartCycle, stepped.hartCycle);
    EXPECT_EQ(ff.state, stepped.state) << "blade state diverged";
}

TEST(FastForwardDeath, EndpointThatLiesAboutQuiescenceIsCaught)
{
    // Claims to idle forever but has a flit scripted at cycle 5000:
    // never due, it is first stepped by the catch-up in the last round
    // (19000), where it emits the flit — which the fabric refuses.
    class Liar : public QuietEndpoint
    {
      public:
        using QuietEndpoint::QuietEndpoint;
        Cycles quiescentUntil(Cycles) const override { return kNoCycle; }
    };
    EXPECT_DEATH(
        {
            Liar a("liar");
            QuietEndpoint b("B");
            a.sendAt(5000, testFrame(MacAddr(2), MacAddr(1), 2));
            TokenFabric fabric;
            fabric.addEndpoint(&a);
            fabric.addEndpoint(&b);
            fabric.connect(&a, 0, &b, 0, 1000);
            fabric.finalize();
            fabric.run(20000);
        },
        "liar emitted a flit at 19000, in a round its quiescentUntil\\(\\) "
        "declared idle");
}

TEST(FastForward, OnlyEndpointsWithWorkAreStepped)
{
    // A star: A sends one frame through the switch to B; C only ever
    // sees empty tokens. A is due for its scripted flits, the switch
    // and B for the round the frame reaches each; everyone is stepped
    // once more by the catch-up in the last round, and C only then.
    SwitchConfig sc;
    sc.ports = 3;
    sc.minLatency = 10;
    Switch sw(sc);
    sw.addMacEntry(MacAddr(2), 1);
    QuietEndpoint a("A"), b("B"), c("C");
    a.sendAt(2500, testFrame(MacAddr(2), MacAddr(1), 50));
    TokenFabric fabric;
    fabric.addEndpoint(&sw);
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.addEndpoint(&c);
    fabric.connect(&a, 0, &sw, 0, 1000);
    fabric.connect(&b, 0, &sw, 1, 1000);
    fabric.connect(&c, 0, &sw, 2, 1000);
    fabric.finalize();
    fabric.run(40000);

    ASSERT_EQ(b.received.size(), 8u);
    // Store-and-forward: the last flit reaches the switch at 3507 and
    // the frame leaves 10 cycles later, inside the same round.
    EXPECT_EQ(b.received.front().first, 3507u + 10u + 1000u);
    EXPECT_EQ(a.advances, 2u); // round 2 (its flits), then the catch-up
    EXPECT_EQ(b.advances, 2u); // round 4 (the frame), then the catch-up
    EXPECT_EQ(c.advances, 1u);
    // A in round 2, the switch in round 3, B in round 4.
    EXPECT_EQ(fabric.endpointRoundsStepped(), 3u);
    EXPECT_EQ(fabric.round(), 40u);
    EXPECT_EQ(fabric.batchesMoved(), 40u * 6u);
    // Rounds 0, 1 and 5..38 have nothing due; round 39 is the last.
    EXPECT_EQ(fabric.roundsFastForwarded(), 36u);
}

/** Depth, next pop cycle and snapshot bytes of @p chan. */
std::string
channelImage(const TokenChannel &chan)
{
    Serializer s;
    chan.snapshotSave(s);
    return csprintf("depth %zu next %llu ", chan.depth(),
                    (unsigned long long)chan.nextPopCycle()) +
           s.takeBytes();
}

TEST(FastForward, IdleFillAndDrainMatchRoundByRoundEmpties)
{
    // Two channels of three batches in flight carry the same stream:
    // `dense` has every batch popped and published, `lazy` sits out
    // the idle rounds and is caught up in one call per side.
    constexpr Cycles kQ = 100;
    TokenChannel dense(3 * kQ, kQ), lazy(3 * kQ, kQ);
    TokenBatch payload(0, kQ);
    Flit f;
    f.offset = 7;
    f.size = 8;
    payload.push(f);

    auto dense_round = [&](Cycles at, bool with_payload) {
        dense.pop();
        payload.start = at;
        dense.push(with_payload ? payload : TokenBatch(at, kQ));
    };
    // Rounds 0..5 idle, round 6 carries payload, rounds 7..9 idle.
    for (Cycles r = 0; r < 10; ++r)
        dense_round(r * kQ, r == 6);

    lazy.fillIdle(6 * kQ); // the producer sat out rounds 0..5
    payload.start = 6 * kQ;
    lazy.push(payload);
    EXPECT_EQ(lazy.nextPayloadCycle(), 9 * kQ);
    lazy.drainTo(9 * kQ); // the consumer sat out rounds 0..8
    EXPECT_EQ(lazy.pop().flits.size(), 1u); // round 9 gets the payload
    lazy.fillIdle(10 * kQ);
    EXPECT_EQ(lazy.nextPayloadCycle(), kNoCycle);
    EXPECT_EQ(channelImage(lazy), channelImage(dense));

    // Already up to date: both calls are no-ops.
    lazy.fillIdle(5 * kQ);
    lazy.drainTo(9 * kQ);
    EXPECT_EQ(channelImage(lazy), channelImage(dense));
}

TEST(FastForwardDeath, IdleDrainOverPayloadNamesTheChannel)
{
    TokenChannel chan(100, 100);
    chan.setLabel("A:0->B:0");
    TokenBatch payload(0, 100);
    Flit f;
    f.size = 8;
    payload.push(f);
    chan.push(payload);
    EXPECT_DEATH(chan.drainTo(200),
                 "payload batch at 100 on A:0->B:0 arrived while its "
                 "consumer was not due");
}

// ---- Mixed link latencies ------------------------------------------

constexpr Cycles kQuantum = 1000;

EthFrame
frameOf(MacAddr dst, MacAddr src, size_t payload_bytes, uint8_t tag)
{
    std::vector<uint8_t> payload(payload_bytes);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 13 + tag);
    return EthFrame(dst, src, EtherType::Raw, payload);
}

/**
 * Four NIC-only blades on one switch over links of one, two, three and
 * three quanta. Each blade sends a rate-limited mix of mice and
 * elephants to the others, so payload is in flight for up to three
 * rounds and packets queue at the switch.
 */
struct MixedRig
{
    std::unique_ptr<Switch> sw;
    std::vector<std::unique_ptr<ServerBlade>> blades;
    TokenFabric fabric;
    NoopObserver noop;

    MixedRig(bool priority, bool observed, unsigned workers)
    {
        SwitchConfig sc;
        sc.name = "sw";
        sc.ports = 4;
        sc.minLatency = 10;
        sw = priority ? std::make_unique<PrioritySwitch>(sc, 128)
                      : std::make_unique<Switch>(sc);
        fabric.addEndpoint(sw.get());
        const Cycles lat[4] = {kQuantum, 2 * kQuantum, 3 * kQuantum,
                               3 * kQuantum};
        for (uint32_t i = 0; i < 4; ++i) {
            BladeConfig bc;
            bc.name = csprintf("blade%u", i);
            bc.cores = 1;
            bc.memBytes = 64 * MiB;
            bc.mac = MacAddr(i + 1);
            bc.harts = 0;
            blades.push_back(std::make_unique<ServerBlade>(bc));
            sw->addMacEntry(MacAddr(i + 1), i);
            fabric.addEndpoint(blades.back().get());
            fabric.connect(blades.back().get(), 0, sw.get(), i, lat[i]);
        }
        fabric.finalize();
        fabric.setParallelHosts(workers);
        if (observed)
            fabric.addObserver(&noop);

        for (uint32_t i = 0; i < 4; ++i) {
            ServerBlade &b = *blades[i];
            b.nic().setRateLimit(1, 2 + i);
            uint64_t addr = 0x10000;
            for (uint32_t k = 0; k < 6; ++k) {
                uint32_t to = (i + 1 + k % 3) % 4;
                size_t bytes = (k + i) % 2 ? 1200 : 40 + 8 * k;
                EthFrame f = frameOf(MacAddr(to + 1), MacAddr(i + 1),
                                     bytes, static_cast<uint8_t>(i * 8 + k));
                b.memory().write(addr, f.bytes.data(), f.size());
                EXPECT_TRUE(b.nic().pushSendRequest(
                    addr, static_cast<uint32_t>(f.size())));
                addr += 0x1000;
            }
            for (uint32_t k = 0; k < 8; ++k)
                EXPECT_TRUE(b.nic().pushRecvRequest(0x100000 + 0x1000 * k));
        }
    }

    /** Every endpoint's and channel's snapshot bytes (a blade's holds
     *  its event-queue clock and schedule). */
    std::string
    image() const
    {
        Serializer s;
        sw->snapshotSave(s);
        for (const auto &b : blades)
            b->snapshotSave(s);
        for (size_t c = 0; c < fabric.channelCount(); ++c)
            fabric.channelAt(c).snapshotSave(s);
        return s.takeBytes();
    }
};

TEST(FastForwardParity, MultiRoundLinksMatchDenseStepping)
{
    constexpr Cycles kRun = 400 * kQuantum;
    for (bool priority : {false, true}) {
        std::string ref;
        uint64_t received = 0;
        {
            MixedRig rig(priority, true, 1);
            rig.fabric.run(kRun);
            ref = rig.image();
            for (const auto &b : rig.blades)
                received += b->nic().stats().framesReceived.value();
        }
        EXPECT_EQ(received, 24u) << "priority " << priority;
        for (unsigned workers : {1u, 2u}) {
            // One run(), 50-round chunks, one round per run().
            for (Cycles chunk : {kRun, 50 * kQuantum, kQuantum}) {
                MixedRig rig(priority, false, workers);
                for (Cycles done = 0; done < kRun; done += chunk)
                    rig.fabric.run(chunk);
                std::string what = csprintf(
                    "%s, %u worker(s), %llu-cycle run()s",
                    priority ? "PrioritySwitch" : "Switch", workers,
                    (unsigned long long)chunk);
                EXPECT_EQ(rig.image(), ref) << what;
                EXPECT_LT(rig.fabric.endpointRoundsStepped(), 5u * 400u)
                    << what;
                if (chunk != kQuantum) {
                    EXPECT_GT(rig.fabric.roundsFastForwarded(), 0u)
                        << what;
                }
            }
        }
    }
}

} // namespace
} // namespace firesim
