/**
 * Unit tests for the fault layer: FaultPlan builders, the deterministic
 * FaultInjector's link/crash faults on a two-endpoint fabric, and rogue
 * endpoints, which panic naming their channel with the fault layer
 * attached or not.
 */

#include <gtest/gtest.h>

#include "fault/fault_plan.hh"
#include "fault/health_monitor.hh"
#include "fault/injector.hh"
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

EthFrame
bigFrame(uint8_t tag)
{
    std::vector<uint8_t> payload(100);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(tag + i);
    return EthFrame(MacAddr(0xb), MacAddr(0xa), EtherType::Raw, payload);
}

TEST(FaultPlan, FluentBuildersAccumulate)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.withSeed(7)
        .dropPayload("a", 0, 100, 200, 0.5)
        .corruptFlits("b", 1)
        .extraLatency("c", 0, 50)
        .portDown("switch0", 2, 1000, 2000)
        .crashNode("d", 500);
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.eventCount(), 5u);
    EXPECT_EQ(plan.seed, 7u);
    ASSERT_EQ(plan.linkFaults.size(), 3u);
    EXPECT_EQ(plan.linkFaults[0].kind, LinkFaultKind::DropPayload);
    EXPECT_EQ(plan.linkFaults[0].from, 100u);
    EXPECT_EQ(plan.linkFaults[0].until, 200u);
    EXPECT_DOUBLE_EQ(plan.linkFaults[0].probability, 0.5);
    EXPECT_EQ(plan.linkFaults[2].kind, LinkFaultKind::ExtraLatency);
    EXPECT_EQ(plan.linkFaults[2].extraCycles, 50u);
    ASSERT_EQ(plan.portDowns.size(), 1u);
    EXPECT_EQ(plan.portDowns[0].restoreAt, 2000u);
    ASSERT_EQ(plan.crashes.size(), 1u);
    EXPECT_EQ(plan.crashes[0].endpoint, "d");
}

/** A-B pair with an injector interpreting @p plan. */
class InjectedPairTest : public ::testing::Test
{
  protected:
    static constexpr Cycles kLat = 200;

    void
    build(const FaultPlan &plan, bool with_monitor = false)
    {
        a = std::make_unique<ScriptedEndpoint>("A");
        b = std::make_unique<ScriptedEndpoint>("B");
        fabric.addEndpoint(a.get());
        fabric.addEndpoint(b.get());
        fabric.connect(a.get(), 0, b.get(), 0, kLat);
        fabric.finalize();
        if (with_monitor) {
            monitor = std::make_unique<HealthMonitor>();
            monitor->setLogEvents(false);
        }
        injector = std::make_unique<FaultInjector>(fabric, plan,
                                                   monitor.get());
    }

    TokenFabric fabric;
    std::unique_ptr<ScriptedEndpoint> a, b;
    std::unique_ptr<HealthMonitor> monitor;
    std::unique_ptr<FaultInjector> injector;
};

TEST_F(InjectedPairTest, DropPayloadLosesTheFrameButNotTheTokens)
{
    FaultPlan plan;
    plan.dropPayload("A", 0);
    build(plan);
    a->sendAt(57, smallFrame(1)); // 3 flits
    fabric.run(1000);             // must not hang or abort
    EXPECT_TRUE(b->received.empty());
    EXPECT_EQ(injector->flitsDropped(), 3u);
    EXPECT_EQ(fabric.now(), 1000u);
}

TEST_F(InjectedPairTest, DropWindowIsPerFlitCycleExact)
{
    // Fault active for transmit cycles [0, 300): a frame straddling the
    // boundary (flits at 298, 299, 300) loses exactly the two flits
    // inside the window; the truncated tail still arrives (a real lossy
    // link corrupts frames mid-flight, it doesn't erase them cleanly).
    FaultPlan plan;
    plan.dropPayload("A", 0, 0, 300);
    build(plan);
    a->sendAt(298, smallFrame(1)); // 17 bytes: flits of 8, 8, 1 bytes
    a->sendAt(400, smallFrame(2)); // fully outside: arrives intact
    fabric.run(1000);
    EXPECT_EQ(injector->flitsDropped(), 2u);
    ASSERT_EQ(b->received.size(), 2u);
    // Only the 1-byte last flit of frame 1 survived.
    EXPECT_EQ(b->received[0].second.bytes.size(), 1u);
    EXPECT_EQ(b->received[0].first, 300u + kLat);
    // Frame 2 is untouched.
    EXPECT_EQ(b->received[1].second.payload()[0], 2);
    EXPECT_EQ(b->received[1].first, 402u + kLat);
}

TEST_F(InjectedPairTest, CorruptFlitsDeliversOnTimeWithDamage)
{
    FaultPlan plan;
    plan.corruptFlits("A", 0);
    build(plan);
    EthFrame sent = smallFrame(1);
    a->sendAt(57, sent);
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    // Delivery timing and length are untouched; the bytes are not.
    EXPECT_EQ(b->received[0].first, 57u + 2 + kLat);
    EXPECT_EQ(b->received[0].second.bytes.size(), sent.bytes.size());
    EXPECT_NE(b->received[0].second.bytes, sent.bytes);
    EXPECT_EQ(injector->flitsCorrupted(), 3u);
}

TEST_F(InjectedPairTest, ExtraLatencyShiftsArrivalExactly)
{
    FaultPlan plan;
    plan.extraLatency("A", 0, 50);
    build(plan);
    EthFrame sent = smallFrame(1);
    a->sendAt(57, sent);
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    // Last flit issued at 59 now carries its payload at 59 + 50.
    EXPECT_EQ(b->received[0].first, 59u + 50 + kLat);
    EXPECT_EQ(b->received[0].second.bytes, sent.bytes);
    EXPECT_EQ(injector->flitsDelayed(), 3u);
}

TEST_F(InjectedPairTest, ExtraLatencyCarriesPayloadAcrossBatches)
{
    // 57 + 150 = 207 lands in the *next* 200-cycle batch: the payload
    // must be re-emitted there, intact and in order.
    FaultPlan plan;
    plan.extraLatency("A", 0, 150);
    build(plan);
    EthFrame sent = smallFrame(1);
    a->sendAt(57, sent);
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    EXPECT_EQ(b->received[0].first, 59u + 150 + kLat);
    EXPECT_EQ(b->received[0].second.bytes, sent.bytes);
}

TEST_F(InjectedPairTest, CrashedEndpointDegradesToEmptyTokens)
{
    FaultPlan plan;
    plan.crashNode("A", 0);
    build(plan, /*with_monitor=*/true);
    b->sendAt(20, smallFrame(2)); // traffic *toward* the crashed node
    fabric.run(1000);
    // The fabric emitted empty batches on A's behalf: the run finished,
    // nothing arrived anywhere, and the crash is on record.
    EXPECT_EQ(fabric.now(), 1000u);
    EXPECT_TRUE(a->received.empty());
    EXPECT_TRUE(b->received.empty());
    EXPECT_EQ(monitor->count(FaultEvent::Kind::NodeCrash), 1u);
    EXPECT_EQ(injector->roundsAdvanced(0), 0u);
    EXPECT_EQ(injector->roundsAdvanced(1), 1000u / kLat);
    // The report lists the endpoint that sat out rounds, and only it.
    std::string report = injector->report();
    EXPECT_NE(report.find("\nA "), std::string::npos) << report;
    EXPECT_EQ(report.find("\nB "), std::string::npos) << report;
}

TEST_F(InjectedPairTest, CrashRestartResumesService)
{
    FaultPlan plan;
    plan.crashNode("A", 0, 400);
    build(plan, /*with_monitor=*/true);
    a->sendAt(450, smallFrame(3)); // scripted after the restart
    fabric.run(1000);
    ASSERT_EQ(b->received.size(), 1u);
    EXPECT_EQ(b->received[0].first, 452u + kLat);
    EXPECT_EQ(monitor->count(FaultEvent::Kind::NodeCrash), 1u);
    EXPECT_EQ(monitor->count(FaultEvent::Kind::NodeRestart), 1u);
    // Crashed for rounds [0, 400), alive for [400, 1000).
    EXPECT_EQ(injector->roundsAdvanced(0), (1000u - 400u) / kLat);
}

TEST_F(InjectedPairTest, SameSeedReplaysBitIdentically)
{
    // Two independent runs of the same plan + seed must corrupt the
    // exact same bits; a different seed must not.
    auto run_once = [](uint64_t seed) {
        ScriptedEndpoint src("A"), dst("B");
        TokenFabric fab;
        fab.addEndpoint(&src);
        fab.addEndpoint(&dst);
        fab.connect(&src, 0, &dst, 0, kLat);
        fab.finalize();
        FaultPlan plan;
        plan.withSeed(seed).corruptFlits("A", 0, 0, 0, 0.5);
        FaultInjector inj(fab, plan);
        for (int i = 0; i < 10; ++i)
            src.sendAt(20 + 40 * i, bigFrame(static_cast<uint8_t>(i)));
        fab.run(2000);
        std::vector<uint8_t> stream;
        for (auto &[cycle, frame] : dst.received) {
            stream.push_back(static_cast<uint8_t>(cycle));
            stream.insert(stream.end(), frame.bytes.begin(),
                          frame.bytes.end());
        }
        return stream;
    };
    auto first = run_once(1234);
    EXPECT_EQ(first, run_once(1234));
    EXPECT_NE(first, run_once(99));
}

TEST_F(InjectedPairTest, ZeroFaultPlanIsBitIdenticalToNoInjector)
{
    // Property from the issue: an empty plan (and an idle monitor) must
    // leave the simulation bit-identical to a bare fabric.
    auto run_once = [](bool with_fault_layer) {
        ScriptedEndpoint src("A"), dst("B");
        TokenFabric fab;
        fab.addEndpoint(&src);
        fab.addEndpoint(&dst);
        fab.connect(&src, 0, &dst, 0, kLat);
        fab.finalize();
        std::unique_ptr<HealthMonitor> mon;
        std::unique_ptr<FaultInjector> inj;
        if (with_fault_layer) {
            mon = std::make_unique<HealthMonitor>();
            mon->setLogEvents(false);
            inj = std::make_unique<FaultInjector>(fab, FaultPlan{},
                                                  mon.get());
        }
        for (int i = 0; i < 5; ++i) {
            src.sendAt(13 + 90 * i, smallFrame(static_cast<uint8_t>(i)));
            dst.sendAt(31 + 90 * i,
                       smallFrame(static_cast<uint8_t>(0x80 + i)));
        }
        fab.run(2000);
        std::vector<std::pair<Cycles, std::vector<uint8_t>>> seen;
        for (auto &[cycle, frame] : src.received)
            seen.emplace_back(cycle, frame.bytes);
        for (auto &[cycle, frame] : dst.received)
            seen.emplace_back(cycle, frame.bytes);
        if (mon) {
            EXPECT_EQ(mon->totalEvents(), 0u);
        }
        return seen;
    };
    EXPECT_EQ(run_once(false), run_once(true));
}

/** Resolving @p plan against an A-B pair must exit(1) with @p msg. */
void
expectFatalPlan(const FaultPlan &plan, const char *msg)
{
    ScriptedEndpoint a("A"), b("B");
    TokenFabric fabric;
    fabric.addEndpoint(&a);
    fabric.addEndpoint(&b);
    fabric.connect(&a, 0, &b, 0, 100);
    fabric.finalize();
    EXPECT_EXIT(FaultInjector(fabric, plan), ::testing::ExitedWithCode(1),
                msg);
}

TEST(FaultInjectorDeath, UnknownEndpointIsFatal)
{
    FaultPlan plan;
    plan.dropPayload("nope", 0);
    expectFatalPlan(plan, "nope");
}

TEST(FaultInjectorDeath, PortDownNeedsASwitch)
{
    FaultPlan plan;
    plan.portDown("A", 0, 100);
    expectFatalPlan(plan, "not a switch");
}

TEST(FaultInjectorDeath, EmptyLinkFaultWindowIsFatal)
{
    // A window that ends where (or before) it starts never fires.
    FaultPlan drop;
    drop.dropPayload("A", 0, 500, 500);
    expectFatalPlan(drop, "A:0 has an empty window \\[500, 500\\)");
    FaultPlan corrupt;
    corrupt.corruptFlits("A", 0, 600, 400);
    expectFatalPlan(corrupt, "empty window \\[600, 400\\)");
    FaultPlan delay;
    delay.extraLatency("A", 0, 10, 300, 200);
    expectFatalPlan(delay, "empty window");
}

TEST(FaultInjectorDeath, ZeroExtraLatencyIsFatal)
{
    // It would only log "payload delayed 0 cycles" events.
    FaultPlan plan;
    plan.extraLatency("A", 0, 0);
    expectFatalPlan(plan, "extra-latency fault on A:0 adds 0 cycles");
}

/**
 * An endpoint that stops producing well-formed batches at a given
 * cycle: it overwrites its output batch with a default-constructed
 * (zero-length) batch — the in-process analogue of a hung simulation
 * host that stops pumping tokens.
 */
class StallingEndpoint : public TokenEndpoint
{
  public:
    explicit StallingEndpoint(Cycles stall_at) : stallAt(stall_at) {}

    uint32_t numPorts() const override { return 1; }
    std::string name() const override { return "staller"; }

    void
    advance(Cycles window_start, Cycles,
            const std::vector<const TokenBatch *> &,
            const std::vector<TokenBatch *> &out) override
    {
        if (window_start >= stallAt)
            *out[0] = TokenBatch(); // len 0: no tokens this round
    }

  private:
    Cycles stallAt;
};

TEST(HealthMonitorStallDeath, UnmonitoredStallStillAborts)
{
    // On the unobserved, activity-driven path a malformed batch is a
    // hard invariant failure too, and the abort names the channel.
    StallingEndpoint staller(600);
    ScriptedEndpoint peer("peer");
    TokenFabric fabric;
    fabric.addEndpoint(&staller);
    fabric.addEndpoint(&peer);
    fabric.connect(&staller, 0, &peer, 0, 200);
    fabric.finalize();
    EXPECT_DEATH(fabric.run(2000), "staller:0->peer:0");
}

/** Runs @p rogue (port 0) against a scripted peer under an empty fault
 *  plan, so the fabric checks its batches with the fault layer
 *  attached; @p corrupt may tamper with the finalized fabric first. */
void
runWithFaultLayer(TokenEndpoint &rogue,
                  void (*corrupt)(TokenFabric &) = nullptr)
{
    ScriptedEndpoint peer("peer");
    TokenFabric fabric;
    fabric.addEndpoint(&rogue);
    fabric.addEndpoint(&peer);
    fabric.connect(&rogue, 0, &peer, 0, 200);
    fabric.finalize();
    HealthMonitor monitor;
    monitor.setLogEvents(false);
    FaultInjector injector(fabric, FaultPlan{}, &monitor);
    if (corrupt)
        corrupt(fabric);
    fabric.run(2000);
}

TEST(RogueEndpointDeath, StalledEndpointPanicsNamingItsChannel)
{
    // With the fault layer attached a stalled endpoint is no event to
    // log: the fabric aborts, naming the channel, as it does without.
    StallingEndpoint staller(600);
    EXPECT_DEATH(runWithFaultLayer(staller), "staller:0->peer:0");
}

TEST(RogueEndpointDeath, OneBadRoundPanicsNamingItsChannel)
{
    // A single malformed batch is fatal too: nothing recovers it.
    class Hiccup : public TokenEndpoint
    {
      public:
        uint32_t numPorts() const override { return 1; }
        std::string name() const override { return "hiccup"; }
        void
        advance(Cycles window_start, Cycles,
                const std::vector<const TokenBatch *> &,
                const std::vector<TokenBatch *> &out) override
        {
            if (window_start == 400)
                *out[0] = TokenBatch();
        }
    } hiccup;
    EXPECT_DEATH(runWithFaultLayer(hiccup), "hiccup:0->peer:0");
}

TEST(RogueEndpointDeath, RogueBatchPanicsNamingItsChannel)
{
    // Corrupt the token stream from outside (pushRaw skips the
    // contiguity check): the consumer pops a batch for the wrong
    // window, and the fabric aborts naming the channel.
    ScriptedEndpoint rogue("A");
    EXPECT_DEATH(runWithFaultLayer(rogue,
                                   [](TokenFabric &fabric) {
                                       int chan = fabric.txChannelOf(0, 0);
                                       fabric.channelAt(chan).pushRaw(
                                           TokenBatch(5000, 200));
                                   }),
                 "non-contiguous batch pop on A:0->peer:0");
}

} // namespace
} // namespace firesim
