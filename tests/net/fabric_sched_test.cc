/**
 * @file
 * The round scheduler and its determinism matrix. The same topology run
 * across {1, 2, 8} workers x {cycle-exact, functional timing} must
 * produce bit-identical results — delivered frames, token streams,
 * switch statistics — and the same holds under an active fault plan:
 * scheduling moves host work around, never simulated state (the
 * parity matrix's Workers4 cells check whole clusters' telemetry
 * artifacts). Unit tests cover the
 * scheduler's every-unit-exactly-once dispatch and its load-balance
 * accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hh"
#include "net/fabric.hh"
#include "net/sched.hh"
#include "switchmodel/switch.hh"
#include "tests/net/scripted_endpoint.hh"
#include "tests/net/stream_hash.hh"

namespace firesim
{
namespace
{

struct RunDigest
{
    std::vector<std::pair<Cycles, size_t>> frames;
    uint64_t streamHash = 0;
    uint64_t transmits = 0;
    Cycles finalCycle = 0;
    uint64_t batchesMoved = 0;
    // Per-switch counters: in, out, dropped, bytes out, fault drops.
    std::vector<std::vector<uint64_t>> switchStats;
    uint64_t faultDropped = 0;
    uint64_t faultCorrupted = 0;

    bool
    operator==(const RunDigest &o) const
    {
        return frames == o.frames && streamHash == o.streamHash &&
               transmits == o.transmits && finalCycle == o.finalCycle &&
               batchesMoved == o.batchesMoved &&
               switchStats == o.switchStats &&
               faultDropped == o.faultDropped &&
               faultCorrupted == o.faultCorrupted;
    }
};

/**
 * The 10-endpoint two-switch topology from the parallel suite on
 * @p hosts workers; a nonzero @p functional_window switches the fabric
 * to functional timing with that window.
 */
RunDigest
runFabric(unsigned hosts, Cycles functional_window, bool with_faults)
{
    const Cycles lat = 200;

    SwitchConfig scfg;
    scfg.ports = 5; // 4 downlinks + trunk
    scfg.name = "swA";
    Switch swA(scfg);
    scfg.name = "swB";
    Switch swB(scfg);
    std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
    TokenFabric fabric;
    for (int i = 0; i < 8; ++i) {
        eps.push_back(
            std::make_unique<ScriptedEndpoint>(csprintf("n%d", i)));
        fabric.addEndpoint(eps.back().get());
    }
    fabric.addEndpoint(&swA);
    fabric.addEndpoint(&swB);
    for (uint32_t i = 0; i < 8; ++i)
        fabric.connect(eps[i].get(), 0, i < 4 ? &swA : &swB, i % 4, lat);
    fabric.connect(&swA, 4, &swB, 4, lat);
    for (uint32_t i = 0; i < 8; ++i) {
        swA.addMacEntry(MacAddr(i + 1), i < 4 ? i : 4);
        swB.addMacEntry(MacAddr(i + 1), i < 4 ? 4 : i % 4);
    }

    if (functional_window)
        fabric.setFunctionalMode(functional_window);
    fabric.finalize();
    StreamHash stream;
    stream.tapAll(fabric);
    fabric.setParallelHosts(hosts);

    std::unique_ptr<FaultInjector> injector;
    if (with_faults) {
        FaultPlan plan;
        plan.withSeed(0xfab5eed)
            .dropPayload("n1", 0, 1000, 3000, 0.5)
            .portDown("swA", 2, 2000, 4200)
            .crashNode("n3", 2500, 4500);
        injector = std::make_unique<FaultInjector>(fabric, plan);
    }

    for (uint32_t i = 0; i < 8; ++i) {
        for (int wave = 0; wave < 3; ++wave) {
            EthFrame f1(MacAddr(((i + 1) % 8) + 1), MacAddr(i + 1),
                        EtherType::Raw,
                        std::vector<uint8_t>(40 + i * 11 + wave,
                                             uint8_t(i * 16 + wave)));
            EthFrame f3(MacAddr(((i + 3) % 8) + 1), MacAddr(i + 1),
                        EtherType::Raw,
                        std::vector<uint8_t>(60 + i * 7 + wave,
                                             uint8_t(i * 8 + wave)));
            eps[i]->sendAt(15 + i * 5 + wave * 900, f1);
            eps[i]->sendAt(450 + i * 5 + wave * 900, f3);
        }
    }

    fabric.run(6000);

    RunDigest d;
    for (auto &ep : eps)
        for (auto &[cycle, frame] : ep->received)
            d.frames.emplace_back(cycle, frame.bytes.size());
    d.streamHash = stream.hash;
    d.transmits = stream.transmits;
    d.finalCycle = fabric.now();
    d.batchesMoved = fabric.batchesMoved();
    for (const Switch *sw : {&swA, &swB}) {
        const SwitchStats &st = sw->stats();
        d.switchStats.push_back({st.packetsIn.value(),
                                 st.packetsOut.value(),
                                 st.packetsDropped.value(),
                                 st.bytesOut.value(),
                                 st.faultPacketsDroppedOut.value()});
    }
    if (injector) {
        d.faultDropped = injector->flitsDropped();
        d.faultCorrupted = injector->flitsCorrupted();
    }
    return d;
}

using MatrixParam =
    std::tuple<unsigned /*hosts*/, Cycles /*functional window*/>;

class SchedMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(SchedMatrix, BitIdenticalToMonolithicSequentialRR)
{
    auto [hosts, window] = GetParam();
    RunDigest ref = runFabric(1, window, false);
    RunDigest got = runFabric(hosts, window, false);
    EXPECT_EQ(ref, got);
    EXPECT_EQ(ref.frames.size(), 8u * 2u * 3u);
    EXPECT_GT(ref.transmits, 0u);
}

TEST_P(SchedMatrix, BitIdenticalUnderFaultInjection)
{
    auto [hosts, window] = GetParam();
    RunDigest ref = runFabric(1, window, true);
    RunDigest got = runFabric(hosts, window, true);
    EXPECT_EQ(ref, got);
    // The plan actually bit: payload was dropped and a port went down
    // (fault drops show up in the switch counters).
    EXPECT_GT(ref.faultDropped, 0u);
    uint64_t port_drops = 0;
    for (const auto &st : ref.switchStats)
        port_drops += st[4];
    EXPECT_GT(port_drops, 0u);
}

// `rr` in the instance names is the scheduler's strided round-robin
// assignment; `mono` marks the cycle-exact runs, where every endpoint
// advances as one unit per latency-sized round.
INSTANTIATE_TEST_SUITE_P(
    WorkersPolicySlicing, SchedMatrix,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(Cycles{0}, Cycles{500})),
    [](const ::testing::TestParamInfo<MatrixParam> &info) {
        return csprintf("w%u_rr_%s", std::get<0>(info.param),
                        std::get<1>(info.param) ? "functional" : "mono");
    });

// ---- RoundScheduler / SchedTelemetry units --------------------------

TEST(SchedulerDispatch, EveryUnitRunsExactlyOncePerRound)
{
    constexpr size_t kUnits = 23; // not a multiple of any pool width
    for (unsigned width : {1u, 2u, 4u}) {
        ThreadPool pool(width);
        RoundScheduler sched;
        sched.configure(width);
        std::vector<uint32_t> units(kUnits);
        std::iota(units.begin(), units.end(), 0);

        std::vector<std::atomic<uint32_t>> runs(kUnits);
        for (auto &r : runs)
            r.store(0);
        struct Ctx
        {
            std::vector<std::atomic<uint32_t>> *runs;
        } ctx{&runs};

        const int kRounds = 20;
        for (int round = 0; round < kRounds; ++round) {
            sched.dispatch(
                pool, units,
                [](void *c, uint32_t u) {
                    (*static_cast<Ctx *>(c)->runs)[u].fetch_add(
                        1, std::memory_order_seq_cst);
                },
                &ctx);
        }

        for (size_t u = 0; u < kUnits; ++u)
            EXPECT_EQ(runs[u].load(), unsigned(kRounds))
                << "unit " << u << " width " << width;

        // Every worker with units was timed.
        const SchedTelemetry &tel = sched.telemetry();
        for (unsigned w = 0; w < std::min<size_t>(width, kUnits); ++w)
            EXPECT_GT(tel.workers[w].busyNs, 0u) << "worker " << w;
    }
}


TEST(SchedTelemetry, MaxMeanBusyRatioWeightsByRound)
{
    SchedTelemetry tel;
    tel.reset(2);
    // Hand-feed two rounds through the same path dispatch uses.
    tel.recordRound({300, 100});
    tel.recordRound({100, 100});
    // max sum = 300 + 100, total sum = 400 + 200 -> mean 300/round pair
    // => ratio = 400 / (600 / 2) = 4/3.
    EXPECT_EQ(tel.rounds, 2u);
    EXPECT_NEAR(tel.maxMeanBusyRatio(), 400.0 / 300.0, 1e-9);
    EXPECT_EQ(tel.totalBusyNs(), 600u);

    // Idle rounds (no busy time at all) must not dilute the ratio.
    tel.recordRound({0, 0});
    EXPECT_EQ(tel.rounds, 2u);
}

TEST(SchedTelemetry, MeanIsOverWorkersThatDidWork)
{
    // Regression: the ratio used to divide by the configured pool
    // width, so a round that used 2 of 4 workers looked 2x better
    // balanced than it was (and a perfectly even 1-of-4 round scored
    // an impossible 0.25-style ratio scaled to 4.0).
    SchedTelemetry tel;
    tel.reset(4);
    tel.recordRound({300, 0, 0, 0}); // only one worker had any units
    EXPECT_NEAR(tel.maxMeanBusyRatio(), 1.0, 1e-9);

    tel.recordRound({300, 100, 0, 0}); // two active: max 300, mean 200
    // Cumulative: (300 + 300) / (300 + 200).
    EXPECT_NEAR(tel.maxMeanBusyRatio(), 600.0 / 500.0, 1e-9);
}

} // namespace
} // namespace firesim
