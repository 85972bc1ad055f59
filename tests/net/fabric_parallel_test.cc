/**
 * @file
 * Parallel-fabric determinism property tests: the same topology run
 * sequentially and with 2/4/8 worker threads must produce bit-identical
 * results — final cycle, per-channel token streams, delivered frames,
 * and host-side counters. This is the acceptance bar for
 * TokenFabric::setParallelHosts (and what `ctest -L sanitize-thread`
 * hammers under TSan). Also FabricObserver's advance brackets on a
 * whole cluster under a fault plan.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/fabric.hh"
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

    bool
    operator==(const RunDigest &o) const
    {
        return frames == o.frames && streamHash == o.streamHash &&
               transmits == o.transmits && finalCycle == o.finalCycle &&
               batchesMoved == o.batchesMoved;
    }
};

/**
 * A 10-endpoint topology (8 scripted nodes on two 4-port switches
 * joined by a trunk) with all-to-all scripted traffic, run for
 * `cycles` with the given worker count.
 */
RunDigest
runTopology(unsigned hosts, Cycles cycles)
{
    const Cycles lat = 200;

    SwitchConfig scfg;
    scfg.ports = 5; // 4 downlinks + trunk
    Switch swA(scfg), swB(scfg);
    std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
    TokenFabric fabric;
    for (int i = 0; i < 8; ++i) {
        eps.push_back(
            std::make_unique<ScriptedEndpoint>(csprintf("n%d", i)));
        fabric.addEndpoint(eps.back().get());
    }
    fabric.addEndpoint(&swA);
    fabric.addEndpoint(&swB);
    for (uint32_t i = 0; i < 8; ++i) {
        Switch &sw = i < 4 ? swA : swB;
        fabric.connect(eps[i].get(), 0, &sw, i % 4, lat);
    }
    fabric.connect(&swA, 4, &swB, 4, lat);
    for (uint32_t i = 0; i < 8; ++i) {
        swA.addMacEntry(MacAddr(i + 1), i < 4 ? i : 4);
        swB.addMacEntry(MacAddr(i + 1), i < 4 ? 4 : i % 4);
    }

    fabric.finalize();
    StreamHash stream;
    stream.tapAll(fabric);
    fabric.setParallelHosts(hosts);

    // All-to-all: node i sends to nodes i+1 and i+3 (mod 8), staggered
    // start cycles, distinct sizes, several waves.
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

    fabric.run(cycles);

    RunDigest d;
    for (auto &ep : eps)
        for (auto &[cycle, frame] : ep->received)
            d.frames.emplace_back(cycle, frame.bytes.size());
    d.streamHash = stream.hash;
    d.transmits = stream.transmits;
    d.finalCycle = fabric.now();
    d.batchesMoved = fabric.batchesMoved();
    return d;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<unsigned /*hosts*/>
{
};

TEST_P(ParallelDeterminism, BitIdenticalToSequential)
{
    RunDigest seq = runTopology(1, 6000);
    RunDigest par = runTopology(GetParam(), 6000);
    EXPECT_EQ(seq, par);
    // The workload actually exercised the fabric.
    EXPECT_EQ(seq.frames.size(), 8u * 2u * 3u);
    EXPECT_GT(seq.transmits, 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelDeterminism,
                         ::testing::Values(2u, 4u, 8u));

TEST(ParallelFabric, WorkerCountChangeableBetweenRuns)
{
    // One fabric, re-tuned between run() calls: the token streams keep
    // flowing and the result matches a pure sequential run end-to-end.
    RunDigest ref = runTopology(1, 6000);

    const Cycles lat = 200;
    SwitchConfig scfg;
    scfg.ports = 5;
    Switch swA(scfg), swB(scfg);
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
    fabric.finalize();
    StreamHash stream;
    stream.tapAll(fabric);
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

    fabric.run(1400);
    fabric.setParallelHosts(4);
    fabric.run(2600);
    fabric.setParallelHosts(2);
    fabric.run(1200);
    fabric.setParallelHosts(1);
    fabric.run(800);

    RunDigest d;
    for (auto &ep : eps)
        for (auto &[cycle, frame] : ep->received)
            d.frames.emplace_back(cycle, frame.bytes.size());
    d.streamHash = stream.hash;
    d.transmits = stream.transmits;
    d.finalCycle = fabric.now();
    d.batchesMoved = fabric.batchesMoved();
    EXPECT_EQ(ref, d);
}

TEST(ParallelFabric, StepOrderStillIrrelevantWhenParallel)
{
    // Compose the two determinism licenses: permuted step order AND
    // parallel advance must still match the canonical sequential run.
    auto run_with = [](std::vector<size_t> order, unsigned hosts) {
        SwitchConfig cfg;
        cfg.ports = 4;
        Switch sw(cfg);
        std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
        TokenFabric fabric;
        for (int i = 0; i < 4; ++i) {
            eps.push_back(std::make_unique<ScriptedEndpoint>("e"));
            fabric.addEndpoint(eps.back().get());
        }
        fabric.addEndpoint(&sw);
        for (uint32_t i = 0; i < 4; ++i) {
            sw.addMacEntry(MacAddr(i + 1), i);
            fabric.connect(eps[i].get(), 0, &sw, i, 200);
        }
        if (!order.empty())
            fabric.setStepOrder(std::move(order));
        fabric.finalize();
        fabric.setParallelHosts(hosts);
        for (uint32_t i = 0; i < 4; ++i) {
            EthFrame f(MacAddr(((i + 1) % 4) + 1), MacAddr(i + 1),
                       EtherType::Raw,
                       std::vector<uint8_t>(40 + i * 10, uint8_t(i)));
            eps[i]->sendAt(10 + i * 3, f);
        }
        fabric.run(3000);
        std::vector<std::pair<Cycles, size_t>> digest;
        for (auto &ep : eps)
            for (auto &[cycle, frame] : ep->received)
                digest.emplace_back(cycle, frame.bytes.size());
        return digest;
    };

    auto reference = run_with({}, 1);
    EXPECT_EQ(reference.size(), 4u);
    EXPECT_EQ(reference, run_with({4, 2, 0, 3, 1}, 4));
    EXPECT_EQ(reference, run_with({3, 4, 1, 0, 2}, 8));
}

TEST(ParallelFabric, ParallelHostsAccessors)
{
    TokenFabric fabric;
    EXPECT_EQ(fabric.parallelHosts(), 1u);
    fabric.setParallelHosts(4);
    EXPECT_EQ(fabric.parallelHosts(), 4u);
    fabric.setParallelHosts(0); // 0 means "single-threaded", like 1
    EXPECT_EQ(fabric.parallelHosts(), 1u);
}

// ---- Advance brackets on a whole cluster ---------------------------

// The fault plan's crash window, shared with the bracket check.
constexpr const char *kCrashNode = "node3";
constexpr Cycles kCrashAt = 400000;
constexpr Cycles kRestartAt = 1200000;

/**
 * Checks the advance brackets. They fire on whichever worker advances
 * the endpoint, so each endpoint owns one slot, presized at attach
 * time, that only its advancing thread writes. It watches endpoints,
 * so every endpoint is due every round and the brackets of each round
 * it was not parked in fire for it. Runs under TSan in the
 * sanitize-thread suite.
 */
class AdvanceBracketCheck : public FabricObserver
{
  public:
    struct Slot
    {
        bool open = false;
        std::thread::id thread;
        uint64_t brackets = 0;
        uint64_t broken = 0; //!< nested start, stray end, or thread hop
        uint64_t whileCrashed = 0;
    };

    void
    onAttach(TokenFabric &fabric) override
    {
        slots.assign(fabric.endpointCount(), Slot{});
        quantum = fabric.quantum();
        for (size_t i = 0; i < fabric.endpointCount(); ++i)
            if (fabric.endpointAt(i).name() == kCrashNode)
                crashIdx = i;
    }

    void
    onRoundStart(Cycles round_start, uint64_t) override
    {
        ++rounds;
        crashRounds += crashed(round_start);
    }

    void
    onAdvanceStart(size_t idx, Cycles round_start) override
    {
        Slot &s = slots[idx];
        s.broken += s.open;
        s.open = true;
        s.thread = std::this_thread::get_id();
        s.whileCrashed += idx == crashIdx && crashed(round_start);
    }

    void
    onAdvanceEnd(size_t idx, Cycles) override
    {
        Slot &s = slots[idx];
        s.broken += !s.open || s.thread != std::this_thread::get_id();
        s.open = false;
        ++s.brackets;
    }

    /** The injector's rule: down from the round containing kCrashAt
     *  until the first round starting at or after kRestartAt. */
    bool
    crashed(Cycles round_start) const
    {
        return round_start + quantum > kCrashAt && round_start < kRestartAt;
    }

    std::vector<Slot> slots;
    size_t crashIdx = SIZE_MAX;
    Cycles quantum = 0;
    uint64_t rounds = 0;
    uint64_t crashRounds = 0;
};

TEST(ClusterParallelBrackets, BracketsPairOnOneThreadAndSkipCrashedRounds)
{
    for (unsigned hosts : {1u, 2u, 4u}) {
        SCOPED_TRACE("parallelHosts " + std::to_string(hosts));
        AdvanceBracketCheck check;
        std::vector<uint64_t> advanced; // per endpoint, by the injector
        {
            // An 8-node ring of pings under a fault plan.
            ClusterConfig cc;
            cc.parallelHosts = hosts;
            Cluster clu(topologies::singleTor(8), cc);
            clu.fabric().addObserver(&check);
            HealthConfig hc;
            hc.logEvents = false;
            clu.health(hc);
            FaultPlan plan;
            plan.withSeed(31337)
                .dropPayload("node1", 0, 200000, 800000, 0.5)
                .crashNode(kCrashNode, kCrashAt, kRestartAt)
                .corruptFlits("switch0", 2, 600000, 900000, 0.25);
            clu.injectFaults(plan);
            for (size_t i = 0; i < clu.nodeCount(); ++i) {
                NodeSystem &n = clu.node(i);
                Ip dst = Cluster::ipFor((i + 1) % clu.nodeCount());
                n.os().spawn("ping", -1, [&n, dst]() -> Task<> {
                    co_await n.net().ping(dst);
                });
            }
            clu.runUs(600.0);
            for (size_t i = 0; i < clu.fabric().endpointCount(); ++i)
                advanced.push_back(clu.injector()->roundsAdvanced(i));
        }

        ASSERT_NE(check.crashIdx, SIZE_MAX);
        ASSERT_GT(check.crashRounds, 0u);
        ASSERT_LT(check.crashRounds, check.rounds);
        for (size_t i = 0; i < check.slots.size(); ++i) {
            const AdvanceBracketCheck::Slot &s = check.slots[i];
            uint64_t down = i == check.crashIdx ? check.crashRounds : 0;
            EXPECT_FALSE(s.open) << "endpoint " << i;
            EXPECT_EQ(s.broken, 0u) << "endpoint " << i;
            EXPECT_EQ(s.whileCrashed, 0u) << "endpoint " << i;
            EXPECT_EQ(advanced[i], check.rounds - down) << "endpoint " << i;
            EXPECT_EQ(s.brackets, check.rounds - down) << "endpoint " << i;
        }
    }
}

} // namespace
} // namespace firesim
