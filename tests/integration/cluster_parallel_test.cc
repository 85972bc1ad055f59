/**
 * @file
 * End-to-end parallel determinism: a full 8-node cluster — blades, OS,
 * network stacks, switch, fault injection, health monitoring, and
 * telemetry — run with ClusterConfig::parallelHosts 1 vs 2/4/8 must
 * produce byte-identical simulation results AND byte-identical
 * telemetry artifacts (stats.json contents, autocounter.csv contents,
 * health and stats reports). A test-local observer also pins the
 * advance-bracket contract of FabricObserver at parallelHosts 1, 2
 * and 4: every onAdvanceStart is closed by an onAdvanceEnd on the same
 * thread, and brackets fire exactly for the rounds an endpoint is up.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

namespace firesim
{
namespace
{

// The fault plan's crash window, shared with the bracket check.
constexpr const char *kCrashNode = "node3";
constexpr Cycles kCrashAt = 400000;
constexpr Cycles kRestartAt = 1200000;

/**
 * Checks the advance brackets. They fire on whichever worker advances
 * the endpoint, so each endpoint owns one slot, presized at attach
 * time, that only its advancing thread writes (`skipped` is written on
 * the driving thread). Runs under TSan in the sanitize-thread suite.
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
        uint64_t skipped = 0;
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
    onEndpointSkipped(size_t idx, Cycles) override
    {
        ++slots[idx].skipped;
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

struct ClusterDigest
{
    std::vector<Cycles> rtts;
    Cycles finalCycle = 0;
    uint64_t batchesMoved = 0;
    std::string statsJson;
    std::string counterCsv;
    std::string statsReport;
    std::string healthReport;
};

/**
 * Boot an 8-node single-ToR cluster with telemetry (registry +
 * AutoCounter sampler), optionally a fault plan and an extra fabric
 * observer (which must outlive the call), run a ring of pings, and
 * digest everything comparable.
 */
ClusterDigest
runCluster(unsigned hosts, bool with_faults,
           FabricObserver *observer = nullptr)
{
    ClusterConfig cc;
    cc.parallelHosts = hosts;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 64000;

    auto cluster =
        std::make_unique<Cluster>(topologies::singleTor(8), cc);
    if (observer)
        cluster->fabric().addObserver(observer);

    if (with_faults) {
        HealthConfig hc;
        hc.logEvents = false;
        cluster->health(hc);
        FaultPlan plan;
        plan.withSeed(31337)
            .dropPayload("node1", 0, 200000, 800000, 0.5)
            .crashNode(kCrashNode, kCrashAt, kRestartAt)
            .corruptFlits("switch0", 2, 600000, 900000, 0.25);
        cluster->injectFaults(plan);
    }

    // Ring of pings: node i -> node (i+1) % 8, all in flight together.
    ClusterDigest d;
    d.rtts.assign(cluster->nodeCount(), 0);
    for (size_t i = 0; i < cluster->nodeCount(); ++i) {
        NodeSystem &n = cluster->node(i);
        size_t dst = (i + 1) % cluster->nodeCount();
        n.os().spawn("ping", -1, [&, i, dst]() -> Task<> {
            d.rtts[i] = co_await n.net().ping(Cluster::ipFor(dst));
        });
    }
    cluster->runUs(600.0);

    d.finalCycle = cluster->now();
    d.batchesMoved = cluster->fabric().batchesMoved();
    Telemetry *tel = cluster->telemetry();
    d.statsJson = tel->registry().dumpJson(cluster->now());
    d.counterCsv = tel->sampler()->csv();
    d.statsReport = cluster->statsReport();
    d.healthReport = cluster->healthReport();
    return d;
}

void
expectIdentical(const ClusterDigest &a, const ClusterDigest &b)
{
    EXPECT_EQ(a.rtts, b.rtts);
    EXPECT_EQ(a.finalCycle, b.finalCycle);
    EXPECT_EQ(a.batchesMoved, b.batchesMoved);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.counterCsv, b.counterCsv);
    EXPECT_EQ(a.statsReport, b.statsReport);
    EXPECT_EQ(a.healthReport, b.healthReport);
}

class ClusterParallelDeterminism
    : public ::testing::TestWithParam<unsigned /*hosts*/>
{
};

TEST_P(ClusterParallelDeterminism, TelemetryByteIdentical)
{
    ClusterDigest seq = runCluster(1, false);
    ClusterDigest par = runCluster(GetParam(), false);
    expectIdentical(seq, par);
    // Vacuity guards: traffic flowed and telemetry recorded it.
    for (Cycles rtt : seq.rtts)
        EXPECT_GT(rtt, 0u);
    EXPECT_NE(seq.counterCsv.find(','), std::string::npos);
    EXPECT_NE(seq.statsJson.find("framesTx"), std::string::npos);
}

TEST_P(ClusterParallelDeterminism, FaultsAndTelemetryByteIdentical)
{
    ClusterDigest seq = runCluster(1, true);
    ClusterDigest par = runCluster(GetParam(), true);
    expectIdentical(seq, par);
    // The plan actually fired (otherwise the property is vacuous).
    EXPECT_NE(seq.healthReport.find("node-crash"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ClusterParallelDeterminism,
                         ::testing::Values(2u, 4u, 8u));

TEST(ClusterParallelBrackets, BracketsPairOnOneThreadAndSkipCrashedRounds)
{
    for (unsigned hosts : {1u, 2u, 4u}) {
        SCOPED_TRACE("parallelHosts " + std::to_string(hosts));
        AdvanceBracketCheck check;
        runCluster(hosts, true, &check);

        ASSERT_NE(check.crashIdx, SIZE_MAX);
        ASSERT_GT(check.crashRounds, 0u);
        ASSERT_LT(check.crashRounds, check.rounds);
        for (size_t i = 0; i < check.slots.size(); ++i) {
            const AdvanceBracketCheck::Slot &s = check.slots[i];
            uint64_t down = i == check.crashIdx ? check.crashRounds : 0;
            EXPECT_FALSE(s.open) << "endpoint " << i;
            EXPECT_EQ(s.broken, 0u) << "endpoint " << i;
            EXPECT_EQ(s.whileCrashed, 0u) << "endpoint " << i;
            EXPECT_EQ(s.skipped, down) << "endpoint " << i;
            EXPECT_EQ(s.brackets, check.rounds - down) << "endpoint " << i;
        }
    }
}

} // namespace
} // namespace firesim
