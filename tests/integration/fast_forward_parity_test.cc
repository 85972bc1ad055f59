/**
 * @file
 * Whole-cluster byte identity of fast-forward: a small tree boots
 * (staggered, so nodes finish at different times), idles, then pings
 * across the root. Run with fast-forward and again with a no-op
 * FabricObserver attached (which keeps round-by-round stepping), at 1
 * and 2 workers, as one run() and in 50-round chunks. Every variant
 * must leave the same state image, the same stripped stats.json, the
 * same per-blade event-queue clock and schedule, and a checkpoint
 * taken inside a fast-forwarded stretch must restore.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/boot.hh"
#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "tests/scoped_temp_dir.hh"

namespace firesim
{
namespace
{

class NoopObserver : public FabricObserver
{};

constexpr Cycles kLatency = 3200;
constexpr Cycles kTotal = 3200 * 900;
/** Every node has powered down well before this; the pings start at
 *  kPingAt. The checkpoint falls in between. */
constexpr Cycles kSnapAt = 3200 * 501;
constexpr Cycles kPingAt = 3200 * 700;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct Variant
{
    bool observed = false;
    unsigned workers = 1;
    bool chunked = false;
};

/** One cluster with the workload launched; the boot results and ping
 *  times outlive it. */
struct Target
{
    std::vector<BootResult> boots;
    std::vector<Cycles> rtts;
    NoopObserver noop;
    std::unique_ptr<Cluster> cluster;

    Target(const Variant &v, const std::string &dump_dir)
    {
        ClusterConfig cc;
        cc.linkLatency = kLatency;
        cc.parallelHosts = v.workers;
        cc.telemetry.enabled = true;
        cc.telemetry.dumpDir = dump_dir;
        cluster = std::make_unique<Cluster>(topologies::twoLevel(2, 2), cc);
        if (v.observed)
            cluster->fabric().addObserver(&noop);
        boots.resize(cluster->nodeCount());
        for (size_t i = 0; i < cluster->nodeCount(); ++i) {
            BootConfig bc;
            bc.kernelSectors = 64 * static_cast<uint32_t>(i + 1);
            bc.fsMetadataSectors = 16;
            bc.initCyclesPerCore = 100000 + 60000 * i;
            launchBootWorkload(cluster->node(i), bc, &boots[i]);
        }
        rtts.assign(3, 0);
        NodeSystem &from = cluster->node(0);
        Cycles *rtt = rtts.data();
        from.os().spawn("pinger", -1, [&from, rtt]() -> Task<> {
            co_await from.os().sleepUntil(kPingAt);
            for (int i = 0; i < 3; ++i)
                rtt[i] = co_await from.net().ping(Cluster::ipFor(3));
        });
    }

    void
    run(Cycles cycles, bool chunked)
    {
        Cycles chunk = chunked ? 50 * kLatency : cycles;
        for (Cycles done = 0; done < cycles;) {
            Cycles step = std::min(chunk, cycles - done);
            cluster->run(step);
            done += step;
        }
    }
};

struct Outcome
{
    std::string image;
    std::string stats;
    std::vector<Cycles> eqNow;
    std::vector<uint64_t> eqScheduled;
    std::vector<uint64_t> eqDigest;
    std::vector<Cycles> bootCycles;
    std::vector<Cycles> rtts;
    uint64_t skipped = 0;
};

Outcome
runVariant(const Variant &v)
{
    ScopedTempDir tmp;
    Outcome out;
    {
        Target t(v, tmp.path());
        t.run(kTotal, v.chunked);
        Cluster &clu = *t.cluster;
        EXPECT_EQ(clu.saveSnapshot(tmp.file("end.snap")), "");
        out.image = readFile(tmp.file("end.snap"));
        for (size_t i = 0; i < clu.nodeCount(); ++i) {
            const EventQueue &eq = clu.node(i).blade().eventQueue();
            out.eqNow.push_back(eq.now());
            out.eqScheduled.push_back(eq.scheduledTotal());
            out.eqDigest.push_back(eq.scheduleDigest());
            EXPECT_TRUE(t.boots[i].poweredDown) << "node " << i;
            out.bootCycles.push_back(t.boots[i].bootCycles);
        }
        out.rtts = t.rtts;
        out.skipped = clu.fabric().roundsFastForwarded();
    } // the Cluster writes stats.json on destruction
    out.stats = stripHostTimingStats(readFile(tmp.file("stats.json")));
    return out;
}

void
expectSame(const Outcome &got, const Outcome &ref, const char *what)
{
    EXPECT_EQ(got.image, ref.image) << what << ": state image diverged";
    EXPECT_EQ(got.stats, ref.stats) << what << ": stats.json diverged";
    EXPECT_EQ(got.eqNow, ref.eqNow) << what;
    EXPECT_EQ(got.eqScheduled, ref.eqScheduled) << what;
    EXPECT_EQ(got.eqDigest, ref.eqDigest) << what;
    EXPECT_EQ(got.bootCycles, ref.bootCycles) << what;
    EXPECT_EQ(got.rtts, ref.rtts) << what;
}

TEST(FastForwardParity, ClusterMatchesRoundByRoundStepping)
{
    Outcome ref = runVariant({true, 1, false});
    EXPECT_EQ(ref.skipped, 0u);
    ASSERT_FALSE(ref.image.empty());
    ASSERT_NE(ref.stats.find("cluster.fabric.rounds"), std::string::npos);
    EXPECT_EQ(ref.stats.find("roundsFastForwarded"), std::string::npos)
        << "the host-only counter must be stripped";
    for (Cycles rtt : ref.rtts)
        EXPECT_GT(rtt, 0u) << "a ping never completed";
    // Staggered boots: the nodes power down at different cycles.
    EXPECT_NE(ref.bootCycles.front(), ref.bootCycles.back());

    for (unsigned workers : {1u, 2u}) {
        for (bool chunked : {false, true}) {
            std::string what = csprintf("fast-forward, %u worker(s), %s",
                                        workers,
                                        chunked ? "chunked" : "one run()");
            Outcome ff = runVariant({false, workers, chunked});
            EXPECT_GT(ff.skipped, 0u) << what;
            expectSame(ff, ref, what.c_str());
            if (workers == 2 || chunked) {
                std::string obs = csprintf(
                    "observed, %u worker(s), %s", workers,
                    chunked ? "chunked" : "one run()");
                Outcome stepped = runVariant({true, workers, chunked});
                EXPECT_EQ(stepped.skipped, 0u) << obs;
                expectSame(stepped, ref, obs.c_str());
            }
        }
    }
}

TEST(FastForwardParity, CheckpointInsideAFastForwardedStretchRestores)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("mid.snap");
    std::string ref_path = tmp.file("mid_ref.snap");

    // The round-by-round reference image at the same cycle.
    {
        Target ref({true, 1, false}, "");
        ref.run(kSnapAt, false);
        ASSERT_EQ(ref.cluster->saveSnapshot(ref_path), "");
    }

    Outcome whole = runVariant({false, 1, false});
    {
        Target saver({false, 1, false}, "");
        saver.run(kSnapAt, false);
        Cluster &clu = *saver.cluster;
        TokenFabric &fab = clu.fabric();
        EXPECT_GT(fab.roundsFastForwarded(), 0u);
        // Quiet well past the snapshot cycle: one run() over it would
        // have skipped straight across.
        for (size_t e = 0; e < fab.endpointCount(); ++e)
            EXPECT_GE(fab.endpointAt(e).quiescentUntil(clu.now()),
                      clu.now() + 2 * fab.quantum())
                << fab.endpointAt(e).name();
        ASSERT_EQ(clu.saveSnapshot(path), "");
        EXPECT_EQ(readFile(path), readFile(ref_path))
            << "fast-forwarded image differs from the stepped one";
    }

    ScopedTempDir dump;
    {
        Target restored({false, 1, false}, dump.path());
        ASSERT_EQ(resumeFromSnapshot(*restored.cluster, path), "");
        EXPECT_EQ(restored.cluster->now(), kSnapAt);
        restored.run(kTotal - restored.cluster->now(), false);
        EXPECT_EQ(restored.rtts, whole.rtts);
    }
    EXPECT_EQ(stripHostTimingStats(readFile(dump.file("stats.json"))),
              whole.stats);
}

} // namespace
} // namespace firesim
