/**
 * @file
 * Byte identity of activity-driven rounds against dense stepping. A
 * small tree boots (staggered, so nodes finish at different times),
 * idles, then pings across the root. It runs with activity-driven
 * rounds and again with a no-op FabricObserver attached, which makes
 * every endpoint due every round (dense stepping): at 1 and 2 workers,
 * as one run(), in 50-round chunks and one round per run(), in
 * cycle-exact and functional mode. Every variant must leave the same
 * state image, the same stripped stats.json, the same per-blade
 * event-queue clock and schedule and the same app results; state
 * images taken where endpoints sit idle must match dense stepping's;
 * two shards over a socketpair must match one activity-driven process. A hand-built
 * fabric adds links of two and three quanta, so payload stays in
 * flight for several rounds, under a Switch and a PrioritySwitch.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/boot.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/eth.hh"
#include "net/remote/socket.hh"
#include "node/server_blade.hh"
#include "snapshot/serial.hh"
#include "switchmodel/priority_switch.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/state_image.hh"

namespace firesim
{
namespace
{

class NoopObserver : public FabricObserver
{};

constexpr Cycles kLatency = 3200;
constexpr Cycles kTotal = 3200 * 900;
/** Every node has powered down well before this; the pings start at
 *  kPingAt. The idle-stretch image is taken in between. */
constexpr Cycles kIdleImageAt = 3200 * 501;
constexpr Cycles kPingAt = 3200 * 700;
/** Between the first and the last of the three pings (about 43
 *  rounds each): node 0, node 3 and the switches carry them while
 *  nodes 1 and 2 sit idle. */
constexpr Cycles kPingImageAt = kPingAt + 3200 * 60;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** How a variant splits its cycles into run() calls. */
enum class Chunks
{
    One,     //!< one run() over everything
    Fifty,   //!< 50 rounds per run()
    Quantum, //!< one round per run()
};

const char *
chunksName(Chunks c)
{
    switch (c) {
      case Chunks::One:
        return "one run()";
      case Chunks::Fifty:
        return "50-round chunks";
      case Chunks::Quantum:
        return "run(quantum)";
    }
    return "?";
}

struct Variant
{
    bool observed = false;
    unsigned workers = 1;
    Chunks chunks = Chunks::One;
    Cycles functional = 0; //!< ClusterConfig::functionalWindow
};

std::string
describe(const Variant &v)
{
    return csprintf("%s, %u worker(s), %s%s",
                    v.observed ? "dense" : "activity-driven", v.workers,
                    chunksName(v.chunks),
                    v.functional ? ", functional" : "");
}

ClusterConfig
configFor(const Variant &v, const std::string &dump_dir)
{
    ClusterConfig cc;
    cc.linkLatency = kLatency;
    cc.parallelHosts = v.workers;
    cc.functionalWindow = v.functional;
    cc.telemetry.enabled = true;
    cc.telemetry.dumpDir = dump_dir;
    return cc;
}

/** One cluster (or one shard of it) with the workload launched; the
 *  boot results and ping times outlive it. Boot results are indexed
 *  by global node number. */
struct Target
{
    std::vector<BootResult> boots;
    std::vector<Cycles> rtts;
    NoopObserver noop;
    std::unique_ptr<Cluster> cluster;

    Target(const Variant &v, const std::string &dump_dir)
        : Target(v, std::make_unique<Cluster>(topologies::twoLevel(2, 2),
                                              configFor(v, dump_dir)))
    {}

    Target(const Variant &v, std::unique_ptr<Cluster> built)
        : cluster(std::move(built))
    {
        if (v.observed)
            cluster->fabric().addObserver(&noop);
        boots.resize(4);
        for (size_t i = 0; i < cluster->nodeCount(); ++i) {
            size_t g = globalIndex(i);
            BootConfig bc;
            bc.kernelSectors = 64 * static_cast<uint32_t>(g + 1);
            bc.fsMetadataSectors = 16;
            bc.initCyclesPerCore = 100000 + 60000 * g;
            launchBootWorkload(cluster->node(i), bc, &boots[g]);
        }
        rtts.assign(3, 0);
        if (globalIndex(0) != 0)
            return; // node 0 lives on the other shard
        NodeSystem &from = cluster->node(0);
        Cycles *rtt = rtts.data();
        from.os().spawn("pinger", -1, [&from, rtt]() -> Task<> {
            co_await from.os().sleepUntil(kPingAt);
            for (int i = 0; i < 3; ++i)
                rtt[i] = co_await from.net().ping(Cluster::ipFor(3));
        });
    }

    /** Global number of local node @p i, from its name "node<g>". */
    size_t
    globalIndex(size_t i) const
    {
        return std::stoul(cluster->node(i).name().substr(4));
    }

    void
    run(Cycles cycles, Chunks chunks)
    {
        Cycles q = cluster->fabric().quantum();
        Cycles chunk = chunks == Chunks::One     ? cycles
                       : chunks == Chunks::Fifty ? 50 * q
                                                 : q;
        for (Cycles done = 0; done < cycles;) {
            Cycles step = std::min(chunk, cycles - done);
            cluster->run(step);
            done += step;
        }
    }
};

struct Outcome
{
    StateImage image;
    std::string stats;
    std::vector<Cycles> eqNow;
    std::vector<uint64_t> eqScheduled;
    std::vector<uint64_t> eqDigest;
    std::vector<Cycles> bootCycles;
    std::vector<Cycles> rtts;
    uint64_t skipped = 0;
    uint64_t stepped = 0;
};

Outcome
runVariant(const Variant &v)
{
    ScopedTempDir tmp;
    Outcome out;
    {
        Target t(v, tmp.path());
        t.run(kTotal, v.chunks);
        Cluster &clu = *t.cluster;
        out.image = clu.stateImage();
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
        out.stepped = clu.fabric().endpointRoundsStepped();
    } // the Cluster writes stats.json on destruction
    out.stats = stripHostTimingStats(readFile(tmp.file("stats.json")));
    return out;
}

void
expectSame(const Outcome &got, const Outcome &ref, const std::string &what)
{
    EXPECT_EQ(imageDiff(ref.image, got.image), "") << what;
    EXPECT_EQ(got.stats, ref.stats) << what << ": stats.json diverged";
    EXPECT_EQ(got.eqNow, ref.eqNow) << what;
    EXPECT_EQ(got.eqScheduled, ref.eqScheduled) << what;
    EXPECT_EQ(got.eqDigest, ref.eqDigest) << what;
    EXPECT_EQ(got.bootCycles, ref.bootCycles) << what;
    EXPECT_EQ(got.rtts, ref.rtts) << what;
}

/** @p v stepped densely: a no-op observer keeps every round dense. */
Variant
denseOf(Variant v)
{
    v.observed = true;
    return v;
}

/** Every activity-driven variant of @p base matches @p ref, the dense
 *  run of @p base, and steps the same endpoint-rounds, far fewer than
 *  dense stepping. */
void
expectActivityMatchesDense(const Outcome &ref, Variant base,
                           std::vector<Chunks> chunkings)
{
    EXPECT_EQ(ref.skipped, 0u);
    ASSERT_FALSE(ref.image.empty());
    for (Cycles rtt : ref.rtts)
        EXPECT_GT(rtt, 0u) << "a ping never completed";

    uint64_t stepped = 0;
    for (unsigned workers : {1u, 2u}) {
        for (Chunks chunks : chunkings) {
            Variant v = base;
            v.observed = false;
            v.workers = workers;
            v.chunks = chunks;
            std::string what = describe(v);
            Outcome got = runVariant(v);
            if (chunks != Chunks::Quantum) {
                EXPECT_GT(got.skipped, 0u) << what;
            }
            expectSame(got, ref, what);
            // Host-side, but a pure function of the simulation: the
            // worker count and the run() chunking leave it alone.
            if (stepped == 0)
                stepped = got.stepped;
            EXPECT_EQ(got.stepped, stepped) << what;
            EXPECT_LT(got.stepped * 4, ref.stepped) << what;
            if (workers == 2) {
                v.observed = true;
                expectSame(runVariant(v), ref, describe(v));
            }
        }
    }
    EXPECT_GT(stepped, 0u);
    // Repeats exactly from run to run.
    Variant again = base;
    again.observed = false;
    EXPECT_EQ(runVariant(again).stepped, stepped);
}

TEST(FastForwardParity, ClusterMatchesRoundByRoundStepping)
{
    // The dense reference is the first image this process takes, so a
    // save that corrupts only a first image fails the comparison too.
    Variant base{false, 1, Chunks::One, 0};
    Outcome ref = runVariant(denseOf(base));
    ASSERT_NE(ref.stats.find("cluster.fabric.rounds"), std::string::npos);
    EXPECT_EQ(ref.stats.find("roundsFastForwarded"), std::string::npos)
        << "the host-only counters must be stripped";
    EXPECT_EQ(ref.stats.find("endpointRoundsStepped"), std::string::npos);
    // Staggered boots: the nodes power down at different cycles.
    EXPECT_NE(ref.bootCycles.front(), ref.bootCycles.back());
    // Dense stepping steps every endpoint (3 switches, 4 nodes) in
    // every round.
    EXPECT_EQ(ref.stepped, 7u * (kTotal / kLatency));

    expectActivityMatchesDense(ref, base,
                               {Chunks::One, Chunks::Fifty,
                                Chunks::Quantum});
}

TEST(FastForwardParity, FunctionalModeMatchesDenseStepping)
{
    Variant base{false, 1, Chunks::One, 4 * kLatency};
    expectActivityMatchesDense(runVariant(denseOf(base)), base,
                               {Chunks::One, Chunks::Fifty});
}

TEST(FastForwardParity, ImageInsideAFastForwardedStretchMatchesDense)
{
    // Two images, each where one run() would have left endpoints
    // unstepped: inside an idle stretch, and mid-ping while nodes 1
    // and 2 idle. The run() that ends there catches them up, so the
    // image equals the dense one.
    for (Cycles at : {kIdleImageAt, kPingImageAt}) {
        Target dense({true, 1, Chunks::One, 0}, "");
        dense.run(at, Chunks::One);
        Target activity({false, 1, Chunks::One, 0}, "");
        activity.run(at, Chunks::One);
        Cluster &clu = *activity.cluster;
        TokenFabric &fab = clu.fabric();
        EXPECT_GT(fab.roundsFastForwarded(), 0u);
        // Node 1 is idle well past the image.
        EXPECT_GE(clu.node(1).blade().quiescentUntil(clu.now()),
                  clu.now() + 2 * fab.quantum());
        if (at == kPingImageAt) {
            EXPECT_GT(activity.rtts[0], 0u) << "first ping not done";
            EXPECT_EQ(activity.rtts[2], 0u) << "last ping already done";
        }
        EXPECT_EQ(imageDiff(dense.cluster->stateImage(), clu.stateImage()),
                  "")
            << "activity-driven image at " << at
            << " differs from the dense one";
    }
}

/** All "cluster.<component>.*" stats of @p snap, keyed by name. */
std::map<std::string, double>
componentSubtree(const StatSnapshot &snap, const std::string &component)
{
    std::string prefix = "cluster." + component + ".";
    std::map<std::string, double> out;
    for (const auto &[name, value] : snap.values)
        if (name.rfind(prefix, 0) == 0)
            out.emplace(name, value);
    return out;
}

/** What one process (or one shard) of the workload leaves behind,
 *  keyed by global component. */
struct ShardOutcome
{
    StateImage image;
    std::map<std::string, std::map<std::string, double>> stats;
    std::map<size_t, std::vector<uint64_t>> eq; // now, total, digest
    std::vector<BootResult> boots;
    std::vector<Cycles> rtts;
};

void
collect(Target &t, ShardOutcome &out)
{
    Cluster &clu = *t.cluster;
    t.run(kTotal, Chunks::One);
    out.image = clu.stateImage();
    StatSnapshot snap = clu.telemetry()->registry().snapshot(clu.now());
    for (const char *comp : {"switch0", "switch1", "switch2", "node0",
                             "node1", "node2", "node3"}) {
        auto sub = componentSubtree(snap, comp);
        if (!sub.empty())
            out.stats[comp] = std::move(sub);
    }
    for (size_t i = 0; i < clu.nodeCount(); ++i) {
        const EventQueue &eq = clu.node(i).blade().eventQueue();
        out.eq[t.globalIndex(i)] = {eq.now(), eq.scheduledTotal(),
                                    eq.scheduleDigest()};
    }
    out.boots = t.boots;
    out.rtts = t.rtts;
}

TEST(FastForwardParity, TwoShardsMatchOneActivityDrivenProcess)
{
    // The sharded ranks keep every endpoint due (their health monitor
    // observes the fabric and remote ports are due every round); the
    // single process runs activity-driven.
    Variant v{false, 1, Chunks::One, 0};
    ShardOutcome one;
    {
        Target t(v, "");
        collect(t, one);
        EXPECT_GT(t.cluster->fabric().roundsFastForwarded(), 0u);
    }

    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0 = configFor(v, ""), cc1 = configFor(v, "");
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));
    ShardOutcome r0, r1;
    std::thread shard1([&] {
        Target t(v, std::make_unique<Cluster>(topologies::twoLevel(2, 2),
                                              std::move(cc1),
                                              std::move(fds1)));
        collect(t, r1);
    });
    {
        Target t(v, std::make_unique<Cluster>(topologies::twoLevel(2, 2),
                                              std::move(cc0),
                                              std::move(fds0)));
        collect(t, r0);
    }
    shard1.join();

    // Every channel, switch, blade and OS section, held once across
    // the two ranks, matches the one-process run byte for byte.
    EXPECT_EQ(imageDiff(unionRankImages({one.image}),
                        unionRankImages({r0.image, r1.image})),
              "");
    ASSERT_EQ(one.stats.size(), 7u);
    ASSERT_EQ(r0.stats.size() + r1.stats.size(), 7u);
    for (const ShardOutcome *rank : {&r0, &r1}) {
        for (const auto &[comp, stats] : rank->stats)
            EXPECT_EQ(stats, one.stats.at(comp)) << comp;
        for (const auto &[node, eq] : rank->eq) {
            EXPECT_EQ(eq, one.eq.at(node)) << "node" << node;
            EXPECT_EQ(rank->boots[node].bootCycles,
                      one.boots[node].bootCycles)
                << "node" << node;
        }
    }
    EXPECT_EQ(r0.eq.size() + r1.eq.size(), 4u);
    EXPECT_EQ(r0.rtts, one.rtts);
    for (Cycles rtt : one.rtts)
        EXPECT_GT(rtt, 0u);
}

// ---- Mixed link latencies, hand-built ------------------------------

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

    /** Every endpoint's and channel's snapshot bytes, plus each
     *  blade's event-queue clock and schedule. */
    std::string
    image() const
    {
        Serializer s;
        sw->snapshotSave(s);
        for (const auto &b : blades) {
            b->snapshotSave(s);
            const EventQueue &eq = b->eventQueue();
            s.putU(eq.now());
            s.putU(eq.scheduledTotal());
            s.putU(eq.scheduleDigest());
        }
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
            for (Chunks chunks : {Chunks::One, Chunks::Fifty,
                                  Chunks::Quantum}) {
                MixedRig rig(priority, false, workers);
                Cycles chunk = chunks == Chunks::One     ? kRun
                               : chunks == Chunks::Fifty ? 50 * kQuantum
                                                         : kQuantum;
                for (Cycles done = 0; done < kRun; done += chunk)
                    rig.fabric.run(chunk);
                std::string what = csprintf(
                    "%s, %u worker(s), %s",
                    priority ? "PrioritySwitch" : "Switch", workers,
                    chunksName(chunks));
                EXPECT_EQ(rig.image(), ref) << what;
                EXPECT_LT(rig.fabric.endpointRoundsStepped(), 5u * 400u)
                    << what;
                if (chunks != Chunks::Quantum) {
                    EXPECT_GT(rig.fabric.roundsFastForwarded(), 0u)
                        << what;
                }
            }
        }
    }
}

} // namespace
} // namespace firesim
