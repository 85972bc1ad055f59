/**
 * @file
 * The parity matrix. The token protocol makes results independent of
 * how the host runs the target, so each cell runs a scenario (topology,
 * config, workload keyed by global node, stop cycles) as its reference,
 * then under one host-side variant: workers, run() chunking, an
 * observer, the decode cache off, no mid-run image, a shard plan or a
 * transport. The two must match in state image at every stop (rank
 * images unioned across plans), stripped stats dumps, app results,
 * component stats, AutoCounter series, and host counters that are a
 * function of the simulation. The reference image is the first image
 * its process takes. A cell is one ctest,
 * Matrix/Parity.Matches/<Scenario>_<Variant>; a failure names the cell
 * and each divergent section. Also the state-image contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/boot.hh"
#include "apps/memcached.hh"
#include "apps/mutilate.hh"
#include "fault/fault_plan.hh"
#include "manager/cluster.hh"
#include "manager/local_ranks.hh"
#include "manager/topology.hh"
#include "net/remote/shard_transport.hh"
#include "riscv/assembler.hh"
#include "riscv/decode_cache.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/state_image.hh"

namespace firesim
{
namespace
{

using namespace regs;

/** Overrides nothing: attaching it makes the fabric step densely. */
class NoopObserver : public FabricObserver
{};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- Scenarios ------------------------------------------------------

/** One rank's workload. Launchers run on the rank's thread before the
 *  first round, and each node's apps write only their own log entry. */
struct Apps
{
    /** What each global node's apps did, in order. */
    std::map<size_t, std::string> log;
    std::deque<BootResult> boots;
    uint64_t decodeHits = 0;
    /** Run at the last stop, while the Cluster lives: append end-of-run
     *  results to the log, then drop app objects holding a node. */
    std::vector<std::function<void()>> atEnd;
};

/** Pings global node @p to from @p node (global @p g) @p count times
 *  (0: forever), starting at @p from; each RTT goes to g's log. */
void
spawnPinger(NodeSystem &node, size_t g, size_t to, Apps &apps,
            int count = 0, Cycles from = 0)
{
    std::string *log = &apps.log[g];
    node.os().spawn("pinger", -1, [&node, to, log, count, from]() -> Task<> {
        if (from)
            co_await node.os().sleepUntil(from);
        for (int i = 0; count == 0 || i < count; ++i) {
            Cycles rtt = co_await node.net().ping(Cluster::ipFor(to));
            *log += csprintf("rtt %llu ", (unsigned long long)rtt);
        }
    });
}

constexpr Cycles kPingAt = 3200 * 700;

/** Staggered boots, so nodes power down at different cycles, then an
 *  idle stretch, then three pings from node 0 to node 3 at kPingAt. */
void
launchBoot(NodeSystem &node, size_t g, Apps &apps)
{
    BootConfig bc;
    bc.kernelSectors = 64 * static_cast<uint32_t>(g + 1);
    bc.fsMetadataSectors = 16;
    bc.initCyclesPerCore = 100000 + 60000 * g;
    BootResult *r = &apps.boots.emplace_back();
    launchBootWorkload(node, bc, r);
    std::string *log = &apps.log[g];
    apps.atEnd.push_back([r, log, g] {
        EXPECT_TRUE(r->poweredDown) << "node" << g;
        *log += csprintf("boot %llu", (unsigned long long)r->bootCycles);
    });
    if (g == 0)
        spawnPinger(node, g, 3, apps, 3, kPingAt);
}

/** The reference's stops sit where one run() would leave endpoints
 *  unstepped — an idle stretch, then mid-ping while nodes 1 and 2
 *  idle — so the run() ending there must catch them up. */
void
probeBoot(Cluster &clu, const Apps &apps, size_t stop)
{
    const std::string &pings = apps.log.at(0);
    size_t done = 0;
    for (size_t at = pings.find("rtt "); at != std::string::npos;
         at = pings.find("rtt ", at + 1))
        ++done;
    if (stop == 2) {
        EXPECT_EQ(done, 3u);
        EXPECT_EQ(pings.find("rtt 0 "), std::string::npos);
        EXPECT_NE(apps.boots.front().bootCycles, apps.boots.back().bootCycles)
            << "boots are not staggered";
        return;
    }
    TokenFabric &fab = clu.fabric();
    EXPECT_GT(fab.roundsFastForwarded(), 0u) << "stop " << stop;
    EXPECT_GE(clu.node(1).blade().quiescentUntil(clu.now()),
              clu.now() + 2 * fab.quantum())
        << "node 1 should idle well past stop " << stop;
    if (stop == 0) {
        EXPECT_EQ(done, 0u);
    } else {
        EXPECT_TRUE(done >= 1 && done < 3) << done << " pings done";
    }
}

/** ALU/mul/load/store timing, UART MMIO and a halt, varied per node. */
void
armHart(NodeSystem &node, uint64_t g)
{
    Assembler a(node.blade().memory(), memmap::kDramBase);
    a.li(s0, static_cast<int64_t>(memmap::kDramBase + 1 * MiB));
    a.li(t1, static_cast<int64_t>(memmap::kUartTx));
    a.li(t0, static_cast<int64_t>(400 + 37 * g));
    a.li(a0, 1);
    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    a.addi(a0, a0, 3);
    a.sd(a0, s0, 0);
    a.ld(a1, s0, 8 * static_cast<int32_t>(g));
    a.mul(a2, a0, t0);
    a.xor_(a0, a0, a2);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    for (char c : std::string("hart-done")) {
        a.li(t2, c);
        a.sb(t2, t1, 0);
    }
    a.halt(a0);
    a.finalize();
    node.blade().hart(0).reset(memmap::kDramBase);
}

/** An armed hart per node, and endless pingers 0->3, 1->0, 2->1: each
 *  crosses ranks under every shard plan of the matrix but one. */
void
launchPing(NodeSystem &node, size_t g, Apps &apps)
{
    armHart(node, g);
    std::string *log = &apps.log[g];
    apps.atEnd.push_back([&node, &apps, log, g] {
        RocketCore &hart = node.blade().hart(0);
        EXPECT_TRUE(hart.halted()) << "node" << g;
        EXPECT_EQ(hart.console(), "hart-done") << "node" << g;
        if (const DecodeCacheStats *ds = hart.decodeStats())
            apps.decodeHits += ds->hits;
        EXPECT_TRUE(g == 3 || log->find("rtt ") != std::string::npos)
            << "node" << g << " never completed a ping";
        *log += csprintf("exit %llu", (unsigned long long)hart.exitCode());
    });
    if (g < 3)
        spawnPinger(node, g, (g + 3) % 4, apps);
}

/** A memcached server on node 3 and mutilate clients on nodes 0, 1. */
void
launchMemcached(NodeSystem &node, size_t g, Apps &apps)
{
    std::string *log = &apps.log[g];
    if (g == 3) {
        MemcachedConfig mc;
        mc.threads = 2;
        auto server = std::make_shared<MemcachedServer>(node, mc);
        server->start();
        apps.atEnd.push_back([server, log] {
            *log += csprintf("served %llu",
                             (unsigned long long)server->requestsServed());
        });
    } else if (g < 2) {
        MutilateConfig lc;
        lc.serverIp = Cluster::ipFor(3);
        lc.serverThreads = 2;
        lc.qps = 20000.0;
        lc.connections = 2;
        lc.seed = 7 + g;
        auto client = std::make_shared<MutilateClient>(node, lc);
        client->start();
        apps.atEnd.push_back([client, log] {
            const MutilateStats &st = client->stats();
            EXPECT_GT(st.completed, 40u);
            *log += csprintf("issued %llu completed %llu p50 %.0f",
                             (unsigned long long)st.issued,
                             (unsigned long long)st.completed,
                             st.latencyCycles.percentile(50));
        });
    }
}

/** The 8-node ring: node g pings node g+1 once, all in flight. */
void
launchRing(NodeSystem &node, size_t g, Apps &apps)
{
    spawnPinger(node, g, (g + 1) % 8, apps, 1);
}

void
armFaults(Cluster &clu)
{
    clu.health().setLogEvents(false);
    FaultPlan plan;
    plan.withSeed(31337)
        .dropPayload("node1", 0, 200000, 800000, 0.5)
        .crashNode("node3", 400000, 1200000)
        .corruptFlits("switch0", 2, 600000, 900000, 0.25)
        .extraLatency("node5", 0, 10000, 0, 300000)
        .portDown("switch0", 6, 500000, 700000);
    clu.injectFaults(plan);
}

ClusterConfig
config(Cycles latency, Cycles sample_period, uint32_t harts = 0,
       Cycles functional = 0)
{
    ClusterConfig cc;
    cc.linkLatency = latency;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = sample_period;
    cc.harts = harts;
    cc.functionalWindow = functional;
    return cc;
}

SwitchSpec
twoByTwo()
{
    return topologies::twoLevel(2, 2);
}

struct Scenario
{
    const char *name;
    SwitchSpec (*topology)();
    ClusterConfig config;
    void (*launch)(NodeSystem &, size_t g, Apps &);
    std::vector<Cycles> stops; //!< image cycles: mid-run ones, the end
    std::vector<std::string> variants; //!< the cells it runs
    void (*arm)(Cluster &) = nullptr;  //!< before launch
    /** Checks on the one-process reference at each stop. */
    void (*probe)(Cluster &, const Apps &, size_t stop) = nullptr;
};

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> all = {
        // No sampler: rounds are activity-driven.
        {"Boot", twoByTwo, config(3200, 0), launchBoot,
         {3200 * 501, 3200 * 800, 3200 * 900},
         {"Workers4", "Chunks50", "Quantum", "Noop", "Heartbeat", "Ranks2"},
         nullptr, probeBoot},
        // Stops on the 4-quantum functional window.
        {"BootFunctional", twoByTwo, config(3200, 0, 0, 4 * 3200),
         launchBoot, {3200 * 500, 3200 * 800, 3200 * 900},
         {"Workers4", "Chunks50", "Noop", "Ranks2"}, nullptr, probeBoot},
        // A sampler: Cluster::run makes each sampling round dense.
        {"Ping", twoByTwo, config(400, 6000, 1), launchPing,
         {300000, 600000},
         {"Workers4", "Noop", "DecodeOff", "NoMidImage", "Ranks2",
          "Ranks2Owners", "Ranks3", "Shm"}},
        {"Memcached", twoByTwo, config(3200, 0), launchMemcached,
         {3200 * 1500, 3200 * 3000},
         {"Workers4", "Noop", "Ranks2", "Ranks2Heartbeat"}},
        // A sampler and a fault plan: down-windows and channel taps.
        {"FaultRing", [] { return topologies::singleTor(8); },
         config(6400, 64000), launchRing, {960000, 1920000},
         {"Workers4", "Noop", "Chunks50"},
         armFaults, [](Cluster &clu, const Apps &, size_t stop) {
             if (stop == 1) {
                 std::string report = clu.healthReport();
                 for (const char *kind :
                      {"node-crash", "flit-delay", "port-restored"}) {
                     EXPECT_NE(report.find(kind), std::string::npos)
                         << kind << ": the fault plan never fired";
                 }
             }
         }},
    };
    return all;
}

// ---- Variants -------------------------------------------------------

/** One host-side choice; the defaults are the one-process reference. */
struct Variant
{
    const char *name;
    unsigned workers = 1;
    uint64_t chunkRounds = 0; //!< rounds per run(); 0: run() to each stop
    bool noop = false;
    bool heartbeat = false;
    bool decodeOff = false;
    bool midImages = true; //!< false: one run() to the end, one image
    uint32_t ranks = 1;
    std::vector<uint32_t> owners = {}; //!< server -> rank; empty: block
    TransportKind link = TransportKind::Unix; //!< between ranks
};

const Variant kReference{.name = "Reference"};

const std::vector<Variant> kVariants = {
    {.name = "Workers4", .workers = 4},
    {.name = "Chunks50", .chunkRounds = 50},
    {.name = "Quantum", .chunkRounds = 1},
    {.name = "Noop", .noop = true},
    {.name = "Heartbeat", .heartbeat = true},
    {.name = "DecodeOff", .decodeOff = true},
    {.name = "NoMidImage", .midImages = false},
    {.name = "Ranks2", .ranks = 2},
    {.name = "Ranks2Owners", .ranks = 2, .owners = {0, 1, 1, 0}},
    {.name = "Ranks3", .ranks = 3},
    {.name = "Shm", .ranks = 2, .link = TransportKind::Shm},
    // The shape of perfbench's dc_memcached_2shard.
    {.name = "Ranks2Heartbeat",
     .heartbeat = true,
     .ranks = 2,
     .link = TransportKind::Shm},
};

const Variant &
variant(const std::string &name)
{
    for (const Variant &v : kVariants)
        if (name == v.name)
            return v;
    panic("no variant '%s'", name.c_str());
}

// ---- Running --------------------------------------------------------

bool
isComponentStat(const std::string &name)
{
    return !isHostTimingStat(name) &&
           (name.rfind("cluster.switch", 0) == 0 ||
           name.rfind("cluster.node", 0) == 0);
}

/** What a run leaves behind; per-component results merged over ranks. */
struct Outcome
{
    std::vector<std::vector<StateImage>> images; //!< [rank][stop]
    std::vector<std::string> dumps; //!< [rank] stripped stats.json
    std::vector<TransportKind> links; //!< [rank] link to its first peer
    std::map<size_t, std::string> apps;
    std::map<std::string, double> components;
    std::map<std::string, std::vector<double>> series; //!< AutoCounter
    std::vector<Cycles> sampledAt;
    uint64_t batches = 0, stepped = 0, skipped = 0, dense = 0;
    uint64_t decodeHits = 0, heartbeats = 0;
    // Rank 0's raw stats.json and autocounter.csv, and its reports.
    std::string rawStats, counterCsv, statsReport, healthReport;
};

void
collect(Cluster &clu, Outcome &o)
{
    TokenFabric &fab = clu.fabric();
    o.batches = fab.batchesMoved();
    o.stepped = fab.endpointRoundsStepped();
    o.skipped = fab.roundsFastForwarded();
    o.dense = fab.endpointCount() * fab.round();
    Telemetry &tel = *clu.telemetry();
    for (const auto &[name, value] : tel.registry().snapshot(clu.now()).values)
        if (isComponentStat(name))
            o.components.emplace(name, value);
    if (const AutoCounterSampler *ac = tel.sampler()) {
        for (const auto &sample : ac->series())
            o.sampledAt.push_back(sample.at);
        for (size_t c = 0; c < ac->columns().size(); ++c) {
            if (!isComponentStat(ac->columns()[c]))
                continue;
            std::vector<double> &column = o.series[ac->columns()[c]];
            for (const auto &sample : ac->series())
                column.push_back(sample.values[c]);
        }
    }
    if (ShardTransport *st = clu.shardTransport()) {
        EXPECT_FALSE(st->anyPeerLost());
        o.links.push_back(st->peerLinkAt(0)->kind());
    }
    if (ClusterMonitor *m = clu.clusterMonitor())
        o.heartbeats = m->heartbeats();
    o.statsReport = clu.statsReport();
    o.healthReport = clu.healthReport();
}

/** Run @p sc under @p v on runLocalRanks; @p probe the run with
 *  sc.probe. */
Outcome
run(const Scenario &sc, const Variant &v, bool probe)
{
    const uint32_t n = v.ranks;
    ScopedTempDir tmp; // every rank dumps here, rank-suffixed if sharded
    ClusterConfig cc = sc.config;
    cc.parallelHosts = v.workers;
    cc.hart.decodeCache = !v.decodeOff;
    cc.telemetry.dumpDir = tmp.path();
    if (v.heartbeat)
        cc.monitor.heartbeatEvery = 64; // heartbeat.jsonl lands in tmp
    cc.shard.owners = v.owners;
    if (v.link == TransportKind::Shm)
        cc.shard.transport = TransportKind::Shm;

    NoopObserver noop;
    std::vector<Outcome> per(n);
    std::vector<Apps> apps(n);
    runLocalRanks(n, sc.topology, cc, [&](Cluster &clu) {
        const uint32_t rank = clu.config().shard.rank;
        Outcome &o = per[rank];
        Apps &a = apps[rank];
        if (v.noop)
            clu.fabric().addObserver(&noop);
        if (sc.arm)
            sc.arm(clu);
        for (size_t i = 0; i < clu.nodeCount(); ++i) {
            NodeSystem &node = clu.node(i);
            sc.launch(node, std::stoul(node.name().substr(4)), a);
        }
        Cycles chunk = v.chunkRounds * clu.fabric().quantum();
        o.images.emplace_back();
        for (size_t s = 0; s < sc.stops.size(); ++s) {
            if (!v.midImages && s + 1 < sc.stops.size()) {
                o.images[0].emplace_back();
                continue;
            }
            while (clu.now() < sc.stops[s]) {
                Cycles left = sc.stops[s] - clu.now();
                clu.run(chunk ? std::min(chunk, left) : left);
            }
            o.images[0].push_back(clu.stateImage());
            if (probe && sc.probe)
                sc.probe(clu, a, s);
        }
        collect(clu, o);
        for (auto &finish : a.atEnd)
            finish();
        a.atEnd.clear();
    }); // each Cluster writes its stats.json on destruction

    auto dumped = [&](const char *name, uint32_t rank) {
        return readFile(rankPath(tmp.file(name), n, rank));
    };
    Outcome out = std::move(per[0]);
    out.rawStats = dumped("stats.json", 0);
    out.counterCsv = dumped("autocounter.csv", 0);
    for (uint32_t r = 0; r < n; ++r) {
        out.dumps.push_back(stripHostTimingStats(dumped("stats.json", r)));
        out.apps.merge(apps[r].log);
        out.decodeHits += apps[r].decodeHits;
        if (r == 0)
            continue;
        Outcome &o = per[r];
        out.images.push_back(std::move(o.images[0]));
        out.links.push_back(o.links[0]);
        out.components.merge(o.components);
        out.series.merge(o.series);
        EXPECT_EQ(o.sampledAt, out.sampledAt) << "rank " << r;
        out.batches += o.batches;
        out.stepped += o.stepped;
        out.dense += o.dense;
    }
    return out;
}

/** The plan-independent image of @p o at stop @p s. */
StateImage
unionAt(const Outcome &o, size_t s)
{
    std::vector<StateImage> ranks;
    for (const auto &rank : o.images)
        ranks.push_back(rank[s]);
    return unionRankImages(ranks);
}

/** Guards against vacuous cells: the reference moved and dumped. */
void
checkReference(const Scenario &sc, const Outcome &ref)
{
    EXPECT_FALSE(ref.components.empty());
    if (sc.config.telemetry.samplePeriod || sc.arm) {
        // The sampler and the fault injector watch rounds, not
        // endpoints: the reference steps only the due ones.
        EXPECT_LT(ref.stepped, ref.dense) << sc.name;
    }
    for (const auto &rank : ref.images)
        for (size_t s = 1; s < rank.size(); ++s) {
            EXPECT_NE(imageDiff(rank[s - 1], rank[s]), "")
                << "the run never moved";
        }
    for (const std::string &dump : ref.dumps) {
        EXPECT_NE(dump.find("cluster.fabric.rounds"), std::string::npos);
        EXPECT_EQ(dump.find(".host."), std::string::npos)
            << "the host-only stats must be stripped";
    }
}

void
expectParity(const Scenario &sc, const Variant &v, const Outcome &ref,
             const Outcome &got, const std::string &cell)
{
    bool same_plan = got.images.size() == ref.images.size();
    for (size_t s = 0; s < sc.stops.size(); ++s) {
        if (got.images[0][s].empty())
            continue; // no image taken there
        std::string at = csprintf(
            "%s, %s (cycle %llu)", cell.c_str(),
            s + 1 < sc.stops.size() ? "mid-run" : "at the end",
            (unsigned long long)sc.stops[s]);
        if (!same_plan) {
            EXPECT_EQ(imageDiff(unionAt(ref, s), unionAt(got, s)), "") << at;
            continue;
        }
        for (size_t r = 0; r < ref.images.size(); ++r) {
            EXPECT_EQ(imageDiff(ref.images[r][s], got.images[r][s]), "")
                << at << ", rank " << r;
        }
    }
    if (same_plan) {
        EXPECT_EQ(got.dumps, ref.dumps) << cell << ": stripped stats.json";
    }
    EXPECT_EQ(got.apps, ref.apps) << cell << ": app results";
    EXPECT_EQ(got.components, ref.components) << cell << ": component stats";
    EXPECT_EQ(got.series, ref.series) << cell << ": AutoCounter series";
    EXPECT_EQ(got.sampledAt, ref.sampledAt) << cell;
    // Cross-rank batches count once, on the producing rank, so the
    // ranks' totals partition the one-process total.
    EXPECT_EQ(got.batches, ref.batches) << cell << ": batchesMoved";
    EXPECT_EQ(got.links, std::vector<TransportKind>(
                             v.ranks > 1 ? v.ranks : 0, v.link))
        << cell << ": transport";
    for (size_t g = 0; g < v.owners.size(); ++g) {
        const StateImage &end = got.images[v.owners[g]].back();
        EXPECT_TRUE(std::any_of(end.begin(), end.end(), [g](const auto &sec) {
            return sec.first == csprintf("blade%zu", g);
        })) << cell << ": the owner map did not place node" << g;
    }
    if (v.ranks > 1) {
        if (v.heartbeat) {
            // The heartbeat watches rounds, not endpoints, so each rank
            // still steps only its due endpoints (and the ones with a
            // remote port, due every round).
            EXPECT_GT(got.heartbeats, 0u) << cell;
            EXPECT_LT(got.stepped * 2, got.dense) << cell;
        }
        return;
    }

    EXPECT_EQ(got.statsReport, ref.statsReport) << cell;
    EXPECT_EQ(got.healthReport, ref.healthReport) << cell;
    if (v.workers > 1) {
        // Raw, host counters included.
        EXPECT_EQ(got.rawStats, ref.rawStats) << cell << ": raw stats.json";
        EXPECT_EQ(got.counterCsv, ref.counterCsv) << cell;
    }
    if (v.noop) {
        // An observer that watches endpoints (the default) makes every
        // endpoint due every round.
        EXPECT_EQ(got.skipped, 0u) << cell;
        EXPECT_EQ(got.stepped, got.dense) << cell;
        if (ref.skipped) {
            EXPECT_LT(ref.stepped * 4, got.stepped) << cell;
        }
    } else if (v.heartbeat) {
        // A round observer: no round is jumped, and only the due
        // endpoints are stepped, as in the reference.
        EXPECT_EQ(got.skipped, 0u) << cell;
        EXPECT_EQ(got.stepped, ref.stepped) << cell;
    } else {
        // Host-side, but a pure function of the simulation.
        EXPECT_EQ(got.stepped, ref.stepped) << cell << ": steps";
        if (v.chunkRounds != 1) {
            EXPECT_EQ(got.skipped > 0, ref.skipped > 0) << cell;
        }
    }
    if (v.heartbeat) {
        EXPECT_GT(got.heartbeats, 0u) << cell;
    }
    if (v.decodeOff) {
        // The fast path ran, and its counters exist but are stripped.
        EXPECT_GT(ref.decodeHits, 1000u);
        EXPECT_EQ(got.decodeHits, 0u);
        EXPECT_NE(ref.rawStats.find(".host.decode.hits"), std::string::npos);
    }
}

struct Cell
{
    const Scenario *scenario;
    const Variant *variant;
};

std::string
cellName(const Cell &c)
{
    return std::string(c.scenario->name) + "_" + c.variant->name;
}

void
PrintTo(const Cell &c, std::ostream *os)
{
    *os << cellName(c);
}

std::vector<Cell>
cells()
{
    std::vector<Cell> out;
    for (const Scenario &sc : scenarios())
        for (const std::string &name : sc.variants)
            out.push_back({&sc, &variant(name)});
    return out;
}

class Parity : public ::testing::TestWithParam<Cell>
{};

TEST_P(Parity, Matches)
{
    const Scenario &sc = *GetParam().scenario;
    const Variant &v = *GetParam().variant;
    // A transport cell pairs with the 2-rank socketpair run, so every
    // section, rank-local ones included, must match.
    const Variant &base =
        v.link == TransportKind::Unix ? kReference : variant("Ranks2");
    Outcome ref = run(sc, base, base.ranks == 1);
    checkReference(sc, ref);
    expectParity(sc, v, ref, run(sc, v, false), cellName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Matrix, Parity, ::testing::ValuesIn(cells()),
                         [](const auto &info) {
                             return cellName(info.param);
                         });

// ---- Contracts ------------------------------------------------------

TEST(StateImageDiff, NamesTheDivergentSection)
{
    StateImage a = {{"fabric", "abc"}, {"switch0", "hello"},
                    {"stats", "{}"}};
    EXPECT_EQ(imageDiff(a, a), "");

    StateImage flipped = a;
    flipped[1].second[3] ^= 1;
    EXPECT_EQ(imageDiff(a, flipped),
              "section 'switch0' diverges at byte 3 (5 bytes vs 5)");

    StateImage shorter = a;
    shorter[1].second.resize(2);
    EXPECT_EQ(imageDiff(a, shorter),
              "section 'switch0' diverges at byte 2 (5 bytes vs 2)");

    StateImage missing = {a[0], a[2]};
    EXPECT_EQ(imageDiff(a, missing),
              "section 'switch0' missing from the second image");
    EXPECT_EQ(imageDiff(missing, a),
              "section 'switch0' missing from the first image");
}

TEST(StateImageDiff, UnionDropsRankLocalSectionsAndKeepsOneFabric)
{
    StateImage rank0 = {{"fabric", "f"}, {"chan0", "c0"},
                        {"blade0", "b0"}, {"stats", "s0"},
                        {"health", "h0"}};
    StateImage rank1 = {{"fabric", "f"}, {"chan1", "c1"},
                        {"blade1", "b1"}, {"stats", "s1"}};
    StateImage merged = unionRankImages({rank0, rank1});
    StateImage want = {{"blade0", "b0"}, {"blade1", "b1"},
                       {"chan0", "c0"},  {"chan1", "c1"},
                       {"fabric", "f"}};
    EXPECT_EQ(merged, want);
}

TEST(ClusterStateImage, HoldsOneSectionPerComponent)
{
    Cluster clu(topologies::singleTor(4), config(400, 2000));
    clu.health();
    clu.run(120000);
    std::vector<std::string> names;
    for (const auto &[name, bytes] : clu.stateImage()) {
        names.push_back(name);
        EXPECT_FALSE(bytes.empty()) << name;
    }
    size_t channels = clu.fabric().channelCount();
    ASSERT_EQ(names.size(), 1 + channels + 1 + 3 * 4 + 3);
    EXPECT_EQ(names.front(), "fabric");
    EXPECT_EQ(names[1].rfind("chan", 0), 0u) << names[1];
    EXPECT_EQ(names[1 + channels], "switch0");
    EXPECT_EQ(names[2 + channels], "blade0");
    EXPECT_EQ(names[3 + channels], "os0");
    EXPECT_EQ(names[4 + channels], "net0");
    std::vector<std::string> tail(names.end() - 3, names.end());
    EXPECT_EQ(tail,
              (std::vector<std::string>{"health", "autocounter", "stats"}));
}

} // namespace
} // namespace firesim
