/**
 * @file
 * The repository benchmark: one workload on the paper's 1024-node
 * Table III datacenter per process, measured end to end (--trace 0) or
 * split into the per-layer ledger (--trace 1). Every simulated result
 * is checked; a fast but wrong run is a failure. perfbench/README.md
 * describes the workloads and every metric.
 *
 *   perfbench --workload dc_memcached --seed 1 --seconds 25 --trace 0
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * The exit code is non-zero only when a verification check failed.
 */

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <utility>
#include <vector>

#include "apps/boot.hh"
#include "apps/memcached.hh"
#include "apps/mutilate.hh"
#include "base/stats.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
#include "span_trace.hh"

using namespace firesim;
using perfbench::SpanTracer;

namespace
{

using Clock = std::chrono::steady_clock;

// Rounds per timed chunk of an untraced run (about 20-100 ms of host
// time on the 1024-node tree).
constexpr Cycles kChunkRounds = 50;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- The target ---------------------------------------------------------

// Table III's three-level tree: 4 aggregation switches x 8 ToRs x 32
// servers = 1024 nodes.
constexpr uint32_t kAggs = 4;
constexpr uint32_t kTorsPerAgg = 8;
constexpr uint32_t kServersPerTor = 32;

uint32_t
nodeIndex(uint32_t agg, uint32_t tor, uint32_t server)
{
    return (agg * kTorsPerAgg + tor) * kServersPerTor + server;
}

// Memcached phases in target time: warmup, measured window, drain.
constexpr double kWarmupMs = 3.0;
constexpr double kMeasureMs = 5.0;
constexpr double kDrainMs = 1.5;
constexpr double kQpsPerClient = 10000.0;

// Boot-and-idle window: boot completes at 2541.5 us; the rest is idle.
constexpr double kBootWindowUs = 10000.0;

struct Workload
{
    const char *name;
    bool boot;          //!< boot-and-idle instead of memcached
    unsigned hosts;     //!< fabric worker threads (parallelHosts)
    uint32_t shards;    //!< shard ranks (threads over a socketpair)
    const char *family; //!< workloads of one family share a digest
};

const Workload kWorkloads[] = {
    {"dc_memcached", false, 1, 1, "dc"},
    {"boot_idle", true, 1, 1, "boot"},
    {"dc_memcached_2w", false, 2, 1, "dc"},
    {"dc_memcached_2shard", false, 1, 2, "dc"},
};

/** Cross-datacenter pairing: within each ToR the first half of the
 *  servers run memcached, and each one's client is the matching
 *  second-half server of the same ToR slot in the next aggregation
 *  subtree. Returns (server, client) global node indices. */
std::vector<std::pair<uint32_t, uint32_t>>
crossDatacenterPairs()
{
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    uint32_t half = kServersPerTor / 2;
    for (uint32_t agg = 0; agg < kAggs; ++agg)
        for (uint32_t tor = 0; tor < kTorsPerAgg; ++tor)
            for (uint32_t s = 0; s < half; ++s)
                pairs.emplace_back(nodeIndex(agg, tor, s),
                                   nodeIndex((agg + 1) % kAggs, tor,
                                             half + s));
    return pairs;
}

Cycles
targetCycles(const Workload &w)
{
    TargetClock clk;
    double us = w.boot ? kBootWindowUs
                       : (kWarmupMs + kMeasureMs + kDrainMs) * 1000.0;
    return clk.cyclesFromUs(us);
}

ClusterConfig
clusterConfig(const Workload &w, uint64_t seed, uint32_t rank,
              const std::string &state_dir)
{
    ClusterConfig cc;
    cc.seed = seed;
    cc.parallelHosts = w.hosts;
    if (w.shards > 1) {
        cc.shard.shards = w.shards;
        cc.shard.rank = rank;
        cc.shard.transport = TransportKind::Shm;
        cc.shard.failFast = true;
        cc.monitor.heartbeatEvery = 64;
        cc.monitor.heartbeatPath = state_dir + "/heartbeat.jsonl";
    }
    return cc;
}

// ---- One rank of one job ------------------------------------------------

/** One shard's cluster and its applications. Member order is
 *  destruction order in reverse: applications go before the cluster
 *  whose nodes they reference; the boot results outlive both. */
struct Rank
{
    std::vector<BootResult> boots; //!< by global node index
    std::unique_ptr<Cluster> cluster;
    std::vector<std::unique_ptr<MemcachedServer>> servers;
    std::vector<std::unique_ptr<MutilateClient>> clientStore;
    std::vector<MutilateClient *> clientOfPair; //!< null when remote
    std::vector<int> localNode;   //!< global node -> local index or -1
    std::vector<int> localSwitch; //!< global switch -> local index or -1
    double buildS = 0.0;
    double launchS = 0.0;
    Histogram roundNs; //!< host ns per round, stepped runs only

    void
    teardown()
    {
        clientStore.clear();
        servers.clear();
        cluster.reset();
    }
};

void
indexLocalComponents(Rank &r)
{
    const ShardPlan &plan = r.cluster->plan();
    uint32_t rank = r.cluster->config().shard.rank;
    r.localNode.assign(plan.nServers, -1);
    r.localSwitch.assign(plan.nSwitches, -1);
    int n = 0;
    for (uint32_t j = 0; j < plan.nServers; ++j)
        if (plan.serverOwner[j] == rank)
            r.localNode[j] = n++;
    int s = 0;
    for (uint32_t k = 0; k < plan.nSwitches; ++k)
        if (plan.switchOwner[k] == rank)
            r.localSwitch[k] = s++;
}

void
launchApps(Rank &r, const Workload &w, uint64_t seed)
{
    Cluster &clu = *r.cluster;
    if (w.boot) {
        BootConfig bc;
        bc.kernelSectors = 2048;
        bc.fsMetadataSectors = 256;
        r.boots.assign(r.localNode.size(), BootResult{});
        for (size_t j = 0; j < r.localNode.size(); ++j)
            if (r.localNode[j] >= 0)
                launchBootWorkload(clu.node(r.localNode[j]), bc,
                                   &r.boots[j]);
        return;
    }
    TargetClock clk = clu.clock();
    auto pairs = crossDatacenterPairs();
    r.clientOfPair.assign(pairs.size(), nullptr);
    for (size_t p = 0; p < pairs.size(); ++p) {
        auto [server, client] = pairs[p];
        MemcachedConfig mc;
        if (r.localNode[server] >= 0) {
            r.servers.push_back(std::make_unique<MemcachedServer>(
                clu.node(r.localNode[server]), mc));
            r.servers.back()->start();
        }
        if (r.localNode[client] < 0)
            continue;
        MutilateConfig lc;
        lc.serverIp = Cluster::ipFor(server);
        lc.serverThreads = mc.threads;
        lc.connections = mc.threads;
        lc.qps = kQpsPerClient;
        lc.seed = seed * 1000003ULL + client;
        lc.measureFrom = clk.cyclesFromUs(kWarmupMs * 1000.0);
        lc.measureUntil =
            clk.cyclesFromUs((kWarmupMs + kMeasureMs) * 1000.0);
        r.clientStore.push_back(std::make_unique<MutilateClient>(
            clu.node(r.localNode[client]), lc));
        r.clientStore.back()->start();
        r.clientOfPair[p] = r.clientStore.back().get();
    }
}

// ---- Jobs ---------------------------------------------------------------

enum class Mode
{
    SetupOnly, //!< build, launch, one untimed round, tear down
    Run,       //!< one untraced run(cycles)
    Stepped,   //!< untraced, one run(quantum) per round, rounds timed
    Traced,    //!< run(cycles) with a SpanTracer on every fabric
};

/** Free per-layer counters, read from public accessors after a run. */
struct Counters
{
    uint64_t rounds = 0;
    uint64_t switchPackets = 0;
    uint64_t bladeEvents = 0;
    uint64_t nicFrames = 0;
    uint64_t requestsCompleted = 0;
    unsigned poolWorkers = 0;
    double poolBusyS = 0.0;
    double poolMaxMeanBusy = 0.0;
    double transportStallS = 0.0;
    uint64_t transportBytesTx = 0;
    uint64_t transportBatchesTx = 0;
    uint64_t heartbeats = 0;
    uint64_t latencySamples = 0;
};

/** Counts verification checks and keeps the failed ones. */
struct Verdict
{
    uint64_t attempted = 0;
    std::vector<std::string> failed;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failed.push_back(what);
    }

    void
    merge(const Verdict &other)
    {
        attempted += other.attempted;
        failed.insert(failed.end(), other.failed.begin(),
                      other.failed.end());
    }
};

struct JobResult
{
    double buildS = 0.0;  //!< Cluster construction (max over ranks)
    double launchS = 0.0; //!< application launch (max over ranks)
    double setupS = 0.0;  //!< job start .. every rank built and launched
    double runS = 0.0;    //!< the timed run region
    double wallS = 0.0;   //!< job start .. verified results
    std::vector<double> chunkS; //!< run region per kChunkRounds rounds
    Cycles cycles = 0;    //!< target cycles simulated
    uint64_t digest = 0;
    Verdict sanity; //!< this job's sanity checks
    Counters counters;
    Histogram roundNs;
    SpanTracer::Totals trace;
    std::string chromeEvents;
};

/** FNV-1a over 64-bit words. */
struct Digest
{
    uint64_t h = 1469598103934665603ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
};

/** Digest and sanity-check the simulated results across all ranks. */
void
verify(const Workload &w, std::vector<Rank> &ranks, JobResult &res)
{
    Digest d;
    size_t nodes = ranks[0].localNode.size();
    if (w.boot) {
        uint64_t down = 0;
        for (size_t j = 0; j < nodes; ++j) {
            for (Rank &r : ranks) {
                if (r.localNode[j] < 0)
                    continue;
                const BootResult &b = r.boots[j];
                d.add(static_cast<uint64_t>(b.poweredDown));
                d.add(static_cast<uint64_t>(b.bootCycles));
                down += b.poweredDown && b.bootCycles > 0 &&
                        b.bootCycles < res.cycles;
            }
        }
        res.sanity.check(down == nodes,
                         csprintf("%llu of %zu nodes booted and powered down",
                                  (unsigned long long)down, nodes));
    } else {
        uint64_t issued = 0, completed = 0, samples = 0, measured = 0;
        size_t pairs = ranks[0].clientOfPair.size();
        for (size_t p = 0; p < pairs; ++p) {
            for (Rank &r : ranks) {
                const MutilateClient *c = r.clientOfPair[p];
                if (!c)
                    continue;
                const MutilateStats &st = c->stats();
                d.add(st.issued);
                d.add(st.completed);
                d.add(st.measured);
                d.add(static_cast<uint64_t>(st.latencyCycles.count()));
                for (double s : st.latencyCycles.samples())
                    d.add(s);
                issued += st.issued;
                completed += st.completed;
                measured += st.measured;
                samples += st.latencyCycles.count();
            }
        }
        const ShardPlan &plan = ranks[0].cluster->plan();
        for (uint32_t s = 0; s < plan.nSwitches; ++s)
            for (Rank &r : ranks)
                if (r.localSwitch[s] >= 0)
                    d.add(r.cluster->switchAt(r.localSwitch[s])
                              .stats()
                              .packetsIn.value());
        // Open-loop Poisson load at kQpsPerClient for the warmup plus
        // the measured window; the drain lets every request finish.
        double expect = kQpsPerClient * (kWarmupMs + kMeasureMs) / 1000.0 *
                        static_cast<double>(pairs);
        res.sanity.check(
            std::fabs(static_cast<double>(issued) - expect) < 0.05 * expect,
            csprintf("issued %llu requests, expected about %.0f",
                     (unsigned long long)issued, expect));
        res.sanity.check(completed == issued,
                         csprintf("completed %llu of %llu requests",
                                  (unsigned long long)completed,
                                  (unsigned long long)issued));
        res.sanity.check(
            samples == measured && samples > 0,
            csprintf("%llu latency samples for %llu measured requests",
                     (unsigned long long)samples,
                     (unsigned long long)measured));
        for (Rank &r : ranks)
            if (ShardTransport *t = r.cluster->shardTransport())
                res.sanity.check(!t->anyPeerLost(),
                                 "a shard peer was lost");
    }
    res.digest = d.h;
}

void
readCounters(std::vector<Rank> &ranks, Counters &c)
{
    c.rounds = ranks[0].cluster->fabric().round();
    for (Rank &r : ranks) {
        Cluster &clu = *r.cluster;
        for (size_t s = 0; s < clu.switchCount(); ++s)
            c.switchPackets += clu.switchAt(s).stats().packetsIn.value();
        for (size_t n = 0; n < clu.nodeCount(); ++n) {
            ServerBlade &b = clu.node(n).blade();
            c.bladeEvents += b.eventQueue().scheduledTotal();
            c.nicFrames += b.nic().stats().framesSent.value() +
                           b.nic().stats().framesReceived.value();
        }
        for (MutilateClient *m : r.clientOfPair)
            if (m)
                c.requestsCompleted += m->stats().completed;
        const SchedTelemetry &st = clu.fabric().schedTelemetry();
        if (clu.fabric().parallelHosts() > 1) {
            c.poolWorkers = clu.fabric().parallelHosts();
            c.poolBusyS += static_cast<double>(st.totalBusyNs()) / 1e9;
            c.poolMaxMeanBusy = std::max(c.poolMaxMeanBusy,
                                         st.maxMeanBusyRatio());
        }
        if (ShardTransport *t = clu.shardTransport()) {
            for (size_t p = 0; p < t->peerRanks().size(); ++p) {
                const ShardTransport::PeerStats &ps = t->peerStatsAt(p);
                c.transportStallS += static_cast<double>(ps.stallNs) / 1e9;
                c.transportBytesTx += ps.bytesTx;
                c.transportBatchesTx += ps.batchesTx;
            }
        }
        if (ClusterMonitor *m = clu.clusterMonitor()) {
            c.heartbeats += m->heartbeats();
            c.latencySamples += m->latencySamples();
        }
    }
}

/**
 * Build, launch, (run, verify,) tear down. Shard ranks run as threads
 * of this process joined by an AF_UNIX socketpair that the transport
 * upgrades to shared-memory rings; rank 0 is the calling thread.
 */
JobResult
runJob(const Workload &w, uint64_t seed, Mode mode,
       const std::string &state_dir)
{
    JobResult res;
    res.cycles = targetCycles(w);
    std::vector<Rank> ranks(w.shards);
    std::vector<std::unique_ptr<SpanTracer>> tracers;
    std::barrier<> sync(w.shards);
    Clock::time_point t0 = Clock::now(), t_run;

    std::vector<std::vector<std::pair<uint32_t, SocketFd>>> fds(w.shards);
    if (w.shards == 2) {
        auto [fd0, fd1] = localSocketPair();
        fds[0].emplace_back(1, std::move(fd0));
        fds[1].emplace_back(0, std::move(fd1));
    }
    for (uint32_t r = 0; r < w.shards; ++r)
        tracers.push_back(std::make_unique<SpanTracer>(r));

    auto side = [&](uint32_t rank) {
        Rank &r = ranks[rank];
        Clock::time_point tb = Clock::now();
        ClusterConfig cc = clusterConfig(w, seed, rank, state_dir);
        SwitchSpec topo =
            topologies::threeLevel(kAggs, kTorsPerAgg, kServersPerTor);
        if (w.shards > 1)
            r.cluster = std::make_unique<Cluster>(std::move(topo), cc,
                                                  std::move(fds[rank]));
        else
            r.cluster = std::make_unique<Cluster>(std::move(topo), cc);
        r.buildS = secondsSince(tb);
        Clock::time_point tl = Clock::now();
        indexLocalComponents(r);
        launchApps(r, w, seed);
        r.launchS = secondsSince(tl);
        if (mode == Mode::Traced)
            r.cluster->fabric().addObserver(tracers[rank].get());

        sync.arrive_and_wait(); // every rank set up
        if (rank == 0) {
            t_run = Clock::now();
            res.setupS = std::chrono::duration<double>(t_run - t0).count();
        }
        if (mode == Mode::Run) {
            // Timed in chunks, so that a run can take each chunk's
            // fastest time over its jobs (see robustRunS).
            Cycles chunk = r.cluster->fabric().quantum() * kChunkRounds;
            while (r.cluster->now() < res.cycles) {
                Clock::time_point tc = Clock::now();
                r.cluster->run(std::min(chunk, res.cycles - r.cluster->now()));
                if (rank == 0)
                    res.chunkS.push_back(secondsSince(tc));
            }
        } else if (mode == Mode::Traced) {
            r.cluster->run(res.cycles);
        } else if (mode == Mode::SetupOnly) {
            // One untimed round completes the shard transport's
            // handshake: a shared-memory link torn down before its first
            // round can leave the opening rank unable to attach (fatal).
            r.cluster->run(r.cluster->fabric().quantum());
        } else if (mode == Mode::Stepped) {
            Cycles q = r.cluster->fabric().quantum();
            while (r.cluster->now() < res.cycles) {
                Clock::time_point tr = Clock::now();
                r.cluster->run(q);
                r.roundNs.sample(secondsSince(tr) * 1e9);
            }
        }
        if (mode == Mode::Traced)
            tracers[rank]->finish();
        sync.arrive_and_wait(); // every rank done running
        if (rank == 0 && mode != Mode::SetupOnly) {
            // The other ranks wait at the next barrier, so their
            // clusters are quiescent while rank 0 reads them.
            res.runS = std::chrono::duration<double>(Clock::now() - t_run)
                           .count();
            verify(w, ranks, res);
            res.wallS = secondsSince(t0);
            readCounters(ranks, res.counters);
        }
        sync.arrive_and_wait(); // rank 0 has verified
        r.teardown();
    };

    std::thread peer;
    if (w.shards == 2)
        peer = std::thread(side, 1);
    side(0);
    if (peer.joinable())
        peer.join();

    for (const Rank &r : ranks) {
        res.buildS = std::max(res.buildS, r.buildS);
        res.launchS = std::max(res.launchS, r.launchS);
    }
    res.roundNs = std::move(ranks[0].roundNs);
    if (mode == Mode::Traced) {
        int64_t epoch = tracers[0]->firstRoundNs();
        for (auto &t : tracers) {
            SpanTracer::Totals tt = t->totals();
            res.trace.round += tt.round;
            res.trace.prepare += tt.prepare;
            res.trace.advance += tt.advance;
            res.trace.commit += tt.commit;
            res.trace.barrier += tt.barrier;
            res.trace.switchAdvance += tt.switchAdvance;
            res.trace.bladeAdvance += tt.bladeAdvance;
            t->appendChromeEvents(res.chromeEvents, epoch);
        }
    }
    return res;
}

// ---- Metrics and verification across jobs --------------------------------

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * A run region's host seconds, robust to other tenants of the host: the
 * sum over chunk positions of that chunk's fastest time over @p jobs.
 * Other load only ever adds time, so a burst of it counts only where it
 * hit every job at the same point of the run.
 */
double
robustRunS(const std::vector<JobResult> &jobs)
{
    double total = 0.0;
    for (size_t k = 0; k < jobs.front().chunkS.size(); ++k) {
        double fastest = jobs.front().chunkS[k];
        for (const JobResult &j : jobs)
            fastest = std::min(fastest, j.chunkS[k]);
        total += fastest;
    }
    return total;
}

std::string
hex(uint64_t v)
{
    return csprintf("%016llx", (unsigned long long)v);
}

/** Reference digest for (@p family, @p seed) from @p path, or "". */
std::string
referenceDigest(const std::string &path, const std::string &family,
                uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string fam, digest;
        uint64_t s = 0;
        if (fields >> fam >> s >> digest && fam == family && s == seed)
            return digest;
    }
    return "";
}

/**
 * Digest checks for one run: every job matches the run's first job,
 * the committed reference (when this seed has one), and the digest any
 * other workload of the same family recorded for this seed in
 * @p state_dir — the cross-workload equality check for seeds without a
 * reference.
 */
void
checkDigests(const Workload &w, uint64_t seed,
             const std::vector<JobResult> &jobs, const std::string &ref,
             const std::string &state_dir, Verdict &v)
{
    std::string first = hex(jobs.front().digest);
    for (size_t i = 1; i < jobs.size(); ++i)
        v.check(hex(jobs[i].digest) == first,
                csprintf("job %zu digest %s differs from job 0's %s", i,
                         hex(jobs[i].digest).c_str(), first.c_str()));
    if (!ref.empty())
        v.check(first == ref,
                csprintf("digest %s differs from reference %s",
                         first.c_str(), ref.c_str()));

    std::string path = csprintf("%s/digest-%s-seed%llu", state_dir.c_str(),
                                w.family, (unsigned long long)seed);
    std::ifstream in(path);
    std::string recorded, by;
    if (in >> recorded >> by) {
        v.check(first == recorded,
                csprintf("digest %s differs from %s's %s for this seed",
                         first.c_str(), by.c_str(), recorded.c_str()));
    } else {
        std::ofstream out(path);
        out << first << " " << w.name << "\n";
    }
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
resultJson(const Verdict &v, const std::vector<Metric> &metrics)
{
    std::string m;
    for (const Metric &x : metrics) {
        double val = std::isfinite(x.value) ? x.value : 0.0;
        m += csprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", x.name.c_str(), val,
                      x.unit.c_str());
    }
    return csprintf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {%s}}",
                    v.failed.empty() ? "true" : "false",
                    (unsigned long long)v.attempted,
                    (unsigned long long)v.failed.size(), m.c_str());
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    std::string stateDir = ".";
    std::string reference;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--state-dir DIR] [--reference FILE]\n"
                 "workloads: dc_memcached boot_idle dc_memcached_2w "
                 "dc_memcached_2shard\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string val = argv[++i];
        if (flag == "--workload")
            o.workload = val;
        else if (flag == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (flag == "--trace")
            o.trace = val == "1";
        else if (flag == "--state-dir")
            o.stateDir = val;
        else if (flag == "--reference")
            o.reference = val;
        else
            usage(("unknown flag " + flag).c_str());
    }
    return o;
}

// Setups measured per run at least, for the setup_s / build / launch
// medians (each job contributes one; SetupOnly jobs top up the rest).
constexpr size_t kMinSetups = 15;
// Jobs per untraced run at least, whatever --seconds says.
constexpr size_t kMinJobs = 3;

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            wp = &w;
    if (!wp)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    const Workload &w = *wp;
    std::string ref = referenceDigest(opt.reference, w.family, opt.seed);

    Clock::time_point t0 = Clock::now();
    std::vector<JobResult> jobs;
    // Histogram::percentile(50) is the median (midpoint for even counts).
    Histogram setups, builds, launches;
    auto record = [&](const JobResult &j) {
        setups.sample(j.setupS);
        builds.sample(j.buildS);
        launches.sample(j.launchS);
    };

    if (!opt.trace) {
        // Back-to-back closed jobs until the time is spent; a job starts
        // only if one more is expected to fit.
        do {
            jobs.push_back(runJob(w, opt.seed, Mode::Run, opt.stateDir));
            record(jobs.back());
        } while (jobs.size() < kMinJobs ||
                 secondsSince(t0) + jobs.back().wallS <= opt.seconds);
    } else {
        jobs.push_back(runJob(w, opt.seed, Mode::Stepped, opt.stateDir));
        record(jobs.back());
        jobs.push_back(runJob(w, opt.seed, Mode::Traced, opt.stateDir));
        record(jobs.back());
    }
    while (setups.count() < kMinSetups)
        record(runJob(w, opt.seed, Mode::SetupOnly, opt.stateDir));

    Verdict v;
    for (const JobResult &j : jobs)
        v.merge(j.sanity);
    checkDigests(w, opt.seed, jobs, ref, opt.stateDir, v);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        // A job's wall time is its run region (robustRunS) plus the
        // rest (set-up, verification) at its median over jobs.
        double run_s = robustRunS(jobs);
        Histogram rest;
        for (const JobResult &j : jobs)
            rest.sample(j.wallS - j.runS);
        metrics = {
            {"sim_rate_mhz",
             static_cast<double>(jobs.front().cycles) / run_s / 1e6, "MHz"},
            {"wall_s", run_s + rest.percentile(50), "s"},
            {"setup_s", setups.percentile(50), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        const JobResult &plain = jobs[0];
        const JobResult &traced = jobs[1];
        const Counters &c = plain.counters;
        const SpanTracer::Totals &t = traced.trace;
        double ranks = static_cast<double>(w.shards);
        // With a worker pool, its own busy accounting over the untraced
        // run; without one, each rank's driving thread's advance time
        // over the traced run.
        double busy = c.poolWorkers ? c.poolBusyS
                                    : t.switchAdvance + t.bladeAdvance;
        double workers = c.poolWorkers ? c.poolWorkers : ranks;
        double busy_run_s = c.poolWorkers ? plain.runS : traced.runS;
        double switch_ns = t.switchAdvance * 1e9;
        double blade_ns = t.bladeAdvance * 1e9;
        metrics = {
            {"manager.build_s", builds.percentile(50), "s"},
            {"apps.launch_s", launches.percentile(50), "s"},
            {"fabric.rounds", static_cast<double>(c.rounds), "count"},
            {"fabric.round_us_p50",
             plain.roundNs.percentileNearestRank(50) / 1e3, "us"},
            {"fabric.round_us_p99",
             plain.roundNs.percentileNearestRank(99) / 1e3, "us"},
            {"fabric.prepare_s", t.prepare, "s"},
            {"fabric.commit_s", t.commit, "s"},
            {"fabric.barrier_s", t.barrier, "s"},
            {"switch.advance_s", t.switchAdvance, "s"},
            {"switch.packets", static_cast<double>(c.switchPackets),
             "count"},
            {"switch.ns_per_packet",
             switch_ns / static_cast<double>(std::max<uint64_t>(
                             c.switchPackets, 1)),
             "ns"},
            {"blade.advance_s", t.bladeAdvance, "s"},
            {"blade.events", static_cast<double>(c.bladeEvents), "count"},
            {"blade.ns_per_event",
             blade_ns / static_cast<double>(std::max<uint64_t>(
                            c.bladeEvents, 1)),
             "ns"},
            {"nic.frames", static_cast<double>(c.nicFrames), "count"},
            {"apps.requests_completed",
             static_cast<double>(c.requestsCompleted), "count"},
            {"sched.busy_s", busy, "s"},
            {"sched.max_mean_busy",
             c.poolWorkers ? c.poolMaxMeanBusy : 1.0, "ratio"},
            {"sched.pool_util", busy / (workers * busy_run_s), "ratio"},
            {"transport.stall_frac",
             c.transportStallS / (ranks * plain.runS), "ratio"},
            {"transport.bytes_tx", static_cast<double>(c.transportBytesTx),
             "bytes"},
            {"transport.batches_tx",
             static_cast<double>(c.transportBatchesTx), "count"},
            {"monitor.heartbeats", static_cast<double>(c.heartbeats),
             "count"},
            {"monitor.latency_samples",
             static_cast<double>(c.latencySamples), "count"},
            {"trace.overhead_x", traced.wallS / plain.wallS, "x"},
        };
        std::printf("info transport.stall_s %.6f s (both ranks)\n",
                    c.transportStallS);
        std::printf("info trace round %.4f s, advance phase %.4f s, "
                    "traced run %.4f s, untraced run %.4f s\n",
                    t.round, t.advance, traced.runS, plain.runS);
        std::string path = opt.stateDir + "/trace-" + w.name + ".json";
        std::ofstream out(path);
        out << "{\"traceEvents\":[\n" << traced.chromeEvents << "\n]}\n";
        std::printf("info spans written to %s\n", path.c_str());
    }

    std::printf("workload %s seed %llu: %zu jobs, %zu setups, digest %s%s\n",
                w.name, (unsigned long long)opt.seed, jobs.size(),
                setups.count(), hex(jobs.front().digest).c_str(),
                ref.empty() ? " (no reference for this seed)"
                            : " (reference)");
    for (const JobResult &j : jobs)
        std::printf("job setup %.4f s, run %.4f s, wall %.4f s, "
                    "%.4f MHz\n",
                    j.setupS, j.runS, j.wallS,
                    static_cast<double>(j.cycles) / j.runS / 1e6);
    for (const std::string &f : v.failed)
        std::printf("VERIFY FAILED: %s\n", f.c_str());
    std::printf("verify_fail_frac %.6f (%zu of %llu checks failed)\n",
                static_cast<double>(v.failed.size()) /
                    static_cast<double>(v.attempted),
                v.failed.size(), (unsigned long long)v.attempted);
    for (const Metric &m : metrics)
        std::printf("metric %-24s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n", resultJson(v, metrics).c_str());
    std::fflush(stdout);
    return v.failed.empty() ? 0 : 1;
}
