/**
 * @file
 * Cluster snapshot assembly plus the crash-recovery run loop and
 * warm-boot forking declared in checkpoint.hh.
 */

#include "manager/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string_view>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "manager/cluster.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

std::string
stripHostTimingStats(std::string json)
{
    // Drop every `"name": value` entry whose name isHostTimingStat,
    // with the separator that joined it to its neighbour.
    size_t at = 0;
    while ((at = json.find('"', at)) != std::string::npos) {
        size_t close = at + 1;
        while (close < json.size() && json[close] != '"')
            close += json[close] == '\\' ? 2 : 1;
        if (close + 1 >= json.size())
            break;
        std::string_view name(json.data() + at + 1, close - at - 1);
        if (json[close + 1] != ':' || !isHostTimingStat(name)) {
            at = close + 1;
            continue;
        }
        size_t next = json.find(", \"", close);
        if (next != std::string::npos) {
            json.erase(at, next + 2 - at);
        } else {
            // Last entry: drop the separator in front of it instead.
            size_t stop = json.find('}', close);
            if (stop == std::string::npos)
                stop = json.size();
            size_t begin =
                at >= 2 && json.compare(at - 2, 2, ", ") == 0 ? at - 2 : at;
            json.erase(begin, stop - begin);
            at = begin;
        }
    }
    return json;
}

// ---- Cluster snapshot assembly --------------------------------------

namespace
{

/** @p component's snapshotSave bytes: what a section holds on save and
 *  what restore compares it with. */
template <typename Component>
std::string
sectionBytes(const Component &component)
{
    Serializer s;
    component.snapshotSave(s);
    return s.takeBytes();
}

/** The "plan" section: the owner map a snapshot was taken under. */
std::string
planBytes(uint64_t shards, const ShardPlan &plan)
{
    Serializer s;
    s.putU(shards);
    s.putU(plan.planHash);
    s.putU(plan.serverOwner.size());
    for (uint32_t o : plan.serverOwner)
        s.putU(o);
    return s.takeBytes();
}

/** "" when @p live reproduces section @p name's @p saved bytes, else
 *  where the two first differ. */
std::string
sectionDiff(const std::string &name, const std::string &saved,
            const std::string &live)
{
    if (saved == live)
        return "";
    size_t at = 0;
    size_t lim = std::min(saved.size(), live.size());
    while (at < lim && saved[at] == live[at])
        ++at;
    return csprintf("section '%s' diverges from snapshot at byte %zu "
                    "(snapshot %zu bytes, live %zu)",
                    name.c_str(), at, saved.size(), live.size());
}

/**
 * Open every rank file of the snapshot at @p path into @p readers,
 * whatever geometry wrote it: a 1-shard run wrote the bare path, any
 * distributed run wrote `<path>.rank<k>`. Returns "" or a diagnostic.
 */
std::string
openAllRankFiles(const std::string &path,
                 std::vector<SnapshotReader> &readers)
{
    SnapshotReader probe;
    std::string e0 = probe.open(path);
    if (!e0.empty()) {
        std::string e1 = probe.open(path + ".rank0");
        if (!e1.empty())
            return csprintf("%s: no snapshot found for any geometry "
                            "(%s; %s)", path.c_str(), e0.c_str(),
                            e1.c_str());
    }
    uint64_t old_shards = probe.header().shards;
    if (old_shards == 0)
        return csprintf("%s: snapshot header claims 0 shards",
                        path.c_str());

    readers.clear();
    readers.resize(old_shards);
    for (uint64_t k = 0; k < old_shards; ++k) {
        std::string file = snapshotRankPath(path, old_shards, k);
        std::string e = readers[k].open(file);
        if (!e.empty())
            return csprintf("restore needs all %llu rank files: %s",
                            (unsigned long long)old_shards, e.c_str());
        const SnapshotHeader &h = readers[k].header();
        if (h.shards != old_shards || h.rank != k)
            return csprintf("%s: header says rank %llu of %llu, "
                            "expected rank %llu of %llu", file.c_str(),
                            (unsigned long long)h.rank,
                            (unsigned long long)h.shards,
                            (unsigned long long)k,
                            (unsigned long long)old_shards);
    }
    return "";
}

} // namespace

uint64_t
Cluster::topoHash() const
{
    return plan_.topoHash;
}

std::string
Cluster::saveSnapshot(const std::string &path)
{
    if (path.empty())
        return "saveSnapshot: empty path";
    if (fabric_.now() % fabric_.quantum() != 0)
        return csprintf("saveSnapshot at cycle %llu: not a round "
                        "barrier (quantum %llu)",
                        (unsigned long long)fabric_.now(),
                        (unsigned long long)fabric_.quantum());

    SnapshotHeader hdr;
    hdr.topoHash = topoHash();
    hdr.shards = cfg.shard.shards;
    hdr.rank = cfg.shard.rank;
    hdr.round = fabric_.round();
    hdr.cycle = fabric_.now();
    SnapshotWriter w(hdr);

    auto add = [&w](const std::string &name, const auto &component) {
        w.addSection(name, sectionBytes(component));
    };

    // The owner map this snapshot was taken under. Restores under the
    // same plan also check the rank-local sections; any other plan
    // finds component and channel sections across rank files.
    w.addSection("plan", planBytes(cfg.shard.shards, plan_));

    // Fabric round state is plan-independent; the per-channel token
    // rings are keyed by global directed-link id so another plan can
    // find them. Each directed link's channel lives on exactly one
    // rank (the consumer side), so across a distributed snapshot every
    // "chan<N>" section appears exactly once.
    add("fabric", fabric_);
    for (size_t c = 0; c < fabric_.channelCount(); ++c)
        add(csprintf("chan%u", channelGlobalLink[c]), fabric_.channelAt(c));

    for (size_t i = 0; i < switches.size(); ++i)
        add(csprintf("switch%u", switchGlobal[i]), *switches[i]);
    for (size_t i = 0; i < nodes.size(); ++i) {
        add(csprintf("blade%u", nodeGlobal[i]), nodes[i]->blade());
        add(csprintf("os%u", nodeGlobal[i]), nodes[i]->os());
        add(csprintf("net%u", nodeGlobal[i]), nodes[i]->net());
    }
    if (injector_)
        add("fault", *injector_);
    if (monitor_)
        add("health", *monitor_);
    if (telemetry_) {
        if (telemetry_->sampler())
            add("autocounter", *telemetry_->sampler());
        // The full registry dump: a restored run must read back the
        // exact same values. The cluster.shard.* transport subtree is
        // host-timing-dependent (recv() chunk boundaries), so it is
        // filtered out.
        w.addSection("stats",
                     stripHostTimingStats(
                         telemetry_->registry().dumpJson(fabric_.now())));
    }
    if (transport_) {
        // The negotiated per-peer transport mix, recorded so a restore
        // can report what the original run used. Advisory only: results
        // are byte-identical across fabrics (the parity matrix in
        // tests/dist pins this), so restoring over a different mix is
        // legal and loadSnapshot merely warns.
        Serializer s;
        s.putU(transport_->peerRanks().size());
        for (size_t i = 0; i < transport_->peerRanks().size(); ++i) {
            s.putU(transport_->peerRanks()[i]);
            s.putU(static_cast<uint64_t>(
                transport_->peerLinkAt(i)->kind()));
        }
        w.addSection("transport", s.takeBytes());
    }

    return w.writeFile(
        snapshotRankPath(path, cfg.shard.shards, cfg.shard.rank));
}

std::string
Cluster::loadSnapshot(const std::string &path)
{
    // The rank files sections are compared against. When our own rank
    // file was written under this exact owner map it holds every
    // section this rank needs, rank-local ones included. Under any
    // other plan — different shard count, different owners at the same
    // count, or the other geometry's file layout — each local component
    // and channel section is found in whichever old rank file holds it.
    std::vector<SnapshotReader> readers(1);
    bool same_plan =
        readers[0]
            .open(snapshotRankPath(path, cfg.shard.shards, cfg.shard.rank))
            .empty() &&
        readers[0].header().shards == cfg.shard.shards &&
        readers[0].header().rank == cfg.shard.rank;
    std::string saved_plan;
    if (same_plan && readers[0].hasSection("plan")) {
        SnapshotErrors ignored;
        saved_plan = readers[0].section("plan", ignored);
        Deserializer d(saved_plan);
        d.getU(); // shard count, already checked via the header
        uint64_t saved_hash = d.getU();
        uint64_t owners = d.getU();
        for (uint64_t i = 0; i < owners && d.ok(); ++i)
            d.getU();
        if (!d.ok() || !d.atEnd())
            return csprintf("%s: malformed 'plan' section: %s",
                            path.c_str(),
                            d.ok() ? "trailing bytes" : d.error().c_str());
        same_plan = saved_hash == plan_.planHash;
    }
    if (!same_plan) {
        std::string e = openAllRankFiles(path, readers);
        if (!e.empty())
            return e;
    }

    for (const SnapshotReader &r : readers) {
        const SnapshotHeader &h = r.header();
        std::string file = snapshotRankPath(path, h.shards, h.rank);
        if (h.topoHash != topoHash())
            return csprintf("%s: topology/timing hash %016llx does not "
                            "match this cluster (%016llx) — different "
                            "topology or latencies (re-sharding only "
                            "changes the owner map)",
                            file.c_str(), (unsigned long long)h.topoHash,
                            (unsigned long long)topoHash());
        if (h.cycle != fabric_.now())
            return csprintf("%s: snapshot at cycle %llu but cluster is at "
                            "%llu — replay the run to the snapshot cycle "
                            "before restoring", file.c_str(),
                            (unsigned long long)h.cycle,
                            (unsigned long long)fabric_.now());
        if (h.round != readers[0].header().round)
            return csprintf("%s: barrier mismatch (round %llu) — the "
                            "per-rank files are not from the same "
                            "snapshot", file.c_str(),
                            (unsigned long long)h.round);
    }

    // Deterministic replay brought this cluster to the barrier, so its
    // state must already be the saved state: every section is checked
    // by re-serializing the live component and comparing bytes. Nothing
    // from the file is written back.
    SnapshotErrors err;
    auto compare = [&err](const std::string &name, const std::string &saved,
                          const std::string &live) {
        std::string diff = sectionDiff(name, saved, live);
        if (!diff.empty())
            err.add(std::move(diff));
    };
    // Compare @p component with whichever rank file holds @p name.
    auto check = [&](const std::string &name, const auto &component) {
        for (const SnapshotReader &rd : readers) {
            if (rd.hasSection(name)) {
                compare(name, rd.section(name, err),
                        sectionBytes(component));
                return;
            }
        }
        err.add(csprintf("section '%s' missing from every rank file "
                         "— snapshot predates re-shardable format?",
                         name.c_str()));
    };

    // Fabric round state is identical across ranks by construction
    // (same barrier); the first file's copy serves them all.
    check("fabric", fabric_);
    for (size_t c = 0; c < fabric_.channelCount(); ++c)
        check(csprintf("chan%u", channelGlobalLink[c]),
              fabric_.channelAt(c));
    for (size_t i = 0; i < switches.size(); ++i)
        check(csprintf("switch%u", switchGlobal[i]), *switches[i]);
    for (size_t i = 0; i < nodes.size(); ++i) {
        check(csprintf("blade%u", nodeGlobal[i]), nodes[i]->blade());
        check(csprintf("os%u", nodeGlobal[i]), nodes[i]->os());
        check(csprintf("net%u", nodeGlobal[i]), nodes[i]->net());
    }

    // Rank-local sections — plan, fault, health, autocounter, stats,
    // transport — partition differently under another plan; the
    // re-shard parity tests pin that the continued run is
    // byte-identical to an uninterrupted one.
    if (!same_plan)
        return err.str();
    SnapshotReader &r = readers[0];
    compare("plan", saved_plan, planBytes(cfg.shard.shards, plan_));

    // Each rank-local section is present exactly when this cluster has
    // the component; @p setup says how to attach a missing one.
    auto checkLocal = [&](const char *name, const auto *component,
                          const char *setup) {
        if ((component != nullptr) != r.hasSection(name))
            err.add(component
                        ? csprintf("cluster has a %s component but the "
                                   "snapshot has no '%s' section",
                                   name, name)
                        : csprintf("snapshot has a '%s' section but this "
                                   "cluster has none — %s",
                                   name, setup));
        else if (component)
            check(name, *component);
    };
    checkLocal("fault", injector_.get(), "call injectFaults first");
    checkLocal("health", monitor_.get(), "call health() first");
    checkLocal("autocounter",
               telemetry_ ? telemetry_->sampler() : nullptr,
               "configure an AutoCounter sample period");

    // Transport mix is advisory: a snapshot taken over shm restores
    // fine over TCP (and vice versa) because the simulation surface is
    // transport-independent. Resume re-establishes whatever mix this
    // relaunch negotiated; a difference is only worth a warning.
    if (transport_ && r.hasSection("transport")) {
        SnapshotErrors ignored;
        Deserializer d(r.section("transport", ignored));
        uint64_t n = d.getU();
        for (uint64_t i = 0; d.ok() && i < n; ++i) {
            uint32_t peer = static_cast<uint32_t>(d.getU());
            auto saved = static_cast<TransportKind>(d.getU());
            if (!d.ok())
                break;
            const auto &pranks = transport_->peerRanks();
            for (size_t p = 0; p < pranks.size(); ++p) {
                if (pranks[p] != peer)
                    continue;
                TransportKind live = transport_->peerLinkAt(p)->kind();
                if (live != saved)
                    warn("snapshot reached peer rank %u via %s, this "
                         "run uses %s (legal: results are transport-"
                         "independent)", peer, transportKindName(saved),
                         transportKindName(live));
            }
        }
    }

    // The stat dump, filtered the same way on save, must reproduce the
    // saved one exactly.
    if (telemetry_ && r.hasSection("stats"))
        compare("stats", r.section("stats", err),
                stripHostTimingStats(
                    telemetry_->registry().dumpJson(fabric_.now())));

    return err.str();
}

// ---- Signal plumbing ------------------------------------------------

namespace
{

volatile std::sig_atomic_t g_termSignal = 0;

void
onTermSignal(int)
{
    g_termSignal = 1;
}

} // namespace

void
CheckpointManager::installSignalHandlers()
{
    // No SA_RESTART: a blocked poll/read should wake so the run loop
    // reaches the next barrier promptly (the socket layer retries
    // EINTR with its remaining-deadline bookkeeping).
    struct sigaction sa = {};
    sa.sa_handler = onTermSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

bool
CheckpointManager::signalPending()
{
    return g_termSignal != 0;
}

void
CheckpointManager::clearSignal()
{
    g_termSignal = 0;
}

// ---- CheckpointManager ----------------------------------------------

CheckpointManager::CheckpointManager(Cluster &cluster,
                                     CheckpointOptions opts)
    : clu(cluster), opt(std::move(opts))
{
    if (opt.everyRounds && opt.path.empty())
        fatal("checkpoint-every set but no checkpoint path given");
}

std::string
CheckpointManager::writeCheckpoint()
{
    std::string e = clu.saveSnapshot(opt.path);
    if (e.empty()) {
        ++written;
        // Feed the observability plane: checkpoint age in heartbeats.
        if (clu.clusterMonitor())
            clu.clusterMonitor()->noteCheckpoint(clu.now());
    } else {
        warn("checkpoint failed: %s", e.c_str());
    }
    return e;
}

bool
CheckpointManager::run(Cycles cycles)
{
    Cycles quantum = clu.fabric().quantum();
    // Poll the signal flag at checkpoint granularity, or every 64
    // rounds when periodic checkpointing is off — cheap either way.
    Cycles chunk =
        (opt.everyRounds ? opt.everyRounds : 64) * quantum;
    Cycles done = 0;
    while (done < cycles) {
        if (signalPending()) {
            interrupted_ = true;
            if (!opt.path.empty())
                writeCheckpoint();
            if (clu.telemetry())
                clu.telemetry()->dumpAtExit(clu.now());
            return false;
        }
        Cycles step = std::min(cycles - done, chunk);
        clu.run(step);
        done += step;
        if (opt.everyRounds && step == chunk && done < cycles)
            writeCheckpoint();
    }
    return true;
}

// ---- Convenience wrappers -------------------------------------------

bool
snapshotExists(const Cluster &cluster, const std::string &path)
{
    const ClusterConfig &cfg = cluster.config();
    std::string file =
        snapshotRankPath(path, cfg.shard.shards, cfg.shard.rank);
    if (::access(file.c_str(), F_OK) == 0)
        return true;
    // A snapshot written under another geometry is still restorable
    // (re-sharding): probe the two possible rank-0 spellings.
    return ::access(path.c_str(), F_OK) == 0 ||
           ::access((path + ".rank0").c_str(), F_OK) == 0;
}

std::string
resumeFromSnapshot(Cluster &cluster, const std::string &path)
{
    const ClusterConfig &cfg = cluster.config();
    // Any readable header names the barrier cycle — our own rank file
    // when the plan matches, else the old geometry's rank-0 file.
    SnapshotReader r;
    std::string file =
        snapshotRankPath(path, cfg.shard.shards, cfg.shard.rank);
    std::string e = r.open(file);
    if (!e.empty()) {
        std::string e1 = r.open(path);
        if (!e1.empty() && r.open(path + ".rank0") != "")
            return e;
    }
    Cycles target = r.header().cycle;
    if (cluster.now() > target)
        return csprintf("%s: snapshot at cycle %llu but the cluster "
                        "has already run to %llu — resume needs a "
                        "freshly built cluster",
                        file.c_str(), (unsigned long long)target,
                        (unsigned long long)cluster.now());
    if (cluster.now() < target)
        cluster.run(target - cluster.now());
    return cluster.loadSnapshot(path);
}

bool
runWithCheckpoints(Cluster &cluster, Cycles cycles,
                   const std::string &path, uint64_t every_rounds)
{
    CheckpointManager::installSignalHandlers();
    CheckpointOptions opts;
    opts.path = path;
    opts.everyRounds = every_rounds;
    CheckpointManager mgr(cluster, opts);
    return mgr.run(cycles);
}

// ---- Warm-boot scenario forking -------------------------------------

std::vector<int>
runScenarioForks(Cluster &cluster, uint32_t forks,
                 const std::function<int(uint32_t)> &scenario)
{
    const ClusterConfig &cfg = cluster.config();
    if (cfg.shard.shards > 1)
        fatal("warm-boot forking needs single-process mode (peer "
              "shard sockets cannot be shared across forks)");
    if (cfg.parallelHosts != 1)
        fatal("warm-boot forking needs parallelHosts == 1 (fork only "
              "carries the calling thread)");

    std::vector<pid_t> pids;
    pids.reserve(forks);
    for (uint32_t k = 0; k < forks; ++k) {
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", strerror(errno));
        if (pid == 0) {
            // The child inherits the booted cluster byte-for-byte.
            // _exit skips destructors so the parent keeps sole
            // ownership of telemetry dumps and shared fds.
            int rc = scenario(k);
            ::_exit(rc & 0xff);
        }
        pids.push_back(pid);
    }

    std::vector<int> results;
    results.reserve(forks);
    for (pid_t pid : pids) {
        int status = 0;
        pid_t got;
        do {
            got = ::waitpid(pid, &status, 0);
        } while (got < 0 && errno == EINTR);
        if (got < 0)
            fatal("waitpid(%d): %s", (int)pid, strerror(errno));
        if (WIFEXITED(status))
            results.push_back(WEXITSTATUS(status));
        else
            results.push_back(128 + WTERMSIG(status));
    }
    return results;
}

} // namespace firesim
