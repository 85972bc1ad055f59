#include "telemetry/monitor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "net/remote/shard_transport.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/telemetry.hh"

namespace firesim
{

ClusterMonitor::ClusterMonitor(MonitorConfig config, uint32_t rank,
                               uint32_t shards)
    : cfg(std::move(config)), rank_(rank), shards_(shards)
{
    if (cfg.heartbeatPath.empty())
        cfg.heartbeatPath = "heartbeat.jsonl";
    epoch = Clock::now();
    lastHeartbeatAt = epoch;
    lastStatusAt = epoch;
    if (cfg.heartbeatEvery != 0) {
        // A crashed run's heartbeat trail is exactly what a postmortem
        // wants to read; opening with "wb" would truncate it. Rotate a
        // non-empty leftover to `.prev` so a re-run keeps one
        // generation of history.
        if (std::FILE *old = std::fopen(cfg.heartbeatPath.c_str(), "rb")) {
            std::fseek(old, 0, SEEK_END);
            long size = std::ftell(old);
            std::fclose(old);
            if (size > 0)
                std::rename(cfg.heartbeatPath.c_str(),
                            (cfg.heartbeatPath + ".prev").c_str());
        }
        heartbeatFile = std::fopen(cfg.heartbeatPath.c_str(), "wb");
        if (!heartbeatFile)
            warn("monitor: cannot open heartbeat file '%s'; heartbeats "
                 "go unrecorded",
                 cfg.heartbeatPath.c_str());
    }
}

ClusterMonitor::~ClusterMonitor()
{
    if (heartbeatFile)
        std::fclose(heartbeatFile);
}

void
ClusterMonitor::onAttach(TokenFabric &fabric_ref)
{
    fabric = &fabric_ref;
}

void
ClusterMonitor::onRoundStart(Cycles round_start, uint64_t round)
{
    (void)round_start;
    uint64_t stride = cfg.latencySampleEvery ? cfg.latencySampleEvery : 1;
    samplingThisRound = round % stride == 0;
    if (samplingThisRound)
        roundT0 = Clock::now();
}

void
ClusterMonitor::onRoundEnd(Cycles round_start, uint64_t round)
{
    // The un-sampled path is the per-round cost of a monitored run:
    // one modulo (onRoundStart) and one branch per check below.
    if (samplingThisRound) {
        auto now = Clock::now();
        uint64_t dt = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - roundT0)
                .count());
        // EWMA with integer arithmetic: the newest sample weighs
        // kEwmaWeight / 256 (about 0.2).
        ewmaNs = ewmaNs == 0 ? dt
                             : (ewmaNs * (256 - kEwmaWeight) +
                                dt * kEwmaWeight) / 256;
        ++sampleCount;

        // Straggler detection rides the latency sampling stride, not
        // the heartbeat cadence: a run with heartbeats off (or set
        // very sparse) still latches stragglers promptly.
        detectStragglers(rankLatencies(), round, round_start);

        // The status line's wall-clock cadence is checked on sampled
        // rounds only — it fires every statusIntervalSec seconds, so
        // a stride of microseconds cannot meaningfully delay it.
        if (cfg.statusIntervalSec != 0) {
            auto since =
                std::chrono::duration_cast<std::chrono::seconds>(
                    now - lastStatusAt)
                    .count();
            if (static_cast<uint64_t>(since) >= cfg.statusIntervalSec) {
                lastStatusAt = now;
                double host_s =
                    std::chrono::duration<double>(now - epoch).count();
                double mhz =
                    host_s > 0.0
                        ? static_cast<double>(round_start) / host_s / 1e6
                        : 0.0;
                statusLine(round_start, round, mhz, rankLatencies());
            }
        }
    }

    if (cfg.heartbeatEvery != 0 && (round + 1) % cfg.heartbeatEvery == 0) {
        Cycles round_end = round_start + (fabric ? fabric->quantum() : 0);
        emitHeartbeat(round_start, round, round_end);
    }
}

std::vector<ClusterMonitor::RankLatency>
ClusterMonitor::rankLatencies() const
{
    std::vector<RankLatency> out;
    out.push_back(RankLatency{rank_, ewmaNs, true});
    if (transport_) {
        const auto &ranks = transport_->peerRanks();
        for (size_t i = 0; i < ranks.size(); ++i) {
            const auto &ps = transport_->peerStatsAt(i);
            out.push_back(
                RankLatency{ranks[i], ps.peerRoundNs, ps.alive});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const RankLatency &a, const RankLatency &b) {
                  return a.rank < b.rank;
              });
    return out;
}

uint64_t
ClusterMonitor::channelOccupancy(Cycles round_end) const
{
    if (!fabric)
        return 0;
    // Endpoints the fabric did not step leave their channels behind;
    // count each as if both sides had caught up, so the value does not
    // depend on which endpoints were due.
    uint64_t sum = 0;
    for (size_t i = 0; i < fabric->channelCount(); ++i) {
        const TokenChannel &chan = fabric->channelAt(i);
        sum += fabric->channelIsRemoteRx(i) ? chan.depth()
                                            : chan.depthAt(round_end);
    }
    return sum;
}

uint64_t
ClusterMonitor::totalStallNs() const
{
    if (!transport_)
        return 0;
    uint64_t sum = 0;
    for (size_t i = 0; i < transport_->peerRanks().size(); ++i)
        sum += transport_->peerStatsAt(i).stallNs;
    return sum;
}

void
ClusterMonitor::detectStragglers(const std::vector<RankLatency> &lat,
                                 uint64_t round, Cycles cycle)
{
    // A dead rank is not a straggler — unlatch it so the
    // firesim_stragglers gauge tracks live laggards only (a revived
    // rank may re-latch later).
    latchedStragglers.erase(
        std::remove_if(latchedStragglers.begin(), latchedStragglers.end(),
                       [&lat](uint32_t r) {
                           for (const auto &rl : lat)
                               if (rl.rank == r)
                                   return !rl.alive;
                           return false;
                       }),
        latchedStragglers.end());

    // Median over every rank with a sample (a peer that has not yet
    // reported shows 0 and is excluded; so is a dead one).
    std::vector<uint64_t> samples;
    for (const auto &rl : lat)
        if (rl.alive && rl.latencyNs != 0)
            samples.push_back(rl.latencyNs);
    if (samples.size() < 2)
        return; // nothing to compare against
    std::sort(samples.begin(), samples.end());
    uint64_t median = samples[samples.size() / 2];
    if (median == 0)
        return;
    for (const auto &rl : lat) {
        if (!rl.alive || rl.latencyNs == 0)
            continue;
        if (static_cast<double>(rl.latencyNs) <=
            cfg.stragglerFactor * static_cast<double>(median))
            continue;
        if (std::find(latchedStragglers.begin(), latchedStragglers.end(),
                      rl.rank) != latchedStragglers.end())
            continue; // already latched; fire once per rank
        latchedStragglers.push_back(rl.rank);
        std::sort(latchedStragglers.begin(), latchedStragglers.end());
        if (stragglerSink)
            stragglerSink(rl.rank, rl.latencyNs, median, round, cycle);
    }
}

std::string
ClusterMonitor::heartbeatJson(Cycles cycle, uint64_t round,
                              const std::vector<RankLatency> &lat,
                              double sim_mhz, uint64_t occupancy,
                              uint64_t stall_ns) const
{
    std::string shards;
    for (const auto &rl : lat) {
        if (!shards.empty())
            shards += ", ";
        shards += csprintf(
            "{\"rank\": %u, \"round_latency_ns\": %llu, "
            "\"alive\": %s}",
            rl.rank, (unsigned long long)rl.latencyNs,
            rl.alive ? "true" : "false");
    }
    std::string stragglers;
    for (uint32_t r : latchedStragglers) {
        if (!stragglers.empty())
            stragglers += ", ";
        stragglers += csprintf("%u", r);
    }
    uint64_t health = healthEventsFn ? healthEventsFn() : 0;
    return csprintf(
        "{\"cycle\": %llu, \"round\": %llu, \"rank\": %u, "
        "\"shards\": %u, \"sim_mhz\": %.6g, "
        "\"round_latency_ns\": %llu, \"barrier_stall_ns\": %llu, "
        "\"channel_occupancy\": %llu, \"health_events\": %llu, "
        "\"live_peers\": %zu, "
        "\"per_shard\": [%s], \"stragglers\": [%s]}",
        (unsigned long long)cycle, (unsigned long long)round, rank_,
        shards_, sim_mhz, (unsigned long long)ewmaNs,
        (unsigned long long)stall_ns, (unsigned long long)occupancy,
        (unsigned long long)health,
        transport_ ? transport_->livePeers() : 0, shards.c_str(),
        stragglers.c_str());
}

std::string
ClusterMonitor::prometheusText(Cycles cycle,
                               const std::vector<RankLatency> &lat,
                               double sim_mhz, uint64_t occupancy,
                               uint64_t stall_ns) const
{
    std::string out;
    out += "# TYPE firesim_sim_cycle counter\n";
    out += csprintf("firesim_sim_cycle{rank=\"%u\"} %llu\n", rank_,
                    (unsigned long long)cycle);
    out += "# TYPE firesim_sim_rate_mhz gauge\n";
    out += csprintf("firesim_sim_rate_mhz{rank=\"%u\"} %.6g\n", rank_,
                    sim_mhz);
    out += "# TYPE firesim_round_latency_ns gauge\n";
    for (const auto &rl : lat) {
        if (!rl.alive)
            continue;
        out += csprintf(
            "firesim_round_latency_ns{rank=\"%u\",reported_by=\"%u\"} "
            "%llu\n",
            rl.rank, rank_, (unsigned long long)rl.latencyNs);
    }
    out += "# TYPE firesim_barrier_stall_ns counter\n";
    out += csprintf("firesim_barrier_stall_ns{rank=\"%u\"} %llu\n",
                    rank_, (unsigned long long)stall_ns);
    out += "# TYPE firesim_channel_occupancy gauge\n";
    out += csprintf("firesim_channel_occupancy{rank=\"%u\"} %llu\n",
                    rank_, (unsigned long long)occupancy);
    out += "# TYPE firesim_health_events counter\n";
    out += csprintf("firesim_health_events{rank=\"%u\"} %llu\n", rank_,
                    (unsigned long long)(healthEventsFn ? healthEventsFn()
                                                        : 0));
    out += "# TYPE firesim_live_peers gauge\n";
    out += csprintf("firesim_live_peers{rank=\"%u\"} %zu\n", rank_,
                    transport_ ? transport_->livePeers() : 0);
    out += "# TYPE firesim_stragglers gauge\n";
    out += csprintf("firesim_stragglers{rank=\"%u\"} %zu\n", rank_,
                    latchedStragglers.size());
    return out;
}

void
ClusterMonitor::statusLine(Cycles cycle, uint64_t round, double sim_mhz,
                           const std::vector<RankLatency> &lat)
{
    std::string peers;
    if (shards_ > 1) {
        size_t alive = 0;
        for (const auto &rl : lat)
            alive += rl.alive ? 1 : 0;
        peers = csprintf(", %zu/%u shards up", alive, shards_);
    }
    std::string stragglers;
    if (!latchedStragglers.empty())
        stragglers =
            csprintf(", %zu straggler(s)", latchedStragglers.size());
    // Straight to stderr, not inform(): the default log level is Warn,
    // and a progress line the user explicitly asked for with
    // --status-interval must not be silenced by it.
    std::fprintf(stderr,
                 "status: cycle %llu, round %llu, %.2f MHz, round "
                 "latency %llu ns%s%s\n",
                 (unsigned long long)cycle, (unsigned long long)round,
                 sim_mhz, (unsigned long long)ewmaNs, peers.c_str(),
                 stragglers.c_str());
}

void
ClusterMonitor::emitHeartbeat(Cycles cycle, uint64_t round,
                              Cycles round_end)
{
    auto now = Clock::now();
    // Sim rate over the heartbeat window; the first heartbeat rates
    // from monitor creation, and a zero-wall-time window reads 0
    // rather than dividing by it.
    double host_s = std::chrono::duration<double>(
                        now - (firstHeartbeat ? epoch : lastHeartbeatAt))
                        .count();
    Cycles cycles = cycle - (firstHeartbeat ? 0 : lastHeartbeatCycle);
    double sim_mhz =
        host_s > 0.0 ? static_cast<double>(cycles) / host_s / 1e6 : 0.0;
    firstHeartbeat = false;
    lastHeartbeatAt = now;
    lastHeartbeatCycle = cycle;
    ++heartbeatCount;

    auto lat = rankLatencies();
    detectStragglers(lat, round, cycle);
    uint64_t occupancy = channelOccupancy(round_end);
    uint64_t stall_ns = totalStallNs();

    if (heartbeatFile) {
        std::string line =
            heartbeatJson(cycle, round, lat, sim_mhz, occupancy,
                          stall_ns);
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), heartbeatFile);
        std::fflush(heartbeatFile);
    }

    if (!cfg.metricsPath.empty()) {
        std::string err = atomicWriteFile(
            cfg.metricsPath,
            prometheusText(cycle, lat, sim_mhz, occupancy, stall_ns),
            "metrics");
        if (!err.empty())
            warn("monitor: %s", err.c_str());
    }
}

} // namespace firesim
