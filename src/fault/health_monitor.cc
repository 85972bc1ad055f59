#include "fault/health_monitor.hh"

#include "base/logging.hh"
#include "base/table.hh"
#include "snapshot/state_io.hh"

namespace firesim
{

const char *
faultKindName(FaultEvent::Kind kind)
{
    switch (kind) {
      case FaultEvent::Kind::BatchStall: return "batch-stall";
      case FaultEvent::Kind::BatchNonContiguous:
        return "batch-non-contiguous";
      case FaultEvent::Kind::StaleBatch: return "stale-batch";
      case FaultEvent::Kind::ChannelUnderflow: return "channel-underflow";
      case FaultEvent::Kind::ChannelOccupancy: return "channel-occupancy";
      case FaultEvent::Kind::EndpointDegraded: return "endpoint-degraded";
      case FaultEvent::Kind::NodeCrash: return "node-crash";
      case FaultEvent::Kind::NodeRestart: return "node-restart";
      case FaultEvent::Kind::PortDown: return "port-down";
      case FaultEvent::Kind::PortRestored: return "port-restored";
      case FaultEvent::Kind::PayloadDrop: return "payload-drop";
      case FaultEvent::Kind::FlitCorrupt: return "flit-corrupt";
      case FaultEvent::Kind::FlitDelay: return "flit-delay";
      case FaultEvent::Kind::PeerShardLost: return "peer-shard-lost";
      case FaultEvent::Kind::StragglerDetected: return "straggler-detected";
      case FaultEvent::Kind::kCount: break;
    }
    return "unknown";
}

std::string
FaultEvent::str() const
{
    std::string where;
    if (!endpoint.empty()) {
        where = endpoint;
        if (port >= 0)
            where += csprintf(":%d", port);
    } else if (!channel.empty()) {
        where = channel;
    }
    std::string out = csprintf("[%s] round %llu cycle %llu",
                               faultKindName(kind),
                               (unsigned long long)round,
                               (unsigned long long)cycle);
    if (!where.empty())
        out += " at " + where;
    if (!channel.empty() && !endpoint.empty())
        out += " (" + channel + ")";
    if (!detail.empty())
        out += ": " + detail;
    return out;
}

HealthMonitor::HealthMonitor(TokenFabric &fabric, HealthConfig config)
    : fab(fabric), cfg(config)
{
    eps.resize(fab.endpointCount());
    fab.addObserver(this);
}

void
HealthMonitor::record(FaultEvent event)
{
    ++counts[static_cast<size_t>(event.kind)];
    if (cfg.logEvents)
        warn("health: %s", event.str().c_str());
    if (log.size() < kMaxEvents)
        log.push_back(std::move(event));
}

uint64_t
HealthMonitor::count(FaultEvent::Kind kind) const
{
    return counts[static_cast<size_t>(kind)].value();
}

uint64_t
HealthMonitor::totalEvents() const
{
    uint64_t total = 0;
    for (const Counter &c : counts)
        total += c.value();
    return total;
}

bool
HealthMonitor::isDegraded(size_t idx) const
{
    return idx < eps.size() && eps[idx].degraded;
}

size_t
HealthMonitor::degradedCount() const
{
    size_t n = 0;
    for (const auto &ep : eps)
        n += ep.degraded ? 1 : 0;
    return n;
}

uint64_t
HealthMonitor::roundsAdvanced(size_t idx) const
{
    return idx < eps.size() ? eps[idx].roundsAdvanced : 0;
}

void
HealthMonitor::onRoundStart(Cycles round_start, uint64_t round)
{
    curRound = round;
    curRoundStart = round_start;
    for (auto &ep : eps) {
        ep.badThisRound = false;
        ep.skippedThisRound = false;
    }
}

bool
HealthMonitor::endpointDown(size_t endpoint_idx, Cycles round_start)
{
    (void)round_start;
    return isDegraded(endpoint_idx);
}

void
HealthMonitor::onEndpointSkipped(size_t endpoint_idx, Cycles round_start)
{
    (void)round_start;
    if (endpoint_idx < eps.size()) {
        ++eps[endpoint_idx].roundsSkipped;
        eps[endpoint_idx].skippedThisRound = true;
    }
}

bool
HealthMonitor::onAnomaly(Anomaly kind, size_t endpoint_idx, uint32_t port,
                         size_t channel_idx, Cycles round_start,
                         const TokenBatch &batch)
{
    FaultEvent ev;
    ev.round = curRound;
    ev.cycle = round_start;
    ev.endpoint = fab.endpointAt(endpoint_idx).name();
    ev.port = static_cast<int>(port);
    ev.channel = fab.channelAt(channel_idx).label();

    bool producer_fault = false;
    switch (kind) {
      case Anomaly::BadLength:
        ev.kind = FaultEvent::Kind::BatchStall;
        ev.detail = csprintf("produced a %u-cycle batch for a %llu-cycle "
                             "quantum",
                             batch.len,
                             (unsigned long long)fab.quantum());
        producer_fault = true;
        break;
      case Anomaly::NonContiguous:
        ev.kind = FaultEvent::Kind::BatchNonContiguous;
        ev.detail = csprintf("batch start %llu does not extend the "
                             "stream",
                             (unsigned long long)batch.start);
        producer_fault = true;
        break;
      case Anomaly::StaleBatch:
        ev.kind = FaultEvent::Kind::StaleBatch;
        ev.detail = csprintf("input batch for cycle %llu in window %llu",
                             (unsigned long long)batch.start,
                             (unsigned long long)round_start);
        break;
      case Anomaly::ChannelUnderflow:
        ev.kind = FaultEvent::Kind::ChannelUnderflow;
        ev.detail = "no batch ready; substituting empty tokens";
        break;
    }
    record(std::move(ev));

    if (producer_fault && endpoint_idx < eps.size()) {
        EndpointHealth &ep = eps[endpoint_idx];
        ++ep.anomalies;
        ep.badThisRound = true;
    }
    return true;
}

void
HealthMonitor::onRoundEnd(Cycles round_start, uint64_t round)
{
    (void)round;
    for (size_t i = 0; i < eps.size(); ++i) {
        EndpointHealth &ep = eps[i];
        if (!ep.degraded && !ep.badThisRound && !ep.skippedThisRound)
            ++ep.roundsAdvanced;
        if (ep.badThisRound) {
            ++ep.consecutiveBad;
            if (!ep.degraded && ep.consecutiveBad > cfg.stallRoundBudget) {
                ep.degraded = true;
                FaultEvent ev;
                ev.kind = FaultEvent::Kind::EndpointDegraded;
                ev.round = curRound;
                ev.cycle = round_start;
                ev.endpoint = fab.endpointAt(i).name();
                ev.detail = csprintf(
                    "%u consecutive bad rounds exceed the stall budget "
                    "of %u; degraded to empty-token emission",
                    ep.consecutiveBad, cfg.stallRoundBudget);
                record(std::move(ev));
            }
        } else {
            ep.consecutiveBad = 0;
        }
    }

    // Token-deadlock watch: in the decoupled steady state every channel
    // holds exactly latency/quantum batches at round end. A deviation
    // means tokens were lost or duplicated somewhere upstream.
    if (occupancyFlagged.size() != fab.channelCount())
        occupancyFlagged.assign(fab.channelCount(), false);
    for (size_t c = 0; c < fab.channelCount(); ++c) {
        TokenChannel &chan = fab.channelAt(c);
        // A remote RX channel is legitimately one batch short here:
        // its refill arrives in the round barrier, after this hook.
        size_t expected =
            chan.expectedDepth() - (fab.channelIsRemoteRx(c) ? 1 : 0);
        bool off = chan.depth() != expected;
        if (off && !occupancyFlagged[c]) {
            FaultEvent ev;
            ev.kind = FaultEvent::Kind::ChannelOccupancy;
            ev.round = curRound;
            ev.cycle = round_start;
            ev.channel = chan.label();
            ev.detail = csprintf("%zu batches in flight, expected %zu",
                                 chan.depth(), expected);
            record(std::move(ev));
        }
        occupancyFlagged[c] = off;
    }
}

std::string
HealthMonitor::report() const
{
    std::string out = "Fabric health report\n";
    Table kinds({"Event kind", "Count"});
    for (size_t k = 0; k < counts.size(); ++k) {
        if (counts[k].value() == 0)
            continue;
        kinds.addRow({faultKindName(static_cast<FaultEvent::Kind>(k)),
                      Table::fmt(counts[k].value(), 0)});
    }
    if (totalEvents() == 0) {
        out += "  no fault events recorded; all endpoints healthy\n";
        return out;
    }
    out += kinds.render();

    Table ep({"Endpoint", "Rounds ok", "Skipped", "Anomalies", "State"});
    for (size_t i = 0; i < eps.size(); ++i) {
        const EndpointHealth &h = eps[i];
        if (h.roundsSkipped == 0 && h.anomalies == 0 && !h.degraded)
            continue;
        ep.addRow({fab.endpointAt(i).name(),
                   Table::fmt(h.roundsAdvanced, 0),
                   Table::fmt(h.roundsSkipped, 0),
                   Table::fmt(h.anomalies, 0),
                   h.degraded ? "DEGRADED" : "ok"});
    }
    out += ep.render();
    return out;
}

// ---- State image ----------------------------------------------------

void
HealthMonitor::snapshotSave(Serializer &s) const
{
    s.putU(curRound);
    s.putU(curRoundStart);
    for (const Counter &c : counts)
        saveCounter(s, c);
    s.putU(log.size());
    for (const FaultEvent &e : log) {
        s.putU(static_cast<uint64_t>(e.kind));
        s.putU(e.round);
        s.putU(e.cycle);
        s.putStr(e.endpoint);
        s.putI(e.port);
        s.putStr(e.channel);
        s.putStr(e.detail);
    }
    s.putU(eps.size());
    for (const EndpointHealth &h : eps) {
        s.putU(h.roundsAdvanced);
        s.putU(h.roundsSkipped);
        s.putU(h.anomalies);
        s.putU(h.consecutiveBad);
        s.putB(h.badThisRound);
        s.putB(h.skippedThisRound);
        s.putB(h.degraded);
    }
    s.putU(occupancyFlagged.size());
    for (bool f : occupancyFlagged)
        s.putB(f);
}

} // namespace firesim
