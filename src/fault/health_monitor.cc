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

void
HealthMonitor::record(FaultEvent event)
{
    ++counts[static_cast<size_t>(event.kind)];
    if (logEvents)
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
    return out;
}

// ---- State image ----------------------------------------------------

void
HealthMonitor::snapshotSave(Serializer &s) const
{
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
}

} // namespace firesim
