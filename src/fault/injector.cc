#include "fault/injector.hh"

#include <algorithm>

#include "net/token_io.hh"
#include "snapshot/state_io.hh"
#include "switchmodel/switch.hh"

namespace firesim
{

FaultInjector::FaultInjector(TokenFabric &fabric, FaultPlan plan,
                             HealthMonitor *monitor)
    : fab(fabric), plan_(std::move(plan)), mon(monitor)
{
    // Resolve link faults to channels. Each fault owns an independent
    // RNG stream so fault decisions do not perturb one another.
    for (size_t i = 0; i < plan_.linkFaults.size(); ++i) {
        const LinkFaultSpec &spec = plan_.linkFaults[i];
        int ep = fab.endpointIndexOf(spec.endpoint);
        if (ep < 0)
            fatal("fault plan names unknown endpoint '%s'",
                  spec.endpoint.c_str());
        int chan = fab.txChannelOf(static_cast<size_t>(ep), spec.port);
        if (chan < 0)
            fatal("fault plan names unconnected port %u on '%s'",
                  spec.port, spec.endpoint.c_str());
        if (spec.probability < 0.0 || spec.probability > 1.0)
            fatal("fault probability %f out of [0, 1]",
                  spec.probability);
        LinkState link;
        link.spec = spec;
        link.channel = static_cast<size_t>(chan);
        link.rng.reseed(plan_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        links.push_back(std::move(link));
    }

    for (const PortDownSpec &spec : plan_.portDowns) {
        int ep = fab.endpointIndexOf(spec.switchName);
        if (ep < 0)
            fatal("fault plan names unknown switch '%s'",
                  spec.switchName.c_str());
        if (!dynamic_cast<Switch *>(&fab.endpointAt(ep)))
            fatal("port-down target '%s' is not a switch",
                  spec.switchName.c_str());
        if (spec.restoreAt != 0 && spec.restoreAt <= spec.at)
            fatal("port restore cycle %llu not after down cycle %llu",
                  (unsigned long long)spec.restoreAt,
                  (unsigned long long)spec.at);
        ports.push_back({spec, static_cast<size_t>(ep), false, false});
    }

    for (const CrashSpec &spec : plan_.crashes) {
        int ep = fab.endpointIndexOf(spec.endpoint);
        if (ep < 0)
            fatal("fault plan names unknown endpoint '%s'",
                  spec.endpoint.c_str());
        if (spec.restartAt != 0 && spec.restartAt <= spec.at)
            fatal("restart cycle %llu not after crash cycle %llu",
                  (unsigned long long)spec.restartAt,
                  (unsigned long long)spec.at);
        crashes.push_back({spec, static_cast<size_t>(ep), false, false});
    }

    fab.addObserver(this);
}

void
FaultInjector::recordEvent(FaultEvent::Kind kind, Cycles cycle,
                           const std::string &endpoint, int port,
                           const std::string &channel, std::string detail)
{
    if (!mon)
        return;
    FaultEvent ev;
    ev.kind = kind;
    ev.round = curRound;
    ev.cycle = cycle;
    ev.endpoint = endpoint;
    ev.port = port;
    ev.channel = channel;
    ev.detail = std::move(detail);
    mon->record(std::move(ev));
}

bool
FaultInjector::crashActive(const CrashState &crash,
                           Cycles round_start) const
{
    // The crash takes effect in the round containing `at` and the
    // restart in the round containing `restartAt` (host-side actions
    // are quantized to the token round).
    if (round_start + fab.quantum() <= crash.spec.at)
        return false;
    if (crash.spec.restartAt != 0 && round_start >= crash.spec.restartAt)
        return false;
    return true;
}

void
FaultInjector::onRoundStart(Cycles round_start, uint64_t round)
{
    curRound = round;
    Cycles round_end = round_start + fab.quantum();

    for (PortState &port : ports) {
        auto *sw = dynamic_cast<Switch *>(&fab.endpointAt(port.endpoint));
        if (!port.downApplied && round_end > port.spec.at) {
            sw->setPortDown(port.spec.port, true);
            port.downApplied = true;
            recordEvent(FaultEvent::Kind::PortDown, round_start,
                        port.spec.switchName,
                        static_cast<int>(port.spec.port), "",
                        csprintf("scheduled at cycle %llu",
                                 (unsigned long long)port.spec.at));
        }
        if (port.downApplied && !port.upApplied &&
            port.spec.restoreAt != 0 && round_end > port.spec.restoreAt) {
            sw->setPortDown(port.spec.port, false);
            port.upApplied = true;
            recordEvent(FaultEvent::Kind::PortRestored, round_start,
                        port.spec.switchName,
                        static_cast<int>(port.spec.port), "",
                        csprintf("scheduled at cycle %llu",
                                 (unsigned long long)port.spec.restoreAt));
        }
    }

    for (CrashState &crash : crashes) {
        bool active = crashActive(crash, round_start);
        if (active && !crash.crashLogged) {
            crash.crashLogged = true;
            recordEvent(FaultEvent::Kind::NodeCrash, round_start,
                        crash.spec.endpoint, -1, "",
                        csprintf("scheduled at cycle %llu",
                                 (unsigned long long)crash.spec.at));
        }
        if (!active && crash.crashLogged && !crash.restartLogged &&
            crash.spec.restartAt != 0) {
            crash.restartLogged = true;
            recordEvent(FaultEvent::Kind::NodeRestart, round_start,
                        crash.spec.endpoint, -1, "",
                        csprintf("scheduled at cycle %llu",
                                 (unsigned long long)crash.spec.restartAt));
        }
    }
}

bool
FaultInjector::endpointDown(size_t endpoint_idx, Cycles round_start)
{
    for (const CrashState &crash : crashes)
        if (crash.endpoint == endpoint_idx &&
            crashActive(crash, round_start))
            return true;
    return false;
}

void
FaultInjector::applyDrop(LinkState &link, TokenBatch &batch)
{
    const std::string &label = fab.channelAt(link.channel).label();
    auto is_dropped = [&](const Flit &flit) {
        if (!activeAt(link.spec, batch.start + flit.offset))
            return false;
        if (!link.rng.chance(link.spec.probability))
            return false;
        ++dropped;
        recordEvent(FaultEvent::Kind::PayloadDrop,
                    batch.start + flit.offset, "", -1, label,
                    csprintf("%u-byte flit lost", flit.size));
        return true;
    };
    batch.flits.erase(std::remove_if(batch.flits.begin(),
                                     batch.flits.end(), is_dropped),
                      batch.flits.end());
}

void
FaultInjector::applyCorrupt(LinkState &link, TokenBatch &batch)
{
    const std::string &label = fab.channelAt(link.channel).label();
    for (Flit &flit : batch.flits) {
        if (!activeAt(link.spec, batch.start + flit.offset))
            continue;
        if (!link.rng.chance(link.spec.probability))
            continue;
        uint32_t byte = static_cast<uint32_t>(
            link.rng.below(std::max<uint8_t>(1, flit.size)));
        uint32_t bit = static_cast<uint32_t>(link.rng.below(8));
        flit.data[byte] ^= static_cast<uint8_t>(1u << bit);
        ++corrupted;
        recordEvent(FaultEvent::Kind::FlitCorrupt,
                    batch.start + flit.offset, "", -1, label,
                    csprintf("bit %u of byte %u flipped", bit, byte));
    }
}

void
FaultInjector::applyDelay(LinkState &link, TokenBatch &batch)
{
    if (batch.flits.empty() && link.carry.empty())
        return;

    // Assign every new flit a delivery cycle: +extra while the fault is
    // active, clamped to stay monotonically increasing (a link carries
    // at most one flit per cycle, and payload never reorders).
    for (const Flit &flit : batch.flits) {
        Cycles abs = batch.start + flit.offset;
        Cycles when = abs;
        if (activeAt(link.spec, abs)) {
            when = abs + link.spec.extraCycles;
            ++delayed;
            recordEvent(FaultEvent::Kind::FlitDelay, abs, "", -1,
                        fab.channelAt(link.channel).label(),
                        csprintf("payload delayed %llu cycles",
                                 (unsigned long long)
                                     link.spec.extraCycles));
        }
        if (link.haveLast && when <= link.lastCycle)
            when = link.lastCycle + 1;
        link.lastCycle = when;
        link.haveLast = true;
        link.carry.emplace_back(when, flit);
    }

    // Re-emit everything due within this batch window; the rest stays
    // carried into future batches.
    batch.flits.clear();
    Cycles end = batch.start + batch.len;
    while (!link.carry.empty() && link.carry.front().first < end) {
        auto [when, flit] = link.carry.front();
        link.carry.pop_front();
        FS_ASSERT(when >= batch.start,
                  "delayed flit for cycle %llu precedes batch %llu on %s",
                  (unsigned long long)when,
                  (unsigned long long)batch.start,
                  fab.channelAt(link.channel).label().c_str());
        flit.offset = static_cast<uint32_t>(when - batch.start);
        batch.push(flit);
    }
}

void
FaultInjector::onTransmit(size_t channel_idx, TokenBatch &batch)
{
    for (LinkState &link : links) {
        if (link.channel != channel_idx)
            continue;
        switch (link.spec.kind) {
          case LinkFaultKind::DropPayload:
            applyDrop(link, batch);
            break;
          case LinkFaultKind::CorruptFlit:
            applyCorrupt(link, batch);
            break;
          case LinkFaultKind::ExtraLatency:
            applyDelay(link, batch);
            break;
        }
    }
}

// ---- Checkpoint support ---------------------------------------------

void
FaultInjector::snapshotSave(Serializer &s) const
{
    s.putU(curRound);
    s.putU(dropped);
    s.putU(corrupted);
    s.putU(delayed);
    s.putU(links.size());
    for (const LinkState &l : links) {
        s.putU(l.channel);
        saveRandom(s, l.rng);
        s.putU(l.carry.size());
        for (const auto &[at, flit] : l.carry) {
            s.putU(at);
            saveFlit(s, flit);
        }
        s.putU(l.lastCycle);
        s.putB(l.haveLast);
    }
    s.putU(ports.size());
    for (const PortState &p : ports) {
        s.putB(p.downApplied);
        s.putB(p.upApplied);
    }
    s.putU(crashes.size());
    for (const CrashState &c : crashes) {
        s.putB(c.crashLogged);
        s.putB(c.restartLogged);
    }
}

} // namespace firesim
