#include "switchmodel/switch.hh"

#include <algorithm>
#include <cstring>

#include "net/token_io.hh"
#include "snapshot/state_io.hh"

namespace firesim
{

namespace
{

/** Switching order: timestamp, then arrival. A total order (seq is
 *  unique), so the drain order is independent of the sort algorithm. */
template <typename Packet>
bool
releaseOrder(const Packet &a, const Packet &b)
{
    if (a.release != b.release)
        return a.release < b.release;
    return a.seq < b.seq;
}

} // namespace

Switch::Switch(SwitchConfig config)
    : cfg(std::move(config))
{
    if (cfg.ports == 0)
        fatal("switch '%s' needs at least one port", cfg.name.c_str());
    assemblers.resize(cfg.ports);
    outputs.resize(cfg.ports);
    portDown_.assign(cfg.ports, false);
}

void
Switch::setPortDown(uint32_t port, bool down)
{
    if (port >= cfg.ports)
        fatal("setPortDown(%u) on %u-port switch '%s'", port, cfg.ports,
              cfg.name.c_str());
    if (portDown_[port] == down)
        return;
    portDown_[port] = down;
    ++stats_.portTransitions;
    if (down) {
        // The cable is dead: lose any half-assembled ingress frame and
        // everything buffered for egress on this port.
        assemblers[port].reset();
        OutputPort &out = outputs[port];
        stats_.faultPacketsDroppedOut += out.queue.size();
        out.queue.clear();
        if (out.active) {
            ++stats_.faultPacketsDroppedOut;
            out.active.reset();
            out.activePos = 0;
        }
    }
}

bool
Switch::portUp(uint32_t port) const
{
    FS_ASSERT(port < cfg.ports, "portUp(%u) on %u-port switch", port,
              cfg.ports);
    return !portDown_[port];
}

void
Switch::addMacEntry(MacAddr mac, uint32_t port)
{
    if (port >= cfg.ports)
        fatal("MAC entry for %s names port %u on a %u-port switch",
              mac.str().c_str(), port, cfg.ports);
    macTable.put(mac.value, port);
}

std::optional<uint32_t>
Switch::lookupMac(MacAddr mac) const
{
    const uint32_t *port = macTable.find(mac.value);
    if (!port)
        return std::nullopt;
    return *port;
}

void
Switch::advance(Cycles window_start, Cycles window,
                const std::vector<const TokenBatch *> &in,
                const std::vector<TokenBatch *> &out)
{
    FS_ASSERT(in.size() == cfg.ports && out.size() == cfg.ports,
              "switch %s handed %zu/%zu batches for %u ports",
              cfg.name.c_str(), in.size(), out.size(), cfg.ports);
    ingress(window_start, in);
    switchingStep();
    egress(window_start, window, out);
}

void
Switch::ingress(Cycles window_start, const std::vector<const TokenBatch *> &in)
{
    // The paper runs this loop with one OpenMP thread per port; the
    // per-port work is independent, so serial execution is equivalent.
    for (uint32_t p = 0; p < cfg.ports; ++p) {
        const TokenBatch &batch = *in[p];
        FS_ASSERT(batch.start == window_start,
                  "stale input batch at %s:%u", cfg.name.c_str(), p);
        if (portDown_[p]) {
            stats_.faultFlitsDroppedIn += batch.flits.size();
            continue;
        }
        for (const Flit &flit : batch.flits) {
            EthFrame frame;
            if (assemblers[p].feed(flit, batch.absCycle(flit), frame)) {
                ++stats_.packetsIn;
                stats_.bytesIn += frame.size();
                // Timestamp = arrival cycle of last token + minimum
                // port-to-port switching latency (Section III-B1).
                QueuedPacket qp;
                qp.release = frame.timestamp + cfg.minLatency;
                qp.seq = nextSeq++;
                qp.frame = std::move(frame);
                pending.push_back(std::move(qp));
            }
        }
    }
}

void
Switch::route(const EthFrame &frame, std::vector<uint32_t> &out_ports) const
{
    MacAddr dst = frame.dst();
    if (!dst.isBroadcast()) {
        auto port = lookupMac(dst);
        if (port) {
            out_ports.push_back(*port);
            return;
        }
        // Unknown unicast: flood, like a learning switch without an
        // entry. The manager always fully populates tables, so this
        // path only triggers in hand-built experiments.
    }
    for (uint32_t p = 0; p < cfg.ports; ++p)
        out_ports.push_back(p);
}

void
Switch::insertInQueue(OutputPort &port, QueuedPacket &&packet)
{
    port.queue.push_back(std::move(packet));
}

void
Switch::switchingStep()
{
    // Drain this round's packets in timestamp order into output port
    // buffers via the forwarding policy (default: static MAC table,
    // duplicating for broadcast/flood). The last egress port takes the
    // frame itself; only the extra ports of a flood copy it.
    std::sort(pending.begin(), pending.end(),
              releaseOrder<QueuedPacket>);
    std::vector<uint32_t> out_ports;
    for (QueuedPacket &qp : pending) {
        out_ports.clear();
        route(qp.frame, out_ports);
        if (qp.frame.dst().isBroadcast())
            ++stats_.broadcasts;
        for (size_t i = 0; i + 1 < out_ports.size(); ++i)
            enqueueOutput(out_ports[i], qp.frame, qp.release, qp.seq);
        if (!out_ports.empty())
            enqueueOutput(out_ports.back(), std::move(qp.frame),
                          qp.release, qp.seq);
    }
    pending.clear();
}

void
Switch::enqueueOutput(uint32_t port, EthFrame frame, Cycles release,
                      uint64_t seq)
{
    FS_ASSERT(port < cfg.ports, "route() returned port %u of %u", port,
              cfg.ports);
    QueuedPacket qp;
    qp.frame = std::move(frame);
    qp.release = release;
    qp.seq = seq;
    insertInQueue(outputs[port], std::move(qp));
}

void
Switch::egress(Cycles window_start, Cycles window,
               const std::vector<TokenBatch *> &out)
{
    Cycles window_end = window_start + window;
    for (uint32_t p = 0; p < cfg.ports; ++p)
        egressPort(p, window_start, window_end, *out[p]);
}

void
Switch::egressPort(uint32_t p, Cycles window_start, Cycles window_end,
                   TokenBatch &out)
{
    OutputPort &port = outputs[p];
    if (portDown_[p]) {
        // Packets routed here after the port went down are lost.
        stats_.faultPacketsDroppedOut += port.queue.size();
        port.queue.clear();
        return;
    }
    if (port.cursor < window_start)
        port.cursor = window_start;

    while (port.cursor < window_end) {
        if (!port.active) {
            if (port.queue.empty())
                break;
            QueuedPacket &head = port.queue.front();
            if (head.release >= window_end) {
                // Cannot release anything more this window.
                break;
            }
            Cycles start = std::max(port.cursor, head.release);
            // Finite buffering: a packet that has waited longer than
            // the drop bound past its release time is discarded.
            if (start > head.release + cfg.dropBound) {
                ++stats_.packetsDropped;
                port.queue.pop_front();
                continue;
            }
            port.cursor = start;
            port.active = std::move(head);
            port.activePos = 0;
            port.queue.pop_front();
        }

        // Emit one token per cycle until the window closes or the
        // packet completes.
        const std::vector<uint8_t> &bytes = port.active->frame.bytes;
        while (port.cursor < window_end && port.activePos < bytes.size()) {
            Flit flit;
            size_t take =
                std::min<size_t>(kFlitBytes, bytes.size() - port.activePos);
            std::memcpy(flit.data.data(), bytes.data() + port.activePos,
                        take);
            flit.size = static_cast<uint8_t>(take);
            port.activePos += take;
            flit.last = port.activePos >= bytes.size();
            flit.offset = static_cast<uint32_t>(port.cursor - window_start);
            out.push(flit);
            ++port.cursor;
        }

        if (port.activePos >= bytes.size()) {
            ++stats_.packetsOut;
            stats_.bytesOut += bytes.size();
            bytesOutSinceQuery += bytes.size();
            port.active.reset();
            port.activePos = 0;
        } else {
            // Window full; resume this packet next round.
            break;
        }
    }
}

uint64_t
Switch::takeBytesOutDelta()
{
    uint64_t delta = bytesOutSinceQuery;
    bytesOutSinceQuery = 0;
    return delta;
}

void
Switch::registerStats(StatRegistry &registry,
                      const std::string &prefix) const
{
    registry.registerCounter(prefix + ".packetsIn", stats_.packetsIn);
    registry.registerCounter(prefix + ".packetsOut", stats_.packetsOut);
    registry.registerCounter(prefix + ".packetsDropped",
                             stats_.packetsDropped);
    registry.registerCounter(prefix + ".bytesIn", stats_.bytesIn);
    registry.registerCounter(prefix + ".bytesOut", stats_.bytesOut);
    registry.registerCounter(prefix + ".broadcasts", stats_.broadcasts);
    registry.registerCounter(prefix + ".faultFlitsDroppedIn",
                             stats_.faultFlitsDroppedIn);
    registry.registerCounter(prefix + ".faultPacketsDroppedOut",
                             stats_.faultPacketsDroppedOut);
    registry.registerCounter(prefix + ".portTransitions",
                             stats_.portTransitions);
}

// ---- Checkpoint support ---------------------------------------------

void
Switch::snapshotSave(Serializer &s) const
{
    auto savePacket = [&s](const QueuedPacket &p) {
        saveFrame(s, p.frame);
        s.putU(p.release);
        s.putU(p.seq);
    };

    s.putU(cfg.ports);
    s.putU(macTable.size());
    for (const auto &[mac, port] : macTable.sorted()) {
        s.putU(mac);
        s.putU(port);
    }
    for (uint32_t p = 0; p < cfg.ports; ++p)
        s.putB(portDown_[p]);
    for (const FrameAssembler &a : assemblers)
        saveAssembler(s, a);

    // Pending packets in canonical (release, seq) order, the order the
    // switching step drains them in.
    std::vector<QueuedPacket> pend(pending);
    std::sort(pend.begin(), pend.end(), releaseOrder<QueuedPacket>);
    s.putU(pend.size());
    for (const QueuedPacket &p : pend)
        savePacket(p);

    for (const OutputPort &out : outputs) {
        s.putU(out.queue.size());
        for (const QueuedPacket &p : out.queue)
            savePacket(p);
        s.putB(out.active.has_value());
        if (out.active) {
            savePacket(*out.active);
            s.putU(out.activePos);
        }
        s.putU(out.cursor);
    }

    s.putU(nextSeq);
    s.putU(bytesOutSinceQuery);
    saveCounter(s, stats_.packetsIn);
    saveCounter(s, stats_.packetsOut);
    saveCounter(s, stats_.packetsDropped);
    saveCounter(s, stats_.bytesIn);
    saveCounter(s, stats_.bytesOut);
    saveCounter(s, stats_.broadcasts);
    saveCounter(s, stats_.faultFlitsDroppedIn);
    saveCounter(s, stats_.faultPacketsDroppedOut);
    saveCounter(s, stats_.portTransitions);
}

} // namespace firesim
