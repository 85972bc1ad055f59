#include "os/netstack.hh"

#include <cstring>

#include "snapshot/state_io.hh"

namespace firesim
{

std::string
ipStr(Ip ip)
{
    return csprintf("%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                    (ip >> 8) & 0xff, ip & 0xff);
}

namespace
{

/** Serialize the IP-lite header in front of @p payload. */
std::vector<uint8_t>
buildIpLite(uint8_t proto, Ip src, Ip dst, uint16_t sport, uint16_t dport,
            const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> out;
    out.reserve(kIpLiteHeaderBytes + payload.size());
    out.push_back(proto);
    for (int shift = 24; shift >= 0; shift -= 8)
        out.push_back(static_cast<uint8_t>(src >> shift));
    for (int shift = 24; shift >= 0; shift -= 8)
        out.push_back(static_cast<uint8_t>(dst >> shift));
    out.push_back(static_cast<uint8_t>(sport >> 8));
    out.push_back(static_cast<uint8_t>(sport & 0xff));
    out.push_back(static_cast<uint8_t>(dport >> 8));
    out.push_back(static_cast<uint8_t>(dport & 0xff));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

struct IpLite
{
    uint8_t proto;
    Ip src;
    Ip dst;
    uint16_t sport;
    uint16_t dport;
    std::vector<uint8_t> payload;
};

bool
parseIpLite(const std::vector<uint8_t> &bytes, IpLite &out)
{
    if (bytes.size() < kIpLiteHeaderBytes)
        return false;
    out.proto = bytes[0];
    out.src = (Ip(bytes[1]) << 24) | (Ip(bytes[2]) << 16) |
              (Ip(bytes[3]) << 8) | Ip(bytes[4]);
    out.dst = (Ip(bytes[5]) << 24) | (Ip(bytes[6]) << 16) |
              (Ip(bytes[7]) << 8) | Ip(bytes[8]);
    out.sport = static_cast<uint16_t>((bytes[9] << 8) | bytes[10]);
    out.dport = static_cast<uint16_t>((bytes[11] << 8) | bytes[12]);
    out.payload.assign(bytes.begin() + kIpLiteHeaderBytes, bytes.end());
    return true;
}

} // namespace

// ---- UdpSocket ---------------------------------------------------------

UdpSocket::UdpSocket(NetStack &stack, uint16_t port)
    : net(stack), localPort(port)
{
    net.bindPort(port, this);
}

UdpSocket::~UdpSocket()
{
    net.unbindPort(localPort);
}

Task<Datagram>
UdpSocket::recv()
{
    co_await net.sys.syscall();
    while (rxq.empty())
        co_await net.sys.waitOn(rxWait);
    Datagram d = std::move(rxq.front());
    rxq.pop_front();
    co_return d;
}

Task<>
UdpSocket::sendTo(Ip dst_ip, uint16_t dst_port, std::vector<uint8_t> payload)
{
    if (payload.size() + kIpLiteHeaderBytes > net.cfg.mtu)
        fatal("datagram of %zu bytes exceeds MTU %u (segment in the app)",
              payload.size(), net.cfg.mtu);
    return sendToImpl(dst_ip, dst_port, std::move(payload));
}

Task<>
UdpSocket::sendToImpl(Ip dst_ip, uint16_t dst_port,
                      std::vector<uint8_t> payload)
{
    co_await net.sys.syscall();
    co_await net.transmit(dst_ip, kProtoUdp, localPort, dst_port, payload);
}

Task<>
UdpSocket::sendToHw(Ip dst_ip, uint16_t dst_port,
                    std::vector<uint8_t> payload, Cycles hw_cycles)
{
    if (payload.size() + kIpLiteHeaderBytes > net.cfg.mtu)
        fatal("datagram of %zu bytes exceeds MTU %u (segment in the app)",
              payload.size(), net.cfg.mtu);
    return net.transmitCosted(dst_ip, kProtoUdp, localPort, dst_port,
                              std::move(payload), hw_cycles);
}

// ---- NetStack ----------------------------------------------------------

NetStack::NetStack(SimOS &os, Nic &nic, FunctionalMemory &memory,
                   NetConfig config, const ArpTable &arp_table)
    : sys(os), nicDev(nic), mem(memory), cfg(config), arp(arp_table)
{
    if (cfg.mtu < kIpLiteHeaderBytes + 1)
        fatal("MTU %u below the IP-lite header size", cfg.mtu);
    if (cfg.ringBufBytes < cfg.mtu + kEthHeaderBytes)
        fatal("ring buffers of %u bytes cannot hold MTU-%u frames",
              cfg.ringBufBytes, cfg.mtu);
    if (static_cast<uint64_t>(cfg.rxRingEntries) * cfg.ringBufBytes >
        kTxRingBase - kRxRingBase)
        fatal("rx ring exceeds its reserved DMA window");
}

void
NetStack::bindPort(uint16_t port, UdpSocket *sock)
{
    if (ports.count(port))
        fatal("port %u already bound on %s", port, ipStr(myIp).c_str());
    ports[port] = sock;
}

void
NetStack::unbindPort(uint16_t port)
{
    ports.erase(port);
}

void
NetStack::setHwRxPort(uint16_t port, Cycles hw_cycles)
{
    hwRxPorts[port] = hw_cycles;
}

void
NetStack::clearHwRxPort(uint16_t port)
{
    hwRxPorts.erase(port);
}

void
NetStack::start()
{
    if (started)
        fatal("network stack started twice");
    started = true;

    for (uint32_t i = 0; i < cfg.rxRingEntries; ++i) {
        if (!nicDev.pushRecvRequest(kRxRingBase + i * cfg.ringBufBytes))
            fatal("rx ring larger than NIC recv queue (%u entries)",
                  cfg.rxRingEntries);
    }

    nicDev.setInterruptHandler([this] {
        irqPending = true;
        irqWait.notifyAll();
    });

    uint32_t queues = std::max(1u, cfg.rxQueues);
    for (uint32_t q = 0; q < queues; ++q) {
        sys.spawnKernel(csprintf("softirq/%u", q), [this]() -> Task<> {
            return softirqLoop();
        });
    }
}

Task<>
NetStack::transmit(Ip dst_ip, uint8_t proto, uint16_t sport, uint16_t dport,
                   const std::vector<uint8_t> &payload)
{
    Cycles cost = cfg.txStackCycles +
                  static_cast<Cycles>(cfg.txPerByte * payload.size());
    return transmitCosted(dst_ip, proto, sport, dport, payload, cost);
}

Task<>
NetStack::transmitCosted(Ip dst_ip, uint8_t proto, uint16_t sport,
                         uint16_t dport, std::vector<uint8_t> payload,
                         Cycles cpu_cycles)
{
    if (payload.size() + kIpLiteHeaderBytes > cfg.mtu)
        fatal("datagram of %zu bytes exceeds MTU %u (segment in the app)",
              payload.size(), cfg.mtu);

    co_await sys.cpu(cpu_cycles);

    const MacAddr *dst_mac = resolve(dst_ip);
    if (!dst_mac)
        fatal("no ARP entry for %s (manager must pre-populate)",
              ipStr(dst_ip).c_str());

    std::vector<uint8_t> ip_payload =
        buildIpLite(proto, myIp, dst_ip, sport, dport, payload);
    EthFrame frame(*dst_mac, nicDev.mac(), EtherType::Ipv4, ip_payload);

    uint64_t addr =
        kTxRingBase + (txCursor % cfg.txRingEntries) * cfg.ringBufBytes;
    ++txCursor;
    FS_ASSERT(frame.size() <= cfg.ringBufBytes, "frame exceeds tx buffer");
    mem.write(addr, frame.bytes.data(), frame.size());

    while (!nicDev.pushSendRequest(addr, frame.size())) {
        // NIC send queue full: the driver backs off briefly. This is the
        // backpressure path the rate limiter exercises (Section III-A2).
        co_await sys.sleepFor(1600);
    }
    ++stats_.framesTx;
}

Task<Cycles>
NetStack::ping(Ip dst)
{
    uint16_t seq = ++pingSeq;
    PingState state;
    pingWaiters[seq] = &state;

    Cycles start = sys.now();
    std::vector<uint8_t> payload(56, 0); // standard ping payload size
    payload[0] = static_cast<uint8_t>(seq >> 8);
    payload[1] = static_cast<uint8_t>(seq & 0xff);

    co_await sys.syscall();
    co_await transmit(dst, kProtoIcmpEchoReq, 0, 0, payload);
    while (!state.done)
        co_await sys.waitOn(state.wait);
    co_await sys.syscall(); // recvmsg returning to userspace

    pingWaiters.erase(seq);
    co_return sys.now() - start;
}

Task<>
NetStack::softirqLoop()
{
    uint32_t budget = cfg.napiBudget;
    while (true) {
        while (!irqPending)
            co_await sys.waitOn(irqWait);
        irqPending = false;
        budget = cfg.napiBudget;

        // Reap transmit completions.
        while (nicDev.popSendComp())
            co_await sys.cpu(cfg.txCompleteCycles);

        // Process received frames.
        while (auto comp = nicDev.popRecvComp()) {
            EthFrame frame;
            frame.bytes.resize(comp->len);
            mem.read(comp->addr, frame.bytes.data(), comp->len);
            // Re-post the buffer before protocol handling, as the
            // driver does.
            nicDev.pushRecvRequest(comp->addr);
            ++stats_.framesRx;
            // NIC-integrated hardware (the PFA) claims its frames
            // before the software receive path; everything else pays
            // the full stack cost.
            Cycles cost = cfg.rxStackCycles +
                          static_cast<Cycles>(cfg.rxPerByte * comp->len);
            if (!hwRxPorts.empty() &&
                frame.size() >= kEthHeaderBytes + kIpLiteHeaderBytes &&
                frame.etherType() == EtherType::Ipv4) {
                const auto &b = frame.bytes;
                uint16_t dport = static_cast<uint16_t>(
                    (b[kEthHeaderBytes + 11] << 8) |
                    b[kEthHeaderBytes + 12]);
                auto hw = hwRxPorts.find(dport);
                if (hw != hwRxPorts.end() &&
                    b[kEthHeaderBytes] == kProtoUdp) {
                    cost = hw->second;
                }
            }
            if (cost)
                co_await sys.cpu(cost);
            co_await handleFrame(frame);

            // NAPI-style fairness: after a budget's worth of frames,
            // yield the core so user threads are not starved under
            // sustained load (Linux's ksoftirqd behaviour). The
            // interrupt line stays pending, so processing resumes.
            if (--budget == 0) {
                budget = cfg.napiBudget;
                irqPending = true;
                co_await sys.yieldNow();
            }
        }
    }
}

Task<>
NetStack::handleFrame(const EthFrame &frame)
{
    if (frame.etherType() != EtherType::Ipv4)
        co_return; // not ours (raw experiment traffic)
    IpLite pkt;
    if (!parseIpLite(frame.payload(), pkt))
        co_return;

    switch (pkt.proto) {
      case kProtoIcmpEchoReq: {
        // Kernel-side echo, as in Linux: no userspace wakeup involved.
        co_await sys.cpu(cfg.icmpEchoCycles);
        co_await transmit(pkt.src, kProtoIcmpEchoReply, 0, 0, pkt.payload);
        ++stats_.icmpEchoed;
        break;
      }
      case kProtoIcmpEchoReply: {
        if (pkt.payload.size() >= 2) {
            uint16_t seq = static_cast<uint16_t>((pkt.payload[0] << 8) |
                                                 pkt.payload[1]);
            auto it = pingWaiters.find(seq);
            if (it != pingWaiters.end()) {
                it->second->done = true;
                it->second->wait.notifyAll();
            }
        }
        break;
      }
      case kProtoUdp: {
        auto it = ports.find(pkt.dport);
        if (it == ports.end()) {
            ++stats_.udpNoPort;
            break;
        }
        UdpSocket *sock = it->second;
        if (cfg.socketRxCap && sock->rxq.size() >= cfg.socketRxCap) {
            ++stats_.socketOverflowDrops;
            break;
        }
        Datagram d;
        d.srcIp = pkt.src;
        d.srcPort = pkt.sport;
        d.data = std::move(pkt.payload);
        d.deliveredAt = sys.now();
        sock->rxq.push_back(std::move(d));
        sock->rxWait.notifyOne();
        ++stats_.udpDelivered;
        break;
      }
      default:
        break;
    }
}

// ---- Checkpoint support ---------------------------------------------

void
NetStack::snapshotSave(Serializer &s) const
{
    s.putU(myIp);
    s.putB(started);
    s.putB(irqPending);
    s.putU(txCursor);
    s.putU(pingSeq);
    s.putU(hwRxPorts.size());
    for (const auto &[port, cycles] : hwRxPorts) {
        s.putU(port);
        s.putU(cycles);
    }
    s.putU(ports.size());
    for (const auto &[port, sock] : ports) {
        s.putU(port);
        s.putU(sock->rxq.size());
    }
    s.putU(pingWaiters.size());
    for (const auto &kv : pingWaiters)
        s.putU(kv.first);
    saveCounter(s, stats_.framesTx);
    saveCounter(s, stats_.framesRx);
    saveCounter(s, stats_.icmpEchoed);
    saveCounter(s, stats_.udpDelivered);
    saveCounter(s, stats_.udpNoPort);
    saveCounter(s, stats_.socketOverflowDrops);
}

} // namespace firesim
