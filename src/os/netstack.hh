/**
 * @file
 * The simulated kernel network stack and socket layer.
 *
 * Stands in for the RISC-V Linux networking port + the paper's custom
 * NIC driver (Section III-A2: "To interface between user-space software
 * and the NIC, we wrote a custom Linux driver"). The data path is real:
 * frames are built in simulated DRAM, DMA'd by the NIC model, and
 * parsed back out of DRAM on the receive side. The timing path charges
 * calibrated CPU costs for the driver and protocol work; these costs
 * are what make iperf-style transfers stall at ~1.4 Gbit/s while the
 * bare-metal path (src/apps/baremetal_stream.hh) reaches ~100 Gbit/s,
 * reproducing Sections IV-B/IV-C.
 *
 * Protocol: a minimal IPv4-like header inside the Ethernet payload —
 *   [proto u8][srcIp u32][dstIp u32][srcPort u16][dstPort u16]
 * with protocols UDP (sockets) and ICMP echo request/reply (ping,
 * answered in the kernel as Linux does). Address resolution is static:
 * the simulation manager builds one ARP table per cluster, which every
 * node's stack reads, exactly as it pre-populates switch MAC tables.
 */

#ifndef FIRESIM_OS_NETSTACK_HH
#define FIRESIM_OS_NETSTACK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "base/flat_map.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "mem/functional_memory.hh"
#include "nic/nic.hh"
#include "os/simos.hh"
#include "os/task.hh"

namespace firesim
{

class Serializer;

/** IPv4-style address, host byte order. */
using Ip = uint32_t;

/** Render an Ip as dotted quad. */
std::string ipStr(Ip ip);

/** Static IP -> MAC resolution, built once by the manager and shared
 *  read-only by every node's stack. */
using ArpTable = FlatU64Map<MacAddr>;

/** Wire protocol numbers inside the IP-lite header. */
constexpr uint8_t kProtoIcmpEchoReq = 1;
constexpr uint8_t kProtoIcmpEchoReply = 2;
constexpr uint8_t kProtoUdp = 17;

/** Size of the IP-lite header. */
constexpr uint32_t kIpLiteHeaderBytes = 13;

/** Kernel network-stack cost model. */
struct NetConfig
{
    /** Per-packet transmit path: socket + IP + driver (6 us). */
    Cycles txStackCycles = 19200;
    /** Per-packet receive path: driver + IP + socket demux (8 us). */
    Cycles rxStackCycles = 25600;
    /** Copy costs, cycles per payload byte. */
    double txPerByte = 2.0;
    double rxPerByte = 2.0;
    /** Kernel-side ICMP echo handling on top of rx/tx costs (3 us). */
    Cycles icmpEchoCycles = 9600;
    /** Per-completion cost of reaping a send completion. */
    Cycles txCompleteCycles = 400;
    /** Maximum Ethernet payload (IP-lite header + user data). */
    uint32_t mtu = 1500;
    /** Per-socket receive queue cap in datagrams (0 = unlimited). */
    uint32_t socketRxCap = 1024;
    uint32_t rxRingEntries = 32;
    uint32_t txRingEntries = 64;
    /** Receive-side scaling: number of softirq service threads (the
     *  NIC is multi-queue; 1 reproduces a single-queue driver). */
    uint32_t rxQueues = 1;
    /** NAPI budget: frames a softirq may process before yielding the
     *  core to runnable threads (ksoftirqd fairness under load). */
    uint32_t napiBudget = 8;
    /** DMA ring buffer size; must hold a full frame (raise alongside
     *  the MTU for jumbo-frame experiments such as the PFA's 4 KiB
     *  page transfers). */
    uint32_t ringBufBytes = 2048;
};

struct NetStackStats
{
    Counter framesTx;
    Counter framesRx;
    Counter icmpEchoed;
    Counter udpDelivered;
    Counter udpNoPort;
    Counter socketOverflowDrops;
};

/** A received datagram as seen by a socket. */
struct Datagram
{
    Ip srcIp = 0;
    uint16_t srcPort = 0;
    std::vector<uint8_t> data;
    /** Cycle at which the kernel finished delivering it. */
    Cycles deliveredAt = 0;
};

class NetStack;

/**
 * An unconnected datagram socket. Like memcached's UDP mode, multiple
 * server threads may each own a socket on a distinct port, giving the
 * static connection-to-thread assignment that underlies the paper's
 * thread-imbalance experiment.
 */
class UdpSocket
{
  public:
    UdpSocket(NetStack &net, uint16_t port);
    ~UdpSocket();

    UdpSocket(const UdpSocket &) = delete;
    UdpSocket &operator=(const UdpSocket &) = delete;

    uint16_t port() const { return localPort; }
    size_t pendingRx() const { return rxq.size(); }

    /** Block until a datagram arrives; charges the syscall cost. */
    Task<Datagram> recv();

    /**
     * Hardware-initiated send: charges @p hw_cycles instead of the
     * kernel stack costs. Models a device (e.g. the Page-Fault
     * Accelerator of Section VI) that builds and DMAs the frame itself,
     * removing software from the critical path.
     */
    Task<> sendToHw(Ip dst_ip, uint16_t dst_port,
                    std::vector<uint8_t> payload, Cycles hw_cycles);

    /**
     * Send one datagram; charges syscall + stack + copy costs.
     * Oversize payloads (beyond MTU minus the IP-lite header) are a
     * user error and fail eagerly, before any simulated time passes.
     */
    Task<> sendTo(Ip dst_ip, uint16_t dst_port,
                  std::vector<uint8_t> payload);

  private:
    Task<> sendToImpl(Ip dst_ip, uint16_t dst_port,
                      std::vector<uint8_t> payload);

    friend class NetStack;
    NetStack &net;
    uint16_t localPort;
    std::deque<Datagram> rxq;
    WaitQueue rxWait;
};

class NetStack
{
  public:
    /** @p arp must outlive the stack; the manager shares one table
     *  across every node of a cluster. */
    NetStack(SimOS &os, Nic &nic, FunctionalMemory &mem, NetConfig config,
             const ArpTable &arp);

    /** Configure this node's address (manager-assigned). */
    void setIp(Ip ip) { myIp = ip; }
    Ip ip() const { return myIp; }

    /** The shared ARP table this stack resolves through. */
    const ArpTable &arpTable() const { return arp; }

    /** The MAC a frame for @p ip is sent to, or nullptr when the table
     *  has no entry or @p ip is this node's own address. */
    const MacAddr *
    resolve(Ip ip) const
    {
        return ip == myIp ? nullptr : arp.find(ip);
    }

    /**
     * Boot the stack: post receive buffers, hook the NIC interrupt and
     * spawn the softirq kernel thread. Call once.
     */
    void start();

    /**
     * Register a hardware receive fast path: UDP frames for @p port are
     * delivered for @p hw_cycles instead of the kernel receive-stack
     * cost — the NIC-integrated device claims them before the driver
     * (Section VI's PFA). Pass hw_cycles = 0 to make delivery free.
     */
    void setHwRxPort(uint16_t port, Cycles hw_cycles);

    /** Remove a hardware receive fast path. */
    void clearHwRxPort(uint16_t port);

    /**
     * ICMP echo: returns the RTT in cycles, measured like userspace
     * ping (from just before the send syscall to return from recv).
     */
    Task<Cycles> ping(Ip dst);

    SimOS &os() { return sys; }
    const NetConfig &config() const { return cfg; }
    const NetStackStats &stats() const { return stats_; }

    /**
     * Serialize counters and protocol cursors plus the tables —
     * bound ports, ping waiters, hardware fast paths — that live
     * inside application coroutine frames.
     */
    void snapshotSave(Serializer &s) const;

  private:
    friend class UdpSocket;

    /** Kernel transmit path; charged to the calling thread. */
    Task<> transmit(Ip dst_ip, uint8_t proto, uint16_t sport,
                    uint16_t dport, const std::vector<uint8_t> &payload);

    /** Transmit with an explicit CPU charge (hardware fast path).
     *  Takes the payload by value: it is moved into the coroutine
     *  frame, so temporaries are safe. */
    Task<> transmitCosted(Ip dst_ip, uint8_t proto, uint16_t sport,
                          uint16_t dport, std::vector<uint8_t> payload,
                          Cycles cpu_cycles);

    Task<> softirqLoop();
    Task<> handleFrame(const EthFrame &frame);

    void bindPort(uint16_t port, UdpSocket *sock);
    void unbindPort(uint16_t port);

    SimOS &sys;
    Nic &nicDev;
    FunctionalMemory &mem;
    NetConfig cfg;
    NetStackStats stats_;

    Ip myIp = 0;
    const ArpTable &arp;
    std::map<uint16_t, UdpSocket *> ports;

    bool started = false;
    bool irqPending = false;
    WaitQueue irqWait;

    // DMA rings in simulated DRAM.
    static constexpr uint64_t kRxRingBase = 0x100000;
    static constexpr uint64_t kTxRingBase = 0x400000;
    uint64_t txCursor = 0;

    // Outstanding pings (sequence -> completion record).
    struct PingState
    {
        bool done = false;
        WaitQueue wait;
    };
    uint16_t pingSeq = 0;
    std::map<uint16_t, PingState *> pingWaiters;

    /** UDP ports claimed by NIC-integrated hardware (port -> cycles). */
    std::map<uint16_t, Cycles> hwRxPorts;
};

} // namespace firesim

#endif // FIRESIM_OS_NETSTACK_HH
