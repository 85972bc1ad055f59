/**
 * @file
 * Steady-state zero-allocation tests for the token fabric's round loop
 * and the packet path through it.
 *
 * Every token batch lives in a TokenChannel ring slot that endpoints
 * read and fill in place, so once the slots' flit capacities have
 * warmed up, moving tokens allocates nothing — sequentially, with a
 * worker pool, and across remote links. Frames recycle their byte
 * buffers, so a switch forwarding frames and a NIC receiving them
 * allocate nothing per frame either. This test replaces the global
 * operator new to count heap allocations inside a measurement window,
 * which is why it lives in its own test binary (test_fabric_alloc) and
 * must not share a process with other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/eth.hh"
#include "net/fabric.hh"
#include "node/server_blade.hh"
#include "switchmodel/switch.hh"

namespace
{

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace firesim
{
namespace
{

/**
 * A minimal two-port endpoint emitting a fixed flit pattern on both
 * ports every window and checksumming everything it receives — steady
 * traffic with no per-frame bookkeeping, so any allocation in the
 * measurement window is the fabric's.
 */
class SteadyEndpoint : public TokenEndpoint
{
  public:
    explicit SteadyEndpoint(std::string name, uint32_t flits_per_batch)
        : label(std::move(name)), flitsPerBatch(flits_per_batch)
    {}

    uint32_t numPorts() const override { return 2; }
    std::string name() const override { return label; }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            const std::vector<TokenBatch *> &out) override
    {
        for (const TokenBatch *batch : in)
            for (const Flit &f : batch->flits)
                rxSum += batch->absCycle(f) + f.data[0];
        for (TokenBatch *batch : out) {
            for (uint32_t i = 0; i < flitsPerBatch; ++i) {
                Flit f;
                f.offset = i * static_cast<uint32_t>(window) /
                           (flitsPerBatch + 1);
                f.size = 8;
                f.last = (i + 1 == flitsPerBatch);
                f.data[0] = static_cast<uint8_t>(window_start + i);
                batch->push(f);
            }
        }
    }

    uint64_t rxSum = 0;

  private:
    std::string label;
    uint32_t flitsPerBatch;
};

/**
 * A two-port endpoint that wakes itself every `period` rounds and then
 * emits a fixed flit pattern on both ports; in between it is due only
 * when payload arrives. Its neighbors therefore sit out rounds, and its
 * channels mix payload batches with runs of empty ones.
 */
class PulseEndpoint : public SteadyEndpoint
{
  public:
    PulseEndpoint(std::string name, Cycles period_cycles)
        : SteadyEndpoint(std::move(name), 3), period(period_cycles)
    {}

    Cycles
    quiescentUntil(Cycles now) const override
    {
        return (now + period - 1) / period * period;
    }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            const std::vector<TokenBatch *> &out) override
    {
        ++advances;
        if (window_start % period == 0) {
            SteadyEndpoint::advance(window_start, window, in, out);
            return;
        }
        for (const TokenBatch *batch : in)
            for (const Flit &f : batch->flits)
                rxSum += batch->absCycle(f) + f.data[0];
    }

    uint64_t advances = 0;

  private:
    Cycles period;
};

/** No-op observer: every observer callback site runs. */
class NullObserver : public FabricObserver
{
};

struct Rig
{
    std::vector<std::unique_ptr<SteadyEndpoint>> eps;
    TokenFabric fabric;
    NullObserver watcher;

    explicit Rig(bool with_observer)
    {
        // Four endpoints in a ring: ep[i] port1 -> ep[i+1] port0.
        for (int i = 0; i < 4; ++i) {
            eps.push_back(std::make_unique<SteadyEndpoint>(
                csprintf("s%d", i), 5 + i));
            fabric.addEndpoint(eps.back().get());
        }
        for (int i = 0; i < 4; ++i)
            fabric.connect(eps[i].get(), 1, eps[(i + 1) % 4].get(), 0,
                           128);
        if (with_observer)
            fabric.addObserver(&watcher);
        fabric.finalize();
    }
};

void
expectSteadyStateZeroAllocs(bool with_observer, unsigned hosts)
{
    Rig rig(with_observer);
    rig.fabric.setParallelHosts(hosts);

    // Warm-up: circulate enough rounds for every ring slot's flit
    // capacity to reach steady state (worker spawning also lands here).
    rig.fabric.run(rig.fabric.quantum() * 64);

    g_allocs.store(0);
    g_counting.store(true);
    rig.fabric.run(rig.fabric.quantum() * 256);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations in the steady-state round loop (hosts="
        << hosts << ", observer=" << with_observer << ")";
    // The traffic actually flowed.
    for (auto &ep : rig.eps)
        EXPECT_GT(ep->rxSum, 0u);
}

TEST(FabricAlloc, SequentialSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(false, 1);
}

TEST(FabricAlloc, MonitoredSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(true, 1);
}

TEST(FabricAlloc, ParallelSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(false, 4);
}

TEST(FabricAlloc, ParallelMonitoredSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(true, 4);
}

TEST(FabricAlloc, PartlyIdleSteadyStateAllocatesNothing)
{
    // A ring of busy endpoints (due every round) beside a ring of
    // pulsing ones (due every 2..5 rounds or on arrival): the due list
    // changes length every round and the pulsing rings' channels are
    // caught up with empty runs, all in reused capacity.
    for (unsigned hosts : {1u, 4u}) {
        std::vector<std::unique_ptr<SteadyEndpoint>> busy;
        std::vector<std::unique_ptr<PulseEndpoint>> pulse;
        TokenFabric fabric;
        for (int i = 0; i < 4; ++i) {
            busy.push_back(std::make_unique<SteadyEndpoint>(
                csprintf("s%d", i), 5 + i));
            fabric.addEndpoint(busy.back().get());
            pulse.push_back(std::make_unique<PulseEndpoint>(
                csprintf("p%d", i), 128 * (2 + i)));
            fabric.addEndpoint(pulse.back().get());
        }
        for (int i = 0; i < 4; ++i) {
            fabric.connect(busy[i].get(), 1, busy[(i + 1) % 4].get(), 0,
                           128);
            fabric.connect(pulse[i].get(), 1, pulse[(i + 1) % 4].get(), 0,
                           128 * (1 + i % 2));
        }
        fabric.finalize();
        fabric.setParallelHosts(hosts);
        fabric.run(fabric.quantum() * 64);

        uint64_t stepped = fabric.endpointRoundsStepped();
        g_allocs.store(0);
        g_counting.store(true);
        fabric.run(fabric.quantum() * 256);
        g_counting.store(false);

        EXPECT_EQ(g_allocs.load(), 0u)
            << "heap allocations in the partly idle round loop (hosts="
            << hosts << ")";
        stepped = fabric.endpointRoundsStepped() - stepped;
        EXPECT_GE(stepped, 4u * 256u); // the busy ring, every round
        EXPECT_LT(stepped, 8u * 256u) << "no pulsing endpoint sat out";
        for (auto &ep : pulse) {
            EXPECT_GT(ep->rxSum, 0u);
            EXPECT_LT(ep->advances, 64u + 256u);
        }
    }
}

/**
 * Stands in for the shard transport: every round it refills each
 * remote RX channel with an empty batch, as a peer that sends nothing
 * would, and counts the batches handed over for transmission.
 */
class LoopbackHook : public RemoteRoundHook
{
  public:
    LoopbackHook(TokenFabric &fabric, std::vector<uint32_t> rx_links)
        : fabric(fabric), rxLinks(std::move(rx_links))
    {}

    void onTxBatch(uint32_t, const TokenBatch &) override { ++txBatches; }

    void
    onRoundComplete(uint64_t, Cycles round_start) override
    {
        for (uint32_t link : rxLinks)
            fabric.remoteRxChannel(link)->push(TokenBatch(
                round_start, static_cast<uint32_t>(fabric.quantum())));
    }

    uint64_t txBatches = 0;

  private:
    TokenFabric &fabric;
    std::vector<uint32_t> rxLinks;
};

TEST(FabricAlloc, RemoteLinksAllocateNothing)
{
    // s0:1 -> s1:0 is local; s0:0 and s1:1 lead to another shard,
    // looped back by the hook. Received batches must land in the RX
    // rings without leaving storage behind anywhere else.
    SteadyEndpoint s0("s0", 5), s1("s1", 6);
    TokenFabric fabric;
    fabric.addEndpoint(&s0);
    fabric.addEndpoint(&s1);
    fabric.connect(&s0, 1, &s1, 0, 128);
    fabric.connectRemote(&s0, 0, 128, 1, 2, "peer");
    fabric.connectRemote(&s1, 1, 128, 3, 4, "peer");
    fabric.finalize();
    LoopbackHook hook(fabric, {1, 3});
    fabric.setRemoteHook(&hook);

    fabric.run(fabric.quantum() * 64);
    g_allocs.store(0);
    g_counting.store(true);
    fabric.run(fabric.quantum() * 256);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations in the steady-state round loop with "
           "remote links";
    EXPECT_EQ(hook.txBatches, 2u * 320u);
    EXPECT_GT(s1.rxSum, 0u);
}

/**
 * A one-port endpoint that starts the same frame every `period` cycles
 * (flits serialized once, up front) and counts the frames it receives
 * through an assembler whose buffers ping-pong, so it allocates
 * nothing itself once both buffers have grown.
 */
class FrameSource : public TokenEndpoint
{
  public:
    FrameSource(std::string name, const EthFrame &frame, Cycles period)
        : label(std::move(name)), period(period)
    {
        FrameSerializer ser(frame);
        while (!ser.done())
            flits.push_back(ser.next());
    }

    uint32_t numPorts() const override { return 1; }
    std::string name() const override { return label; }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            const std::vector<TokenBatch *> &out) override
    {
        for (const Flit &f : in[0]->flits)
            if (rx.feed(f, in[0]->absCycle(f), rxFrame))
                ++framesIn;
        for (Cycles c = window_start; c < window_start + window; ++c) {
            Cycles phase = c % period;
            if (phase >= flits.size())
                continue;
            Flit f = flits[phase];
            f.offset = static_cast<uint32_t>(c - window_start);
            out[0]->push(f);
        }
    }

    uint64_t framesIn = 0;

  private:
    std::string label;
    Cycles period;
    std::vector<Flit> flits;
    FrameAssembler rx;
    EthFrame rxFrame;
};

EthFrame
frameTo(MacAddr dst, MacAddr src)
{
    return EthFrame(dst, src, EtherType::Raw,
                    std::vector<uint8_t>(100, 0x5a));
}

TEST(FabricAlloc, SwitchForwardsFramesWithoutAllocating)
{
    // Four sources on one switch, each streaming unicast frames to the
    // next: every frame is packetized at ingress, switched and
    // re-serialized at egress.
    constexpr uint32_t kPorts = 4;
    SwitchConfig sc;
    sc.ports = kPorts;
    Switch sw(sc);
    std::vector<std::unique_ptr<FrameSource>> srcs;
    TokenFabric fabric;
    fabric.addEndpoint(&sw);
    for (uint32_t i = 0; i < kPorts; ++i) {
        MacAddr mac(0x100 + i), next(0x100 + (i + 1) % kPorts);
        sw.addMacEntry(mac, i);
        srcs.push_back(std::make_unique<FrameSource>(
            csprintf("src%u", i), frameTo(next, mac), 40 + 8 * i));
        fabric.addEndpoint(srcs.back().get());
        fabric.connect(srcs.back().get(), 0, &sw, i, 128);
    }
    fabric.finalize();
    fabric.run(fabric.quantum() * 64);

    uint64_t forwarded = sw.stats().packetsOut.value();
    g_allocs.store(0);
    g_counting.store(true);
    fabric.run(fabric.quantum() * 256);
    g_counting.store(false);
    forwarded = sw.stats().packetsOut.value() - forwarded;

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations while forwarding " << forwarded << " frames";
    EXPECT_GT(forwarded, 2000u);
    EXPECT_EQ(sw.stats().packetsDropped.value(), 0u);
    for (auto &src : srcs)
        EXPECT_GT(src->framesIn, 0u);
}

TEST(FabricAlloc, NicReceivesFramesWithoutAllocating)
{
    // A source streams frames into one blade; its interrupt handler
    // hands every filled receive buffer straight back to the NIC, as
    // a driver re-posting its ring would.
    BladeConfig bc;
    bc.name = "dut";
    bc.memBytes = 64 * MiB;
    bc.mac = MacAddr(0xa);
    ServerBlade blade(bc);
    Nic &nic = blade.nic();
    nic.setInterruptHandler([&nic] {
        while (auto comp = nic.popRecvComp())
            nic.pushRecvRequest(comp->addr);
    });
    for (uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(nic.pushRecvRequest(0x10000 + 0x1000 * i));
    // One frame per 128 cycles: the writer's DMA (about 90 cycles a
    // frame) keeps up, so the packet buffer's backlog stays bounded.
    FrameSource src("src", frameTo(bc.mac, MacAddr(0xb)), 128);
    TokenFabric fabric;
    fabric.addEndpoint(&blade);
    fabric.addEndpoint(&src);
    fabric.connect(&blade, 0, &src, 0, 128);
    fabric.finalize();
    fabric.run(fabric.quantum() * 64);

    uint64_t received = nic.stats().framesReceived.value();
    g_allocs.store(0);
    g_counting.store(true);
    fabric.run(fabric.quantum() * 256);
    g_counting.store(false);
    received = nic.stats().framesReceived.value() - received;

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations while receiving " << received << " frames";
    EXPECT_EQ(received, 256u);
    EXPECT_EQ(nic.stats().framesDroppedRx.value(), 0u);
}

} // namespace
} // namespace firesim
