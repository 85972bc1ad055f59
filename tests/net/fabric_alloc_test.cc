/**
 * @file
 * Steady-state zero-allocation test for the token fabric's round loop.
 *
 * The fabric recycles flit storage round-to-round (TokenFabric's
 * FlitPool + ring-buffered TokenChannels), so once batch capacities
 * have warmed up, moving tokens allocates nothing — sequentially and
 * with a worker pool. This test replaces the global operator new to
 * count heap allocations inside a measurement window, which is why it
 * lives in its own test binary (test_fabric_alloc) and must not share
 * a process with other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/fabric.hh"

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
            std::vector<TokenBatch> &out) override
    {
        for (const TokenBatch *batch : in)
            for (const Flit &f : batch->flits)
                rxSum += batch->absCycle(f) + f.data[0];
        for (TokenBatch &batch : out) {
            for (uint32_t i = 0; i < flitsPerBatch; ++i) {
                Flit f;
                f.offset = i * static_cast<uint32_t>(window) /
                           (flitsPerBatch + 1);
                f.size = 8;
                f.last = (i + 1 == flitsPerBatch);
                f.data[0] = static_cast<uint8_t>(window_start + i);
                batch.push(f);
            }
        }
    }

    uint64_t rxSum = 0;

  private:
    std::string label;
    uint32_t flitsPerBatch;
};

/** No-op observer: forces the fabric onto its monitored code path. */
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

    // Warm-up: circulate enough rounds for every flit vector's capacity
    // and the recycling pool to reach steady state (pool creation and
    // worker spawning also land here).
    rig.fabric.run(rig.fabric.quantum() * 64);
    uint64_t misses_before = rig.fabric.batchAllocations();

    g_allocs.store(0);
    g_counting.store(true);
    rig.fabric.run(rig.fabric.quantum() * 256);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations in the steady-state round loop (hosts="
        << hosts << ", observer=" << with_observer << ")";
    EXPECT_EQ(rig.fabric.batchAllocations(), misses_before)
        << "flit-pool misses kept growing after warm-up";
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

TEST(FabricAlloc, PoolMissesAreBounded)
{
    // Misses can only occur while capacities warm up: strictly fewer
    // than one per (endpoint, port, round) even in round one, and the
    // count must be identical for sequential and parallel runs.
    Rig a(false);
    a.fabric.run(a.fabric.quantum() * 32);
    uint64_t seq = a.fabric.batchAllocations();

    Rig b(false);
    b.fabric.setParallelHosts(4);
    b.fabric.run(b.fabric.quantum() * 32);
    EXPECT_EQ(seq, b.fabric.batchAllocations());
    EXPECT_GT(seq, 0u); // cold start does miss
    EXPECT_LT(seq, 8u * 32u);
}

} // namespace
} // namespace firesim
