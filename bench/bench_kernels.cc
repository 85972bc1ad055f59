/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot kernels:
 * the event queue, token channels, the switch's per-token processing
 * (the quantity the host performance model calls switchTokenNs), and
 * the RV64 interpreter. These measure the reproduction's own
 * performance, complementing the experiment harnesses.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "mem/cache.hh"
#include "net/fabric.hh"
#include "riscv/assembler.hh"
#include "riscv/core.hh"
#include "sim/event_queue.hh"
#include "switchmodel/switch.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Cycles>(i * 7 % 997), [&] { ++sink; });
        q.drain();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_SwitchTokenProcessing(benchmark::State &state)
{
    // Mirrors the host model's switchTokenNs: cost of pushing frames
    // through a ToR-sized switch, per token.
    const uint32_t ports = static_cast<uint32_t>(state.range(0));
    SwitchConfig cfg;
    cfg.ports = ports;
    Switch sw(cfg);
    ScriptedEndpoint rx("rx");
    std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
    TokenFabric fabric;
    for (uint32_t i = 0; i < ports; ++i) {
        eps.push_back(std::make_unique<ScriptedEndpoint>("ep"));
        fabric.addEndpoint(eps.back().get());
    }
    fabric.addEndpoint(&sw);
    for (uint32_t i = 0; i < ports; ++i) {
        sw.addMacEntry(MacAddr(i + 1), i);
        fabric.connect(eps[i].get(), 0, &sw, i, 6400);
    }
    fabric.finalize();

    EthFrame frame(MacAddr(2), MacAddr(1), EtherType::Raw,
                   std::vector<uint8_t>(1000, 0));
    uint64_t tokens = 0;
    for (auto _ : state) {
        eps[0]->sendAt(fabric.now() + 1, frame);
        fabric.run(6400);
        tokens += 6400ULL * ports;
    }
    state.SetItemsProcessed(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_SwitchTokenProcessing)->Arg(4)->Arg(9)->Arg(33);

void
BM_TokenChannelPushPop(benchmark::State &state)
{
    TokenChannel ch(6400, 6400);
    ch.pop();
    Cycles t = 0;
    for (auto _ : state) {
        TokenBatch b(t, 6400);
        Flit f;
        f.offset = 5;
        f.size = 8;
        f.last = true;
        b.push(f);
        ch.push(b);
        benchmark::DoNotOptimize(ch.pop());
        t += 6400;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenChannelPushPop);

void
BM_RocketCoreMips(benchmark::State &state)
{
    FunctionalMemory mem(16 * MiB);
    MemHierarchy hier(1);
    RocketCore core(CoreConfig{}, mem, hier, nullptr);

    Assembler a(mem, memmap::kDramBase);
    using namespace regs;
    Assembler::Label loop = a.newLabel();
    a.li(t0, 1);
    a.bind(loop);
    for (int i = 0; i < 16; ++i)
        a.addi(a0, a0, 1);
    a.j(loop);
    a.finalize();

    for (auto _ : state)
        benchmark::DoNotOptimize(core.run(100000).instret);
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_RocketCoreMips);

void
BM_CacheHitPath(benchmark::State &state)
{
    DramModel dram;
    Cache cache(CacheConfig{}, nullptr, &dram);
    cache.access(0x1000, 8, false, 0);
    Cycles now = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(0x1000, 8, false, now));
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitPath);

// ---- Interpreter fast-path kernels -----------------------------------
//
// Three RV64 kernels spanning the interpreter's behavior space — dense
// straight-line ALU, load-latency-bound pointer chasing, and
// branch-dense control flow — each runnable with the decode cache on
// or off (Arg(1)/Arg(0)). The on/off MIPS ratio is the speedup of the
// predecode + superblock fast path and lands in BENCH_kernels.json.

enum class InterpKernel { Alu, PointerChase, Branchy };

void
emitInterpKernel(InterpKernel kind, Assembler &a, FunctionalMemory &mem)
{
    using namespace regs;
    switch (kind) {
      case InterpKernel::Alu: {
        // Straight-line integer work, the fast path's best case.
        Assembler::Label loop = a.newLabel();
        a.li(a1, 0x9e3779b97f4a7c15ULL);
        a.bind(loop);
        for (int i = 0; i < 8; ++i) {
            a.addi(a0, a0, 1);
            a.xor_(a0, a0, a1);
            a.slli(a2, a0, 7);
            a.add(a0, a0, a2);
        }
        a.j(loop);
        break;
      }
      case InterpKernel::PointerChase: {
        // An L1-resident pointer ring (128 nodes x 64 B = 8 KiB):
        // every load depends on the last, so dispatch overhead is
        // measured against D-cache hits rather than simulated miss
        // handling (which would dominate either dispatch path).
        constexpr uint64_t kRing = 1 * MiB;
        constexpr int kNodes = 128;
        for (int i = 0; i < kNodes; ++i)
            mem.write64(kRing + 64ULL * i,
                        memmap::kDramBase + kRing +
                            64ULL * ((i + 1) % kNodes));
        a.li(t0, static_cast<int64_t>(memmap::kDramBase + kRing));
        Assembler::Label loop = a.newLabel();
        a.bind(loop);
        for (int i = 0; i < 8; ++i)
            a.ld(t0, t0, 0);
        a.j(loop);
        break;
      }
      case InterpKernel::Branchy: {
        // Data-dependent taken/not-taken mix: superblocks stay short,
        // the fast path's worst realistic case.
        Assembler::Label loop = a.newLabel();
        a.li(a0, 0);
        a.bind(loop);
        a.addi(a0, a0, 1);
        a.andi(t1, a0, 1);
        Assembler::Label odd = a.newLabel();
        a.bne(t1, zero, odd);
        a.addi(a1, a1, 3);
        a.bind(odd);
        a.andi(t2, a0, 7);
        Assembler::Label skip = a.newLabel();
        a.bne(t2, zero, skip);
        a.xor_(a1, a1, a0);
        a.bind(skip);
        a.j(loop);
        break;
      }
    }
    a.finalize();
}

struct InterpRig
{
    InterpRig(InterpKernel kind, bool decode_cache)
        : mem(16 * MiB), hier(1)
    {
        CoreConfig cfg;
        cfg.decodeCache = decode_cache;
        core = std::make_unique<RocketCore>(cfg, mem, hier, nullptr);
        Assembler a(mem, memmap::kDramBase);
        emitInterpKernel(kind, a, mem);
    }

    FunctionalMemory mem;
    MemHierarchy hier;
    std::unique_ptr<RocketCore> core;
};

void
runInterpBench(benchmark::State &state, InterpKernel kind)
{
    InterpRig rig(kind, state.range(0) != 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(rig.core->run(100000).instret);
    state.SetItemsProcessed(state.iterations() * 100000);
}

void
BM_InterpAlu(benchmark::State &state)
{
    runInterpBench(state, InterpKernel::Alu);
}
BENCHMARK(BM_InterpAlu)->Arg(0)->Arg(1);

void
BM_InterpPointerChase(benchmark::State &state)
{
    runInterpBench(state, InterpKernel::PointerChase);
}
BENCHMARK(BM_InterpPointerChase)->Arg(0)->Arg(1);

void
BM_InterpBranchy(benchmark::State &state)
{
    runInterpBench(state, InterpKernel::Branchy);
}
BENCHMARK(BM_InterpBranchy)->Arg(0)->Arg(1);

/** Best-of-3 million-instructions-per-second for one kernel/mode. */
double
interpMips(InterpKernel kind, bool decode_cache)
{
    constexpr uint64_t kInsns = 2'000'000;
    InterpRig rig(kind, decode_cache);
    rig.core->run(100000); // warm caches and branch state
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        auto t0 = std::chrono::steady_clock::now();
        rig.core->run(kInsns);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::max(best, kInsns / dt.count() / 1e6);
    }
    return best;
}

/** Measure every kernel on/off and write BENCH_kernels.json. */
void
writeKernelsJson()
{
    struct Row
    {
        const char *name;
        InterpKernel kind;
        double off, on;
    } rows[] = {
        {"alu", InterpKernel::Alu, 0, 0},
        {"pointer_chase", InterpKernel::PointerChase, 0, 0},
        {"branchy", InterpKernel::Branchy, 0, 0},
    };
    for (Row &r : rows) {
        r.off = interpMips(r.kind, false);
        r.on = interpMips(r.kind, true);
    }

    FILE *f = std::fopen("BENCH_kernels.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "warning: could not write BENCH_kernels.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"experiment\": \"interp_fast_path\",\n");
    std::fprintf(f, "  \"kernels\": {\n");
    double worst = 1e99;
    for (size_t i = 0; i < 3; ++i) {
        double speedup = rows[i].on / rows[i].off;
        worst = std::min(worst, speedup);
        std::fprintf(f,
                     "    \"%s\": {\"mips_off\": %.1f, \"mips_on\": "
                     "%.1f, \"speedup\": %.2f}%s\n",
                     rows[i].name, rows[i].off, rows[i].on, speedup,
                     i + 1 < 3 ? "," : "");
        std::printf("interp %-14s off %7.1f MIPS   on %7.1f MIPS   "
                    "speedup %.2fx\n",
                    rows[i].name, rows[i].off, rows[i].on, speedup);
    }
    std::fprintf(f, "  },\n  \"min_speedup\": %.2f\n}\n", worst);
    std::fclose(f);
    std::printf("BENCH_kernels.json written (min speedup %.2fx)\n",
                worst);
}

} // namespace
} // namespace firesim

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    firesim::writeKernelsJson();
    return 0;
}
