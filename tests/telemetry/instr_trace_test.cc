#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "riscv/assembler.hh"
#include "riscv/core.hh"
#include "telemetry/instr_trace.hh"

namespace firesim
{
namespace
{

using namespace regs;

TEST(InstructionTrace, RecordsInCommitOrder)
{
    InstructionTrace trace(16);
    trace.record(0x1000, OpClass::IntAlu, 1);
    trace.record(0x1004, OpClass::Load, 3);
    trace.record(0x1008, OpClass::Branch, 4);

    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.committed(), 3u);
    EXPECT_EQ(trace.dropped(), 0u);

    std::vector<TraceRecord> recs = trace.drain();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].pc, 0x1000u);
    EXPECT_EQ(recs[1].cls, OpClass::Load);
    EXPECT_EQ(recs[2].cycle, 4u);
    EXPECT_EQ(trace.size(), 0u); // drained
    EXPECT_EQ(trace.committed(), 3u); // lifetime total survives drain
}

TEST(InstructionTrace, RingOverflowKeepsNewest)
{
    InstructionTrace trace(4);
    for (uint64_t i = 0; i < 10; ++i)
        trace.record(0x1000 + 4 * i, OpClass::IntAlu, i);

    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.committed(), 10u);
    EXPECT_EQ(trace.dropped(), 6u);

    std::vector<TraceRecord> recs = trace.drain();
    ASSERT_EQ(recs.size(), 4u);
    // The newest four commits, still in commit order.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(recs[i].cycle, 6 + i);
        EXPECT_EQ(recs[i].pc, 0x1000u + 4 * (6 + i));
    }
}

/** A core running a small loop, with and without a tracer. */
struct TracedCoreFixture : public ::testing::Test
{
    TracedCoreFixture() : mem(64 * MiB), hier(1)
    {
        core = std::make_unique<RocketCore>(CoreConfig{}, mem, hier, &bus);
        mapStandardDevices(bus, *core);
    }

    /** count down from @p n to zero, then halt — a loop with ALU,
     *  branch, load and store traffic. */
    void
    loopProgram(int64_t n)
    {
        Assembler a(mem, memmap::kDramBase);
        a.li(a0, n);
        a.li(t1, static_cast<int64_t>(memmap::kDramBase + 0x10000));
        Assembler::Label loop = a.newLabel();
        a.bind(loop);
        a.sd(a0, t1, 0);
        a.ld(t2, t1, 0);
        a.addi(a0, a0, -1);
        a.bne(a0, zero, loop);
        a.halt(zero);
        a.finalize();
    }

    FunctionalMemory mem;
    MemHierarchy hier;
    MmioBus bus;
    std::unique_ptr<RocketCore> core;
};

TEST_F(TracedCoreFixture, TraceMatchesExecution)
{
    loopProgram(8);
    InstructionTrace trace(1 << 12);
    core->setTracer(&trace);
    auto r = core->run();
    ASSERT_TRUE(r.halted);

    // Every commit was recorded (ring was large enough).
    EXPECT_EQ(trace.committed(), r.instret);
    EXPECT_EQ(trace.dropped(), 0u);

    std::vector<TraceRecord> recs = trace.drain();
    ASSERT_EQ(recs.size(), r.instret);
    // Cycles are nondecreasing in commit order and the loop body pcs
    // repeat: the sd at the loop head commits 8 times.
    uint64_t loop_head_commits = 0;
    for (size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].cycle, recs[i - 1].cycle);
    for (const TraceRecord &rec : recs)
        loop_head_commits += (rec.pc == recs[4].pc) ? 1 : 0;
    EXPECT_EQ(loop_head_commits, 8u);
    // Class mix: the loop commits loads, stores and branches.
    uint64_t loads = 0, stores = 0, branches = 0;
    for (const TraceRecord &rec : recs) {
        loads += rec.cls == OpClass::Load;
        stores += rec.cls == OpClass::Store;
        branches += rec.cls == OpClass::Branch;
    }
    EXPECT_EQ(loads, core->stats().loads);
    EXPECT_EQ(stores, core->stats().stores);
    EXPECT_EQ(branches, core->stats().branches);
}

TEST_F(TracedCoreFixture, TracingIsInvisibleToTheTarget)
{
    // Identical program, tracer on vs off: identical cycle totals,
    // instret, and architectural exit state.
    loopProgram(50);
    InstructionTrace trace(1 << 12);
    core->setTracer(&trace);
    auto traced = core->run();

    FunctionalMemory mem2(64 * MiB);
    MemHierarchy hier2(1);
    MmioBus bus2;
    RocketCore plain(CoreConfig{}, mem2, hier2, &bus2);
    mapStandardDevices(bus2, plain);
    Assembler a(mem2, memmap::kDramBase);
    a.li(a0, 50);
    a.li(t1, static_cast<int64_t>(memmap::kDramBase + 0x10000));
    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    a.sd(a0, t1, 0);
    a.ld(t2, t1, 0);
    a.addi(a0, a0, -1);
    a.bne(a0, zero, loop);
    a.halt(zero);
    a.finalize();
    auto untraced = plain.run();

    EXPECT_EQ(traced.cycles, untraced.cycles);
    EXPECT_EQ(traced.instret, untraced.instret);
    EXPECT_EQ(traced.exitCode, untraced.exitCode);
    EXPECT_GT(trace.committed(), 0u);
}

TEST_F(TracedCoreFixture, TraceIsBitIdenticalAcrossRuns)
{
    // Two fresh cores, same program: the drained records must match
    // exactly (deterministic replay).
    std::vector<TraceRecord> recs[2];
    for (int run = 0; run < 2; ++run) {
        FunctionalMemory m(64 * MiB);
        MemHierarchy h(1);
        MmioBus b;
        RocketCore c(CoreConfig{}, m, h, &b);
        mapStandardDevices(b, c);
        Assembler a(m, memmap::kDramBase);
        a.li(a0, 20);
        Assembler::Label loop = a.newLabel();
        a.bind(loop);
        a.addi(a0, a0, -1);
        a.bne(a0, zero, loop);
        a.halt(zero);
        a.finalize();
        InstructionTrace trace(1 << 12);
        c.setTracer(&trace);
        c.run();
        recs[run] = trace.drain();
    }
    EXPECT_GT(recs[0].size(), 0u);
    EXPECT_EQ(recs[0], recs[1]);
}

} // namespace
} // namespace firesim
