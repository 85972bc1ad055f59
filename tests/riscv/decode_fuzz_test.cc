/**
 * @file
 * Differential fuzzing of the decode-cache fast path (riscv/decode_cache)
 * against the interpretive slow path.
 *
 * Every test runs the same randomly generated RV64IM program on two
 * cores — decode cache on and off — and demands *bit-identical*
 * architectural state, CoreStats, console output, and committed
 * instruction trace. One test snapshots both modes at the same mid-run
 * cut and demands identical images (the decode cache is host-only
 * state and never serialized), another rewrites an already-executed
 * instruction to pin down the self-modifying-code invalidation path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "riscv/assembler.hh"
#include "riscv/core.hh"
#include "riscv/decode_cache.hh"
#include "snapshot/serial.hh"

namespace firesim
{
namespace
{

using namespace regs;

/** One core with its own memory/hierarchy/bus/tracer. */
struct Rig
{
    explicit Rig(bool decode_cache, uint32_t entries = 1u << 15)
        : mem(64 * MiB), hier(1), trace(1 << 18)
    {
        CoreConfig cc;
        cc.decodeCache = decode_cache;
        cc.decodeCacheEntries = entries;
        core = std::make_unique<RocketCore>(cc, mem, hier, &bus);
        mapStandardDevices(bus, *core);
        core->setTracer(&trace);
    }

    Assembler asmAt() { return Assembler(mem, memmap::kDramBase); }

    FunctionalMemory mem;
    MemHierarchy hier;
    MmioBus bus;
    InstructionTrace trace;
    std::unique_ptr<RocketCore> core;
};

/** Emit the same pseudo-random program into @p a for a given seed:
 *  a bounded outer loop over a body of random ALU/shift/word/muldiv/
 *  load/store ops plus short forward branches. */
void
emitFuzzProgram(Assembler &a, uint64_t seed, int body_ops)
{
    std::mt19937_64 rng(seed);
    // s0 = scratch data base, t5 = loop counter; the generator hands
    // out the remaining temporaries/arguments as operands.
    const Reg pool[] = {a0, a1, a2, a3, a4, a5, a6, a7,
                        t0, t1, t2, t3, t4, s1};
    auto reg = [&] { return pool[rng() % (sizeof(pool) / sizeof(pool[0]))]; };
    auto imm12 = [&] {
        return static_cast<int32_t>(rng() % 4096) - 2048;
    };

    a.li(s0, static_cast<int64_t>(memmap::kDramBase + 8 * MiB));
    a.li(t5, 37); // outer loop iterations
    for (size_t i = 0; i < sizeof(pool) / sizeof(pool[0]); ++i)
        a.li(pool[i], static_cast<int64_t>(rng()));

    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    for (int i = 0; i < body_ops; ++i) {
        switch (rng() % 8) {
          case 0: { // OP-IMM
            Reg rd = reg(), rs = reg();
            switch (rng() % 6) {
              case 0: a.addi(rd, rs, imm12()); break;
              case 1: a.xori(rd, rs, imm12()); break;
              case 2: a.andi(rd, rs, imm12()); break;
              case 3: a.ori(rd, rs, imm12()); break;
              case 4: a.slti(rd, rs, imm12()); break;
              case 5: a.sltiu(rd, rs, imm12()); break;
            }
            break;
          }
          case 1: { // shifts, immediate and register
            Reg rd = reg(), rs = reg();
            uint32_t sh = rng() % 64;
            switch (rng() % 6) {
              case 0: a.slli(rd, rs, sh); break;
              case 1: a.srli(rd, rs, sh); break;
              case 2: a.srai(rd, rs, sh); break;
              case 3: a.sll(rd, rs, reg()); break;
              case 4: a.srl(rd, rs, reg()); break;
              case 5: a.sra(rd, rs, reg()); break;
            }
            break;
          }
          case 2: { // OP
            Reg rd = reg(), rs1_ = reg(), rs2_ = reg();
            switch (rng() % 7) {
              case 0: a.add(rd, rs1_, rs2_); break;
              case 1: a.sub(rd, rs1_, rs2_); break;
              case 2: a.xor_(rd, rs1_, rs2_); break;
              case 3: a.or_(rd, rs1_, rs2_); break;
              case 4: a.and_(rd, rs1_, rs2_); break;
              case 5: a.slt(rd, rs1_, rs2_); break;
              case 6: a.sltu(rd, rs1_, rs2_); break;
            }
            break;
          }
          case 3: { // word ops
            Reg rd = reg(), rs = reg();
            uint32_t sh = rng() % 32;
            switch (rng() % 7) {
              case 0: a.addiw(rd, rs, imm12()); break;
              case 1: a.slliw(rd, rs, sh); break;
              case 2: a.srliw(rd, rs, sh); break;
              case 3: a.sraiw(rd, rs, sh); break;
              case 4: a.addw(rd, rs, reg()); break;
              case 5: a.subw(rd, rs, reg()); break;
              case 6: a.sllw(rd, rs, reg()); break;
            }
            break;
          }
          case 4: { // mul/div, including the b==0 / overflow edges
            Reg rd = reg(), rs1_ = reg(), rs2_ = reg();
            switch (rng() % 10) {
              case 0: a.mul(rd, rs1_, rs2_); break;
              case 1: a.mulh(rd, rs1_, rs2_); break;
              case 2: a.mulhsu(rd, rs1_, rs2_); break;
              case 3: a.mulhu(rd, rs1_, rs2_); break;
              case 4: a.div(rd, rs1_, rs2_); break;
              case 5: a.divu(rd, rs1_, rs2_); break;
              case 6: a.rem(rd, rs1_, rs2_); break;
              case 7: a.remu(rd, rs1_, rs2_); break;
              case 8: a.mulw(rd, rs1_, rs2_); break;
              case 9: a.divw(rd, rs1_, rs2_); break;
            }
            break;
          }
          case 5: { // store then load through the scratch region
            int32_t off = static_cast<int32_t>((rng() % 256) * 8);
            Reg v = reg(), rd = reg();
            switch (rng() % 4) {
              case 0: a.sd(v, s0, off); a.ld(rd, s0, off); break;
              case 1: a.sw(v, s0, off); a.lw(rd, s0, off); break;
              case 2: a.sh(v, s0, off); a.lhu(rd, s0, off); break;
              case 3: a.sb(v, s0, off); a.lb(rd, s0, off); break;
            }
            break;
          }
          case 6: { // short forward branch over one instruction
            Reg rs1_ = reg(), rs2_ = reg();
            Assembler::Label skip = a.newLabel();
            switch (rng() % 4) {
              case 0: a.beq(rs1_, rs2_, skip); break;
              case 1: a.bne(rs1_, rs2_, skip); break;
              case 2: a.blt(rs1_, rs2_, skip); break;
              case 3: a.bgeu(rs1_, rs2_, skip); break;
            }
            a.addi(reg(), reg(), imm12());
            a.bind(skip);
            break;
          }
          case 7: { // LUI/AUIPC
            Reg rd = reg();
            int32_t imm20 = static_cast<int32_t>(rng() % (1 << 20)) -
                            (1 << 19);
            if (rng() % 2)
                a.lui(rd, imm20);
            else
                a.auipc(rd, imm20);
            break;
          }
        }
    }
    a.addi(t5, t5, -1);
    a.bne(t5, zero, loop);
    a.halt(a0);
    a.finalize();
}

void
expectIdentical(Rig &on, Rig &off)
{
    EXPECT_EQ(on.core->halted(), off.core->halted());
    EXPECT_EQ(on.core->pc(), off.core->pc());
    EXPECT_EQ(on.core->exitCode(), off.core->exitCode());
    EXPECT_EQ(on.core->console(), off.core->console());
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(on.core->reg(static_cast<Reg>(r)),
                  off.core->reg(static_cast<Reg>(r)))
            << "x" << r;
    const CoreStats &s1 = on.core->stats();
    const CoreStats &s2 = off.core->stats();
    EXPECT_EQ(s1.instret, s2.instret);
    EXPECT_EQ(s1.cycles, s2.cycles);
    EXPECT_EQ(s1.loads, s2.loads);
    EXPECT_EQ(s1.stores, s2.stores);
    EXPECT_EQ(s1.branches, s2.branches);
    EXPECT_EQ(s1.takenBranches, s2.takenBranches);
    EXPECT_EQ(s1.mmioAccesses, s2.mmioAccesses);
    // Cache timing must agree too: the fast path's fetchAccess must
    // charge exactly what the slow path's hierarchy fetch does.
    EXPECT_EQ(on.hier.l1i(0).stats().hits.value(),
              off.hier.l1i(0).stats().hits.value());
    EXPECT_EQ(on.hier.l1i(0).stats().misses.value(),
              off.hier.l1i(0).stats().misses.value());
    EXPECT_EQ(on.trace.committed(), off.trace.committed());
    EXPECT_EQ(on.trace.drain(), off.trace.drain());
}

TEST(DecodeFuzz, RandomProgramsMatchSlowPathBitExactly)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rig on(true), off(false);
        {
            Assembler a = on.asmAt();
            emitFuzzProgram(a, seed, 120);
        }
        {
            Assembler a = off.asmAt();
            emitFuzzProgram(a, seed, 120);
        }
        on.core->run(2'000'000);
        off.core->run(2'000'000);
        EXPECT_TRUE(on.core->halted()) << "seed " << seed;
        expectIdentical(on, off);
        // The loop re-executes its body 37 times: the decode cache must
        // actually be getting hits, or this test measures nothing.
        ASSERT_NE(on.core->decodeStats(), nullptr);
        EXPECT_GT(on.core->decodeStats()->hits,
                  on.core->decodeStats()->misses);
        EXPECT_EQ(off.core->decodeStats(), nullptr);
    }
}

TEST(DecodeFuzz, TinyDirectMappedCacheStillExact)
{
    // 16 entries force constant conflict evictions; only wall-clock
    // may change, never results.
    Rig tiny(true, 16), off(false);
    {
        Assembler a = tiny.asmAt();
        emitFuzzProgram(a, 99, 200);
    }
    {
        Assembler a = off.asmAt();
        emitFuzzProgram(a, 99, 200);
    }
    tiny.core->run(2'000'000);
    off.core->run(2'000'000);
    EXPECT_TRUE(tiny.core->halted());
    expectIdentical(tiny, off);
    EXPECT_EQ(tiny.core->decodeStats()->misses +
                  tiny.core->decodeStats()->hits,
              tiny.core->stats().instret);
}

/** Save {mem, hier, core} in a fixed order. */
std::string
saveRig(const Rig &r)
{
    Serializer s;
    r.mem.snapshotSave(s);
    r.hier.snapshotSave(s);
    r.core->snapshotSave(s);
    return s.takeBytes();
}

TEST(DecodeFuzz, SnapshotMidRunCrossRestoresBetweenModes)
{
    // The decode cache is host-only and never serialized: rigs with the
    // cache on and off, stopped at the same cut, must save byte-identical
    // images (what a restore's replay-and-compare checks) and then
    // finish on the reference result.
    const uint64_t seed = 7;
    // Reference: cache-off straight through.
    Rig ref(false);
    {
        Assembler a = ref.asmAt();
        emitFuzzProgram(a, seed, 120);
    }
    ref.core->run(2'000'000);
    ASSERT_TRUE(ref.core->halted());

    Rig on(true), off(false);
    for (Rig *r : {&on, &off}) {
        Assembler a = r->asmAt();
        emitFuzzProgram(a, seed, 120);
    }
    std::mt19937_64 rng(seed * 12345);
    uint64_t cut = 500 + rng() % 3000;
    on.core->run(cut);
    off.core->run(cut);
    ASSERT_FALSE(on.core->halted());
    EXPECT_EQ(saveRig(on), saveRig(off));

    on.core->run(2'000'000);
    off.core->run(2'000'000);
    for (Rig *r : {&on, &off}) {
        EXPECT_TRUE(r->core->halted());
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(r->core->reg(static_cast<Reg>(i)),
                      ref.core->reg(static_cast<Reg>(i)));
        EXPECT_EQ(r->core->stats().cycles, ref.core->stats().cycles);
        EXPECT_EQ(r->core->stats().instret, ref.core->stats().instret);
        EXPECT_EQ(r->core->exitCode(), ref.core->exitCode());
        EXPECT_EQ(r->core->console(), ref.core->console());
    }
}

TEST(DecodeFuzz, SelfModifyingCodeInvalidatesAndMatches)
{
    auto build = [](Rig &r) {
        Assembler a = r.asmAt();
        // addi a0, a0, 7
        const uint32_t new_insn =
            (7u << 20) | (10u << 15) | (0u << 12) | (10u << 7) | 0x13u;
        a.li(a0, 0);
        a.li(t2, 2);
        a.li(t0, static_cast<int64_t>(new_insn));
        // The rewritten instruction lives at a fixed address so t1 can
        // be loaded before the loop (li expands to a variable-length
        // sequence, so in-loop addresses are awkward to materialize).
        const uint64_t target = memmap::kDramBase + 0x2000;
        a.li(t1, static_cast<int64_t>(target));
        Assembler::Label loop = a.newLabel();
        a.bind(loop);
        a.jalr(ra, t1, 0); // call the target snippet
        a.sw(t0, t1, 0);   // rewrite its first instruction
        a.addi(t2, t2, -1);
        a.bne(t2, zero, loop);
        a.halt(a0);
        a.finalize();
        // The callable target snippet: addi a0, a0, 1 ; ret
        Assembler snip(r.mem, target);
        snip.addi(a0, a0, 1);
        snip.ret();
        snip.finalize();
    };

    Rig on(true), off(false);
    build(on);
    build(off);
    on.core->run(10'000);
    off.core->run(10'000);
    ASSERT_TRUE(on.core->halted());
    ASSERT_TRUE(off.core->halted());
    // Iteration 1 adds 1, the rewrite lands, iteration 2 adds 7.
    EXPECT_EQ(on.core->exitCode(), 8u);
    EXPECT_EQ(off.core->exitCode(), 8u);
    expectIdentical(on, off);
    // The store over cached code must have invalidated at least the
    // target's slot — a stale hit would have produced 2, not 8.
    ASSERT_NE(on.core->decodeStats(), nullptr);
    EXPECT_GE(on.core->decodeStats()->invalidations, 1u);
}

} // namespace
} // namespace firesim
