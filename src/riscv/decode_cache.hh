/**
 * @file
 * Host-side predecoded-instruction cache for the RV64IM interpreter.
 *
 * The interpreter's per-instruction cost is dominated by refetching
 * the raw word from sparse functional memory and re-extracting
 * opcode/funct/register/immediate fields on every execution. This is
 * the classic decode-once fix (riscv-isa-sim's idiom): a direct-mapped
 * cache indexed by DRAM offset >> 2 holds one DecodedInsn per slot —
 * an exec-kernel id plus pre-extracted operand fields and the
 * pre-sign-extended immediate — so the hot loop dispatches straight
 * into a kernel switch.
 *
 * Correctness under self-modifying code and DMA: the cache registers a
 * CodeWriteWatch on the backing FunctionalMemory covering the range of
 * offsets it has ever decoded from. Any write overlapping that range
 * (a store from the core or a NIC/blockdev DMA) invalidates exactly
 * the slots whose cached instruction bytes the write touched; the
 * per-slot offset tag re-validates on every dispatch, so a mid-block
 * invalidation takes effect at the next instruction boundary — the
 * same boundary at which the slow path would have fetched the fresh
 * bytes.
 *
 * Everything here is host-only acceleration state: it is never
 * serialized, and its hit/miss/invalidation counters register under a
 * `.host.` stat prefix that snapshot parity comparisons strip.
 */

#ifndef FIRESIM_RISCV_DECODE_CACHE_HH
#define FIRESIM_RISCV_DECODE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/functional_memory.hh"
#include "telemetry/instr_trace.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

/**
 * One exec kernel per distinct instruction the interpreter's switch
 * implements. `Slow` marks encodings the fast path re-executes through
 * the interpretive path (unimplemented/panicking encodings), keeping
 * diagnostics byte-identical.
 */
enum class ExecOp : uint8_t
{
    Lui, Auipc, Jal, Jalr,
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Lb, Lh, Lw, Ld, Lbu, Lhu, Lwu,
    Sb, Sh, Sw, Sd,
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    Addiw, Slliw, Srliw, Sraiw,
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu,
    Addw, Subw, Sllw, Srlw, Sraw,
    Mulw, Divw, Divuw, Remw, Remuw,
    Fence, System, Rocc0, Rocc1,
    Slow,
};

/** A predecoded instruction: everything the exec loop needs, with the
 *  immediate already sign-extended (every RV64I form fits in 32 bits
 *  signed; shifts store the shamt). */
struct DecodedInsn
{
    /** Tag: DRAM offset this slot decodes, kNoOff when empty. */
    static constexpr uint64_t kNoOff = ~0ULL;

    uint64_t off = kNoOff;
    uint32_t raw = 0; //!< original encoding (Slow fallback, debugging)
    int32_t imm = 0;
    ExecOp op = ExecOp::Slow;
    OpClass cls = OpClass::IntAlu; //!< tracer commit-hook class
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t funct7 = 0; //!< RoCC command function
    /** Superblock terminator: control flow, SYSTEM, RoCC, or Slow. */
    bool endsBlock = true;
};

/** Decode one raw RV64IM word (tag fields are left untouched). */
DecodedInsn decodeInsn(uint32_t raw);

struct DecodeCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
};

/**
 * Direct-mapped predecoded-instruction cache over one core's view of
 * DRAM. Purely host-side: never snapshotted, bit-invisible to the
 * simulated target.
 */
class DecodeCache : public CodeWriteWatch
{
  public:
    /**
     * @param entries slot count, rounded up to a power of two (>= 1)
     * @param memory backing store to watch for code writes
     */
    DecodeCache(uint32_t entries, FunctionalMemory &memory);
    ~DecodeCache() override;

    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    /** The slot DRAM offset @p off maps to; valid iff slot.off == off. */
    DecodedInsn &
    slotFor(uint64_t off)
    {
        return slots_[(off >> 2) & mask_];
    }

    /** Fill @p slot with the decode of @p raw at @p off (a miss). */
    void fill(DecodedInsn &slot, uint64_t off, uint32_t raw);

    /** Drop every cached entry (e.g. after a wholesale memory clobber). */
    void invalidateAll();

    /** CodeWriteWatch: a write overlapped the decoded-code range. */
    void onCodeWrite(uint64_t addr, uint64_t len) override;

    uint32_t entries() const { return static_cast<uint32_t>(mask_ + 1); }

    const DecodeCacheStats &stats() const { return stats_; }

    /** Count a dispatch that re-validated against its tag. */
    void countHit() { ++stats_.hits; }

    /** Register hit/miss/invalidation probes under @p prefix (the
     *  caller routes these below a `.host.` segment so parity diffs
     *  strip them). */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  private:
    std::vector<DecodedInsn> slots_;
    uint64_t mask_;
    FunctionalMemory &mem_;
    DecodeCacheStats stats_;
};

} // namespace firesim

#endif // FIRESIM_RISCV_DECODE_CACHE_HH
