/**
 * @file
 * Cycle-level RV64IM Rocket-like core model.
 *
 * Models the paper's Table I blade processor: a single-issue, in-order
 * pipeline at 3.2 GHz with 16 KiB L1 caches, a shared 256 KiB L2, and
 * DDR3 behind it. Timing model: CPI 1 for simple ALU ops; extra
 * cycles for instruction-cache misses, load/store misses (blocking),
 * taken branches (frontend redirect), and long-latency mul/div — the
 * classic Rocket cost structure.
 *
 * Functional state is exact RV64IM semantics; programs are authored
 * with the embedded assembler (assembler.hh) or any other means of
 * placing RV64 machine code in blade memory.
 *
 * MMIO: addresses below the DRAM base dispatch to an MmioBus, which
 * hosts the UART, the HTIF-style tohost halt register, and the NIC /
 * block-device controller windows (nic_mmio.hh). MMIO accesses
 * synchronize the blade's event queue to the core's cycle so device
 * models observe a consistent time base.
 */

#ifndef FIRESIM_RISCV_CORE_HH
#define FIRESIM_RISCV_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "mem/cache.hh"
#include "mem/functional_memory.hh"
#include "riscv/riscv.hh"
#include "riscv/rocc.hh"
#include "telemetry/instr_trace.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

class Serializer;
class DecodeCache;
struct DecodeCacheStats;

/** Memory-mapped device region dispatch. */
class MmioBus
{
  public:
    using ReadFn = std::function<uint64_t(uint64_t offset, uint32_t size)>;
    using WriteFn =
        std::function<void(uint64_t offset, uint64_t value, uint32_t size)>;

    /**
     * Map [base, base+size) to the given handlers. Regions are kept
     * sorted by base so lookups binary-search instead of scanning.
     */
    void map(uint64_t base, uint64_t size, ReadFn read, WriteFn write,
             std::string name = "dev");

    bool contains(uint64_t addr) const;
    uint64_t read(uint64_t addr, uint32_t size) const;
    void write(uint64_t addr, uint64_t value, uint32_t size);

    /**
     * Called with the core's cycle before every device access, so
     * event-queue-based devices (NIC, block device) can catch up.
     */
    void setSyncHook(std::function<void(Cycles)> hook)
    {
        syncHook = std::move(hook);
    }
    void
    sync(Cycles now) const
    {
        if (syncHook)
            syncHook(now);
    }

    /** Fixed per-access MMIO latency in cycles. */
    Cycles accessLatency = 40;

  private:
    struct Region
    {
        uint64_t base;
        uint64_t size;
        ReadFn read;
        WriteFn write;
        std::string name;
    };
    const Region *find(uint64_t addr) const;

    std::vector<Region> regions; //!< sorted by base, non-overlapping
    /** Device-polling loops hit the same window repeatedly; cache the
     *  last match (an index — inserts may reallocate the vector). */
    mutable size_t lastHit = ~size_t(0);
    std::function<void(Cycles)> syncHook;
};

struct CoreConfig
{
    uint32_t hartId = 0;
    uint64_t resetPc = memmap::kDramBase;
    uint64_t dramBase = memmap::kDramBase;
    Cycles mulLatency = 4;
    Cycles divLatency = 32;
    Cycles takenBranchPenalty = 2;
    /** Sustained issue width: 1 = Rocket (in-order scalar); 2 models
     *  the Berkeley Out-of-Order Machine's throughput on straight-line
     *  code (Section VIII: BOOM fits where a quad-core Rocket does). */
    uint32_t issueWidth = 1;

    /** Host-side fast path: predecode instructions into a PC-indexed
     *  direct-mapped cache and dispatch superblocks. Pure host
     *  optimization — architectural and timing state is bit-identical
     *  with it on or off (false is the escape hatch). */
    bool decodeCache = true;
    /** Decode cache capacity in entries (one per 4-byte word; rounded
     *  up to a power of two). 32Ki entries covers 128 KiB of code. */
    uint32_t decodeCacheEntries = 1u << 15;

    /** The BOOM configuration the paper plans to integrate: wider
     *  issue, deeper pipeline (higher redirect cost), faster divider. */
    static CoreConfig
    boom()
    {
        CoreConfig cfg;
        cfg.issueWidth = 2;
        cfg.takenBranchPenalty = 8;
        cfg.mulLatency = 3;
        cfg.divLatency = 24;
        return cfg;
    }
};

struct CoreStats
{
    uint64_t instret = 0;
    Cycles cycles = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t takenBranches = 0;
    uint64_t mmioAccesses = 0;

    double
    cpi() const
    {
        return instret ? static_cast<double>(cycles) / instret : 0.0;
    }
    double ipc() const { return cycles ? 1.0 / cpi() : 0.0; }
};

class RocketCore
{
  public:
    /**
     * @param config core parameters
     * @param memory functional backing store (device address space:
     *               DRAM offset 0 == core address dramBase)
     * @param hierarchy cache/DRAM timing
     * @param bus MMIO dispatch (may be nullptr for pure-compute runs)
     */
    RocketCore(CoreConfig config, FunctionalMemory &memory,
               MemHierarchy &hierarchy, MmioBus *bus = nullptr);
    ~RocketCore();
    RocketCore(const RocketCore &) = delete;
    RocketCore &operator=(const RocketCore &) = delete;

    /** Reset architectural state and start at @p pc. */
    void reset(uint64_t pc);

    struct RunResult
    {
        uint64_t instret = 0;
        Cycles cycles = 0;
        bool halted = false;
        uint64_t exitCode = 0;
    };

    /** Execute until halt or @p max_instructions. */
    RunResult run(uint64_t max_instructions = ~0ULL);

    /** Execute one instruction; returns false once halted. */
    bool step();

    /**
     * Execute until the core's cycle counter reaches @p target or the
     * core halts — the batched-stepping entry point used by
     * ServerBlade to run a hart up to the token-window boundary in one
     * call. The stopping boundary is checked between instructions, so
     * the final cycle count may overshoot @p target by the length of
     * the last instruction, exactly as a step() loop with the same
     * condition would.
     */
    RunResult runUntilCycle(Cycles target);

    /**
     * Fast-path superblock dispatch: execute up to @p max_insns
     * instructions from the decode cache, stopping early at block
     * terminators (branches, jumps, SYSTEM, RoCC), at halt, or once
     * cycles reach @p cycle_limit. Produces exactly the same CoreStats
     * as the equivalent sequence of singleton step() calls. Falls back
     * to the slow interpreter per-instruction for anything the decoder
     * does not predecode. @return instructions executed.
     */
    uint64_t runBlock(uint64_t max_insns, Cycles cycle_limit);

    /** Decode-cache hit/miss/invalidation counters, or nullptr when
     *  the fast path is disabled. Host-only: never snapshotted. */
    const DecodeCacheStats *decodeStats() const;

    bool halted() const { return isHalted; }
    uint64_t exitCode() const { return tohostValue; }
    uint64_t pc() const { return pcReg; }
    uint64_t reg(Reg r) const { return x[r]; }
    void setReg(Reg r, uint64_t v)
    {
        if (r != 0)
            x[r] = v;
    }
    Cycles cycle() const { return stats_.cycles; }
    const CoreStats &stats() const { return stats_; }

    /** UART output accumulated so far. */
    const std::string &console() const { return uartOut; }

    /** Request a halt (wired to the tohost device). */
    void
    haltRequest(uint64_t code)
    {
        isHalted = true;
        tohostValue = code;
    }

    /** Append a byte to the console (wired to the UART device). */
    void putChar(char c) { uartOut.push_back(c); }

    /**
     * Attach a RoCC accelerator to opcode slot 0 (custom-0) or 1
     * (custom-1); see riscv/rocc.hh. The core blocks on each command
     * for the accelerator-reported latency.
     */
    void attachAccelerator(uint32_t slot, RoccAccelerator *accel);

    /**
     * Attach a TracerV-style committed-instruction trace (or nullptr
     * to detach). Out-of-band: the trace observes (pc, opcode class,
     * cycle) at every commit without touching architectural or timing
     * state, so enabling it changes no target-visible cycle count.
     * With no tracer attached the commit path costs one predicted-
     * not-taken null check.
     */
    void setTracer(InstructionTrace *trace) { trace_ = trace; }
    InstructionTrace *tracer() const { return trace_; }

    /**
     * Register this core's counters (instret, cycles, loads, stores,
     * branches, mmio) under @p prefix, plus derived ipc.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    /**
     * Serialize the full architectural + timing state: registers, pc,
     * halt/tohost, console output, issue accumulator and counters.
     * Backing memory and the cache hierarchy are snapshotted by their
     * owners.
     */
    void snapshotSave(Serializer &s) const;

  private:
    uint64_t loadData(uint64_t addr, uint32_t size, bool sign_extend);
    void storeData(uint64_t addr, uint64_t value, uint32_t size);
    /**
     * The fast-path dispatch loop behind runBlock/run/runUntilCycle.
     * With StopAtBlockEnd the loop returns at superblock terminators
     * (runBlock's contract); without it, execution flows straight into
     * the next block through a fresh slot lookup, sparing the bulk
     * callers a function round-trip per block. Both limits are tested
     * between instructions either way, so the two instantiations stop
     * at exactly the same commits.
     */
    template <bool StopAtBlockEnd>
    uint64_t dispatchLoop(uint64_t max_insns, Cycles cycle_limit);
    /** One instruction through the full decode-and-execute switch. */
    bool stepSlow();
    /** Execute @p insn (already fetched and charged); returns next pc.
     *  Shared by stepSlow and the fast path's Slow-op fallback. */
    uint64_t executeInterp(uint32_t insn);

    CoreConfig cfg;
    FunctionalMemory &mem;
    MemHierarchy &hier;
    MmioBus *bus;
    CoreStats stats_;

    uint64_t x[32] = {};
    std::unique_ptr<DecodeCache> dcache_; //!< host-only, not serialized
    Cache *l1iFast_ = nullptr; //!< this hart's L1I, cached for runBlock
    Cache *l1dFast_ = nullptr; //!< this hart's L1D, cached for data
    InstructionTrace *trace_ = nullptr;
    RoccAccelerator *rocc[2] = {nullptr, nullptr};
    uint32_t issueAccum = 0; //!< instructions since the last base cycle
    uint64_t pcReg = 0;
    bool isHalted = false;
    uint64_t tohostValue = 0;
    std::string uartOut;
};

/**
 * Wire the standard blade devices (UART, tohost) onto a bus for a
 * given core. NIC/block-device windows are added by nic_mmio.hh.
 */
void mapStandardDevices(MmioBus &bus, RocketCore &core);

} // namespace firesim

#endif // FIRESIM_RISCV_CORE_HH
