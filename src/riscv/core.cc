#include "riscv/core.hh"

#include <algorithm>

#include "base/logging.hh"
#include "riscv/decode_cache.hh"
#include "snapshot/serial.hh"

namespace firesim
{

// ---- MmioBus -----------------------------------------------------------

void
MmioBus::map(uint64_t base, uint64_t size, ReadFn read, WriteFn write,
             std::string name)
{
    for (const Region &r : regions) {
        if (base < r.base + r.size && r.base < base + size)
            fatal("MMIO region '%s' overlaps '%s'", name.c_str(),
                  r.name.c_str());
    }
    auto pos = std::upper_bound(
        regions.begin(), regions.end(), base,
        [](uint64_t b, const Region &r) { return b < r.base; });
    regions.insert(pos, Region{base, size, std::move(read),
                               std::move(write), std::move(name)});
    lastHit = ~size_t(0);
}

const MmioBus::Region *
MmioBus::find(uint64_t addr) const
{
    if (lastHit < regions.size()) {
        const Region &cached = regions[lastHit];
        if (addr >= cached.base && addr - cached.base < cached.size)
            return &cached;
    }
    // Regions are sorted and non-overlapping: the only candidate is
    // the last region starting at or below addr.
    auto it = std::upper_bound(
        regions.begin(), regions.end(), addr,
        [](uint64_t a, const Region &r) { return a < r.base; });
    if (it == regions.begin())
        return nullptr;
    --it;
    if (addr - it->base >= it->size)
        return nullptr;
    lastHit = static_cast<size_t>(it - regions.begin());
    return &*it;
}

bool
MmioBus::contains(uint64_t addr) const
{
    return find(addr) != nullptr;
}

uint64_t
MmioBus::read(uint64_t addr, uint32_t size) const
{
    const Region *r = find(addr);
    if (!r)
        panic("MMIO read from unmapped address %llx",
              (unsigned long long)addr);
    if (!r->read)
        panic("MMIO region '%s' is write-only", r->name.c_str());
    return r->read(addr - r->base, size);
}

void
MmioBus::write(uint64_t addr, uint64_t value, uint32_t size)
{
    const Region *r = find(addr);
    if (!r)
        panic("MMIO write to unmapped address %llx",
              (unsigned long long)addr);
    if (!r->write)
        panic("MMIO region '%s' is read-only", r->name.c_str());
    r->write(addr - r->base, value, size);
}

// ---- RocketCore ----------------------------------------------------------

RocketCore::RocketCore(CoreConfig config, FunctionalMemory &memory,
                       MemHierarchy &hierarchy, MmioBus *mmio_bus)
    : cfg(config), mem(memory), hier(hierarchy), bus(mmio_bus)
{
    if (cfg.decodeCache)
        dcache_ = std::make_unique<DecodeCache>(cfg.decodeCacheEntries,
                                                mem);
    reset(cfg.resetPc);
}

RocketCore::~RocketCore() = default;

const DecodeCacheStats *
RocketCore::decodeStats() const
{
    return dcache_ ? &dcache_->stats() : nullptr;
}

void
RocketCore::reset(uint64_t pc)
{
    for (auto &r : x)
        r = 0;
    pcReg = pc;
    isHalted = false;
    tohostValue = 0;
}

namespace
{
int64_t
sext(uint64_t value, unsigned bits)
{
    unsigned shift = 64 - bits;
    return static_cast<int64_t>(value << shift) >> shift;
}

/** TracerV opcode-class bucketing keyed on the major opcode. */
OpClass
opClassOf(uint32_t opcode, uint32_t funct7)
{
    switch (opcode) {
      case 0x03: // loads
        return OpClass::Load;
      case 0x23: // stores
        return OpClass::Store;
      case 0x63: // branches
        return OpClass::Branch;
      case 0x6f: // JAL
      case 0x67: // JALR
        return OpClass::Jump;
      case 0x33: // OP
      case 0x3b: // OP-32
        return funct7 == 1 ? OpClass::MulDiv : OpClass::IntAlu;
      case 0x73: // SYSTEM
      case 0x0f: // FENCE
        return OpClass::System;
      case 0x0b: // custom-0 (RoCC)
      case 0x2b: // custom-1 (RoCC)
        return OpClass::Custom;
      default:
        return OpClass::IntAlu;
    }
}
} // namespace

uint64_t
RocketCore::loadData(uint64_t addr, uint32_t size, bool sign_extend)
{
    uint64_t raw;
    if (addr >= cfg.dramBase) {
        uint64_t off = addr - cfg.dramBase;
        if (!l1dFast_)
            l1dFast_ = &hier.l1d(cfg.hartId);
        stats_.cycles += l1dFast_->dataAccess(off, size, false,
                                              stats_.cycles) -
                         1;
        switch (size) {
          case 1: raw = mem.read8(off); break;
          case 2: raw = mem.read16(off); break;
          case 4: raw = mem.read32(off); break;
          default: raw = mem.read64(off); break;
        }
    } else {
        if (!bus)
            panic("load from device address %llx with no MMIO bus",
                  (unsigned long long)addr);
        ++stats_.mmioAccesses;
        stats_.cycles += bus->accessLatency;
        bus->sync(stats_.cycles);
        raw = bus->read(addr, size);
    }
    if (sign_extend)
        return static_cast<uint64_t>(sext(raw, size * 8));
    return raw;
}

void
RocketCore::storeData(uint64_t addr, uint64_t value, uint32_t size)
{
    if (addr >= cfg.dramBase) {
        uint64_t off = addr - cfg.dramBase;
        if (!l1dFast_)
            l1dFast_ = &hier.l1d(cfg.hartId);
        Cycles lat =
            l1dFast_->dataAccess(off, size, true, stats_.cycles);
        // Stores retire through a store buffer: only miss stalls show.
        if (lat > 2)
            stats_.cycles += lat - 2;
        switch (size) {
          case 1: mem.write8(off, static_cast<uint8_t>(value)); break;
          case 2: mem.write16(off, static_cast<uint16_t>(value)); break;
          case 4: mem.write32(off, static_cast<uint32_t>(value)); break;
          default: mem.write64(off, value); break;
        }
    } else {
        if (!bus)
            panic("store to device address %llx with no MMIO bus",
                  (unsigned long long)addr);
        ++stats_.mmioAccesses;
        stats_.cycles += bus->accessLatency;
        bus->sync(stats_.cycles);
        bus->write(addr, value, size);
    }
}

bool
RocketCore::step()
{
    if (isHalted)
        return false;
    if (dcache_) {
        runBlock(1, ~Cycles(0));
        return !isHalted;
    }
    return stepSlow();
}

bool
RocketCore::stepSlow()
{
    // Fetch: the L1I hit latency is pipelined away; misses stall.
    uint64_t fetch_off = pcReg - cfg.dramBase;
    if (pcReg < cfg.dramBase)
        panic("fetch from non-DRAM address %llx",
              (unsigned long long)pcReg);
    Cycles fetch_lat = hier.fetch(cfg.hartId, fetch_off, stats_.cycles);
    if (fetch_lat > 1)
        stats_.cycles += fetch_lat - 1;

    uint32_t insn = mem.read32(fetch_off);
    // Base CPI: 1/issueWidth sustained on straight-line code.
    if (++issueAccum >= cfg.issueWidth) {
        stats_.cycles += 1;
        issueAccum = 0;
    }
    ++stats_.instret;

    uint64_t next_pc = executeInterp(insn);

    // Commit: the instruction retired. The tracer (when attached)
    // observes out-of-band — a null check is the entire disabled cost.
    if (trace_)
        trace_->record(pcReg, opClassOf(insn & 0x7f, insn >> 25),
                       stats_.cycles);

    pcReg = next_pc;
    return !isHalted;
}

uint64_t
RocketCore::executeInterp(uint32_t insn)
{
    uint64_t next_pc = pcReg + 4;
    uint32_t opcode = insn & 0x7f;
    Reg rd = static_cast<Reg>((insn >> 7) & 0x1f);
    uint32_t funct3 = (insn >> 12) & 7;
    Reg rs1 = static_cast<Reg>((insn >> 15) & 0x1f);
    Reg rs2 = static_cast<Reg>((insn >> 20) & 0x1f);
    uint32_t funct7 = insn >> 25;
    int64_t imm_i = sext(insn >> 20, 12);
    int64_t imm_s = sext(((insn >> 25) << 5) | ((insn >> 7) & 0x1f), 12);
    int64_t imm_b = sext((((insn >> 31) & 1) << 12) |
                             (((insn >> 7) & 1) << 11) |
                             (((insn >> 25) & 0x3f) << 5) |
                             (((insn >> 8) & 0xf) << 1),
                         13);
    int64_t imm_u = sext(insn & 0xfffff000ULL, 32);
    int64_t imm_j = sext((((insn >> 31) & 1) << 20) |
                             (((insn >> 12) & 0xff) << 12) |
                             (((insn >> 20) & 1) << 11) |
                             (((insn >> 21) & 0x3ff) << 1),
                         21);

    uint64_t a = x[rs1];
    uint64_t b = x[rs2];
    auto wr = [&](uint64_t v) {
        if (rd != 0)
            x[rd] = v;
    };
    auto branch = [&](bool take) {
        ++stats_.branches;
        if (take) {
            ++stats_.takenBranches;
            stats_.cycles += cfg.takenBranchPenalty;
            next_pc = pcReg + imm_b;
        }
    };

    switch (opcode) {
      case 0x37: // LUI
        wr(static_cast<uint64_t>(imm_u));
        break;
      case 0x17: // AUIPC
        wr(pcReg + static_cast<uint64_t>(imm_u));
        break;
      case 0x6f: // JAL
        wr(pcReg + 4);
        next_pc = pcReg + imm_j;
        stats_.cycles += cfg.takenBranchPenalty;
        break;
      case 0x67: // JALR
        wr(pcReg + 4);
        next_pc = (a + imm_i) & ~1ULL;
        stats_.cycles += cfg.takenBranchPenalty;
        break;
      case 0x63: // branches
        switch (funct3) {
          case 0: branch(a == b); break;
          case 1: branch(a != b); break;
          case 4: branch(static_cast<int64_t>(a) < static_cast<int64_t>(b)); break;
          case 5: branch(static_cast<int64_t>(a) >= static_cast<int64_t>(b)); break;
          case 6: branch(a < b); break;
          case 7: branch(a >= b); break;
          default: panic("bad branch funct3 %u at %llx", funct3,
                         (unsigned long long)pcReg);
        }
        break;
      case 0x03: { // loads
        ++stats_.loads;
        uint64_t addr = a + imm_i;
        switch (funct3) {
          case 0: wr(loadData(addr, 1, true)); break;
          case 1: wr(loadData(addr, 2, true)); break;
          case 2: wr(loadData(addr, 4, true)); break;
          case 3: wr(loadData(addr, 8, false)); break;
          case 4: wr(loadData(addr, 1, false)); break;
          case 5: wr(loadData(addr, 2, false)); break;
          case 6: wr(loadData(addr, 4, false)); break;
          default: panic("bad load funct3 %u", funct3);
        }
        break;
      }
      case 0x23: { // stores
        ++stats_.stores;
        uint64_t addr = a + imm_s;
        switch (funct3) {
          case 0: storeData(addr, b, 1); break;
          case 1: storeData(addr, b, 2); break;
          case 2: storeData(addr, b, 4); break;
          case 3: storeData(addr, b, 8); break;
          default: panic("bad store funct3 %u", funct3);
        }
        break;
      }
      case 0x13: // OP-IMM
        switch (funct3) {
          case 0: wr(a + imm_i); break;
          case 2: wr(static_cast<int64_t>(a) < imm_i ? 1 : 0); break;
          case 3: wr(a < static_cast<uint64_t>(imm_i) ? 1 : 0); break;
          case 4: wr(a ^ imm_i); break;
          case 6: wr(a | imm_i); break;
          case 7: wr(a & imm_i); break;
          case 1: wr(a << ((insn >> 20) & 0x3f)); break;
          case 5: {
            uint32_t sh = (insn >> 20) & 0x3f;
            if (insn & 0x40000000)
                wr(static_cast<uint64_t>(static_cast<int64_t>(a) >> sh));
            else
                wr(a >> sh);
            break;
          }
        }
        break;
      case 0x1b: // OP-IMM-32
        switch (funct3) {
          case 0: wr(static_cast<uint64_t>(sext((a + imm_i) & 0xffffffffULL, 32))); break;
          case 1: wr(static_cast<uint64_t>(sext((a << ((insn >> 20) & 0x1f)) & 0xffffffffULL, 32))); break;
          case 5: {
            uint32_t sh = (insn >> 20) & 0x1f;
            uint32_t w = static_cast<uint32_t>(a);
            if (insn & 0x40000000)
                wr(static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(w) >> sh)));
            else
                wr(static_cast<uint64_t>(sext(w >> sh, 32)));
            break;
          }
          default: panic("bad OP-IMM-32 funct3 %u", funct3);
        }
        break;
      case 0x33: // OP
        if (funct7 == 1) { // RV64M
            stats_.cycles +=
                (funct3 < 4) ? cfg.mulLatency - 1 : cfg.divLatency - 1;
            switch (funct3) {
              case 0: wr(a * b); break;
              case 1: wr(static_cast<uint64_t>(
                          (static_cast<__int128>(static_cast<int64_t>(a)) *
                           static_cast<__int128>(static_cast<int64_t>(b))) >> 64));
                break;
              case 2: wr(static_cast<uint64_t>(
                          (static_cast<__int128>(static_cast<int64_t>(a)) *
                           static_cast<unsigned __int128>(b)) >> 64));
                break;
              case 3: wr(static_cast<uint64_t>(
                          (static_cast<unsigned __int128>(a) *
                           static_cast<unsigned __int128>(b)) >> 64));
                break;
              case 4: // DIV
                if (b == 0)
                    wr(~0ULL);
                else if (static_cast<int64_t>(a) == INT64_MIN &&
                         static_cast<int64_t>(b) == -1)
                    wr(a);
                else
                    wr(static_cast<uint64_t>(static_cast<int64_t>(a) /
                                             static_cast<int64_t>(b)));
                break;
              case 5: wr(b == 0 ? ~0ULL : a / b); break;
              case 6: // REM
                if (b == 0)
                    wr(a);
                else if (static_cast<int64_t>(a) == INT64_MIN &&
                         static_cast<int64_t>(b) == -1)
                    wr(0);
                else
                    wr(static_cast<uint64_t>(static_cast<int64_t>(a) %
                                             static_cast<int64_t>(b)));
                break;
              case 7: wr(b == 0 ? a : a % b); break;
            }
        } else {
            switch (funct3) {
              case 0: wr(funct7 == 0x20 ? a - b : a + b); break;
              case 1: wr(a << (b & 0x3f)); break;
              case 2: wr(static_cast<int64_t>(a) < static_cast<int64_t>(b) ? 1 : 0); break;
              case 3: wr(a < b ? 1 : 0); break;
              case 4: wr(a ^ b); break;
              case 5:
                if (funct7 == 0x20)
                    wr(static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 0x3f)));
                else
                    wr(a >> (b & 0x3f));
                break;
              case 6: wr(a | b); break;
              case 7: wr(a & b); break;
            }
        }
        break;
      case 0x3b: // OP-32
        if (funct7 == 1) { // RV64M W
            stats_.cycles +=
                (funct3 == 0) ? cfg.mulLatency - 1 : cfg.divLatency - 1;
            int32_t aw = static_cast<int32_t>(a);
            int32_t bw = static_cast<int32_t>(b);
            switch (funct3) {
              case 0: wr(static_cast<uint64_t>(static_cast<int64_t>(aw) * bw)); break;
              case 4: // DIVW
                if (bw == 0)
                    wr(~0ULL);
                else if (aw == INT32_MIN && bw == -1)
                    wr(static_cast<uint64_t>(static_cast<int64_t>(aw)));
                else
                    wr(static_cast<uint64_t>(static_cast<int64_t>(aw / bw)));
                break;
              case 5: {
                uint32_t au = static_cast<uint32_t>(a);
                uint32_t bu = static_cast<uint32_t>(b);
                wr(static_cast<uint64_t>(sext(bu == 0 ? ~0u : au / bu, 32)));
                break;
              }
              case 6:
                if (bw == 0)
                    wr(static_cast<uint64_t>(static_cast<int64_t>(aw)));
                else if (aw == INT32_MIN && bw == -1)
                    wr(0);
                else
                    wr(static_cast<uint64_t>(static_cast<int64_t>(aw % bw)));
                break;
              case 7: {
                uint32_t au = static_cast<uint32_t>(a);
                uint32_t bu = static_cast<uint32_t>(b);
                wr(static_cast<uint64_t>(sext(bu == 0 ? au : au % bu, 32)));
                break;
              }
              default: panic("bad OP-32 M funct3 %u", funct3);
            }
        } else {
            uint32_t aw = static_cast<uint32_t>(a);
            switch (funct3) {
              case 0:
                wr(static_cast<uint64_t>(sext(
                    funct7 == 0x20 ? aw - static_cast<uint32_t>(b)
                                   : aw + static_cast<uint32_t>(b),
                    32)));
                break;
              case 1: wr(static_cast<uint64_t>(sext(aw << (b & 0x1f), 32))); break;
              case 5:
                if (funct7 == 0x20)
                    wr(static_cast<uint64_t>(static_cast<int64_t>(
                        static_cast<int32_t>(aw) >> (b & 0x1f))));
                else
                    wr(static_cast<uint64_t>(sext(aw >> (b & 0x1f), 32)));
                break;
              default: panic("bad OP-32 funct3 %u", funct3);
            }
        }
        break;
      case 0x0b:   // custom-0 (RoCC slot 0)
      case 0x2b: { // custom-1 (RoCC slot 1)
        uint32_t slot = opcode == 0x0b ? 0 : 1;
        if (!rocc[slot])
            panic("custom-%u instruction at %llx with no accelerator "
                  "attached",
                  slot, (unsigned long long)pcReg);
        RoccResult res = rocc[slot]->execute(funct7, a, b);
        if (res.latency > 1)
            stats_.cycles += res.latency - 1;
        wr(res.rd);
        break;
      }
      case 0x0f: // FENCE: no-op timing-wise in this model
        break;
      case 0x73: // SYSTEM: ECALL/EBREAK halt (bare-metal convention)
        haltRequest(x[regs::a0]);
        break;
      default:
        panic("unimplemented opcode %02x at pc %llx (insn %08x)", opcode,
              (unsigned long long)pcReg, insn);
    }

    return next_pc;
}

uint64_t
RocketCore::runBlock(uint64_t max_insns, Cycles cycle_limit)
{
    return dispatchLoop<true>(max_insns, cycle_limit);
}

template <bool StopAtBlockEnd>
uint64_t
RocketCore::dispatchLoop(uint64_t max_insns, Cycles cycle_limit)
{
    if (isHalted || max_insns == 0)
        return 0;
    if (!l1iFast_)
        l1iFast_ = &hier.l1i(cfg.hartId);
    DecodeCache &dc = *dcache_;
    uint64_t executed = 0;

    for (;;) {
        if (pcReg < cfg.dramBase)
            panic("fetch from non-DRAM address %llx",
                  (unsigned long long)pcReg);
        uint64_t off = pcReg - cfg.dramBase;
        DecodedInsn &slot = dc.slotFor(off);
        if (slot.off != off)
            dc.fill(slot, off, mem.read32(off));
        else
            dc.countHit();
        // Copy out everything commit needs before executing: an MMIO
        // access below syncs the event queue, and a device DMA landing
        // on this code line invalidates the slot mid-instruction.
        const ExecOp op = slot.op;
        const OpClass cls = slot.cls;
        const bool ends = slot.endsBlock;
        const uint8_t rd = slot.rd;
        const int64_t imm = slot.imm;
        const uint32_t raw = slot.raw;
        const uint8_t fn7 = slot.funct7;
        const uint64_t a = x[slot.rs1];
        const uint64_t b = x[slot.rs2];

        Cycles fetch_lat = l1iFast_->fetchAccess(off, stats_.cycles);
        if (fetch_lat > 1)
            stats_.cycles += fetch_lat - 1;
        if (++issueAccum >= cfg.issueWidth) {
            stats_.cycles += 1;
            issueAccum = 0;
        }
        ++stats_.instret;

        uint64_t next_pc = pcReg + 4;
        auto wr = [&](uint64_t v) {
            if (rd != 0)
                x[rd] = v;
        };
        auto branch = [&](bool take) {
            ++stats_.branches;
            if (take) {
                ++stats_.takenBranches;
                stats_.cycles += cfg.takenBranchPenalty;
                next_pc = pcReg + imm;
            }
        };

        switch (op) {
          case ExecOp::Lui:
            wr(static_cast<uint64_t>(imm));
            break;
          case ExecOp::Auipc:
            wr(pcReg + static_cast<uint64_t>(imm));
            break;
          case ExecOp::Jal:
            wr(pcReg + 4);
            next_pc = pcReg + imm;
            stats_.cycles += cfg.takenBranchPenalty;
            break;
          case ExecOp::Jalr:
            wr(pcReg + 4);
            next_pc = (a + imm) & ~1ULL;
            stats_.cycles += cfg.takenBranchPenalty;
            break;
          case ExecOp::Beq: branch(a == b); break;
          case ExecOp::Bne: branch(a != b); break;
          case ExecOp::Blt:
            branch(static_cast<int64_t>(a) < static_cast<int64_t>(b));
            break;
          case ExecOp::Bge:
            branch(static_cast<int64_t>(a) >= static_cast<int64_t>(b));
            break;
          case ExecOp::Bltu: branch(a < b); break;
          case ExecOp::Bgeu: branch(a >= b); break;
          case ExecOp::Lb:
            ++stats_.loads;
            wr(loadData(a + imm, 1, true));
            break;
          case ExecOp::Lh:
            ++stats_.loads;
            wr(loadData(a + imm, 2, true));
            break;
          case ExecOp::Lw:
            ++stats_.loads;
            wr(loadData(a + imm, 4, true));
            break;
          case ExecOp::Ld:
            ++stats_.loads;
            wr(loadData(a + imm, 8, false));
            break;
          case ExecOp::Lbu:
            ++stats_.loads;
            wr(loadData(a + imm, 1, false));
            break;
          case ExecOp::Lhu:
            ++stats_.loads;
            wr(loadData(a + imm, 2, false));
            break;
          case ExecOp::Lwu:
            ++stats_.loads;
            wr(loadData(a + imm, 4, false));
            break;
          case ExecOp::Sb:
            ++stats_.stores;
            storeData(a + imm, b, 1);
            break;
          case ExecOp::Sh:
            ++stats_.stores;
            storeData(a + imm, b, 2);
            break;
          case ExecOp::Sw:
            ++stats_.stores;
            storeData(a + imm, b, 4);
            break;
          case ExecOp::Sd:
            ++stats_.stores;
            storeData(a + imm, b, 8);
            break;
          case ExecOp::Addi: wr(a + imm); break;
          case ExecOp::Slti:
            wr(static_cast<int64_t>(a) < imm ? 1 : 0);
            break;
          case ExecOp::Sltiu:
            wr(a < static_cast<uint64_t>(imm) ? 1 : 0);
            break;
          case ExecOp::Xori: wr(a ^ static_cast<uint64_t>(imm)); break;
          case ExecOp::Ori: wr(a | static_cast<uint64_t>(imm)); break;
          case ExecOp::Andi: wr(a & static_cast<uint64_t>(imm)); break;
          case ExecOp::Slli: wr(a << imm); break;
          case ExecOp::Srli: wr(a >> imm); break;
          case ExecOp::Srai:
            wr(static_cast<uint64_t>(static_cast<int64_t>(a) >> imm));
            break;
          case ExecOp::Addiw:
            wr(static_cast<uint64_t>(sext((a + imm) & 0xffffffffULL, 32)));
            break;
          case ExecOp::Slliw:
            wr(static_cast<uint64_t>(sext((a << imm) & 0xffffffffULL, 32)));
            break;
          case ExecOp::Srliw:
            wr(static_cast<uint64_t>(
                sext(static_cast<uint32_t>(a) >> imm, 32)));
            break;
          case ExecOp::Sraiw:
            wr(static_cast<uint64_t>(static_cast<int64_t>(
                static_cast<int32_t>(static_cast<uint32_t>(a)) >> imm)));
            break;
          case ExecOp::Add: wr(a + b); break;
          case ExecOp::Sub: wr(a - b); break;
          case ExecOp::Sll: wr(a << (b & 0x3f)); break;
          case ExecOp::Slt:
            wr(static_cast<int64_t>(a) < static_cast<int64_t>(b) ? 1 : 0);
            break;
          case ExecOp::Sltu: wr(a < b ? 1 : 0); break;
          case ExecOp::Xor: wr(a ^ b); break;
          case ExecOp::Srl: wr(a >> (b & 0x3f)); break;
          case ExecOp::Sra:
            wr(static_cast<uint64_t>(static_cast<int64_t>(a) >>
                                     (b & 0x3f)));
            break;
          case ExecOp::Or: wr(a | b); break;
          case ExecOp::And: wr(a & b); break;
          case ExecOp::Mul:
            stats_.cycles += cfg.mulLatency - 1;
            wr(a * b);
            break;
          case ExecOp::Mulh:
            stats_.cycles += cfg.mulLatency - 1;
            wr(static_cast<uint64_t>(
                (static_cast<__int128>(static_cast<int64_t>(a)) *
                 static_cast<__int128>(static_cast<int64_t>(b))) >> 64));
            break;
          case ExecOp::Mulhsu:
            stats_.cycles += cfg.mulLatency - 1;
            wr(static_cast<uint64_t>(
                (static_cast<__int128>(static_cast<int64_t>(a)) *
                 static_cast<unsigned __int128>(b)) >> 64));
            break;
          case ExecOp::Mulhu:
            stats_.cycles += cfg.mulLatency - 1;
            wr(static_cast<uint64_t>(
                (static_cast<unsigned __int128>(a) *
                 static_cast<unsigned __int128>(b)) >> 64));
            break;
          case ExecOp::Div:
            stats_.cycles += cfg.divLatency - 1;
            if (b == 0)
                wr(~0ULL);
            else if (static_cast<int64_t>(a) == INT64_MIN &&
                     static_cast<int64_t>(b) == -1)
                wr(a);
            else
                wr(static_cast<uint64_t>(static_cast<int64_t>(a) /
                                         static_cast<int64_t>(b)));
            break;
          case ExecOp::Divu:
            stats_.cycles += cfg.divLatency - 1;
            wr(b == 0 ? ~0ULL : a / b);
            break;
          case ExecOp::Rem:
            stats_.cycles += cfg.divLatency - 1;
            if (b == 0)
                wr(a);
            else if (static_cast<int64_t>(a) == INT64_MIN &&
                     static_cast<int64_t>(b) == -1)
                wr(0);
            else
                wr(static_cast<uint64_t>(static_cast<int64_t>(a) %
                                         static_cast<int64_t>(b)));
            break;
          case ExecOp::Remu:
            stats_.cycles += cfg.divLatency - 1;
            wr(b == 0 ? a : a % b);
            break;
          case ExecOp::Addw:
            wr(static_cast<uint64_t>(sext(static_cast<uint32_t>(a) +
                                              static_cast<uint32_t>(b),
                                          32)));
            break;
          case ExecOp::Subw:
            wr(static_cast<uint64_t>(sext(static_cast<uint32_t>(a) -
                                              static_cast<uint32_t>(b),
                                          32)));
            break;
          case ExecOp::Sllw:
            wr(static_cast<uint64_t>(
                sext(static_cast<uint32_t>(a) << (b & 0x1f), 32)));
            break;
          case ExecOp::Srlw:
            wr(static_cast<uint64_t>(
                sext(static_cast<uint32_t>(a) >> (b & 0x1f), 32)));
            break;
          case ExecOp::Sraw:
            wr(static_cast<uint64_t>(static_cast<int64_t>(
                static_cast<int32_t>(static_cast<uint32_t>(a)) >>
                (b & 0x1f))));
            break;
          case ExecOp::Mulw:
            stats_.cycles += cfg.mulLatency - 1;
            wr(static_cast<uint64_t>(
                static_cast<int64_t>(static_cast<int32_t>(a)) *
                static_cast<int32_t>(b)));
            break;
          case ExecOp::Divw: {
            stats_.cycles += cfg.divLatency - 1;
            int32_t aw = static_cast<int32_t>(a);
            int32_t bw = static_cast<int32_t>(b);
            if (bw == 0)
                wr(~0ULL);
            else if (aw == INT32_MIN && bw == -1)
                wr(static_cast<uint64_t>(static_cast<int64_t>(aw)));
            else
                wr(static_cast<uint64_t>(static_cast<int64_t>(aw / bw)));
            break;
          }
          case ExecOp::Divuw: {
            stats_.cycles += cfg.divLatency - 1;
            uint32_t au = static_cast<uint32_t>(a);
            uint32_t bu = static_cast<uint32_t>(b);
            wr(static_cast<uint64_t>(sext(bu == 0 ? ~0u : au / bu, 32)));
            break;
          }
          case ExecOp::Remw: {
            stats_.cycles += cfg.divLatency - 1;
            int32_t aw = static_cast<int32_t>(a);
            int32_t bw = static_cast<int32_t>(b);
            if (bw == 0)
                wr(static_cast<uint64_t>(static_cast<int64_t>(aw)));
            else if (aw == INT32_MIN && bw == -1)
                wr(0);
            else
                wr(static_cast<uint64_t>(static_cast<int64_t>(aw % bw)));
            break;
          }
          case ExecOp::Remuw: {
            stats_.cycles += cfg.divLatency - 1;
            uint32_t au = static_cast<uint32_t>(a);
            uint32_t bu = static_cast<uint32_t>(b);
            wr(static_cast<uint64_t>(sext(bu == 0 ? au : au % bu, 32)));
            break;
          }
          case ExecOp::Fence:
            break;
          case ExecOp::System:
            haltRequest(x[regs::a0]);
            break;
          case ExecOp::Rocc0:
          case ExecOp::Rocc1: {
            uint32_t rocc_slot = op == ExecOp::Rocc0 ? 0 : 1;
            if (!rocc[rocc_slot])
                panic("custom-%u instruction at %llx with no accelerator "
                      "attached",
                      rocc_slot, (unsigned long long)pcReg);
            RoccResult res = rocc[rocc_slot]->execute(fn7, a, b);
            if (res.latency > 1)
                stats_.cycles += res.latency - 1;
            wr(res.rd);
            break;
          }
          case ExecOp::Slow:
            // Encodings the decoder doesn't predecode re-execute
            // through the interpretive switch for identical semantics
            // (in practice: the panic diagnostics).
            next_pc = executeInterp(raw);
            break;
        }

        if (trace_)
            trace_->record(pcReg, cls, stats_.cycles);
        pcReg = next_pc;
        ++executed;
        if (isHalted || (StopAtBlockEnd && ends))
            break;
        if (executed >= max_insns || stats_.cycles >= cycle_limit)
            break;
    }
    return executed;
}

RocketCore::RunResult
RocketCore::runUntilCycle(Cycles target)
{
    RunResult result;
    Cycles start_cycles = stats_.cycles;
    uint64_t start_instret = stats_.instret;
    // Both paths test the boundary between instructions, so the two
    // stepping modes halt at exactly the same commit.
    if (dcache_) {
        while (!isHalted && stats_.cycles < target)
            dispatchLoop<false>(~0ULL, target);
    } else {
        while (!isHalted && stats_.cycles < target)
            stepSlow();
    }
    result.instret = stats_.instret - start_instret;
    result.cycles = stats_.cycles - start_cycles;
    result.halted = isHalted;
    result.exitCode = tohostValue;
    return result;
}

void
RocketCore::registerStats(StatRegistry &registry,
                          const std::string &prefix) const
{
    const CoreStats *s = &stats_;
    registry.registerProbe(prefix + ".instret", [s] {
        return static_cast<double>(s->instret);
    });
    registry.registerProbe(prefix + ".cycles", [s] {
        return static_cast<double>(s->cycles);
    });
    registry.registerProbe(prefix + ".loads", [s] {
        return static_cast<double>(s->loads);
    });
    registry.registerProbe(prefix + ".stores", [s] {
        return static_cast<double>(s->stores);
    });
    registry.registerProbe(prefix + ".branches", [s] {
        return static_cast<double>(s->branches);
    });
    registry.registerProbe(prefix + ".takenBranches", [s] {
        return static_cast<double>(s->takenBranches);
    });
    registry.registerProbe(prefix + ".mmioAccesses", [s] {
        return static_cast<double>(s->mmioAccesses);
    });
    registry.registerProbe(prefix + ".ipc", [s] { return s->ipc(); });
    // Host-only fast-path telemetry: the `.host.` segment is stripped
    // from snapshot parity diffs (it differs run-to-run by design).
    if (dcache_)
        dcache_->registerStats(registry, prefix + ".host.decode");
}

RocketCore::RunResult
RocketCore::run(uint64_t max_instructions)
{
    RunResult result;
    Cycles start_cycles = stats_.cycles;
    uint64_t start_instret = stats_.instret;
    if (dcache_) {
        while (!isHalted &&
               stats_.instret - start_instret < max_instructions)
            dispatchLoop<false>(
                max_instructions - (stats_.instret - start_instret),
                ~Cycles(0));
    } else {
        while (!isHalted &&
               stats_.instret - start_instret < max_instructions)
            stepSlow();
    }
    result.instret = stats_.instret - start_instret;
    result.cycles = stats_.cycles - start_cycles;
    result.halted = isHalted;
    result.exitCode = tohostValue;
    return result;
}

void
RocketCore::attachAccelerator(uint32_t slot, RoccAccelerator *accel)
{
    if (slot >= 2)
        fatal("RoCC slot %u out of range (custom-0/custom-1)", slot);
    rocc[slot] = accel;
}

void
mapStandardDevices(MmioBus &bus, RocketCore &core)
{
    bus.map(
        memmap::kUartTx, 8, nullptr,
        [&core](uint64_t, uint64_t value, uint32_t) {
            core.putChar(static_cast<char>(value & 0xff));
        },
        "uart");
    bus.map(
        memmap::kTohost, 8, nullptr,
        [&core](uint64_t, uint64_t value, uint32_t) {
            core.haltRequest(value);
        },
        "tohost");
}

void
RocketCore::snapshotSave(Serializer &s) const
{
    s.putU(cfg.hartId);
    for (uint64_t r : x)
        s.putU(r);
    s.putU(pcReg);
    s.putB(isHalted);
    s.putU(tohostValue);
    s.putU(issueAccum);
    s.putStr(uartOut);
    s.putU(stats_.instret);
    s.putU(stats_.cycles);
    s.putU(stats_.loads);
    s.putU(stats_.stores);
    s.putU(stats_.branches);
    s.putU(stats_.takenBranches);
    s.putU(stats_.mmioAccesses);
}

} // namespace firesim
