/**
 * @file
 * TracerV-style committed-instruction trace.
 *
 * The RISC-V core calls record() at every instruction commit with the
 * pc, an opcode class, and the core cycle. Records land in a
 * preallocated ring buffer — recording never allocates and never
 * touches target state, so the trace is out-of-band by construction:
 * enabling it changes no target-visible cycle (asserted by
 * tests/telemetry). When the ring fills, the oldest records are
 * overwritten and counted, exactly like TracerV's bounded DMA buffer.
 *
 * Draining happens on the host's schedule: drain() hands back the
 * retained records in commit order, encodeCompressed() delta+varint
 * packs them (~3-5 bytes/record for loopy code vs 17 raw) for the
 * to-disk sink, and HotnessProfile accumulates a top-N-PC report — the
 * poor man's flame graph the paper's out-of-band debugging story
 * enables.
 */

#ifndef FIRESIM_TELEMETRY_INSTR_TRACE_HH
#define FIRESIM_TELEMETRY_INSTR_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/units.hh"

namespace firesim
{

class Serializer;

/** Coarse committed-instruction classification (TracerV groups). */
enum class OpClass : uint8_t
{
    IntAlu = 0, //!< ALU / LUI / AUIPC / OP-IMM
    Load = 1,
    Store = 2,
    Branch = 3, //!< conditional branches
    Jump = 4,   //!< JAL / JALR
    MulDiv = 5,
    System = 6, //!< ECALL / EBREAK / fences
    Custom = 7, //!< RoCC custom-0/1
};

/** Printable name of @p cls ("load", "branch", ...). */
const char *opClassName(OpClass cls);

struct TraceRecord
{
    uint64_t pc = 0;
    uint64_t cycle = 0;
    OpClass cls = OpClass::IntAlu;

    bool
    operator==(const TraceRecord &o) const
    {
        return pc == o.pc && cycle == o.cycle && cls == o.cls;
    }
};

class InstructionTrace
{
  public:
    /** @param capacity ring size in records (nonzero). */
    explicit InstructionTrace(size_t capacity = 1 << 16);

    /**
     * Hot path: store one commit. No allocation, no branches beyond
     * the wrap check — the caller guards with a null-pointer test that
     * the compiler folds away when tracing is off.
     */
    void
    record(uint64_t pc, OpClass cls, Cycles cycle)
    {
        size_t slot = (head + count) % ring.size();
        if (count == ring.size()) {
            head = (head + 1) % ring.size();
            ++overwritten;
        } else {
            ++count;
        }
        ring[slot] = TraceRecord{pc, cycle, cls};
        ++committed_;
    }

    /** Records currently retained in the ring. */
    size_t size() const { return count; }
    size_t capacity() const { return ring.size(); }
    /** Total commits ever recorded (including overwritten ones). */
    uint64_t committed() const { return committed_; }
    /** Records lost to ring overflow. */
    uint64_t dropped() const { return overwritten; }

    /** Retained records in commit order; clears the ring. */
    std::vector<TraceRecord> drain();

    /**
     * Delta+LEB128 encoding of the retained records (does not drain):
     * a 16-byte header, then per record a zigzag pc delta, a cycle
     * delta, and the class byte. Deterministic: identical traces
     * encode to identical bytes, which is what the bit-identical
     * reproducibility test compares.
     */
    std::string encodeCompressed() const;

    /** Inverse of encodeCompressed(); panics on a corrupt stream. */
    static std::vector<TraceRecord> decodeCompressed(
        const std::string &bytes);

    /** Write encodeCompressed() to @p path; false on I/O failure. */
    bool writeCompressed(const std::string &path) const;

    /** Read a file written by writeCompressed(). */
    static std::vector<TraceRecord> readCompressed(
        const std::string &path);

    /**
     * Serialize the retained records in logical (commit) order plus
     * the lifetime counters. The physical ring offset is not saved: it
     * is not observable through drain() or encodeCompressed().
     */
    void snapshotSave(Serializer &s) const;

  private:
    std::vector<TraceRecord> ring;
    size_t head = 0;  //!< index of the oldest retained record
    size_t count = 0; //!< retained records
    uint64_t committed_ = 0;
    uint64_t overwritten = 0;
};

/**
 * Top-N-PC hotness accumulated from drained trace records. Feed it
 * every drain; report() renders the classic profile table.
 */
class HotnessProfile
{
  public:
    void add(const TraceRecord &rec);
    void add(const std::vector<TraceRecord> &recs);

    uint64_t total() const { return total_; }

    struct Entry
    {
        uint64_t pc = 0;
        uint64_t commits = 0;
        OpClass cls = OpClass::IntAlu; //!< class of the last commit seen
    };

    /** The @p n hottest PCs, most-committed first (ties by pc). */
    std::vector<Entry> top(size_t n) const;

    /** Rendered top-N table with per-PC commit share. */
    std::string report(size_t n) const;

  private:
    struct Cell
    {
        uint64_t commits = 0;
        OpClass cls = OpClass::IntAlu;
    };
    // pc -> cell; an ordered map keeps ranking ties deterministic.
    std::map<uint64_t, Cell> cells;
    uint64_t total_ = 0;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_INSTR_TRACE_HH
