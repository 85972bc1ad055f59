#include "telemetry/instr_trace.hh"

#include <algorithm>
#include <cstdio>

#include "base/logging.hh"
#include "base/varint.hh"
#include "snapshot/serial.hh"

namespace firesim
{

namespace
{

constexpr char kMagic[4] = {'F', 'S', 'I', 'T'}; //!< FireSim Instr Trace
constexpr uint32_t kVersion = 1;

} // namespace

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "alu";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::Branch: return "branch";
      case OpClass::Jump: return "jump";
      case OpClass::MulDiv: return "muldiv";
      case OpClass::System: return "system";
      case OpClass::Custom: return "custom";
    }
    return "?";
}

InstructionTrace::InstructionTrace(size_t capacity)
{
    if (capacity == 0)
        fatal("instruction trace ring capacity must be nonzero");
    ring.resize(capacity);
}

std::vector<TraceRecord>
InstructionTrace::drain()
{
    std::vector<TraceRecord> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    head = 0;
    count = 0;
    debug("instr-trace: drained %zu records (%llu dropped so far)",
          out.size(), (unsigned long long)overwritten);
    return out;
}

std::string
InstructionTrace::encodeCompressed() const
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putVarint(out, kVersion);
    putVarint(out, count);
    uint64_t prev_pc = 0;
    uint64_t prev_cycle = 0;
    for (size_t i = 0; i < count; ++i) {
        const TraceRecord &r = ring[(head + i) % ring.size()];
        putVarint(out, zigzag(static_cast<int64_t>(r.pc - prev_pc)));
        putVarint(out, r.cycle - prev_cycle);
        out.push_back(static_cast<char>(r.cls));
        prev_pc = r.pc;
        prev_cycle = r.cycle;
    }
    return out;
}

std::vector<TraceRecord>
InstructionTrace::decodeCompressed(const std::string &bytes)
{
    if (bytes.size() < sizeof(kMagic) ||
        bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
        panic("instruction trace stream has a bad magic header");
    size_t pos = sizeof(kMagic);
    uint64_t version = getVarint(bytes, pos);
    if (version != kVersion)
        panic("instruction trace version %llu unsupported",
              (unsigned long long)version);
    uint64_t n = getVarint(bytes, pos);
    std::vector<TraceRecord> out;
    out.reserve(n);
    uint64_t pc = 0;
    uint64_t cycle = 0;
    for (uint64_t i = 0; i < n; ++i) {
        pc += static_cast<uint64_t>(unzigzag(getVarint(bytes, pos)));
        cycle += getVarint(bytes, pos);
        if (pos >= bytes.size())
            panic("truncated instruction trace stream");
        uint8_t cls = static_cast<uint8_t>(bytes[pos++]);
        if (cls > static_cast<uint8_t>(OpClass::Custom))
            panic("corrupt opcode class %u in trace stream", cls);
        out.push_back(
            TraceRecord{pc, cycle, static_cast<OpClass>(cls)});
    }
    return out;
}

bool
InstructionTrace::writeCompressed(const std::string &path) const
{
    std::string bytes = encodeCompressed();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("cannot open '%s' for the instruction trace",
             path.c_str());
        return false;
    }
    size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (n != bytes.size()) {
        warn("short write of instruction trace to '%s'", path.c_str());
        return false;
    }
    return true;
}

std::vector<TraceRecord>
InstructionTrace::readCompressed(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        panic("cannot open instruction trace '%s'", path.c_str());
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return decodeCompressed(bytes);
}

void
HotnessProfile::add(const TraceRecord &rec)
{
    Cell &cell = cells[rec.pc];
    ++cell.commits;
    cell.cls = rec.cls;
    ++total_;
}

void
HotnessProfile::add(const std::vector<TraceRecord> &recs)
{
    for (const TraceRecord &r : recs)
        add(r);
}

std::vector<HotnessProfile::Entry>
HotnessProfile::top(size_t n) const
{
    std::vector<Entry> all;
    all.reserve(cells.size());
    for (const auto &kv : cells)
        all.push_back(Entry{kv.first, kv.second.commits, kv.second.cls});
    std::stable_sort(all.begin(), all.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.commits > b.commits;
                     });
    if (all.size() > n)
        all.resize(n);
    return all;
}

std::string
HotnessProfile::report(size_t n) const
{
    std::string out = csprintf(
        "Top-%zu hot PCs (%llu commits profiled)\n", n,
        (unsigned long long)total_);
    for (const Entry &e : top(n)) {
        double share =
            total_ ? 100.0 * static_cast<double>(e.commits) /
                         static_cast<double>(total_)
                   : 0.0;
        out += csprintf("  %#12llx  %10llu commits  %5.1f%%  %s\n",
                        (unsigned long long)e.pc,
                        (unsigned long long)e.commits, share,
                        opClassName(e.cls));
    }
    return out;
}

// ---- Checkpoint support ---------------------------------------------

void
InstructionTrace::snapshotSave(Serializer &s) const
{
    s.putU(ring.size());
    s.putU(committed_);
    s.putU(overwritten);
    s.putU(count);
    for (size_t i = 0; i < count; ++i) {
        const TraceRecord &r = ring[(head + i) % ring.size()];
        s.putU(r.pc);
        s.putU(r.cycle);
        s.putU(static_cast<uint64_t>(r.cls));
    }
}

} // namespace firesim
