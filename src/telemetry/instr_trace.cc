#include "telemetry/instr_trace.hh"

#include "base/logging.hh"
#include "snapshot/serial.hh"

namespace firesim
{

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

// ---- State image ----------------------------------------------------

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
