#include "span_trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "switchmodel/switch.hh"

namespace perfbench
{

namespace
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
appendEvent(std::string &out, const char *name, uint32_t lane,
            int64_t start_ns, int64_t dur_ns)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  out.empty() ? "" : ",\n", name, lane,
                  static_cast<double>(start_ns) / 1e3,
                  static_cast<double>(dur_ns) / 1e3);
    out += buf;
}

} // namespace

void
SpanTracer::onAttach(firesim::TokenFabric &fabric)
{
    slotBase_.clear();
    slotIsSwitch_.clear();
    for (size_t i = 0; i < fabric.endpointCount(); ++i) {
        firesim::TokenEndpoint &ep = fabric.endpointAt(i);
        bool is_switch = dynamic_cast<firesim::Switch *>(&ep) != nullptr;
        uint32_t slices = ep.advanceSliceCount();
        size_t count = slices > 1 ? slices + 1 : 1;
        slotBase_.push_back(slotIsSwitch_.size());
        slotIsSwitch_.insert(slotIsSwitch_.end(), count, is_switch);
    }
    slots_.assign(slotIsSwitch_.size(), Slot{});
}

void
SpanTracer::onRoundStart(firesim::Cycles, uint64_t)
{
    int64_t now = nowNs();
    if (barrierOpen_)
        rounds_.back().barrierNs = now - roundEndNs_;
    barrierOpen_ = false;
    rounds_.push_back(Round{});
    rounds_.back().startNs = now;
}

void
SpanTracer::onAdvanceStart(size_t endpoint_idx, firesim::Cycles)
{
    slots_[slotOf(endpoint_idx, kBeginSlice)].start = nowNs();
}

void
SpanTracer::onAdvanceEnd(size_t endpoint_idx, firesim::Cycles)
{
    slots_[slotOf(endpoint_idx, kBeginSlice)].end = nowNs();
}

void
SpanTracer::onSliceStart(size_t endpoint_idx, int32_t slice,
                         firesim::Cycles)
{
    slots_[slotOf(endpoint_idx, slice)].start = nowNs();
}

void
SpanTracer::onSliceEnd(size_t endpoint_idx, int32_t slice, firesim::Cycles)
{
    slots_[slotOf(endpoint_idx, slice)].end = nowNs();
}

void
SpanTracer::onRoundEnd(firesim::Cycles, uint64_t)
{
    roundEndNs_ = nowNs();
    Round &r = rounds_.back();
    int64_t first = std::numeric_limits<int64_t>::max();
    int64_t last = 0;
    for (size_t s = 0; s < slots_.size(); ++s) {
        Slot &slot = slots_[s];
        if (slot.start == 0)
            continue;
        int64_t dur = slot.end - slot.start;
        (slotIsSwitch_[s] ? r.switchNs : r.bladeNs) += dur;
        first = std::min(first, slot.start);
        last = std::max(last, slot.end);
        slot.start = 0;
    }
    if (last == 0) // every endpoint was down: no advance phase
        first = last = roundEndNs_;
    r.prepareNs = first - r.startNs;
    r.advanceNs = last - first;
    r.commitNs = roundEndNs_ - last;
    barrierOpen_ = true;
}

void
SpanTracer::finish()
{
    if (barrierOpen_)
        rounds_.back().barrierNs = nowNs() - roundEndNs_;
    barrierOpen_ = false;
}

SpanTracer::Totals
SpanTracer::totals() const
{
    Totals t;
    for (const Round &r : rounds_) {
        t.prepare += static_cast<double>(r.prepareNs);
        t.advance += static_cast<double>(r.advanceNs);
        t.commit += static_cast<double>(r.commitNs);
        t.barrier += static_cast<double>(r.barrierNs);
        t.switchAdvance += static_cast<double>(r.switchNs);
        t.bladeAdvance += static_cast<double>(r.bladeNs);
    }
    t.round = t.prepare + t.advance + t.commit;
    for (double *v : {&t.round, &t.prepare, &t.advance, &t.commit,
                      &t.barrier, &t.switchAdvance, &t.bladeAdvance})
        *v /= 1e9;
    return t;
}

void
SpanTracer::appendChromeEvents(std::string &out, int64_t epoch_ns) const
{
    for (const Round &r : rounds_) {
        int64_t t = r.startNs - epoch_ns;
        int64_t round_ns = r.prepareNs + r.advanceNs + r.commitNs;
        appendEvent(out, "round", lane_, t, round_ns);
        appendEvent(out, "prepare", lane_, t, r.prepareNs);
        t += r.prepareNs;
        appendEvent(out, "advance", lane_, t, r.advanceNs);
        t += r.advanceNs;
        appendEvent(out, "commit", lane_, t, r.commitNs);
        t += r.commitNs;
        appendEvent(out, "barrier", lane_, t, r.barrierNs);
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"advance_by_class\",\"ph\":\"C\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"args\":"
                      "{\"switch_us\":%.3f,\"blade_us\":%.3f}}",
                      lane_,
                      static_cast<double>(r.startNs - epoch_ns) / 1e3,
                      static_cast<double>(r.switchNs) / 1e3,
                      static_cast<double>(r.bladeNs) / 1e3);
        out += buf;
    }
}

} // namespace perfbench
