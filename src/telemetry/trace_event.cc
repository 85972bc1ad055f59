#include "telemetry/trace_event.hh"

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

TraceEventSink::TraceEventSink(size_t max_events)
    : epoch(std::chrono::steady_clock::now()), maxEvents(max_events)
{
    if (max_events == 0)
        fatal("trace-event sink capacity must be nonzero");
}

uint32_t
TraceEventSink::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return static_cast<uint32_t>(i);
    names.push_back(name);
    return static_cast<uint32_t>(names.size() - 1);
}

double
TraceEventSink::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
TraceEventSink::complete(uint32_t name_id, const char *category,
                         double ts_us, double dur_us, uint32_t tid)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (events.size() >= maxEvents) {
        ++dropped;
        return;
    }
    FS_ASSERT(name_id < names.size(), "unknown span name id %u",
              name_id);
    events.push_back(Event{name_id, tid, category, ts_us, dur_us});
}

size_t
TraceEventSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return events.size();
}

uint64_t
TraceEventSink::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return dropped;
}

std::string
TraceEventSink::json() const
{
    std::lock_guard<std::mutex> lock(mtx);
    // The chrome://tracing "JSON object format": a traceEvents array
    // of complete events. pid is fixed (one simulator process); tid
    // separates the fabric lane from per-endpoint lanes.
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i];
        out += csprintf(
            "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
            i ? "," : "", jsonEscape(names[e.name]).c_str(), e.cat,
            e.tid, e.ts, e.dur);
    }
    out += "\n]}";
    return out;
}

bool
TraceEventSink::writeJson(const std::string &path) const
{
    std::string doc = json();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("cannot open '%s' for the chrome trace", path.c_str());
        return false;
    }
    size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (n != doc.size()) {
        warn("short write of chrome trace to '%s'", path.c_str());
        return false;
    }
    inform("chrome trace written to %s (%zu spans, %llu dropped); open "
           "via chrome://tracing or ui.perfetto.dev",
           path.c_str(), eventCount(), (unsigned long long)droppedEvents());
    return true;
}

HostProfiler::HostProfiler(TraceEventSink &sink) : sink(sink)
{
    roundName = sink.intern("fabric.round");
    defaultName = sink.intern("endpoint.advance");
}

void
HostProfiler::labelEndpoint(size_t idx, const std::string &name,
                            const char *category)
{
    if (labels.size() <= idx)
        labels.resize(idx + 1);
    labels[idx].name = sink.intern(name);
    labels[idx].cat = category;
}

void
HostProfiler::onAttach(TokenFabric &fabric)
{
    advanceT0s.resize(fabric.endpointCount(), 0.0);
}

void
HostProfiler::onRoundStart(Cycles round_start, uint64_t round)
{
    (void)round_start;
    (void)round;
    roundT0 = sink.nowUs();
}

void
HostProfiler::onRoundEnd(Cycles round_start, uint64_t round)
{
    (void)round_start;
    (void)round;
    sink.complete(roundName, "fabric", roundT0, sink.nowUs() - roundT0,
                  0);
}

void
HostProfiler::onAdvanceStart(size_t endpoint_idx, Cycles round_start)
{
    (void)round_start;
    FS_ASSERT(endpoint_idx < advanceT0s.size(),
              "profiler attached before endpoint %zu was registered",
              endpoint_idx);
    advanceT0s[endpoint_idx] = sink.nowUs();
}

void
HostProfiler::onAdvanceEnd(size_t endpoint_idx, Cycles round_start)
{
    (void)round_start;
    EndpointLabel label;
    if (endpoint_idx < labels.size())
        label = labels[endpoint_idx];
    else
        label.name = defaultName;
    double t0 = advanceT0s[endpoint_idx];
    sink.complete(label.name, label.cat, t0, sink.nowUs() - t0,
                  static_cast<uint32_t>(endpoint_idx) + 1);
}

void
SimRateTelemetry::beginPhase(const std::string &name, Cycles target_now)
{
    FS_ASSERT(!inPhase, "sim-rate phase '%s' still open when '%s' began",
              open.name.c_str(), name.c_str());
    open = Phase{name, target_now, 0.0, target_now};
    openAt = std::chrono::steady_clock::now();
    inPhase = true;
}

void
SimRateTelemetry::endPhase(Cycles target_now)
{
    FS_ASSERT(inPhase, "endPhase() with no open phase");
    FS_ASSERT(target_now >= open.targetCycles,
              "sim-rate phase ended before it began");
    open.hostSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - openAt)
                           .count();
    open.targetCycles = target_now - open.targetCycles;
    done.push_back(open);
    inPhase = false;
}

std::string
SimRateTelemetry::report(double freq_ghz) const
{
    Table t({"Phase", "Target cycles", "Host s", "Tcycles/host-s",
             "Slowdown (x)"});
    for (const Phase &p : done) {
        double rate = p.cyclesPerHostSecond();
        // Slowdown: host seconds per target second at freq_ghz.
        double slowdown = rate > 0.0 ? freq_ghz * 1e9 / rate : 0.0;
        t.addRow({p.name, Table::fmt(p.targetCycles, 0),
                  Table::fmt(p.hostSeconds, 3),
                  Table::fmt(rate / 1e3, 1) + "k",
                  Table::fmt(slowdown, 1)});
    }
    return t.render();
}

} // namespace firesim
