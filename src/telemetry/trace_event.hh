/**
 * @file
 * Host-time profiling with Chrome trace_event JSON export.
 *
 * FireSim's "as fast as the hardware allows" goal is unmeasurable
 * without knowing where host time goes per simulation round. This file
 * provides:
 *
 *  - TraceEventSink: an append-only buffer of complete ("ph":"X")
 *    spans serialized as a chrome://tracing / Perfetto-loadable JSON
 *    document. Span names are interned once so recording a span is an
 *    O(1) append of plain data.
 *  - ScopedSpan: RAII timer emitting one span.
 *  - HostProfiler: a FabricObserver that times every fabric round and
 *    every endpoint advance() (switch ticks, blade ticks) into a sink.
 *  - SimRateTelemetry: per-phase target-cycles/host-second accounting,
 *    so simulation-rate regressions show up as numbers, not vibes.
 *
 * Everything here observes the host clock only; attaching a profiler
 * never changes target-visible state (tested in tests/telemetry).
 */

#ifndef FIRESIM_TELEMETRY_TRACE_EVENT_HH
#define FIRESIM_TELEMETRY_TRACE_EVENT_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/fabric.hh"

namespace firesim
{

class TraceEventSink
{
  public:
    explicit TraceEventSink(size_t max_events = 1 << 20);

    /** Intern @p name; the returned id is what complete() takes. */
    uint32_t intern(const std::string &name);

    /** Microseconds of host time since the sink was created. */
    double nowUs() const;

    /**
     * Record one complete span. @p category must be a string with
     * static storage duration ("fabric", "switch", "blade", "phase").
     * Spans beyond the event cap are counted and discarded.
     * Thread-safe: the host profiler records spans from the fabric's
     * worker threads when parallel execution is enabled.
     */
    void complete(uint32_t name_id, const char *category, double ts_us,
                  double dur_us, uint32_t tid = 0);

    size_t eventCount() const;
    uint64_t droppedEvents() const;

    /** The chrome://tracing document: {"traceEvents": [...], ...}. */
    std::string json() const;

    /** Write json() to @p path; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    struct Event
    {
        uint32_t name = 0;
        uint32_t tid = 0;
        const char *cat = "";
        double ts = 0;
        double dur = 0;
    };

    std::chrono::steady_clock::time_point epoch;
    // Guards names/events/dropped: complete() may be called
    // concurrently from fabric worker threads (json()/writeJson() are
    // post-run and take it too, for TSan cleanliness).
    mutable std::mutex mtx;
    std::vector<std::string> names;
    std::vector<Event> events;
    size_t maxEvents;
    uint64_t dropped = 0;
};

/** RAII span: times its own lifetime into a sink. */
class ScopedSpan
{
  public:
    ScopedSpan(TraceEventSink &sink, uint32_t name_id,
               const char *category, uint32_t tid = 0)
        : sink(&sink), name(name_id), cat(category), tid(tid),
          startUs(sink.nowUs())
    {}

    ~ScopedSpan()
    {
        sink->complete(name, cat, startUs, sink->nowUs() - startUs, tid);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TraceEventSink *sink;
    uint32_t name;
    const char *cat;
    uint32_t tid;
    double startUs;
};

/**
 * Times fabric rounds and per-endpoint advances into a TraceEventSink.
 * Rounds land on tid 0 as "fabric.round"; endpoint advances land on
 * tid endpoint_idx+1 under the name/category given by labelEndpoint()
 * (the Cluster labels switches "switch" and blades "blade").
 */
class HostProfiler : public FabricObserver
{
  public:
    explicit HostProfiler(TraceEventSink &sink);

    /** Name the span emitted for endpoint @p idx; @p category must
     *  have static storage duration. */
    void labelEndpoint(size_t idx, const std::string &name,
                       const char *category);

    /** Presizes the per-endpoint advance timers (see below). */
    void onAttach(TokenFabric &fabric) override;

    void onRoundStart(Cycles round_start, uint64_t round) override;
    void onRoundEnd(Cycles round_start, uint64_t round) override;
    void onAdvanceStart(size_t endpoint_idx, Cycles round_start) override;
    void onAdvanceEnd(size_t endpoint_idx, Cycles round_start) override;

  private:
    struct EndpointLabel
    {
        uint32_t name = 0;
        const char *cat = "endpoint";
    };

    TraceEventSink &sink;
    uint32_t roundName;
    uint32_t defaultName;
    std::vector<EndpointLabel> labels;
    double roundT0 = 0;
    // One start-timestamp slot per endpoint, presized at attach time:
    // onAdvanceStart/onAdvanceEnd may run concurrently across endpoints
    // (fabric threading contract), but each endpoint's pair stays on
    // one thread, so disjoint slots need no locking.
    std::vector<double> advanceT0s;
};

/**
 * Target-cycles-per-host-second accounting, per named phase. Phases
 * must not nest; endPhase() closes the one beginPhase() opened.
 */
class SimRateTelemetry
{
  public:
    struct Phase
    {
        std::string name;
        Cycles targetCycles = 0;
        double hostSeconds = 0.0;
        /** Target cycle the phase began at — lets merged cross-shard
         *  traces align per-rank lanes on the simulated clock. */
        Cycles startCycle = 0;

        double
        cyclesPerHostSecond() const
        {
            return hostSeconds > 0.0
                       ? static_cast<double>(targetCycles) / hostSeconds
                       : 0.0;
        }
    };

    void beginPhase(const std::string &name, Cycles target_now);
    void endPhase(Cycles target_now);

    const std::vector<Phase> &phases() const { return done; }

    /**
     * Rendered report. @p freq_ghz converts cycle rate into the
     * paper's "simulation rate relative to target" (slowdown factor).
     */
    std::string report(double freq_ghz) const;

  private:
    std::vector<Phase> done;
    Phase open;
    std::chrono::steady_clock::time_point openAt;
    bool inPhase = false;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_TRACE_EVENT_HH
