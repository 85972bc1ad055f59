/**
 * @file
 * Span recorder for the perf benchmark's traced run.
 *
 * SpanTracer is a FabricObserver that times every fabric round from the
 * outside, through the public observer hooks only:
 *
 *   round    onRoundStart .. onRoundEnd
 *   prepare  onRoundStart .. first advance bracket of the round
 *   advance  first .. last advance bracket, split by endpoint class
 *            (switch vs blade) as the summed bracket durations;
 *            sliced switches are bracketed per slice by
 *            onSliceStart/onSliceEnd, including the serial begin phase
 *   commit   last advance bracket .. onRoundEnd
 *   barrier  onRoundEnd .. next onRoundStart (or finish()): the shard
 *            transport's round barrier, plus loop overhead
 *
 * Observers that were attached before the tracer run their onRoundStart
 * inside the previous round's barrier span and their onRoundEnd inside
 * the commit span.
 *
 * Spans stay in memory (one small record per round) and are written as
 * Chrome trace events when the run ends.
 *
 * Known artefact: attaching any observer switches TokenFabric to its
 * monitored path, where commitEndpoint() resolves each output port's
 * channel index with a linear scan. Traced prepare and commit time is
 * therefore not the untraced cost (see perfbench/README.md).
 */

#ifndef FIRESIM_PERFBENCH_SPAN_TRACE_HH
#define FIRESIM_PERFBENCH_SPAN_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hh"

namespace perfbench
{

class SpanTracer : public firesim::FabricObserver
{
  public:
    /** Summed span durations over every traced round, in seconds. */
    struct Totals
    {
        double round = 0.0;
        double prepare = 0.0;
        double advance = 0.0;
        double commit = 0.0;
        double barrier = 0.0;
        double switchAdvance = 0.0; //!< Σ switch brackets (all slices)
        double bladeAdvance = 0.0;  //!< Σ blade brackets
    };

    /** @p lane names this tracer's row in the Chrome trace (the shard
     *  rank when several fabrics are traced in one process). */
    explicit SpanTracer(uint32_t lane) : lane_(lane) {}

    void onAttach(firesim::TokenFabric &fabric) override;
    void onRoundStart(firesim::Cycles round_start, uint64_t round) override;
    void onAdvanceStart(size_t endpoint_idx,
                        firesim::Cycles round_start) override;
    void onAdvanceEnd(size_t endpoint_idx,
                      firesim::Cycles round_start) override;
    void onSliceStart(size_t endpoint_idx, int32_t slice,
                      firesim::Cycles round_start) override;
    void onSliceEnd(size_t endpoint_idx, int32_t slice,
                    firesim::Cycles round_start) override;
    void onRoundEnd(firesim::Cycles round_start, uint64_t round) override;

    /** Close the last round's barrier span. Call once, after the final
     *  run() returns. */
    void finish();

    Totals totals() const;

    /** Append this tracer's spans to @p out as comma-separated Chrome
     *  trace events, timestamps relative to @p epoch_ns. */
    void appendChromeEvents(std::string &out, int64_t epoch_ns) const;

    /** Start of the first traced round (steady clock, ns), or 0. */
    int64_t firstRoundNs() const
    {
        return rounds_.empty() ? 0 : rounds_.front().startNs;
    }

  private:
    /** One advance bracket's timestamps. Written only by the worker
     *  running that (endpoint, slice) unit, read by the driving thread
     *  after the round's advance phase; padded so concurrent workers
     *  never share a cache line. */
    struct alignas(64) Slot
    {
        int64_t start = 0; //!< 0 = did not run this round
        int64_t end = 0;
    };

    struct Round
    {
        int64_t startNs = 0;
        int64_t prepareNs = 0;
        int64_t advanceNs = 0;
        int64_t commitNs = 0;
        int64_t barrierNs = 0;
        int64_t switchNs = 0;
        int64_t bladeNs = 0;
    };

    size_t slotOf(size_t endpoint_idx, int32_t slice) const
    {
        // Monolithic endpoints own one slot; a sliced endpoint owns its
        // begin phase (slice -1) followed by one slot per slice.
        return slotBase_[endpoint_idx] + static_cast<size_t>(slice + 1);
    }

    uint32_t lane_;
    std::vector<size_t> slotBase_;
    std::vector<bool> slotIsSwitch_;
    std::vector<Slot> slots_;
    std::vector<Round> rounds_;
    int64_t roundEndNs_ = 0;
    bool barrierOpen_ = false;
};

} // namespace perfbench

#endif // FIRESIM_PERFBENCH_SPAN_TRACE_HH
