/**
 * @file
 * AutoCounter-style periodic stat sampling (the FireSim follow-on
 * tooling's out-of-band performance-counter capture).
 *
 * The sampler attaches to the token fabric as an observer and, every N
 * target cycles, snapshots the whole StatRegistry into an in-memory
 * time series. Because the read happens between fabric rounds — on the
 * host side of the decoupling boundary — sampling is invisible to the
 * target: no target cycle is perturbed, matching the paper's token-
 * level out-of-band instrumentation discipline.
 *
 * Sample stamps are exact multiples of the period even when the period
 * is not a multiple of the round quantum: a sample due at cycle k*N is
 * taken at the end of the first round that covers it and stamped k*N.
 */

#ifndef FIRESIM_TELEMETRY_AUTO_COUNTER_HH
#define FIRESIM_TELEMETRY_AUTO_COUNTER_HH

#include <string>
#include <vector>

#include "net/fabric.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

class Serializer;

class AutoCounterSampler : public FabricObserver
{
  public:
    /**
     * @param registry stats to sample (must outlive the sampler)
     * @param period sampling period in target cycles (nonzero)
     */
    AutoCounterSampler(const StatRegistry &registry, Cycles period);

    /** Register with @p fabric and learn its round quantum. */
    void attachTo(TokenFabric &fabric);

    /** FabricObserver: sample at every period boundary the round crossed. */
    void onRoundEnd(Cycles round_start, uint64_t round) override;

    /** Take an immediate sample stamped @p at (checkpoint support). */
    void sampleNow(Cycles at);

    Cycles period() const { return per; }

    /** Column names, fixed at the first sample. */
    const std::vector<std::string> &columns() const { return cols; }

    struct Sample
    {
        Cycles at = 0;
        std::vector<double> values; //!< one per column
    };

    const std::vector<Sample> &series() const { return samples; }

    /**
     * Per-sample delta of column @p name against the previous sample —
     * the series the bandwidth/drop-rate curves are drawn from.
     * The first entry is the first sample's absolute value.
     */
    std::vector<double> deltaSeries(const std::string &name) const;

    /** CSV: "cycle,<col>,<col>,..." then one row per sample. */
    std::string csv() const;

    /** JSON: {"period": N, "columns": [...], "samples": [[at, v...]]}. */
    std::string json() const;

    /**
     * Serialize the accumulated series (columns + samples) and the
     * next-sample cursor, so restore can check that the replayed
     * series matches. Host-timing columns (isHostTimingStat) are
     * written as 0: they vary with the shard transport, not the
     * simulation. csv()/json() keep their real values.
     */
    void snapshotSave(Serializer &s) const;

  private:
    const StatRegistry &reg;
    Cycles per;
    Cycles quantum = 0; //!< learned from the fabric at attach
    Cycles nextAt;      //!< next sample's due cycle
    std::vector<std::string> cols;
    std::vector<Sample> samples;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_AUTO_COUNTER_HH
