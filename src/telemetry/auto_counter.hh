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
 * level out-of-band instrumentation discipline. It watches rounds only:
 * Cluster::run ends a fabric run(), whose last round is dense, at each
 * sampling round, so every component is caught up when it is read.
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

    bool watchesEndpoints() const override { return false; }
    /** FabricObserver: sample at every period boundary the round crossed. */
    void onRoundEnd(Cycles round_start, uint64_t round) override;

    /** Take an immediate sample stamped @p at. */
    void sampleNow(Cycles at);

    Cycles period() const { return per; }

    /** The stamp of the next periodic sample. */
    Cycles nextSampleAt() const { return nextAt; }

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

    /** CSV: "cycle,<col>,<col>,..." then one row per sample. Column
     *  names are RFC-4180 quoted (StatRegistry::csvField). */
    std::string csv() const;

    /**
     * Serialize the accumulated series (columns + samples) and the
     * next-sample cursor, so two runs' series compare byte for byte.
     * Host-timing columns (isHostTimingStat) are left out, names and
     * values: which of them exist and what they read depend on the
     * host (the shard transport, the decode cache), not on the
     * simulation. csv() keeps them.
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
