/**
 * @file
 * The simulator's single observability spine (TracerV/AutoCounter
 * lineage): every component's counters register here under a
 * hierarchical dotted name ("cluster.switch0.packetsDropped"), and
 * every consumer — the AutoCounter sampler, the end-of-run JSON/CSV
 * dumps, checkpoint diffing — reads through the same registry instead
 * of growing private plumbing per experiment.
 *
 * Registration is non-owning: the registry holds probes (callables)
 * that read the live counter on demand, so registering costs nothing
 * on the component's hot path. The registry must not outlive the
 * components it observes (Cluster guarantees this by owning both).
 */

#ifndef FIRESIM_TELEMETRY_STAT_REGISTRY_HH
#define FIRESIM_TELEMETRY_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"

namespace firesim
{

/** One point-in-time reading of every registered stat, in name order. */
struct StatSnapshot
{
    /** Target cycle the snapshot was taken at. */
    Cycles at = 0;
    std::vector<std::pair<std::string, double>> values;

    /** Pointer to @p name's value, or nullptr when absent. */
    const double *find(const std::string &name) const;

    /** Value of @p name; panics when absent. */
    double value(const std::string &name) const;
};

/**
 * Element-wise `after - before`, matched by name. Both snapshots must
 * come from the same registry (identical name sets); the result's
 * cycle stamp is the elapsed cycles. This is the diff-between-
 * checkpoints primitive: dump a snapshot before and after a phase and
 * diff them to see exactly what that phase did.
 */
StatSnapshot diffSnapshots(const StatSnapshot &before,
                           const StatSnapshot &after);

/**
 * Escape @p s for embedding inside a JSON string literal: `"` and
 * `\` get backslash-escaped, control characters become `\n`/`\t`/...
 * or `\u00XX`. Every telemetry emitter (stat dumps, trace events,
 * heartbeats, flight recorder) routes strings through this.
 */
std::string jsonEscape(const std::string &s);

/**
 * True for a stat whose value depends on the host rather than the
 * simulation: the shard transport's `cluster.shard.*` subtree (its byte
 * counters follow kernel recv() chunk boundaries) and any name with a
 * `.host.` segment (host-side acceleration counters such as the decode
 * cache's hits and misses, which a cache-off run never records). Also
 * matches the merged cross-shard dump's `rankN.`-prefixed spelling.
 * Parity dumps and snapshot sections leave these values out.
 */
bool isHostTimingStat(std::string_view name);

class StatRegistry
{
  public:
    using Probe = std::function<double()>;

    /**
     * Register a generic probe under @p name. Names are dotted
     * hierarchical paths of printable-ASCII components (no spaces or
     * control characters; `"`/`\` are allowed — topology labels can
     * carry them — and the dumps escape them); duplicate or malformed
     * names are simulator bugs and panic.
     */
    void registerProbe(const std::string &name, Probe probe);

    /** Register a live Counter (non-owning). */
    void registerCounter(const std::string &name, const Counter &counter);

    /**
     * Register a Histogram as the derived scalars <name>.count,
     * <name>.mean, <name>.p50 and <name>.p99. The percentiles use
     * nearest-rank semantics (exact sample values, never interpolated
     * ones) so a dumped p99 is a value that actually occurred.
     */
    void registerHistogram(const std::string &name, const Histogram &hist);

    bool has(const std::string &name) const;
    size_t size() const { return probes.size(); }

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Read every stat now; @p at stamps the target cycle. */
    StatSnapshot snapshot(Cycles at = 0) const;

    /** One JSON object: {"cycle": N, "stats": {name: value, ...}}. */
    std::string dumpJson(Cycles at = 0) const;

    /** CSV with a header row ("stat,value") for spreadsheet import. */
    std::string dumpCsv(Cycles at = 0) const;

    /** Format @p v the way the dumps do (integers stay integral). */
    static std::string formatValue(double v);

    /** RFC-4180 CSV field quoting for stat names (commas/quotes are
     *  legal in names). Shared by dumpCsv and the cross-shard
     *  aggregator's mergedCsv so the two emit identical quoting. */
    static std::string csvField(const std::string &s);

  private:
    static void validateName(const std::string &name);

    // Ordered map: dumps and snapshots are deterministic in name order.
    std::map<std::string, Probe> probes;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_STAT_REGISTRY_HH
